"""Dense references for the simulation kernels and the estimators, kept
out of the package.

Every gate becomes its full-register 2^m x 2^m matrix built with ``np.kron``
(qubit 0 is the least significant bit, so the factor of qubit q sits in
position m-1-q), the depolarizing channel is the explicit Kraus sum over the
16 Pauli pairs, and a Pauli sum acts string by string through the dense
matrices of its letters.  Slow by design: the point is independence from the
local-gate kernel and from the mask form of ``corrvec.pauli``; the letter
product table here is the reference for the mask products.  The noisy
kernel runs on Pauli coefficients x_P = tr(P X); its reference is the dense
superoperator of a map on the basis of dense strings, taken in the order
the kernel documents.

The estimator references read each string's exact value off these dense
simulations (an overlap from the literal single-ancilla interference
circuit), then draw and extrapolate in the order the package documents:
strings in sorted label order, p2 before boost * p2, real before imaginary.
"""

from __future__ import annotations

import functools

import numpy as np

from corrvec.circuits import (ONE_QUBIT_KINDS, Circuit, Gate, _depolarize,
                              _mixing_weight, ccx_gates, sample_z_value,
                              zne_extrapolate)
from corrvec.pauli import PauliSum

# the letter of each value of a coefficient digit, x + 2 z
DIGIT_LETTERS = "IXZY"
EYE2 = np.eye(2, dtype=complex)
PAULI = {
    "I": EYE2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

# (a, b) -> (phase, c) with a.b = phase * c for single-qubit letters
PRODUCT = {
    ("I", "I"): (1.0, "I"), ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"), ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"), ("Y", "I"): (1.0, "Y"), ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"), ("Y", "Y"): (1.0, "I"), ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def multiply_strings(a: str, b: str) -> tuple[complex, str]:
    """Product of two Pauli strings letter by letter: a.b = phase * c."""
    if len(a) != len(b):
        raise ValueError("Pauli strings of unequal length")
    phase = 1.0 + 0j
    out = []
    for ca, cb in zip(a, b):
        ph, cc = PRODUCT[(ca, cb)]
        phase *= ph
        out.append(cc)
    return phase, "".join(out)


def multiply_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product of two sums, the double loop over their labels."""
    merged: dict[str, complex] = {}
    for la, ca in a:
        for lb, cb in b:
            phase, lc = multiply_strings(la, lb)
            merged[lc] = merged.get(lc, 0.0) + ca * cb * phase
    return PauliSum(a.width, merged)


def one_qubit_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "H":
        return H
    if kind in ("X", "Y", "Z"):
        return PAULI[kind]
    if kind == "PHASE":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    half = 0.5 * angle
    c, s = np.cos(half), np.sin(half)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)
    raise ValueError(f"not a one-qubit kind: {kind}")


def embed(factors: dict[int, np.ndarray], m: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for q in range(m - 1, -1, -1):
        out = np.kron(out, factors.get(q, EYE2))
    return out


def gate_matrix(gate: Gate, m: int, theta=None) -> np.ndarray:
    """Full-register unitary of one gate."""
    angle = gate.angle if gate.slot is None else float(theta[gate.slot])
    return _gate_matrix(gate.kind, gate.qubits, angle, m)


@functools.lru_cache(maxsize=256)
def _gate_matrix(kind: str, qubits: tuple, angle, m: int) -> np.ndarray:
    """The full-register unitary, built once per gate and angle and shared
    read-only, as the literal circuits repeat their gates."""
    if kind in ONE_QUBIT_KINDS:
        out = embed({qubits[0]: one_qubit_matrix(kind, angle)}, m)
    else:
        c, t = qubits
        out = embed({c: P0}, m) + embed({c: P1, t: PAULI["X"]}, m)
    out.flags.writeable = False
    return out


def circuit_unitary(circ: Circuit, theta=None) -> np.ndarray:
    u = np.eye(1 << circ.width, dtype=complex)
    for g in circ.gates:
        u = gate_matrix(g, circ.width, theta) @ u
    return u


def run_pure(circ: Circuit, theta=None) -> np.ndarray:
    psi = np.zeros(1 << circ.width, dtype=complex)
    psi[0] = 1.0
    for g in circ.gates:
        psi = gate_matrix(g, circ.width, theta) @ psi
    return psi


@functools.lru_cache(maxsize=None)
def _pauli_pairs(q1: int, q2: int, m: int) -> tuple[np.ndarray, ...]:
    """The 16 Pauli pairs on (q1, q2) as dense matrices, built once and
    shared read-only."""
    pairs = tuple(embed({q1: PAULI[a], q2: PAULI[b]}, m)
                  for a in "IXYZ" for b in "IXYZ")
    for pm in pairs:
        pm.flags.writeable = False
    return pairs


def depolarize_kraus(rho: np.ndarray, q1: int, q2: int, p2: float, m: int) -> np.ndarray:
    """(1 - p2) rho + p2/15 * sum of the 15 non-identity Pauli pairs."""
    acc = np.zeros_like(rho)
    for pm in _pauli_pairs(q1, q2, m):
        acc += pm @ rho @ pm.conj().T
    return (1.0 - p2) * rho + (p2 / 15.0) * (acc - rho)


@functools.lru_cache(maxsize=None)
def pauli_basis(m: int) -> np.ndarray:
    """The 4^m dense strings of m qubits in the order of a coefficient
    vector: string j has letter DIGIT_LETTERS[digit q of j in base 4] on
    qubit q.  Shared read-only."""
    basis = np.array([embed({q: PAULI[DIGIT_LETTERS[j >> 2 * q & 3]] for q in range(m)}, m)
                      for j in range(4 ** m)])
    basis.flags.writeable = False
    return basis


def pauli_vector(mat: np.ndarray) -> np.ndarray:
    """tr(P X) for every string P, for a matrix X or each of a batch."""
    m = mat.shape[-1].bit_length() - 1
    return np.einsum("pij,...ji->...p", pauli_basis(m), mat)


def from_pauli_vector(vec: np.ndarray) -> np.ndarray:
    """The matrix X = 2^-m sum_P x_P P of a coefficient vector, or of each
    of a batch."""
    m = (vec.shape[-1].bit_length() - 1) // 2
    return np.einsum("...p,pij->...ij", vec, pauli_basis(m)) / (1 << m)


def superoperator(channel, m: int) -> np.ndarray:
    """The 4^m x 4^m matrix of a linear map on m-qubit matrices acting on
    coefficient vectors: column Q is the coefficients of channel(Q) / 2^m."""
    basis = pauli_basis(m)
    images = np.array([channel(p) for p in basis])
    # entry (P, Q) is tr(P channel(Q)), summed over both matrix indices
    return (basis.reshape(len(basis), -1) @ images.transpose(0, 2, 1).reshape(len(basis), -1).T
            / (1 << m))


def depolarize_pair(rho: np.ndarray, q1: int, q2: int, p2, m: int) -> np.ndarray:
    """The package's two-qubit depolarizing channel on (q1, q2), for a
    density matrix or each of a (..., 2^m, 2^m) batch, applied to its
    coefficients.  ``p2`` is one strength, or one per noise level of a
    (..., levels, 2^m, 2^m) batch."""
    c = _mixing_weight(p2)
    return from_pauli_vector(_depolarize(pauli_vector(rho), q1, q2, c))


def run_density(circ: Circuit, theta=None, p2: float = 0.0) -> np.ndarray:
    dim = 1 << circ.width
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return evolve_density(circ, rho, theta, p2)


def evolve_density(circ: Circuit, rho: np.ndarray, theta=None, p2: float = 0.0) -> np.ndarray:
    """Any 2^m x 2^m matrix taken through the noisy circuit."""
    for g in circ.gates:
        u = gate_matrix(g, circ.width, theta)
        rho = u @ rho @ u.conj().T
        if len(g.qubits) == 2 and p2 > 0.0:
            rho = depolarize_kraus(rho, g.qubits[0], g.qubits[1], p2, circ.width)
    return rho


def string_matrix(label: str) -> np.ndarray:
    """Dense matrix of one Pauli string."""
    return embed({q: PAULI[ch] for q, ch in enumerate(label)}, len(label))


def sum_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum, string by string."""
    out = np.zeros((1 << op.width,) * 2, dtype=complex)
    for label, coeff in op:
        out += coeff * string_matrix(label)
    return out


def apply_string(label: str, psi: np.ndarray) -> np.ndarray:
    """P|psi> for one string."""
    return string_matrix(label) @ psi


def apply_sum_loop(op: PauliSum, psi: np.ndarray) -> np.ndarray:
    """A|psi>, one string at a time."""
    out = np.zeros(1 << op.width, dtype=complex)
    for label, coeff in op:
        out += coeff * apply_string(label, psi)
    return out


def two_qubit_count(circ: Circuit) -> int:
    return sum(1 for g in circ.gates if len(g.qubits) == 2)


def assert_valid_state(psi: np.ndarray, tol: float = 1e-10) -> None:
    norm = float(np.linalg.norm(psi))
    assert abs(norm - 1.0) <= tol, f"state norm {norm} deviates from 1"


def assert_valid_density(rho: np.ndarray, tol: float = 1e-10) -> None:
    assert abs(np.trace(rho).real - 1.0) <= tol, "density trace deviates from 1"
    assert abs(np.trace(rho).imag) <= tol
    assert np.max(np.abs(rho - rho.conj().T)) <= tol, "density not hermitian"
    assert np.linalg.eigvalsh(rho).min() >= -tol, "density not positive"


def make_controlled(circ: Circuit) -> Circuit:
    """The literal controlled circuit on width + 1 qubits: ``circ`` applied
    when the top qubit, ``circ.width``, is 1.

    ``circ`` is bound and holds the gates ``build_hea`` emits.  A
    controlled rotation is two half-angle rotations around two CNOTs from
    the control (RX through H RZ H), a controlled CX the Toffoli of
    ``ccx_gates``.
    """
    if circ.n_slots:
        raise ValueError("bind the circuit's angles first")
    anc = circ.width
    out = Circuit(circ.width + 1)
    for g in circ.gates:
        if g.kind in ("RX", "RY", "RZ"):
            (q,) = g.qubits
            inner = "RZ" if g.kind == "RX" else g.kind
            if g.kind == "RX":
                out.add("H", q)
            out.add(inner, q, angle=0.5 * g.angle)
            out.add("CX", anc, q)
            out.add(inner, q, angle=-0.5 * g.angle)
            out.add("CX", anc, q)
            if g.kind == "RX":
                out.add("H", q)
        elif g.kind == "CX":
            out.gates += ccx_gates(anc, *g.qubits)
        else:
            raise ValueError(f"cannot control gate kind {g.kind!r}")
    return out


def prefix_circuit(u1_bound: Circuit, u2_bound: Circuit, phi: float = 0.0) -> Circuit:
    """The literal Hadamard-test prefix on (register, ancilla): the ancilla
    in |+> with phase phi, controlled-U1 on its 0 branch and controlled-U2
    on its 1 branch.  Its block rho[2^m:, :2^m] is what ``OverlapEngine``
    evolves."""
    anc = u1_bound.width
    circ = Circuit(anc + 1)
    circ.add("H", anc)
    circ.add("PHASE", anc, angle=phi)
    circ.add("X", anc)
    circ.gates += make_controlled(u1_bound).gates
    circ.add("X", anc)
    circ.gates += make_controlled(u2_bound).gates
    return circ


def overlap_circuit(u1_bound: Circuit, u2_bound: Circuit, label: str,
                    phi: float) -> Circuit:
    """Literal single-ancilla interference circuit for one Pauli string.

    Measuring Z on the ancilla of the output state gives
    Re(exp(i phi) <0|U1' P U2|0>).  Each controlled letter is a CX from
    the ancilla in the letter's basis: Z = H X H and Y = S X S+.
    """
    anc = u1_bound.width
    circ = prefix_circuit(u1_bound, u2_bound, phi)
    for q, ch in enumerate(label):
        if ch == "X":
            circ.add("CX", anc, q)
        elif ch == "Z":
            circ.add("H", q)
            circ.add("CX", anc, q)
            circ.add("H", q)
        elif ch == "Y":
            circ.add("PHASE", q, angle=-np.pi / 2)
            circ.add("CX", anc, q)
            circ.add("PHASE", q, angle=np.pi / 2)
    circ.add("H", anc)
    return circ


def ancilla_z(state_or_rho: np.ndarray) -> float:
    """<Z> on the most significant qubit."""
    if state_or_rho.ndim == 1:
        probs = np.abs(state_or_rho) ** 2
    else:
        probs = np.diag(state_or_rho).real
    half = probs.shape[0] // 2
    return float(probs[:half].sum() - probs[half:].sum())


def _levels(noise) -> list:
    """Noise strengths the estimators read, None for the noiseless state."""
    if not noise.enabled:
        return [None]
    return [noise.p2, noise.boost * noise.p2] if noise.zne else [noise.p2]


def _simulate(circ: Circuit, theta, level) -> np.ndarray:
    th = theta if circ.n_slots else None
    return run_pure(circ, th) if level is None else run_density(circ, th, p2=level)


def _draw(values: list[float], settings, noise, rng) -> float:
    if settings.mode == "sampled":
        values = [sample_z_value(v, settings.shots, rng) for v in values]
    return zne_extrapolate(*values, noise.boost) if len(values) == 2 else values[0]


def estimate_expectation(circ: Circuit, theta, op: PauliSum, settings, noise,
                         rng) -> float:
    """Reference for ``sample_pauli_expectation``: <P> or tr(rho P) of each
    non-identity string from the dense states, drawn and extrapolated."""
    states = [_simulate(circ, theta, lvl) for lvl in _levels(noise)]
    ident = "I" * op.width
    terms = dict(op)
    total = terms.get(ident, 0.0).real
    for label in sorted(terms):
        if label == ident:
            continue
        p = string_matrix(label)
        values = [float(np.vdot(st, p @ st).real) if st.ndim == 1
                  else float(np.trace(st @ p).real) for st in states]
        total += terms[label].real * _draw(values, settings, noise, rng)
    return float(total)


def estimate_overlap(u1_bound: Circuit, u2: Circuit, theta, op: PauliSum,
                     settings, noise, rng) -> complex:
    """Reference for ``OverlapEngine.estimate_sum``: the ancilla readings of
    the literal interference circuit at phi = 0 and pi/2, Re(<P>) and
    -Im(<P>), per string and noise level, drawn and extrapolated."""
    u2_bound = u2.bound(theta if u2.n_slots else [])
    terms = dict(op)
    total = 0.0 + 0j
    for label in sorted(terms):
        parts = []
        for phi in (0.0, np.pi / 2):
            circ = overlap_circuit(u1_bound, u2_bound, label, phi)
            values = [ancilla_z(_simulate(circ, None, lvl))
                      for lvl in _levels(noise)]
            parts.append(_draw(values, settings, noise, rng))
        total += terms[label] * complex(parts[0], -parts[1])
    return total

