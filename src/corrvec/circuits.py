"""Gate-level simulation: statevectors, density matrices, noise, overlaps.

Conventions
-----------
Qubit 0 is the least significant bit of a basis index, so the dense matrix
of a one-qubit gate on qubit q is ``kron(I, ..., U, ..., I)`` with U in
position m-1-q.  Rz(t) = diag(exp(-it/2), exp(+it/2)), PHASE(p) =
diag(1, exp(ip)).  Three-qubit gates never reach the simulator; builders
emit their one- and two-qubit decompositions.

Kernel
------
No full-register matrix is built.  A gate on target qubit t views the
statevector as shape (..., 2, 2^t) and mixes the two slices of the middle
axis in place with its 2x2 matrix; a controlled gate does the same on the
control=1 slice only.  Consecutive one-qubit gates on a qubit are first
multiplied into one 2x2 matrix.  A density matrix of m qubits runs through the same
kernel as a vector of 2m qubits: its row index supplies qubits m..2m-1 and
its column index qubits 0..m-1, so U rho U+ is U on row qubit t + m and
conj(U) on column qubit t.

Noise
-----
The two-qubit depolarizing channel of strength p2 follows every two-qubit
gate, on that gate's pair; single-qubit gates are noiseless.  It is the
local map (1 - 16 p2/15) rho + (16 p2/15) tr_pair(rho) (x) I/4, with the
partial trace taken over the pair's axes of the reshaped density matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliSum, apply_sum, string_overlaps, string_traces

ONE_QUBIT_KINDS = frozenset({"H", "X", "PHASE", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CX", "CY", "CZ", "CPHASE"})
ROTATION_KINDS = frozenset({"PHASE", "RX", "RY", "RZ", "CPHASE"})

# 2x2 matrices as row-major entries (u00, u01, u10, u11); a controlled gate
# acts on its target with the matrix of the kind it controls
_R = 1.0 / math.sqrt(2.0)
_ANGLELESS = {
    "H": (_R, _R, _R, -_R),
    "X": (0, 1, 1, 0),
    "Y": (0, -1j, 1j, 0),
    "Z": (1, 0, 0, -1),
}
_TARGET_KIND = {"CX": "X", "CY": "Y", "CZ": "Z", "CPHASE": "PHASE"}


@dataclass(frozen=True)
class Gate:
    """One gate application; angle is fixed or bound later via a slot."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None
    scale: float = 1.0


@dataclass
class Circuit:
    width: int
    gates: list[Gate] = field(default_factory=list)
    n_slots: int = 0

    def add(self, kind: str, *qubits: int, angle: float | None = None,
            slot: int | None = None, scale: float = 1.0) -> None:
        if kind in ONE_QUBIT_KINDS:
            arity = 1
        elif kind in TWO_QUBIT_KINDS:
            arity = 2
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{kind} qubits must be distinct: {qubits}")
        for q in qubits:
            if not 0 <= q < self.width:
                raise ValueError(f"qubit {q} outside register of width {self.width}")
        needs_angle = kind in ROTATION_KINDS
        if needs_angle and angle is None and slot is None:
            raise ValueError(f"{kind} requires an angle or a slot")
        if not needs_angle and (angle is not None or slot is not None):
            raise ValueError(f"{kind} takes no angle")
        self.gates.append(Gate(kind, tuple(qubits), angle, slot, scale))
        if slot is not None:
            self.n_slots = max(self.n_slots, slot + 1)

    def add_ccx(self, c1: int, c2: int, t: int) -> None:
        for g in ccx_gates(c1, c2, t):
            self.gates.append(g)

    def add_ccz(self, c1: int, c2: int, t: int) -> None:
        self.add("H", t)
        self.add_ccx(c1, c2, t)
        self.add("H", t)

    def add_controlled_pauli(self, control: int, label: str) -> None:
        """Controlled application of a Pauli string, one 2-qubit gate per site."""
        for q, ch in enumerate(label):
            if ch == "I":
                continue
            self.add({"X": "CX", "Y": "CY", "Z": "CZ"}[ch], control, q)

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.gates.append(g)
            if g.slot is not None:
                self.n_slots = max(self.n_slots, g.slot + 1)

    def bound(self, theta: Sequence[float]) -> "Circuit":
        """Copy with every slot resolved to a fixed angle."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_slots,):
            raise ValueError(f"expected {self.n_slots} angles, got {theta.shape}")
        out = Circuit(self.width)
        for g in self.gates:
            if g.slot is None:
                out.gates.append(g)
            else:
                out.gates.append(replace(g, angle=g.scale * float(theta[g.slot]),
                                         slot=None, scale=1.0))
        return out

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if len(g.qubits) == 2)


def ccx_gates(c1: int, c2: int, t: int) -> list[Gate]:
    """Toffoli as H, T and six CNOTs; verified unitary-equal in the test suite."""
    tp, tm = np.pi / 4, -np.pi / 4
    seq = [
        ("H", (t,), None), ("CX", (c2, t), None), ("PHASE", (t,), tm),
        ("CX", (c1, t), None), ("PHASE", (t,), tp), ("CX", (c2, t), None),
        ("PHASE", (t,), tm), ("CX", (c1, t), None), ("PHASE", (c2,), tp),
        ("PHASE", (t,), tp), ("H", (t,), None), ("CX", (c1, c2), None),
        ("PHASE", (c1,), tp), ("PHASE", (c2,), tm), ("CX", (c1, c2), None),
    ]
    return [Gate(k, q, a) for k, q, a in seq]


def _entries(kind: str, angle: float | None) -> tuple:
    fixed = _ANGLELESS.get(kind)
    if fixed is not None:
        return fixed
    if kind == "PHASE":
        return (1, 0, 0, cmath.exp(1j * angle))
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    if kind == "RX":
        return (c, -1j * s, -1j * s, c)
    if kind == "RY":
        return (c, -s, s, c)
    if kind == "RZ":
        e = cmath.exp(1j * half)
        return (e.conjugate(), 0, 0, e)
    raise ValueError(f"not a one-qubit kind: {kind}")


def _times(a: tuple, b: tuple) -> tuple:
    """Entries of the product a @ b."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _matrix(u: tuple) -> np.ndarray:
    return np.array(u, dtype=complex).reshape(2, 2)


def _fused(gates: Iterable[Gate], theta: np.ndarray | None):
    """(target, control or None, 2x2 matrix) per kernel step, angles bound.

    Runs of one-qubit gates on a qubit merge into one matrix, applied just
    before the next two-qubit gate touching that qubit or at the end.  Only
    noiseless one-qubit gates move, so the channel placement is unchanged.
    """
    pending: dict[int, tuple] = {}
    for g in gates:
        angle = g.angle if g.slot is None else g.scale * float(theta[g.slot])
        if len(g.qubits) == 1:
            q = g.qubits[0]
            u = _entries(g.kind, angle)
            prev = pending.get(q)
            pending[q] = u if prev is None else _times(u, prev)
            continue
        control, target = g.qubits
        for q in (control, target):
            if q in pending:
                yield q, None, _matrix(pending.pop(q))
        yield target, control, _matrix(_entries(_TARGET_KIND[g.kind], angle))
    for q, u in pending.items():
        yield q, None, _matrix(u)


def _apply(vec: np.ndarray, u: np.ndarray, target: int, control: int | None) -> None:
    """vec <- u on the target qubit (on the control=1 slice), in place.

    The view puts the target qubit on axis -2, so one broadcast matmul
    updates every amplitude pair; ``vec`` must be contiguous.
    """
    if control is None:
        w = vec.reshape(-1, 2, 1 << target)
    elif control > target:
        w = vec.reshape(-1, 2, 1 << (control - target - 1), 2, 1 << target)[:, 1]
    else:
        w = vec.reshape(-1, 2, 1 << (target - control - 1), 2,
                        1 << control)[:, :, :, 1].transpose(0, 2, 1, 3)
    np.matmul(u, w, out=w)


def run_pure(circ: Circuit, theta: Sequence[float] | None = None) -> np.ndarray:
    """Noiseless statevector after the circuit, starting from |0...0>."""
    th = _check_theta(circ, theta)
    psi = np.zeros(1 << circ.width, dtype=complex)
    psi[0] = 1.0
    for target, control, u in _fused(circ.gates, th):
        _apply(psi, u, target, control)
    return psi


def depolarize_pair(rho: np.ndarray, q1: int, q2: int, p2: float, m: int) -> np.ndarray:
    """Two-qubit depolarizing channel on (q1, q2).

    Uniform conjugation by all 16 Pauli pairs averages the pair to the
    maximally mixed state, so the channel reduces to
    (1 - 16 p/15) rho + (16 p/15) tr_pair(rho) (x) I/4.  The partial trace
    sums the four pair-diagonal cells of rho viewed as a 2m-axis tensor,
    whose axis m-1-q is row qubit q and axis 2m-1-q is column qubit q.
    """
    if p2 == 0.0:
        return rho
    if not 0.0 <= p2 <= 15.0 / 16.0:
        raise ValueError(f"p2={p2} outside [0, 15/16]")
    c = 16.0 * p2 / 15.0
    shape = (2,) * (2 * m)
    cells = []
    for x in (0, 1):
        for y in (0, 1):
            cell = [slice(None)] * (2 * m)
            cell[m - 1 - q1] = cell[2 * m - 1 - q1] = x
            cell[m - 1 - q2] = cell[2 * m - 1 - q2] = y
            cells.append(tuple(cell))
    t = rho.reshape(shape)
    reduced = t[cells[0]] + t[cells[1]] + t[cells[2]] + t[cells[3]]
    reduced *= 0.25 * c
    out = (1.0 - c) * rho
    o = out.reshape(shape)
    for cell in cells:
        o[cell] += reduced
    return out


def _check_theta(circ: Circuit, theta) -> np.ndarray | None:
    if circ.n_slots == 0:
        return None
    if theta is None:
        raise ValueError("circuit has free slots but no angles were given")
    th = np.asarray(theta, dtype=float)
    if th.shape != (circ.n_slots,):
        raise ValueError(f"expected {circ.n_slots} angles, got shape {th.shape}")
    return th


def _evolve_density(rho: np.ndarray, gates: Iterable[Gate],
                    theta: np.ndarray | None, p2: float) -> np.ndarray:
    """Apply the gates to a contiguous density matrix, each two-qubit gate
    followed by the depolarizing channel of strength p2."""
    m = rho.shape[0].bit_length() - 1
    for target, control, u in _fused(gates, theta):
        flat = rho.reshape(-1)
        _apply(flat, u, target + m, None if control is None else control + m)
        _apply(flat, u.conj(), target, control)
        if control is not None and p2 > 0.0:
            rho = depolarize_pair(rho, control, target, p2, m)
    return rho


def run_density(circ: Circuit, theta: Sequence[float] | None = None,
                p2: float = 0.0) -> np.ndarray:
    """Density matrix after the circuit with a depolarizing channel of
    strength p2 following every two-qubit gate."""
    th = _check_theta(circ, theta)
    dim = 1 << circ.width
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return _evolve_density(rho, circ.gates, th, p2)


def assert_valid_state(psi: np.ndarray, tol: float = 1e-10) -> None:
    norm = float(np.linalg.norm(psi))
    assert abs(norm - 1.0) <= tol, f"state norm {norm} deviates from 1"


def assert_valid_density(rho: np.ndarray, tol: float = 1e-10) -> None:
    assert abs(np.trace(rho).real - 1.0) <= tol, "density trace deviates from 1"
    assert abs(np.trace(rho).imag) <= tol
    assert np.max(np.abs(rho - rho.conj().T)) <= tol, "density not hermitian"
    assert np.linalg.eigvalsh(rho).min() >= -tol, "density not positive"


# ---------------------------------------------------------------------------
# measurement and noise configuration


@dataclass(frozen=True)
class NoiseModel:
    enabled: bool = False
    p2: float = 1e-3
    boost: float = 2.0
    zne: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p2 <= 15.0 / 16.0:
            raise ValueError(f"p2={self.p2} outside [0, 15/16]")
        if self.boost <= 1.0:
            raise ValueError("boost factor must exceed 1")
        if self.enabled and self.zne and self.boost * self.p2 > 15.0 / 16.0:
            raise ValueError("boosted p2 exceeds the channel's valid range")


@dataclass(frozen=True)
class MeasurementSettings:
    mode: str = "exact"
    shots: int = 1_000_000
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if self.shots < 1:
            raise ValueError("shots must be positive")

    def make_rng(self, *extra: int) -> np.random.Generator:
        base = 0 if self.seed is None else self.seed
        return np.random.default_rng(np.random.SeedSequence([base, *extra]))


def sample_z_value(z_exact: float, shots: int, rng: np.random.Generator) -> float:
    """Binomial estimate of an expectation value in [-1, 1]."""
    p0 = min(1.0, max(0.0, 0.5 * (1.0 + z_exact)))
    k = rng.binomial(shots, p0)
    return 2.0 * k / shots - 1.0


def zne_extrapolate(e_p: float, e_2p: float) -> float:
    """Zero-noise value from estimates at strengths p and 2p.

    Exponential decay gives E(0) = E(p)^2 / E(2p).  When the pair is
    inconsistent with a decaying exponential (sign change or vanishing
    denominator) fall back to Richardson, 2 E(p) - E(2p).
    """
    if abs(e_2p) > 1e-12 and e_p * e_2p > 0.0:
        return e_p * e_p / e_2p
    return 2.0 * e_p - e_2p


def _noise_levels(noise: NoiseModel) -> list[float]:
    if noise.zne:
        return [noise.p2, noise.boost * noise.p2]
    return [noise.p2]


def simulate(circ: Circuit, theta, noise: NoiseModel) -> list[np.ndarray]:
    """The circuit's output as the estimators read it: the statevector when
    noise is off, else one density matrix per noise level (p2, then
    boost * p2 under ZNE)."""
    if not noise.enabled:
        return [run_pure(circ, theta)]
    return [run_density(circ, theta, p2=lvl) for lvl in _noise_levels(noise)]


def sample_pauli_expectation(circ: Circuit, theta, op: PauliSum,
                             settings: MeasurementSettings,
                             noise: NoiseModel,
                             rng: np.random.Generator | None = None,
                             states: list[np.ndarray] | None = None) -> float:
    """<A> on the circuit's output state, honoring mode and noise.

    The identity component is added exactly; every other string is estimated
    independently.  With ZNE enabled each string is measured at p2 and
    boost*p2 and extrapolated before weighting.  ``states`` is the output of
    ``simulate(circ, theta, noise)`` when the caller already has it, so
    several operators can be estimated on one simulation.
    """
    if not op.is_hermitian():
        raise ValueError("expectation sampling requires a hermitian operator")
    if settings.mode == "sampled" and rng is None:
        rng = settings.make_rng()
    if states is None:
        states = simulate(circ, theta, noise)
    ident = "I" * op.width
    total = op.coefficient(ident).real
    if not noise.enabled:
        psi = states[0]
        if settings.mode == "exact":
            return expectation_from_state(psi, op)
        labels, zs = string_overlaps(op, psi, psi)
        for label, z in zip(labels, zs.real):
            if label != ident:
                total += op.coefficient(label).real * sample_z_value(
                    z, settings.shots, rng)
        return float(total)

    traces = [string_traces(op, rho) for rho in states]
    labels = traces[0][0]
    for s, label in enumerate(labels):
        if label == ident:
            continue
        ests = []
        for _, zs in traces:
            z = float(zs[s].real)
            if settings.mode == "sampled":
                z = sample_z_value(z, settings.shots, rng)
            ests.append(z)
        z_final = zne_extrapolate(*ests) if noise.zne else ests[0]
        total += op.coefficient(label).real * z_final
    return float(total)


def expectation_from_state(psi: np.ndarray, op: PauliSum) -> float:
    val = np.vdot(psi, apply_sum(op, psi))
    assert abs(val.imag) <= 1e-10
    return float(val.real)


# ---------------------------------------------------------------------------
# controlled circuits and the ancilla overlap test


def make_controlled(circ: Circuit) -> Circuit:
    """Circuit on width+1 qubits applying ``circ`` when the top qubit is 1.

    The control is qubit ``circ.width``.  Controlled rotations split into two
    half-angle rotations around CNOTs, so slot bindings carry through with
    scaled angles.  Toffolis from controlled CNOTs are emitted decomposed.
    """
    m = circ.width
    anc = m
    out = Circuit(m + 1)
    out.n_slots = circ.n_slots
    for g in circ.gates:
        k = g.kind
        if k == "H":
            (q,) = g.qubits
            out.add("RY", q, angle=-np.pi / 4)
            out.add("CZ", anc, q)
            out.add("RY", q, angle=np.pi / 4)
        elif k == "X":
            out.add("CX", anc, g.qubits[0])
        elif k == "PHASE":
            out.add("CPHASE", anc, g.qubits[0], angle=g.angle,
                    slot=g.slot, scale=g.scale)
        elif k in ("RZ", "RY", "RX"):
            (q,) = g.qubits
            if k == "RX":
                out.add("H", q)
            inner = "RZ" if k == "RX" else k
            _add_half(out, inner, q, g, +0.5)
            out.add("CX", anc, q)
            _add_half(out, inner, q, g, -0.5)
            out.add("CX", anc, q)
            if k == "RX":
                out.add("H", q)
        elif k == "CX":
            out.add_ccx(anc, g.qubits[0], g.qubits[1])
        elif k == "CZ":
            out.add_ccz(anc, g.qubits[0], g.qubits[1])
        else:
            raise ValueError(f"cannot control gate kind {k!r}")
    return out


def _add_half(out: Circuit, kind: str, q: int, g: Gate, factor: float) -> None:
    if g.slot is None:
        out.add(kind, q, angle=factor * g.angle)
    else:
        out.add(kind, q, slot=g.slot, scale=factor * g.scale)


def overlap_circuit(u1_bound: Circuit, u2: Circuit, label: str, phi: float) -> Circuit:
    """Literal single-ancilla interference circuit for one Pauli string.

    Measuring Z on the ancilla of the output state gives
    Re(exp(i phi) <0|U1' P U2|0>).
    """
    if u1_bound.n_slots:
        raise ValueError("u1 must be fully bound")
    m = u1_bound.width
    anc = m
    circ = Circuit(m + 1)
    circ.add("H", anc)
    circ.add("PHASE", anc, angle=phi)
    circ.add("X", anc)
    circ.extend(make_controlled(u1_bound).gates)
    circ.add("X", anc)
    cu2 = make_controlled(u2)
    circ.extend(cu2.gates)
    circ.n_slots = max(circ.n_slots, cu2.n_slots)
    circ.add_controlled_pauli(anc, label)
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


class OverlapEngine:
    """Estimates sums of overlaps <psi1| P |U2(theta)|0> for many strings.

    All strings of a weighted sum share one noisy prefix (ancilla prepared,
    controlled-U1 applied on the 0 branch, controlled-U2 on the 1 branch);
    only the controlled-P tail differs per string.  The phase gate selecting
    the real or imaginary part commutes with everything after the first
    Hadamard, so both parts come from one prefix as well.
    """

    def __init__(self, u1: Circuit, theta1, u2: Circuit,
                 settings: MeasurementSettings, noise: NoiseModel):
        if u1.width != u2.width:
            raise ValueError("register widths differ")
        self.m = u2.width
        self.settings = settings
        self.noise = noise
        self.u2 = u2
        u1_bound = u1.bound(theta1) if u1.n_slots else u1
        self.psi1 = run_pure(u1_bound)
        if noise.enabled:
            anc = self.m
            prefix = Circuit(self.m + 1)
            prefix.add("H", anc)
            prefix.add("X", anc)
            prefix.extend(make_controlled(u1_bound).gates)
            prefix.add("X", anc)
            cu2 = make_controlled(u2)
            prefix.extend(cu2.gates)
            prefix.n_slots = cu2.n_slots
            self.prefix = prefix

    def estimate_sum(self, theta, op: PauliSum,
                     rng: np.random.Generator | None = None,
                     psi2: np.ndarray | None = None) -> complex:
        """Sum of coeff * <psi1|P|psi2(theta)> over the strings of ``op``.

        Without noise, ``psi2`` may pass in U2(theta)|0> when the caller
        already simulated it; the noisy path always simulates its prefix.
        """
        if op.width != self.m:
            raise ValueError("operator width mismatch")
        settings, noise = self.settings, self.noise
        if settings.mode == "sampled" and rng is None:
            rng = settings.make_rng()
        if not noise.enabled:
            if psi2 is None:
                psi2 = run_pure(self.u2, theta)
            if settings.mode == "exact":
                return complex(np.vdot(self.psi1, apply_sum(op, psi2)))
            total = 0.0 + 0j
            labels, overlaps = string_overlaps(op, self.psi1, psi2)
            for label, c in zip(labels, overlaps):
                coeff = op.coefficient(label)
                z_re = sample_z_value(c.real, settings.shots, rng)
                z_im = sample_z_value(-c.imag, settings.shots, rng)
                total += coeff * complex(z_re, -z_im)
            return total

        levels = _noise_levels(noise)
        prefixes = [run_density(self.prefix, theta, p2=lvl) for lvl in levels]
        half = prefixes[0].shape[0] // 2
        total = 0.0 + 0j
        for label, coeff in sorted(op):
            suffix = Circuit(self.m + 1)
            suffix.add_controlled_pauli(self.m, label)
            block_traces = []
            for rho, lvl in zip(prefixes, levels):
                rho_s = _evolve_density(rho.copy(), suffix.gates, None, lvl)
                block_traces.append(np.trace(rho_s[half:, :half]))
            z_parts = []
            for phi, pick in ((0.0, lambda t: 2.0 * t.real),
                              (np.pi / 2, lambda t: -2.0 * t.imag)):
                ests = []
                for t in block_traces:
                    z = pick(t)
                    if settings.mode == "sampled":
                        z = sample_z_value(z, settings.shots, rng)
                    ests.append(z)
                z_parts.append(zne_extrapolate(*ests) if noise.zne else ests[0])
            total += coeff * complex(z_parts[0], -z_parts[1])
        return total
