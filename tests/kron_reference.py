"""Dense references for the simulation kernels, kept out of the package.

Every gate becomes its full-register 2^m x 2^m matrix built with ``np.kron``
(qubit 0 is the least significant bit, so the factor of qubit q sits in
position m-1-q), the depolarizing channel is the explicit Kraus sum over the
16 Pauli pairs, and a Pauli sum acts string by string.  Slow by design: the
point is independence from the local-gate kernel and the compiled Pauli form.
"""

from __future__ import annotations

import numpy as np

from corrvec.circuits import ONE_QUBIT_KINDS, Circuit, Gate
from corrvec.pauli import PauliSum, string_action

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
    angle = gate.angle if gate.slot is None else gate.scale * float(theta[gate.slot])
    if gate.kind in ONE_QUBIT_KINDS:
        return embed({gate.qubits[0]: one_qubit_matrix(gate.kind, angle)}, m)
    c, t = gate.qubits
    target = {"CX": "X", "CY": "Y", "CZ": "Z", "CPHASE": "PHASE"}[gate.kind]
    u = one_qubit_matrix(target, angle)
    return embed({c: P0}, m) + embed({c: P1, t: u}, m)


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


def depolarize_kraus(rho: np.ndarray, q1: int, q2: int, p2: float, m: int) -> np.ndarray:
    """(1 - p2) rho + p2/15 * sum of the 15 non-identity Pauli pairs."""
    acc = np.zeros_like(rho)
    for a in "IXYZ":
        for b in "IXYZ":
            pm = embed({q1: PAULI[a], q2: PAULI[b]}, m)
            acc += pm @ rho @ pm.conj().T
    return (1.0 - p2) * rho + (p2 / 15.0) * (acc - rho)


def run_density(circ: Circuit, theta=None, p2: float = 0.0) -> np.ndarray:
    dim = 1 << circ.width
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in circ.gates:
        u = gate_matrix(g, circ.width, theta)
        rho = u @ rho @ u.conj().T
        if len(g.qubits) == 2 and p2 > 0.0:
            rho = depolarize_kraus(rho, g.qubits[0], g.qubits[1], p2, circ.width)
    return rho


def apply_string(label: str, psi: np.ndarray) -> np.ndarray:
    """P|psi> for one string."""
    flip, phases = string_action(label)
    out = np.empty_like(psi, dtype=complex)
    out[np.arange(psi.shape[0]) ^ flip] = phases * psi
    return out


def apply_sum_loop(op: PauliSum, psi: np.ndarray) -> np.ndarray:
    """A|psi>, one string at a time."""
    dim = 1 << op.width
    out = np.zeros(dim, dtype=complex)
    idx = np.arange(dim)
    for label, coeff in op:
        flip, phases = string_action(label)
        out[idx ^ flip] += coeff * (phases * psi)
    return out
