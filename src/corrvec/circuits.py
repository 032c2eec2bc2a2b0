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
conj(U) on column qubit t.  A batch of statevectors or of density matrices,
such as the members of a slot's restriction, runs the same way: stored as
one contiguous (..., 2^m) or (..., 2^m, 2^m) array, its batch index acts as
extra most-significant qubits that no gate touches, and the depolarizing
channel acts on every member.

Slot restrictions
-----------------
A coordinate sweep needs each slot's output as a function of that slot's
angle t alone (``restrictions``).  Slot d's restriction starts from the
state before its first gate, advanced by one gate range per slot.  A gate
that reads the slot is R(sigma t) = exp(-i sigma t s / 2) for its Pauli
generator s and scale sigma; instead of applying it, every member of a
batch splits.  A statevector x splits into (x, -i s x), with weights
cos(sigma t / 2) and sin(sigma t / 2); a density matrix X into
1/2 (X + sXs), 1/2 (X - sXs) and i/2 (Xs - sX), with weights 1, cos(sigma t)
and sin(sigma t).  The output at any t is the batch summed with the
products of its members' weights.

The rest of the circuit reaches the batch in one of two ways.  A noiseless
circuit with one gate per slot and 2^m <= n_slots carries it as one
2^m x 2^m unitary S_d, the gates after slot d's gate: S_0 comes from one
run of those gates on the 2^m basis states, and each later slot peels the
next segment off, S_{d+1} = S_d G^-1 for G the gates after slot d's gate
up to and including slot d+1's, the last at its angle before the sweep
moves it.  Slot d's batch is then its split pair times S_d.  Peeling costs
about 2^m vector steps per gate where a suffix run costs about n_slots, so
wider registers, and density matrices, whose 16^m suffix superoperator
cannot be peeled stably, run the rest of the circuit on each slot's split
batch instead.

Noise
-----
The two-qubit depolarizing channel of strength p2 follows every two-qubit
gate, on that gate's pair; single-qubit gates are noiseless.  It is the
local map (1 - 16 p2/15) rho + (16 p2/15) tr_pair(rho) (x) I/4, with the
partial trace taken over the pair's axes of the reshaped density matrix.

Estimators
----------
Every number the method reads off a device is a weighted sum of per-string
estimates.  A string's exact value is computed at each noise level: <P> on
the statevector without noise, tr(rho P) on the density matrix of each level
with it (p2, then boost * p2 under ZNE).  For an overlap <psi1|P|psi2> the
values are the two ancilla readings of the Hadamard test, Re and then -Im of
the overlap.  Under noise only the test's prefix is simulated, and the
string's controlled-P suffix and readout are taken in closed form.  The
readout is tr(O rho) for O = 2 |0><1| (x) I on (ancilla, register).  Each
pair channel is covariant: a mixture of conjugations by the pair's Pauli
strings, it commutes with every unitary on the pair, is its own adjoint and
maps an operator A to (1 - c) A + c tr_pair(A) (x) I/4, c = 16 p2/15.  O is
traceless in the ancilla, so pulled back through the suffix each channel
only scales it by 1 - c, and each controlled letter s turns 2 |0><1| (x) Q
into 2 |0><1| (x) Q s.  A string of weight |P| thus reads
2 (1 - c)^|P| tr(P rho_10), for rho_10 = rho[2^m:, :2^m] the prefix's
off-diagonal ancilla block: one string-table read per level.

``_estimate`` turns one string's values into one number: in sampled mode a
binomial draw of ``shots`` per level, then zero-noise extrapolation when
there are two levels.  Seeded runs depend on the draw order: strings in
sorted label order (an expectation's identity string takes no draw), p2
before boost * p2, and for an overlap the real part before the imaginary
part.  Exact noiseless estimates skip the per-string step and apply the
whole operator at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .pauli import PauliSum, apply_sum, string_overlaps, string_traces

ONE_QUBIT_KINDS = frozenset({"H", "X", "PHASE", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CX", "CY", "CZ"})
ROTATION_KINDS = frozenset({"PHASE", "RX", "RY", "RZ"})

# 2x2 matrices as row-major entries (u00, u01, u10, u11); a controlled gate
# acts on its target with the matrix of the kind it controls
_R = 1.0 / math.sqrt(2.0)
_ANGLELESS = {
    "H": (_R, _R, _R, -_R),
    "X": (0, 1, 1, 0),
    "Y": (0, -1j, 1j, 0),
    "Z": (1, 0, 0, -1),
}
_TARGET_KIND = {"CX": "X", "CY": "Y", "CZ": "Z"}


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


# the Pauli generator s of each rotation a slot may drive: R(t) = exp(-i t s/2)
_GENERATOR = {kind: _matrix(_ANGLELESS[s]) for kind, s in
              (("RX", "X"), ("RY", "Y"), ("RZ", "Z"))}


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


def apply_gates(states: np.ndarray, gates: Iterable[Gate],
                theta: np.ndarray | None = None) -> np.ndarray:
    """Run noiseless gates in place on a contiguous (..., 2^m) batch of
    statevectors, slot angles taken from ``theta``; returns ``states``."""
    for target, control, u in _fused(gates, theta):
        _apply(states, u, target, control)
    return states


def run_pure(circ: Circuit, theta: Sequence[float] | None = None) -> np.ndarray:
    """Noiseless statevector after the circuit, starting from |0...0>."""
    th = _check_theta(circ, theta)
    psi = np.zeros(1 << circ.width, dtype=complex)
    psi[0] = 1.0
    return apply_gates(psi, circ.gates, th)


def _mixing_weight(p2: float) -> float:
    """The weight c = 16 p2/15 that the depolarizing channel of strength p2
    moves to the maximally mixed pair; p2 must lie in [0, 15/16]."""
    if not 0.0 <= p2 <= 15.0 / 16.0:
        raise ValueError(f"p2={p2} outside [0, 15/16]")
    return 16.0 * p2 / 15.0


def depolarize_pair(rho: np.ndarray, q1: int, q2: int, p2: float, m: int) -> np.ndarray:
    """Two-qubit depolarizing channel on (q1, q2), for a density matrix or
    each of a (..., 2^m, 2^m) batch.

    Uniform conjugation by all 16 Pauli pairs averages the pair to the
    maximally mixed state, so the channel reduces to
    (1 - 16 p/15) rho + (16 p/15) tr_pair(rho) (x) I/4.  The partial trace
    sums the four pair-diagonal cells of rho viewed as a tensor whose last
    2m axes are the qubits: axis m-1-q of them is row qubit q and axis
    2m-1-q column qubit q.
    """
    if p2 == 0.0:
        return rho
    c = _mixing_weight(p2)
    shape = rho.shape[:-2] + (2,) * (2 * m)
    cells = []
    for x in (0, 1):
        for y in (0, 1):
            cell = [slice(None)] * (2 * m)
            cell[m - 1 - q1] = cell[2 * m - 1 - q1] = x
            cell[m - 1 - q2] = cell[2 * m - 1 - q2] = y
            cells.append((Ellipsis, *cell))
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
    """Apply the gates to a contiguous density matrix, or (..., 2^m, 2^m)
    batch of them, each two-qubit gate followed by the depolarizing channel
    of strength p2."""
    m = rho.shape[-1].bit_length() - 1
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


# ---------------------------------------------------------------------------
# measurement and noise configuration


@dataclass(frozen=True)
class NoiseModel:
    enabled: bool = False
    p2: float = 1e-3
    boost: float = 2.0
    zne: bool = True

    def __post_init__(self):
        _mixing_weight(self.p2)  # refuses a p2 the channel cannot take
        if self.boost <= 1.0:
            raise ValueError("boost factor must exceed 1")
        if self.enabled and self.zne and self.boost * self.p2 > 15.0 / 16.0:
            raise ValueError("boosted p2 exceeds the channel's valid range")


@dataclass(frozen=True)
class MeasurementSettings:
    mode: str = "exact"
    shots: int = 1_000_000
    seed: int = 7

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if not 1 <= self.shots < 2**63:  # the binomial draw takes an int64
            raise ValueError("shots must be positive and below 2**63")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def make_rng(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *extra]))


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


# ---------------------------------------------------------------------------
# slot restrictions


@dataclass
class Restriction:
    """One circuit's output as a function of one slot's angle: per entry of
    ``simulate``'s output, a batch split once by each of the slot's gates,
    whose ``scales`` are listed in gate order, the last split outermost."""

    batches: list[np.ndarray]
    scales: tuple[float, ...]
    pure: bool

    def at(self, t: float) -> list[np.ndarray]:
        """The output with the slot at angle t, as ``simulate`` gives it."""
        w = None
        for sigma in self.scales:
            a = sigma * t
            part = np.array((math.cos(0.5 * a), math.sin(0.5 * a)) if self.pure
                            else (1.0, math.cos(a), math.sin(a)))
            w = part if w is None else np.multiply.outer(part, w).ravel()
        return [(w @ batch.reshape(len(w), -1)).reshape(batch.shape[1:])
                for batch in self.batches]


def restrictions(circ: Circuit, theta: np.ndarray,
                 noise: NoiseModel) -> Iterator[Restriction]:
    """Each slot's restriction in turn, for one coordinate sweep.

    The state before slot d's first gate is kept per noise level and
    advanced with the angles ``theta`` holds when slot d is reached: the
    caller moves theta[d] in place before it asks for slot d + 1.  The
    rest of the circuit is the carried unitary or a suffix run per slot,
    by the rule of the module notes.  The slots' first gates must come in
    slot order, and every slotted gate must be an RX, RY or RZ.
    """
    _check_theta(circ, theta)
    gates = circ.gates
    where: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.slot is not None:
            if g.kind not in _GENERATOR:
                raise ValueError(f"slot {g.slot} drives a {g.kind}, not a rotation")
            where.setdefault(g.slot, []).append(i)
    if list(where) != list(range(circ.n_slots)):
        raise ValueError("the slots' first gates are not in slot order")
    levels = _noise_levels(noise) if noise.enabled else [None]
    dim = 1 << circ.width
    states = [np.zeros((dim,) if lvl is None else (dim, dim), dtype=complex)
              for lvl in levels]
    for state in states:
        state.flat[0] = 1.0
    carry = (not noise.enabled and dim <= circ.n_slots
             and all(len(at) == 1 for at in where.values()))
    rest = None  # the carried S_d
    done = 0
    for at in where.values():
        states = [_evolve(s, gates[done:at[0]], theta, lvl)
                  for s, lvl in zip(states, levels)]
        if not carry:
            batches = [_slot_suffix(s, gates, at, theta, lvl)
                       for s, lvl in zip(states, levels)]
        else:
            if rest is None:
                # row j of the run is S e_j
                rest = apply_gates(np.eye(dim, dtype=complex),
                                   gates[at[0] + 1:], theta).T.copy()
            else:
                # S G^-1 is conj(g) on S's rows, in forward order, with
                # this slot's gate at the angle it had when S was built
                for target, control, u in _fused(gates[done + 1:at[0] + 1], theta):
                    _apply(rest, u.conj(), target, control)
            batches = [_split(states[0][None], gates[at[0]], None) @ rest.T]
        done = at[0]
        yield Restriction(batches, tuple(gates[i].scale for i in at),
                          not noise.enabled)


def _evolve(states: np.ndarray, gates: Sequence[Gate], theta: np.ndarray,
            level: float | None) -> np.ndarray:
    """Run gates on a batch of statevectors without a noise level, else
    on density matrices with the channel at that level."""
    if level is None:
        return apply_gates(states, gates, theta)
    return _evolve_density(states, gates, theta, level)


def _slot_suffix(state: np.ndarray, gates: Sequence[Gate], at: list[int],
                 theta: np.ndarray, level: float | None) -> np.ndarray:
    """The restriction's batch: the gates from ``at[0]`` on run on
    ``state``, every member splitting at the gates indexed by ``at``."""
    batch = state[None]
    for i, j in zip(at, at[1:] + [len(gates)]):
        batch = _evolve(_split(batch, gates[i], level), gates[i + 1:j], theta, level)
    return batch


def _split(batch: np.ndarray, gate: Gate, level: float | None) -> np.ndarray:
    """Every member of ``batch`` split at the rotation ``gate`` (see the
    module notes), the new components outermost."""
    s = _GENERATOR[gate.kind]
    (q,) = gate.qubits
    if level is None:
        out = np.concatenate([batch, batch])
        sx = out[batch.shape[0]:]
        _apply(sx, s, q, None)
        sx *= -1j
        return out
    m = batch.shape[-1].bit_length() - 1
    sx, xs = batch.copy(), batch.copy()
    _apply(sx.reshape(-1), s, q + m, None)
    # right multiplication by s is s^T = conj(s) on the column qubit
    _apply(xs.reshape(-1), s.conj(), q, None)
    sxs = xs.copy()
    _apply(sxs.reshape(-1), s, q + m, None)
    return np.concatenate([0.5 * (batch + sxs), 0.5 * (batch - sxs),
                           0.5j * (xs - sx)])


def _estimate(values: Sequence[float], settings: MeasurementSettings,
              rng: np.random.Generator | None) -> float:
    """One string's estimate from its exact value at each noise level: a
    binomial draw per level when sampled, then ZNE when there are two."""
    if settings.mode == "sampled":
        values = [sample_z_value(v, settings.shots, rng) for v in values]
    return zne_extrapolate(*values) if len(values) == 2 else values[0]


def sample_pauli_expectation(circ: Circuit, theta, op: PauliSum,
                             settings: MeasurementSettings,
                             noise: NoiseModel,
                             rng: np.random.Generator | None = None,
                             states: list[np.ndarray] | None = None) -> float:
    """<A> on the circuit's output state, honoring mode and noise.

    The identity component is added exactly and every other string goes
    through ``_estimate``.  ``states`` is the output of
    ``simulate(circ, theta, noise)`` when the caller already has it, so
    several operators can be estimated on one simulation.
    """
    if not op.is_hermitian():
        raise ValueError("expectation sampling requires a hermitian operator")
    if settings.mode == "sampled" and rng is None:
        rng = settings.make_rng()
    if states is None:
        states = simulate(circ, theta, noise)
    if not noise.enabled:
        if settings.mode == "exact":
            return expectation_from_state(states[0], op)
        tables = [string_overlaps(op, states[0], states[0])]
    else:
        tables = [string_traces(op, rho) for rho in states]
    # per string, its values at each level as Python floats, which the
    # scalar draw and ZNE handle faster than numpy scalars
    per_string = zip(*(vals.real.tolist() for _, vals in tables))
    total = 0.0
    for (_, x, z, coeff), values in zip(tables[0][0], per_string):
        # the identity (x = z = 0) sorts first; its value is exactly 1
        total += coeff.real * (_estimate(values, settings, rng) if x or z else 1.0)
    return float(total)


def expectation_from_state(psi: np.ndarray, op: PauliSum) -> float:
    val = np.vdot(psi, apply_sum(op, psi))
    assert abs(val.imag) <= 1e-10
    return float(val.real)


# ---------------------------------------------------------------------------
# controlled circuits and the ancilla overlap test


def make_controlled(circ: Circuit) -> Circuit:
    """Circuit on width+1 qubits applying ``circ`` when the top qubit is 1.

    The control is qubit ``circ.width``.  ``circ`` holds the gates
    ``build_hea`` emits: RX, RY and RZ rotations, bound or slotted, and CX.
    Controlled rotations split into two half-angle rotations around CNOTs,
    so slot bindings carry through with scaled angles.  Toffolis from
    controlled CNOTs are emitted decomposed.
    """
    m = circ.width
    anc = m
    out = Circuit(m + 1)
    out.n_slots = circ.n_slots
    for g in circ.gates:
        k = g.kind
        if k in ("RZ", "RY", "RX"):
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
            out.extend(ccx_gates(anc, g.qubits[0], g.qubits[1]))
        else:
            raise ValueError(f"cannot control gate kind {k!r}")
    return out


def _add_half(out: Circuit, kind: str, q: int, g: Gate, factor: float) -> None:
    if g.slot is None:
        out.add(kind, q, angle=factor * g.angle)
    else:
        out.add(kind, q, slot=g.slot, scale=factor * g.scale)


class OverlapEngine:
    """Estimates sums of overlaps <psi1| P |U2(theta)|0> for many strings.

    Without noise the overlaps are read off psi1 = U1|0> and U2(theta)|0>.
    With it, the Hadamard test's prefix (ancilla in |+>, controlled-U1 on
    the 0 branch, controlled-U2 on the 1 branch) runs once per noise level,
    and each string's controlled-P suffix and ancilla readout are taken in
    closed form (module notes): 2 (1 - c)^|P| tr(P rho_10), for rho_10 the
    prefix's off-diagonal ancilla block, c = 16 p2/15 and |P| the string's
    weight.  Re and -Im of that value are the ancilla readings at phase 0
    and pi/2.  ``u1`` is a bound circuit.
    """

    def __init__(self, u1: Circuit, u2: Circuit,
                 settings: MeasurementSettings, noise: NoiseModel):
        if u1.width != u2.width:
            raise ValueError("register widths differ")
        self.m = u2.width
        self.settings = settings
        self.noise = noise
        self.psi1 = run_pure(u1)
        # the circuit whose output estimate_sum reads
        self.circuit = u2
        if noise.enabled:
            anc = self.m
            prefix = Circuit(self.m + 1)
            prefix.add("H", anc)
            prefix.add("X", anc)
            prefix.extend(make_controlled(u1).gates)
            prefix.add("X", anc)
            prefix.extend(make_controlled(u2).gates)
            self.circuit = prefix

    def estimate_sum(self, theta, op: PauliSum,
                     rng: np.random.Generator | None = None,
                     states: list[np.ndarray] | None = None) -> complex:
        """Sum of coeff * <psi1|P|psi2(theta)> over the strings of ``op``.

        ``states`` is the output of ``simulate(self.circuit, theta, noise)``
        when the caller already has it: U2(theta)|0> without noise, the
        ancilla prefix's density matrix per noise level with it.
        """
        if op.width != self.m:
            raise ValueError("operator width mismatch")
        settings = self.settings
        if settings.mode == "sampled" and rng is None:
            rng = settings.make_rng()
        if states is None:
            states = simulate(self.circuit, theta, self.noise)
        if not self.noise.enabled:
            if settings.mode == "exact":
                return complex(np.vdot(self.psi1, apply_sum(op, states[0])))
            strings, overlaps = string_overlaps(op, self.psi1, states[0])
            rows = overlaps[None, :]
        else:
            half = 1 << self.m
            tables = [string_traces(op, rho[half:, :half]) for rho in states]
            strings = tables[0][0]
            weight = np.array([(x | z).bit_count() for _, x, z, _ in strings])
            rows = np.array([2.0 * (1.0 - _mixing_weight(lvl)) ** weight * traces
                             for lvl, (_, traces) in
                             zip(_noise_levels(self.noise), tables)])
        total = 0.0 + 0j
        for (_, _, _, coeff), ws in zip(strings, zip(*rows.tolist())):
            z_re = _estimate([w.real for w in ws], settings, rng)
            z_im = _estimate([-w.imag for w in ws], settings, rng)
            total += coeff * complex(z_re, -z_im)
        return total
