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
control=1 slice only.  That is one small product per 2^(t+1) amplitudes, so
on a large batch a gate whose qubits all sit below bit 4 is instead one
matmul of the flat (-1, 2^(top+1)) view, top its highest qubit, with the
gate's block matrix on those low qubits.  Consecutive one-qubit gates on a
qubit are first multiplied into one 2x2 matrix.  A density matrix of m
qubits runs through the same kernel as a vector of 2m qubits: its row index
supplies qubits m..2m-1 and its column index qubits 0..m-1, so U rho U+ is U
on row qubit t + m and conj(U) on column qubit t; the column updates are
the ones on low qubits.  A batch of statevectors or of density matrices,
such as the members of a slot's restriction or the noise levels of one
circuit, runs the same way: stored as one contiguous (..., 2^m) or
(..., 2^m, 2^m) array, its batch index acts as extra most-significant
qubits that no gate touches, and the depolarizing channel acts on every
member.

Slot restrictions
-----------------
A coordinate sweep needs each slot's output as a function of that slot's
angle t alone (``restrictions``).  Slot d's restriction starts from the
state before its first gate, advanced by one gate range per slot.  Under
noise that state is one (levels, 2^m, 2^m) stack, so all noise levels run
in one batch, and a split puts its members outside the levels.  A gate
that reads the slot is R(sigma t) = exp(-i sigma t s / 2) for its Pauli
generator s and scale sigma; instead of applying it, every member of a
batch splits.  A statevector x splits into (x, -i s x), with weights
cos(sigma t / 2) and sin(sigma t / 2); a density matrix X into
1/2 (X + sXs), 1/2 (X - sXs) and i/2 (Xs - sX), with weights 1, cos(sigma t)
and sin(sigma t).  The output at any t is the batch summed with the
products of its members' weights.

The rest of the circuit reaches the batch in one of three ways.  A
noiseless circuit with one gate per slot and 2^m <= n_slots carries it as
one 2^m x 2^m unitary S_d, the gates after slot d's gate: S_0 comes from
one run of those gates on the 2^m basis states, and each later slot peels
the next segment off, S_{d+1} = S_d G^-1 for G the gates after slot d's
gate up to and including slot d+1's, the last at its angle before the sweep
moves it.  Slot d's batch is then its split pair times S_d.  Peeling costs
about 2^m vector steps per gate where a suffix run costs about n_slots, and
a density matrix's 16^m suffix superoperator cannot be peeled stably.

A noisy circuit with one gate per slot can be read in the Heisenberg
picture instead, when the caller names the operators it estimates on the
output.  At the start of the sweep one adjoint pass from the end of the
circuit pulls every non-identity string P of those operators back to
observables, at each noise level: a gate maps O to U+ O U, which is U+ on
O's row qubit and U^T on its column qubit, and the pair channel is its own
adjoint.  The identity needs no pass, the adjoint map being unital.  Every
slotted gate after slot d's gate belongs to a later slot, which the sweep
has not moved yet, so the angles of the pass still hold when slot d is
read.  The pass keeps its stack only at each slot's next two-qubit gate and
at the end of the circuit, depth + 1 stacks for ``build_hea``; slot d's
split batch runs through the noiseless one-qubit gates up to its stack, and
one matmul with it gives tr(member O) per member, level and string.  The
restriction then sums those values, not density matrices, with the
members' weights.

The pass costs about one observable step per string and gate, where the
suffix runs cost three member steps per gate after each slot's gate, and
it holds (stacks + 2) x levels x strings density-sized arrays where a
suffix run holds a few.  So a sweep pulls back only when strings x gates
is at most three times the suffix runs' gate steps, for ``build_hea``
about 1.5 strings per slot, and its arrays fit ``_PULL_BACK_ENTRIES``,
which leaves room for 6 strings at 7 qubits with ZNE and depth 2.  In a
timing scan of both paths at 4-6 qubits the pull-back was faster wherever
the rule chose it (CHANGES.md).  Every other circuit, the noisy overlap
prefix with its two gates per slot among them, runs the rest of the
circuit on each slot's split batch, and a restriction with operators reads
the densities it gives as their strings' values.

Noise
-----
The two-qubit depolarizing channel of strength p2 follows every two-qubit
gate, on that gate's pair; single-qubit gates are noiseless.  It is the
local map (1 - 16 p2/15) rho + (16 p2/15) tr_pair(rho) (x) I/4, with the
partial trace taken over the pair's axes of the reshaped density matrix.
On a stack of noise levels it takes one strength per level (p2, then
boost * p2 under ZNE), so all levels run as one batch with the arithmetic
of separate runs.

Estimators
----------
Every number the method reads off a device is a weighted sum of per-string
estimates.  A string's exact value is computed at each noise level: <P> on
the statevector without noise, tr(rho P) on the density matrix of each level
with it (p2, then boost * p2 under ZNE), gathered per operator by
``string_values``, or the values a pulled-back restriction gives at the
slot's angle.  For an overlap <psi1|P|psi2> the
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

One helper turns a read's values into its estimate, whatever the entry
point: the exact values of every string at every level form one (rows,
levels) array.  Sampled, each value is checked finite, clipped to [-1, 1]
and drawn from a binomial of ``shots``, all in one call; zero-noise
extrapolation then applies row by row when there are two levels, and the
coefficient times estimate is summed string by string in sorted label
order.  Seeded runs depend on the draw order: strings in sorted label order
(an expectation's identity string takes no draw), for an overlap the real
part before the imaginary part, and p2 before boost * p2.  Exact noiseless
estimates skip the per-string step and apply the whole operator at once.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .pauli import (PauliSum, apply_sum, string_matrices, string_overlaps,
                    string_traces)

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


# A gate whose qubits all sit below bit _BLOCK_BITS, on a batch of at least
# _BLOCK_MIN_SIZE amplitudes, takes the block path (module notes).  Both
# come from a timing scan of the two paths over register widths 1-6 and
# batch sizes 1-46 (CHANGES.md): from 512 amplitudes on, the block path was
# never more than 10% slower than the view for a gate below bit 4.
_BLOCK_BITS = 4
_BLOCK_MIN_SIZE = 512
_ONE_ZERO = np.array([1.0, 0.0], dtype=complex)


@functools.cache
def _block_source(target: int, control: int | None) -> np.ndarray:
    """For each entry of the transposed block matrix of a gate on qubits
    0..top, its index in (u00, u01, u10, u11, 1, 0): 1 on the diagonal
    where the control is 0, 0 where the gate links no pair.  Read-only, as
    every caller shares it."""
    top = target if control is None else max(target, control)
    dim = 2 << top
    src = np.full((dim, dim), 5)
    for j in range(dim):
        if control is not None and not j >> control & 1:
            src[j, j] = 4
            continue
        bit = j >> target & 1
        for out in (0, 1):
            src[j, j & ~(1 << target) | out << target] = 2 * out + bit
    src.flags.writeable = False
    return src


def _apply(vec: np.ndarray, u: np.ndarray, target: int, control: int | None) -> None:
    """vec <- u on the target qubit (on the control=1 slice), in place.

    A gate on low qubits of a large batch is one matmul with its block
    matrix (above).  Otherwise the view puts the target qubit on axis -2,
    so one broadcast matmul updates every amplitude pair.  ``vec`` must be
    contiguous.
    """
    top = target if control is None else max(target, control)
    if top < _BLOCK_BITS and vec.size >= _BLOCK_MIN_SIZE:
        src = _block_source(target, control)
        w = vec.reshape(-1, len(src))
        np.matmul(w, np.concatenate((u.ravel(), _ONE_ZERO))[src], out=w)
        return
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


def _mixing_weight(p2: float | Sequence[float]) -> np.ndarray:
    """The weight c = 16 p2/15 that the depolarizing channel of strength p2
    moves to the maximally mixed pair, for one strength or an array of
    them; each must lie in [0, 15/16]."""
    p2 = np.asarray(p2, dtype=float)
    if not np.all((0.0 <= p2) & (p2 <= 15.0 / 16.0)):
        raise ValueError(f"p2={p2} outside [0, 15/16]")
    return 16.0 * p2 / 15.0


def depolarize_pair(rho: np.ndarray, q1: int, q2: int, p2: float | Sequence[float],
                    m: int) -> np.ndarray:
    """Two-qubit depolarizing channel on (q1, q2), for a density matrix or
    each of a (..., 2^m, 2^m) batch.  ``p2`` is one strength, or one per
    noise level of a (..., levels, 2^m, 2^m) batch."""
    c = _mixing_weight(p2)
    return _depolarize(rho, q1, q2, c, m) if c.any() else rho


def _depolarize(rho: np.ndarray, q1: int, q2: int, c: np.ndarray, m: int) -> np.ndarray:
    """The channel step of ``depolarize_pair`` for mixing weights ``c``
    already checked, c broadcasting against ``rho.shape[:-2]``.

    Uniform conjugation by all 16 Pauli pairs averages the pair to the
    maximally mixed state, so the channel reduces to
    (1 - c) rho + c tr_pair(rho) (x) I/4.  The partial trace sums the four
    pair-diagonal cells of rho viewed as a tensor whose last 2m axes are
    the qubits: axis m-1-q of them is row qubit q and axis 2m-1-q column
    qubit q.
    """
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
    # one weight per level, broadcast over the qubit axes that remain
    reduced *= 0.25 * c.reshape(c.shape + (1,) * (2 * m - 4))
    out = (1.0 - c)[..., None, None] * rho
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
                    theta: np.ndarray | None,
                    p2: float | Sequence[float]) -> np.ndarray:
    """Apply the gates to a contiguous density matrix, or (..., 2^m, 2^m)
    batch of them, each two-qubit gate followed by the depolarizing channel
    of strength p2: one strength, or one per level of a
    (..., levels, 2^m, 2^m) batch.  The strengths are checked once, at
    the first channel."""
    m = rho.shape[-1].bit_length() - 1
    c = None
    for target, control, u in _fused(gates, theta):
        flat = rho.reshape(-1)
        _apply(flat, u, target + m, None if control is None else control + m)
        _apply(flat, u.conj(), target, control)
        if control is not None:
            if c is None:
                c = _mixing_weight(p2)
            if c.any():
                rho = _depolarize(rho, control, target, c, m)
    return rho


def run_density(circ: Circuit, theta: Sequence[float] | None = None,
                p2: float | Sequence[float] = 0.0) -> np.ndarray:
    """Density matrix after the circuit with a depolarizing channel of
    strength p2 following every two-qubit gate; for a sequence of
    strengths, a (levels, 2^m, 2^m) stack of them, all run as one batch."""
    th = _check_theta(circ, theta)
    dim = 1 << circ.width
    rho = np.zeros(np.shape(p2) + (dim, dim), dtype=complex)
    rho[..., 0, 0] = 1.0
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


def sample_z_value(z_exact, shots: int, rng: np.random.Generator):
    """Binomial estimates of expectation values in [-1, 1]: one value, or
    an array of them drawn in C order in one call, which gives the stream
    of one call per value.  A value just outside [-1, 1] is clipped, and a
    non-finite one anywhere is refused before any draw."""
    z = np.asarray(z_exact, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"cannot sample a non-finite expectation value {z_exact}")
    k = rng.binomial(shots, np.clip(0.5 * (1.0 + z), 0.0, 1.0))
    return 2.0 * k / shots - 1.0


def zne_extrapolate(e_p, e_2p):
    """Zero-noise values from estimates at strengths p and 2p, one pair or
    elementwise over arrays.

    Exponential decay gives E(0) = E(p)^2 / E(2p).  When a pair is
    inconsistent with a decaying exponential (sign change or vanishing
    denominator) fall back to Richardson, 2 E(p) - E(2p).
    """
    e_p, e_2p = np.asarray(e_p, dtype=float), np.asarray(e_2p, dtype=float)
    decays = (np.abs(e_2p) > 1e-12) & (e_p * e_2p > 0.0)
    return np.where(decays, e_p * e_p / np.where(decays, e_2p, 1.0),
                    2.0 * e_p - e_2p)[()]


def _noise_levels(noise: NoiseModel) -> list[float]:
    if noise.zne:
        return [noise.p2, noise.boost * noise.p2]
    return [noise.p2]


def simulate(circ: Circuit, theta, noise: NoiseModel) -> list[np.ndarray]:
    """The circuit's output as the estimators read it: the statevector when
    noise is off, else one density matrix per noise level (p2, then
    boost * p2 under ZNE), all levels run as one batch."""
    if not noise.enabled:
        return [run_pure(circ, theta)]
    return list(run_density(circ, theta, p2=_noise_levels(noise)))


# ---------------------------------------------------------------------------
# slot restrictions

# A noisy sweep pulls back only when the observables it holds, its stacks
# among them, fit in this many complex entries (16 MiB; module notes).
_PULL_BACK_ENTRIES = 1 << 20


@dataclass
class Restriction:
    """One circuit's output as a function of one slot's angle: a batch
    split once by each of the slot's gates, whose ``scales`` are listed in
    gate order, the last split outermost.  Each member is a statevector, a
    (levels, 2^m, 2^m) stack of density matrices, one per noise level, or,
    with ``reads``, the (levels, strings) values of the pulled-back strings
    (module notes).  Density matrices are read as the values of the
    strings of ``ops`` when there are any."""

    batch: np.ndarray
    scales: tuple[float, ...]
    pure: bool
    reads: tuple | None = None
    ops: tuple[PauliSum, ...] = ()

    def at(self, t: float) -> list[np.ndarray] | StringValues:
        """The output with the slot at angle t, as ``simulate`` gives it,
        or as ``string_values`` gives it when there are operators."""
        w = None
        for sigma in self.scales:
            a = sigma * t
            part = np.array((math.cos(0.5 * a), math.sin(0.5 * a)) if self.pure
                            else (1.0, math.cos(a), math.sin(a)))
            w = part if w is None else np.multiply.outer(part, w).ravel()
        out = (w @ self.batch.reshape(len(w), -1)).reshape(self.batch.shape[1:])
        if self.reads is not None:
            return StringValues(out, self.reads)
        if self.ops:
            return string_values(self.ops, list(out))
        return [out] if self.pure else list(out)


@dataclass(frozen=True)
class StringValues:
    """A noisy output as the estimators read it: ``values`` holds tr(rho P)
    per noise level (rows) for strings P (columns); ``reads`` holds, per
    operator, its strings in sorted label order and the columns of those
    after the identity."""

    values: np.ndarray
    reads: tuple

    def of(self, op: PauliSum):
        """``op``'s strings and the (strings, levels) values of those after
        the identity."""
        for known, strings, cols in self.reads:
            if known is op:
                return strings, self.values[:, cols].T
        raise ValueError("the output holds the values of other operators only: "
                         "a cost must read exactly its ops")


def string_values(ops: Sequence[PauliSum], states: list[np.ndarray]) -> StringValues:
    """The values tr(rho P) of every string P of the hermitian ``ops`` after
    the identity, on each noise level's density matrix of ``states``."""
    reads, blocks, n = [], [], 0
    for op in ops:
        tables = [string_traces(op, rho) for rho in states]
        strings = tables[0][0]
        ident = _has_identity(strings)
        blocks.append(np.array([vals.real[ident:] for _, vals in tables]))
        reads.append((op, strings, np.arange(n, n + len(strings) - ident)))
        n += len(strings) - ident
    return StringValues(np.concatenate(blocks, axis=1), tuple(reads))


def _has_identity(strings: list) -> int:
    """1 if the identity (x = z = 0), which sorts first, is among the
    strings, else 0."""
    return int(bool(strings) and not (strings[0][1] or strings[0][2]))


def restrictions(circ: Circuit, theta: np.ndarray, noise: NoiseModel,
                 ops: Sequence[PauliSum] = ()) -> Iterator[Restriction]:
    """Each slot's restriction in turn, for one coordinate sweep.

    The state before slot d's first gate, under noise one batch holding a
    density matrix per noise level, is kept and advanced with the angles
    ``theta`` holds when slot d is reached: the caller moves theta[d] in
    place before it asks for slot d + 1.  The rest of the circuit is the
    carried unitary, the pulled-back strings or a suffix run per slot, by
    the rules of the module notes.  Under noise, the hermitian ``ops`` are
    the operators the caller estimates on the output, and each output is
    then their strings' values.  The slots' first gates must come in slot
    order, and every slotted gate must be an RX, RY or RZ.
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
    levels = _noise_levels(noise) if noise.enabled else None
    dim = 1 << circ.width
    if levels is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        ops = ()
    else:
        state = np.zeros((len(levels), dim, dim), dtype=complex)
        state[:, 0, 0] = 1.0
        ops = tuple(ops)
    one_gate = all(len(at) == 1 for at in where.values())
    carry = levels is None and dim <= circ.n_slots and one_gate
    rest = None  # the carried S_d
    pulled = None  # the pulled-back stacks, by the gate index they start at
    if ops and one_gate:
        pairs = [i for i, g in enumerate(gates) if len(g.qubits) == 2]
        pairs.append(len(gates))
        # each slot's next two-qubit gate, or the end of the circuit
        stop = {at[0]: pairs[bisect.bisect(pairs, at[0])] for at in where.values()}
        stops = sorted(set(stop.values()))
        strings = len(set().union(*(op.masks for op in ops)) - {(0, 0)})
        # the rule of the module notes: gate steps, then the entries held
        suffix = 3 * sum(len(gates) - 1 - i for i in stop)
        held = (len(stops) + 2) * len(levels) * strings * dim * dim
        if strings * len(gates) <= suffix and held <= _PULL_BACK_ENTRIES:
            reads, mats = _string_union(ops, dim)
            pulled = _pull_back(gates, stops, theta, levels, mats)
    done = 0
    for at in where.values():
        state = _evolve(state, gates[done:at[0]], theta, levels)
        if pulled is not None:
            i = at[0]
            batch = _evolve(_split(state[None], gates[i], levels),
                            gates[i + 1:stop[i]], theta, levels)
            # (levels, members, 4^m) times (levels, 4^m, strings)
            traces = np.matmul(batch.reshape(3, len(levels), -1).transpose(1, 0, 2),
                               pulled[stop[i]])
            batch = traces.real.transpose(1, 0, 2)
        elif not carry:
            batch = _slot_suffix(state, gates, at, theta, levels)
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
            batch = _split(state[None], gates[at[0]], None) @ rest.T
        done = at[0]
        yield Restriction(batch, tuple(gates[i].scale for i in at), levels is None,
                          None if pulled is None else reads, ops)


def _string_union(ops: Sequence[PauliSum], dim: int) -> tuple[tuple, np.ndarray]:
    """The ``reads`` of ``StringValues`` for ``ops``, and the dense
    matrices of the union of their non-identity strings, in column order."""
    columns: dict[tuple[int, int], int] = {}
    mats, reads = [], []
    for op in ops:
        strings, dense = string_matrices(op)
        cols = []
        for (_, x, z, _), mat in zip(strings, dense):
            if x or z:
                if (x, z) not in columns:
                    columns[x, z] = len(mats)
                    mats.append(mat)
                cols.append(columns[x, z])
        reads.append((op, strings, np.array(cols, dtype=np.intp)))
    return tuple(reads), np.array(mats, dtype=complex).reshape(-1, dim, dim)


def _pull_back(gates: Sequence[Gate], stops: list[int], theta: np.ndarray,
               levels: list[float], mats: np.ndarray) -> dict[int, np.ndarray]:
    """The observables ``mats`` pulled back through ``gates[stop:]`` at
    each noise level, for each gate index ``stop`` of the ascending
    ``stops``, in one adjoint pass from the end of the circuit.  Each is
    kept as a (levels, 4^m, strings) stack whose row j 2^m + i holds entry
    (i, j) of each observable, so one matmul with a flattened density
    matrix gives tr(rho O) per string."""
    dim = mats.shape[-1]
    m = dim.bit_length() - 1
    obs = np.broadcast_to(mats, (len(levels),) + mats.shape).copy()
    # one mixing weight per level, broadcast over the strings
    c = _mixing_weight(levels)[:, None]
    noisy = c.any()
    stacks = {}
    end = len(gates)
    for stop in reversed(stops):
        for target, control, u in reversed(list(_fused(gates[stop:end], theta))):
            # backwards, a two-qubit step's channel, its own adjoint, comes
            # before its gate: U+ O U is U+ on the row and U^T on the column
            if control is not None and noisy:
                obs = _depolarize(obs, control, target, c, m)
            flat = obs.reshape(-1)
            _apply(flat, u.conj().T, target + m, None if control is None else control + m)
            _apply(flat, u.T, target, control)
        # a copy, as the pass goes on in place
        stacks[stop] = obs.transpose(0, 3, 2, 1).reshape(len(levels), dim * dim, -1)
        end = stop
    return stacks


def _evolve(states: np.ndarray, gates: Sequence[Gate], theta: np.ndarray,
            levels: list[float] | None) -> np.ndarray:
    """Run gates on a batch of statevectors without noise levels, else on
    a batch of (levels, 2^m, 2^m) stacks with the channel at each level."""
    if levels is None:
        return apply_gates(states, gates, theta)
    return _evolve_density(states, gates, theta, levels)


def _slot_suffix(state: np.ndarray, gates: Sequence[Gate], at: list[int],
                 theta: np.ndarray, levels: list[float] | None) -> np.ndarray:
    """The restriction's batch: the gates from ``at[0]`` on run on
    ``state``, every member splitting at the gates indexed by ``at``."""
    batch = state[None]
    for i, j in zip(at, at[1:] + [len(gates)]):
        batch = _evolve(_split(batch, gates[i], levels), gates[i + 1:j], theta,
                        levels)
    return batch


def _split(batch: np.ndarray, gate: Gate, levels: list[float] | None) -> np.ndarray:
    """Every member of ``batch`` split at the rotation ``gate`` (see the
    module notes), the new components outermost."""
    s = _GENERATOR[gate.kind]
    (q,) = gate.qubits
    if levels is None:
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


def _estimate_sum(values: np.ndarray, coeffs: Sequence, settings: MeasurementSettings,
                  rng: np.random.Generator | None, total):
    """``total`` plus coeff * estimate, string by string, from the strings'
    exact values: a (strings, levels) array for an expectation, or a
    (strings, 2, levels) one holding Re and -Im for an overlap.  Sampled,
    every value takes a binomial draw, all in one call in C order; two
    levels are then extrapolated to zero noise."""
    rows = values.reshape(-1, values.shape[-1])
    if settings.mode == "sampled":
        rows = sample_z_value(rows, settings.shots, rng)
    est = zne_extrapolate(rows[:, 0], rows[:, 1]) if rows.shape[1] == 2 else rows[:, 0]
    if values.ndim == 3:
        est = [complex(re, -im) for re, im in est.reshape(-1, 2).tolist()]
    else:
        est = est.tolist()
    # one Python add per string, in order: numpy's pairwise sum would move
    # the last bit of seeded outputs
    for coeff, e in zip(coeffs, est):
        total += coeff * e
    return total


def sample_pauli_expectation(circ: Circuit, theta, op: PauliSum,
                             settings: MeasurementSettings,
                             noise: NoiseModel,
                             rng: np.random.Generator | None = None,
                             states: list[np.ndarray] | StringValues | None = None,
                             ) -> float:
    """<A> on the circuit's output state, honoring mode and noise.

    The identity component is added exactly and every other string is
    estimated (module notes).  ``states`` is the output of
    ``simulate(circ, theta, noise)`` when the caller already has it, so
    several operators can be estimated on one simulation, or, under noise,
    ``string_values`` of it for operators that include ``op``, which were
    checked hermitian there.
    """
    if not isinstance(states, StringValues) and not op.is_hermitian():
        raise ValueError("expectation sampling requires a hermitian operator")
    if settings.mode == "sampled" and rng is None:
        rng = settings.make_rng()
    if states is None:
        states = simulate(circ, theta, noise)
    if noise.enabled and not isinstance(states, StringValues):
        states = string_values([op], states)
    if isinstance(states, StringValues):
        strings, values = states.of(op)
    elif settings.mode == "exact":
        return expectation_from_state(states[0], op)
    else:
        strings, vals = string_overlaps(op, states[0], states[0])
        values = vals.real[_has_identity(strings):, None]
    # the identity's value is exactly 1
    ident = len(strings) - len(values)
    total = strings[0][3].real if ident else 0.0
    return float(_estimate_sum(values, [c.real for _, _, _, c in strings[ident:]],
                               settings, rng, total))


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
        # the last operator read under noise and its _damping
        self._damped: tuple[PauliSum, np.ndarray] | None = None

    def _damping(self, op: PauliSum, strings) -> np.ndarray:
        """2 (1 - c)^|P| per noise level (rows) and string of ``op``
        (columns), computed once for a run of reads of the same operator."""
        if self._damped is None or self._damped[0] is not op:
            weight = np.array([(x | z).bit_count() for _, x, z, _ in strings])
            c = _mixing_weight(_noise_levels(self.noise))[:, None]
            self._damped = (op, 2.0 * (1.0 - c) ** weight)
        return self._damped[1]

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
            rows = self._damping(op, strings) * np.array([t for _, t in tables])
        # per string, Re and -Im of its value at each level
        values = np.stack([rows.real, -rows.imag]).transpose(2, 0, 1)
        return _estimate_sum(values, [coeff for _, _, _, coeff in strings],
                             settings, rng, 0.0 + 0j)
