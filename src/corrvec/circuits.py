"""Gate-level simulation: statevectors, Pauli coefficients, noise, overlaps.

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
qubit are first multiplied into one 2x2 matrix.

A noisy circuit runs on Pauli coefficients x_P = tr(P X), X a density
matrix or the overlap's coherence block (Estimators): 4^m values in which
qubit q is the base-4 digit of weight 4^q, of value x + 2 z (I, X, Z, Y)
for its bits of a string's masks (``corrvec.pauli``), so each string is one
entry.  A fused one-qubit step is then a 4x4 matrix on its qubit's digit,
applied as a 2x2 one is to a statevector: entry (d, e) is
tr(s_d U s_e U+) / 2 for U X U+, which is real, and tr(s_d U s_e) / 2 or
tr(s_d s_e U+) / 2 for the one-sided U X or X U+.  A CX is a signed
permutation of the 16 values of its pair's digits, one gather.
|0...0><0...0| is 1 on every string of I and Z letters, and ``run_density``
turns the coefficients into density matrices once, at its end.  A batch of
statevectors or of coefficient vectors, such as the members of a slot's
restriction or the noise levels of one circuit, is one contiguous (..., 2^m)
or (..., 4^m) array whose batch index acts as extra most-significant digits
that no gate touches; the depolarizing channel acts on every member.
``apply_gates`` is the one forward entry: full runs, from the one start
state, and both gate ranges of a restriction run through it.

Slot restrictions
-----------------
A coordinate sweep needs each slot's output as a function of that slot's
angle t alone (``restrictions``).  Every slot drives one gate,
R(t) = exp(-i t s / 2) for its Pauli generator s (``slot_gates``).  Slot
d's restriction starts from the state before that gate, advanced by one
gate range per slot.  Under noise that state is one (levels, 4^m) stack of
coefficients, so all noise levels run in one batch, and a split puts its
members outside the levels.  Instead of applying the slot's gate, every
member of a batch splits.  A statevector x splits into (x, -i s x), with
weights cos(t/2) and sin(t/2), and so does a coherence block X whose
slotted gate acts on its rows alone, into the coefficients of X and of
-i s X.  On both sides the rotation's 4x4 matrix is
A0 + cos t A1 + sin t A2, with A0 + A1, A0 - A1 and A0 + A2 its matrices at
0, pi and pi/2, so the coefficients x split into A0 x, A1 x and A2 x, with
weights 1, cos t and sin t.  The output at any t is the batch summed with
its members' weights.

The rest of the circuit reaches the batch in one of two ways, chosen by one
rule.  Every slotted gate after slot d's gate belongs to a later slot, not
yet moved, so one backward pass from the end of the circuit, at the sweep's
starting angles, can take the rest for every slot.  Without noise it builds
the unitary T of the rest: from T = I, each gate G taken backwards makes
T <- T G, G^T on every row of T.  Under noise the output is read through
the strings of the operators its caller estimates (Estimators): each
string is the unit vector at its entry, and the pass pulls it back per
noise level with the transpose of each step, as a string's value at the
end is that vector dotted with the coefficients there.  A CX, a signed
permutation and its own inverse, and the pair channel, which is diagonal,
are their own transposes.  The pass keeps T or its observables at each
slot's next two-qubit gate and at the end, depth + 1 stops for
``build_hea``.  Slot d's split batch runs through the one-qubit gates up to
its stop, and one matmul gives the members at the end, or each string's
value per member and level.  Otherwise it runs to the end of the circuit,
and under noise its members' strings are read off as entries.  The pass
costs about one step per observable and gate, its observables being T's
2^m rows without noise and the strings read with it, and holds stops + 2
stacks of observables x (2^m, or levels x 4^m) entries; suffix runs cost
two or three member steps per gate after each slot's gate and hold a few
states.  So a sweep pulls back when observables x gates is at most c times
the suffix runs' gate steps, and its stacks fit ``_PULL_BACK_BYTES``: 12
real strings at 7 qubits with ZNE and depth 2, or T at 9 qubits and depth
1.  Without noise c = 3.  Under noise c = 2^(7 - m): the pass takes fewer,
larger steps, which gain most where per-call overhead dominates, and a
timing scan of both paths (CHANGES.md) put the crossover near 8 at 4
qubits, 4 at 5 and 2-2.6 at 6, with the pass faster in every case at 3.

Noise
-----
The two-qubit depolarizing channel of strength p2 follows every two-qubit
gate, on that gate's pair; single-qubit gates are noiseless.  It is the
local map (1 - c) X + c tr_pair(X) (x) I/4, c = 16 p2/15, which keeps each
string that is the identity on the pair and scales every other string by
1 - c: a mask over the coefficients.  On a stack of noise levels it takes
one strength per level (p2, then boost * p2 under ZNE), so all levels run
as one batch with the arithmetic of separate runs.

Estimators
----------
Every number the method reads off a device is a weighted sum of per-string
estimates.  A string's exact value is computed at each noise level: <P> on
the statevector without noise, tr(rho P) at each level with it (p2, then
boost * p2 under ZNE).  A noisy output reaches the estimators in one form,
``StringValues``: the values of the strings of the operators its caller
names, read off the density matrices of a full run (``simulate``) or as
entries of a restriction's coefficients, which the caller hands each
estimate.  An expectation reads real values and not the identity, whose
value is 1; a read of the overlap's coherence block, a ``Circuit.block``,
keeps complex values and the identity, as one-sided gates do not keep the
block's trace.  For an overlap <psi1|P|psi2> the values are the two
ancilla readings of the Hadamard test, Re and then -Im of the overlap.
Under noise only the test's prefix is simulated: the ancilla in |+>,
controlled-U1 on its 0 branch (between two X gates) and controlled-U2 on
its 1 branch.  The string's controlled-P suffix and readout are taken in
closed form, the readout being tr(O rho) for O = 2 |0><1| (x) I on
(ancilla, register).  Each pair channel is covariant: a mixture of
conjugations by the pair's Pauli strings, it commutes with every unitary on
the pair, is its own adjoint and maps an operator A to
(1 - c) A + c tr_pair(A) (x) I/4, c = 16 p2/15.  O is traceless in the
ancilla, so pulled back through the suffix each channel only scales it by
1 - c, and each controlled letter s turns 2 |0><1| (x) Q into
2 |0><1| (x) Q s.  A string of weight |P| thus reads
2 (1 - c)^|P| tr(P rho_10), for rho_10 = rho[2^m:, :2^m] the prefix's
off-diagonal ancilla block: one value per string and level.

The ancilla is only ever a control or takes a PHASE, so rho_10 evolves on
its own, on m qubits, from 1/2 |0...0><0...0|, as complex coefficients.  A
register gate U acts on both sides and its pair channel as on a density
matrix.  CX(anc, q) is X_q on the active side alone, the rows under U2 and
the columns under U1; the channel after it scales the block by 1 - c, its
mixed part being diagonal in the ancilla, and an ancilla PHASE(p) by
exp(+-ip).  So a controlled rotation, two half-angle rotations around two
CX(anc, q), is R(t) on the active side times (1 - c)^2, and a controlled CX
is the Toffoli of ``ccx_gates`` gate by gate, register-pair channels
sitting between its ancilla gates.  ``OverlapEngine`` builds the block as a
``block`` circuit of one-sided gates (U rho on the "row" side, rho U+ on
the "col" side) and folds the 1/2 and the ancilla channels and phases into
one scalar per noise level.

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

from .pauli import PauliSum, apply_sum, string_overlaps, string_traces

ONE_QUBIT_KINDS = frozenset({"H", "X", "PHASE", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CX"})
ROTATION_KINDS = frozenset({"PHASE", "RX", "RY", "RZ"})

# 2x2 matrices as row-major entries (u00, u01, u10, u11); CX acts on its
# target with X
_R = 1.0 / math.sqrt(2.0)
_ANGLELESS = {
    "H": (_R, _R, _R, -_R),
    "X": (0, 1, 1, 0),
    "Y": (0, -1j, 1j, 0),
    "Z": (1, 0, 0, -1),
}


@dataclass(frozen=True)
class Gate:
    """One gate application; angle is fixed or bound later via a slot.  A
    ``side``, "row" or "col", acts on that side of a coherence block alone."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None
    side: str | None = None


@dataclass
class Circuit:
    width: int
    gates: list[Gate] = field(default_factory=list)
    n_slots: int = 0
    block: bool = False  # runs the overlap test's coherence block (OverlapEngine)

    def add(self, kind: str, *qubits: int, angle: float | None = None,
            slot: int | None = None) -> None:
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
        self.gates.append(Gate(kind, tuple(qubits), angle, slot))
        if slot is not None:
            self.n_slots = max(self.n_slots, slot + 1)

    def bound(self, theta: Sequence[float]) -> "Circuit":
        """Copy with every slot resolved to a fixed angle."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_slots,):
            raise ValueError(f"expected {self.n_slots} angles, got {theta.shape}")
        gates = [g if g.slot is None else replace(g, angle=float(theta[g.slot]), slot=None)
                 for g in self.gates]
        return Circuit(self.width, gates, block=self.block)


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
    """Kernel steps (target, control or None, 2x2 matrix, side), angles bound.

    Runs of one-qubit gates on a qubit and side merge into one matrix, applied
    before the next gate on that qubit that is two-qubit or on another side,
    or at the end.  Only noiseless one-qubit gates move: channels stay put.
    """
    pending: dict[int, tuple] = {}  # qubit -> (side, entries)
    for g in gates:
        angle = g.angle if g.slot is None else float(theta[g.slot])
        if len(g.qubits) == 1:
            q = g.qubits[0]
            u = _entries(g.kind, angle)
            prev = pending.get(q)
            if prev is not None and prev[0] != g.side:
                yield q, None, _matrix(pending.pop(q)[1]), prev[0]
                prev = None
            pending[q] = (g.side, u if prev is None else _times(u, prev[1]))
            continue
        control, target = g.qubits
        for q in (control, target):
            if q in pending:
                side, u = pending.pop(q)
                yield q, None, _matrix(u), side
        yield target, control, _matrix(_ANGLELESS["X"]), None
    for q, (side, u) in pending.items():
        yield q, None, _matrix(u), side


# A gate whose qubits all sit below bit _BLOCK_BITS, on a batch of at least
# _BLOCK_MIN_SIZE amplitudes, takes the block path (module notes), and so
# does a step on coefficient digits whose block has at most 2^_BLOCK_BITS
# rows.  Both come from a timing scan of the two paths over register widths
# 1-6 and batch sizes 1-46 (CHANGES.md): from 512 amplitudes on, the block
# path was never more than 10% slower than the view for a gate below bit 4.
_BLOCK_BITS = 4
_BLOCK_MIN_SIZE = 512
_ONE_ZERO = np.array([1.0, 0.0], dtype=complex)


@functools.cache
def _block_source(target: int, control: int | None, radix: int = 2) -> np.ndarray:
    """For each entry of the transposed block matrix of a gate on the
    base-``radix`` digits 0..top, its index in (u entries, 1, 0): 1 on the
    diagonal where the control is 0, 0 where the gate links no pair.
    Read-only, as every caller shares it."""
    top = target if control is None else max(target, control)
    dim = radix ** (top + 1)
    step = radix ** target
    src = np.full((dim, dim), radix * radix + 1)
    for j in range(dim):
        if control is not None and not j >> control & 1:
            src[j, j] = radix * radix
            continue
        digit = j // step % radix
        for out in range(radix):
            src[j, j + (out - digit) * step] = radix * out + digit
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


def _digit_step(vec: np.ndarray, a: np.ndarray, q: int) -> None:
    """vec <- a, a 4x4 matrix, on qubit q's digit of each coefficient
    vector, in place, as ``_apply`` does a one-qubit gate: one matmul with
    the block matrix on digits 0..q where it has at most 2^_BLOCK_BITS rows
    and the batch is large, else the view path.  ``vec`` must be
    contiguous."""
    if 4 << 2 * q <= 1 << _BLOCK_BITS and vec.size >= _BLOCK_MIN_SIZE:
        src = _block_source(q, None, 4)
        w = vec.reshape(-1, len(src))
        np.matmul(w, np.concatenate((a.ravel(), (1, 0)))[src], out=w)
        return
    w = vec.reshape(-1, 4, 4 ** q)
    np.matmul(a, w, out=w)


# the Pauli matrices of a coefficient digit x + 2 z: I, X, Z, Y
_SIGMA = np.array([np.eye(2)] + [_matrix(_ANGLELESS[s]) for s in "XZY"])
# _PTM @ (L (x) M) is the 4x4 matrix of X -> L X M on a digit: entry
# (d, e) is tr(sigma_d L sigma_e M) / 2, the sum of (sigma_d)_li L_ij
# (sigma_e)_jk M_kl / 2
_PTM = 0.5 * np.multiply.outer(_SIGMA, _SIGMA).transpose(0, 3, 2, 4, 5, 1).reshape(16, 16)
_EYE2 = np.eye(2, dtype=complex)


def _transfer(u: np.ndarray, side: str | None) -> np.ndarray:
    """The 4x4 matrix on a qubit's digit of the coefficients of u X u+,
    which is real, or of the one-sided u X ("row") or X u+ ("col")."""
    left = _EYE2 if side == "col" else u
    right = _EYE2 if side == "row" else u.conj().T
    out = np.dot(_PTM, np.outer(left, right).ravel()).reshape(4, 4)
    return out if side else out.real


@functools.cache
def _rotation_split(kind: str) -> tuple[np.ndarray, ...]:
    """(A0, A1, A2) with A0 + cos t A1 + sin t A2 the digit matrix of the
    rotation exp(-i t s/2) of a slot's ``kind`` on both sides: A0 + A1,
    A0 - A1 and A0 + A2 are its matrices at 0, pi and pi/2, X, sXs and
    (X + sXs + iXs - isX)/2.  Shared read-only."""
    s = _GENERATOR[kind]
    flip = _transfer(s, None)
    turn = (0.5j * (_transfer(s, "col") - _transfer(s, "row"))).real
    parts = 0.5 * (np.eye(4) + flip), 0.5 * (np.eye(4) - flip), turn
    for a in parts:
        a.flags.writeable = False
    return parts


@functools.cache
def _pair_tables(control: int, target: int, m: int) -> tuple[np.ndarray, ...]:
    """(source, sign, keep) over the 4^m coefficients of m qubits: after
    CX(control, target) coefficient j is sign[j] times coefficient
    source[j] before it, and keep marks the identity on the pair, the
    components the pair channel leaves alone.  Read-only."""
    j = np.arange(4 ** m)
    dc, dt = j >> 2 * control & 3, j >> 2 * target & 3
    xc, zc, xt, zt = dc & 1, dc >> 1, dt & 1, dt >> 1
    # CX P CX: X spreads from the control to the target, Z from the target
    # to the control, and XZ and YY on (control, target) change sign
    # (Aaronson and Gottesman, Phys. Rev. A 70, 052328 (2004))
    source = j + ((zc ^ zt) - zc << 2 * control + 1) + ((xt ^ xc) - xt << 2 * target)
    sign = 1.0 - 2.0 * (xc & zt & (xt ^ zc ^ 1))
    keep = (dc == 0) & (dt == 0)
    for a in (source, sign, keep):
        a.flags.writeable = False
    return source, sign, keep


def _cx(vec: np.ndarray, control: int, target: int) -> np.ndarray:
    """A new batch: CX(control, target) on each coefficient vector, a
    signed permutation, which is its own transpose."""
    source, sign, _ = _pair_tables(control, target,
                                   (vec.shape[-1].bit_length() - 1) // 2)
    out = np.take(vec, source, axis=-1)
    out *= sign
    return out


def _mixing_weight(p2: float | Sequence[float]) -> np.ndarray:
    """The weight c = 16 p2/15 that the depolarizing channel of strength p2
    moves to the maximally mixed pair, for one strength or an array of
    them; each must lie in [0, 15/16]."""
    p2 = np.asarray(p2, dtype=float)
    if not np.all((0.0 <= p2) & (p2 <= 15.0 / 16.0)):
        raise ValueError(f"p2={p2} outside [0, 15/16]")
    return 16.0 * p2 / 15.0


def _depolarize(vec: np.ndarray, q1: int, q2: int, c: np.ndarray) -> np.ndarray:
    """A new batch: the depolarizing channel on the pair (q1, q2) of each
    coefficient vector, with mixing weights ``c`` already checked, c
    broadcasting against ``vec.shape[:-1]``.  The channel is
    (1 - c) X + c tr_pair(X) (x) I/4, so every component that is not the
    identity on the pair scales by 1 - c; it is diagonal, its own
    transpose."""
    _, _, keep = _pair_tables(q1, q2, (vec.shape[-1].bit_length() - 1) // 2)
    return vec * np.where(keep, 1.0, (1.0 - c)[..., None])


def _check_theta(circ: Circuit, theta) -> np.ndarray | None:
    if circ.n_slots == 0:
        return None
    if theta is None:
        raise ValueError("circuit has free slots but no angles were given")
    th = np.asarray(theta, dtype=float)
    if th.shape != (circ.n_slots,):
        raise ValueError(f"expected {circ.n_slots} angles, got shape {th.shape}")
    return th


def apply_gates(states: np.ndarray, gates: Iterable[Gate], theta: np.ndarray | None,
                levels: float | Sequence[float] | None) -> np.ndarray:
    """Run the gates on a contiguous batch, slot angles taken from ``theta``,
    and return it.  Without ``levels`` the batch is (..., 2^m) statevectors,
    run in place.  Otherwise ``levels`` is one strength p2, or one per level
    of a (..., levels, 4^m) batch of Pauli coefficient vectors, run in place
    up to the first two-qubit gate; each two-qubit gate makes a new batch and
    is followed by the depolarizing channel at each level.  The strengths
    are checked once, at the first channel."""
    if levels is None:
        for target, control, u, _ in _fused(gates, theta):
            _apply(states, u, target, control)
        return states
    c = None
    for target, control, u, side in _fused(gates, theta):
        if control is None:
            _digit_step(states, _transfer(u, side), target)
            continue
        states = _cx(states, control, target)
        if c is None:
            c = _mixing_weight(levels)
        if c.any():
            states = _depolarize(states, control, target, c)
    return states


def _start(m: int, levels: float | Sequence[float] | None, block: bool = False) -> np.ndarray:
    """|0...0> on m qubits without ``levels``, else the coefficients of
    |0...0><0...0| at each, 1 on every string of I and Z letters: real, or
    complex for a ``block`` circuit's one-sided gates."""
    if levels is None:
        state = np.zeros(1 << m, dtype=complex)
        state[0] = 1.0
    else:
        state = np.zeros(np.shape(levels) + (4 ** m,), dtype=complex if block else float)
        # the strings with no X bit: bit 2q of their place is 0 for every q
        state[..., np.arange(4 ** m) & (4 ** m - 1) // 3 == 0] = 1.0
    return state


# a qubit's digit of coefficients to its entries: row 2a + b is X_ab
_ENTRIES = 0.5 * _SIGMA.reshape(4, 4).T


def _density(vec: np.ndarray) -> np.ndarray:
    """The (..., 2^m, 2^m) matrices X = 2^-m sum_P x_P P of a (..., 4^m)
    batch of coefficient vectors."""
    m = (vec.shape[-1].bit_length() - 1) // 2
    out = vec.astype(complex, order="C")
    for q in range(m):
        _digit_step(out, _ENTRIES, q)
    # digit q now holds (a, b), the row bit a on bit 2q + 1 of the index
    lead = vec.ndim - 1
    rows = [lead + 2 * k for k in range(m)]
    tensor = out.reshape(vec.shape[:-1] + (2,) * (2 * m))
    return (tensor.transpose(list(range(lead)) + rows + [r + 1 for r in rows])
            .reshape(vec.shape[:-1] + (1 << m, 1 << m)))


def run_pure(circ: Circuit, theta: Sequence[float] | None = None) -> np.ndarray:
    """Noiseless statevector after the circuit, starting from |0...0>."""
    th = _check_theta(circ, theta)
    return apply_gates(_start(circ.width, None), circ.gates, th, None)


def run_density(circ: Circuit, theta: Sequence[float] | None = None,
                p2: float | Sequence[float] = 0.0) -> np.ndarray:
    """Density matrix after the circuit with a depolarizing channel of
    strength p2 following every two-qubit gate; for a sequence of
    strengths, a (levels, 2^m, 2^m) stack of them, all run as one batch.
    The run is on Pauli coefficients (module notes), turned into density
    matrices once, at the end; a ``block`` circuit gives its coherence
    block."""
    th = _check_theta(circ, theta)
    return _density(apply_gates(_start(circ.width, p2, circ.block), circ.gates, th, p2))


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

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed]))


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


def zne_extrapolate(e_p, e_bp, boost: float):
    """Zero-noise values from estimates at strengths p and boost * p, one
    pair or elementwise over arrays.

    With l = boost, exponential decay gives
    E(0) = E(p) |E(p)|^(1/(l-1)) / |E(lp)|^(1/(l-1)).  When a pair is
    inconsistent with a decaying exponential (sign change or vanishing
    denominator) fall back to Richardson, (l E(p) - E(lp)) / (l - 1).
    """
    e_p, e_bp = np.asarray(e_p, dtype=float), np.asarray(e_bp, dtype=float)
    decays = (np.abs(e_bp) > 1e-12) & (e_p * e_bp > 0.0)
    # at boost 2 the powers are copies, so the values are bit for bit
    # E(p)^2 / E(2p) and 2 E(p) - E(2p)
    x = 1.0 / (boost - 1.0)
    return np.where(decays, e_p * np.abs(e_p) ** x / np.abs(np.where(decays, e_bp, 1.0)) ** x,
                    (boost * e_p - e_bp) / (boost - 1.0))[()]


def _noise_levels(noise: NoiseModel) -> list[float]:
    if noise.zne:
        return [noise.p2, noise.boost * noise.p2]
    return [noise.p2]


def simulate(circ: Circuit, theta, noise: NoiseModel,
             ops: Sequence[PauliSum]) -> np.ndarray | StringValues:
    """The circuit's output as the estimators read it: the statevector when
    noise is off, else the values of the strings of ``ops``, the operators
    the caller estimates, on its density matrix or coherence block at each
    noise level (p2, then boost * p2 under ZNE), all levels run as one
    batch."""
    if not noise.enabled:
        return run_pure(circ, theta)
    return _string_values(ops, run_density(circ, theta, p2=_noise_levels(noise)),
                          circ.block)


# ---------------------------------------------------------------------------
# slot restrictions

# A sweep pulls back only when the stacks it holds fit in this many bytes
# (module notes).
_PULL_BACK_BYTES = 16 << 20


@dataclass
class Restriction:
    """One circuit's output as a function of one slot's angle: a batch
    split at the slot's gate into two or three members and carried to the
    end of the circuit by the pull-back or a suffix run (module notes).
    Without noise each member is a statevector; with it each member holds
    the (levels, strings) values of the strings ``reads`` names."""

    batch: np.ndarray
    reads: tuple | None = None

    def at(self, t: float) -> np.ndarray | StringValues:
        """The output with the slot at angle t, as ``simulate`` gives it."""
        w = np.array((math.cos(0.5 * t), math.sin(0.5 * t)) if len(self.batch) == 2
                     else (1.0, math.cos(t), math.sin(t)))
        out = (w @ self.batch.reshape(len(w), -1)).reshape(self.batch.shape[1:])
        return out if self.reads is None else StringValues(out, self.reads)


@dataclass(frozen=True)
class StringValues:
    """A noisy output as the estimators read it: ``values`` holds tr(X P)
    per noise level (rows) for strings P (columns), X the level's density
    matrix or coherence block.  ``reads`` holds, per operator, its strings
    in sorted label order and the columns of those it reads: the real
    values of those after the identity for an expectation, the complex
    values of all of them for a block (module notes).  ``of`` refuses an
    operator the output was not simulated for."""

    values: np.ndarray
    reads: tuple

    def of(self, op: PauliSum):
        """``op``'s strings and the (strings, levels) values it reads."""
        for known, strings, cols in self.reads:
            if known is op:
                return strings, self.values[:, cols].T
        raise ValueError("the output holds the values of other operators only: "
                         "simulate it for the operators estimated on it")


def _reads(ops: Sequence[PauliSum], block: bool, table) -> tuple[tuple, list]:
    """The ``reads`` of ``StringValues`` for ``ops``, and the row of
    ``table`` each column reads.  Each distinct string is one column, in
    order of first occurrence, the identity only in a block read.
    ``table(op)`` gives ``op``'s strings in sorted label order and one row
    per string; a column takes its row from the first operator holding it."""
    columns: dict[tuple[int, int], int] = {}
    rows, reads = [], []
    for op in ops:
        strings, op_rows = table(op)
        cols = []
        for (_, x, z, _), row in zip(strings, op_rows):
            if block or x or z:
                if (x, z) not in columns:
                    columns[x, z] = len(rows)
                    rows.append(row)
                cols.append(columns[x, z])
        reads.append((op, strings, np.array(cols, dtype=np.intp)))
    return tuple(reads), rows


def _string_values(ops: Sequence[PauliSum], stack: np.ndarray,
                   block: bool) -> StringValues:
    """The values of the strings of ``ops`` on each density matrix, or
    coherence block when ``block``, of a (..., 2^m, 2^m) ``stack``: values
    of shape (..., strings)."""
    flat = stack.reshape((-1,) + stack.shape[-2:])

    def table(op):
        traces = [string_traces(op, x) for x in flat]
        return traces[0][0], np.array([t for _, t in traces]).T

    reads, rows = _reads(ops, block, table)
    values = np.array(rows, dtype=complex).T.reshape(stack.shape[:-2] + (-1,))
    return StringValues(values if block else values.real, reads)


def _has_identity(strings: list) -> int:
    """1 if the identity (x = z = 0), which sorts first, is among the
    strings, else 0."""
    return int(bool(strings) and not (strings[0][1] or strings[0][2]))


def slot_gates(circ: Circuit) -> list[int]:
    """The index of each slot's gate, in slot order, for a circuit whose
    every slot drives one RX, RY or RZ, as a sweep reads it."""
    at: dict[int, int] = {}
    for i, g in enumerate(circ.gates):
        if g.slot is not None:
            if g.kind not in _GENERATOR:
                raise ValueError(f"slot {g.slot} drives a {g.kind}, not a rotation")
            if at.setdefault(g.slot, i) != i:
                raise ValueError(f"slot {g.slot} drives more than one gate")
    if list(at) != list(range(circ.n_slots)):
        raise ValueError("the slots' gates are not in slot order")
    return list(at.values())


def restrictions(circ: Circuit, theta: np.ndarray, noise: NoiseModel,
                 ops: Sequence[PauliSum]) -> Iterator[Restriction]:
    """Each slot's restriction in turn, for one coordinate sweep.

    The state before slot d's gate, under noise one batch holding the
    Pauli coefficients of the density matrix or coherence block at each
    noise level, is kept and advanced with the angles ``theta`` holds when
    slot d is reached: the caller moves theta[d] in place before it asks
    for slot d + 1.  The rest of the circuit is pulled back once per sweep
    or run per slot, by the rule of the module notes.  Under noise each
    output is the string values of ``ops``, the operators the caller
    estimates on it, read off as entries of the coefficients.  The circuit
    must pass ``slot_gates``.
    """
    _check_theta(circ, theta)
    gates = circ.gates
    at = slot_gates(circ)
    levels = _noise_levels(noise) if noise.enabled else None
    dim = 1 << circ.width
    block = circ.block
    pairs = [i for i, g in enumerate(gates) if len(g.qubits) == 2] + [len(gates)]
    nearest = {i: pairs[bisect.bisect(pairs, i)] for i in at}
    stops = sorted(set(nearest.values()))
    state = _start(circ.width, levels, block)
    reads = places = None
    if levels is not None:
        reads, places = _reads(ops, block, _places)
        places = np.array(places, dtype=np.intp)
    # the rule of the module notes, on the observables pulled back, T's
    # rows without noise and the strings read with it, each of state's size
    observables = dim if levels is None else len(places)
    gain = 3.0 if levels is None else 2.0 ** (7 - circ.width)
    # where each slot's split batch stops: its next two-qubit gate when
    # pulled back, the end of the circuit otherwise
    stop = dict.fromkeys(at, len(gates))
    pulled = None
    if (observables * len(gates) <= gain * sum(len(gates) - 1 - i for i in at)
            and (len(stops) + 2) * observables * state.nbytes <= _PULL_BACK_BYTES):
        if levels is None:
            obs = np.eye(dim, dtype=complex)
        else:
            obs = np.zeros((len(places), state.shape[-1]), dtype=state.dtype)
            obs[np.arange(len(places)), places] = 1.0
        pulled = _pull_back(gates, stops, theta, levels, obs)
        stop = nearest
    done = 0
    for i in at:
        state = apply_gates(state, gates[done:i], theta, levels)
        batch = apply_gates(_split(state[None], gates[i], levels),
                            gates[i + 1:stop[i]], theta, levels)
        done = i
        if pulled is not None and levels is None:
            batch = batch @ pulled[stop[i]]
        elif pulled is not None:
            # (levels, members, 4^m) times (levels, 4^m, strings)
            batch = np.matmul(batch.transpose(1, 0, 2), pulled[stop[i]]).transpose(1, 0, 2)
        elif levels is not None:
            batch = batch[..., places]
        yield Restriction(batch, reads)


def _places(op: PauliSum) -> tuple[list, list[int]]:
    """``op``'s strings in sorted label order and the place of each in a
    coefficient vector, whose digit q is x_q + 2 z_q."""
    strings = sorted((label, x, z, c) for (label, c), (x, z) in zip(op, op.masks))
    return strings, [sum(((x >> q & 1) | (z >> q & 1) << 1) << 2 * q for q in range(op.width))
                     for _, x, z, _ in strings]


def _pull_back(gates: Sequence[Gate], stops: list[int], theta: np.ndarray,
               levels: list[float] | None, obs: np.ndarray) -> dict[int, np.ndarray]:
    """The rest of the circuit, ``gates[stop:]`` for each gate index
    ``stop`` of the ascending ``stops``, in one backward pass from the end
    of the circuit (module notes).

    Without noise levels ``obs`` is the identity, which becomes the
    unitary T of the rest, kept as T^T, so a (members, 2^m) batch times it
    gives the members at the end of the circuit.  With them ``obs`` holds
    one unit coefficient vector per string read, and each step's transpose
    pulls it back at each level; each is kept as a (levels, 4^m, strings)
    stack, so one matmul with a coefficient vector gives the value of each
    string at the end."""
    if levels is None:
        obs = obs.copy()
    else:
        obs = np.broadcast_to(obs, (len(levels),) + obs.shape).copy()
        # one mixing weight per level, broadcast over the strings
        c = _mixing_weight(levels)[:, None]
    stacks = {}
    end = len(gates)
    for stop in reversed(stops):
        for target, control, u, side in reversed(list(_fused(gates[stop:end], theta))):
            if levels is None:
                # T <- T U, the column step of U: u^T on each row
                _apply(obs, u.T, target, control)
            elif control is None:
                _digit_step(obs, _transfer(u, side).T, target)
            else:
                # backwards the channel comes first; both are their own
                # transposes
                if c.any():
                    obs = _depolarize(obs, control, target, c)
                obs = _cx(obs, control, target)
        # copies, as the pass goes on in place
        stacks[stop] = obs.T.copy() if levels is None else obs.transpose(0, 2, 1).copy()
        end = stop
    return stacks


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
    # one-sided: x and its image under -i s on the gate's side; on both
    # sides, the three matrices of _rotation_split
    parts = ((None, _transfer(-1j * s, gate.side)) if gate.side is not None
             else _rotation_split(gate.kind))
    out = np.concatenate([batch] * len(parts))
    for k, a in enumerate(parts):
        if a is not None:
            _digit_step(out[k * len(batch):(k + 1) * len(batch)], a, q)
    return out


def _estimate_sum(values: np.ndarray, coeffs: Sequence, settings: MeasurementSettings,
                  boost: float, rng: np.random.Generator | None, total):
    """``total`` plus coeff * estimate, string by string, from the strings'
    exact values: a (strings, levels) array for an expectation, or a
    (strings, 2, levels) one holding Re and -Im for an overlap.  Sampled,
    every value takes a binomial draw, all in one call in C order; two
    levels, p2 and ``boost`` * p2, are then extrapolated to zero noise."""
    rows = values.reshape(-1, values.shape[-1])
    if settings.mode == "sampled":
        rows = sample_z_value(rows, settings.shots, rng)
    est = (zne_extrapolate(rows[:, 0], rows[:, 1], boost) if rows.shape[1] == 2
           else rows[:, 0])
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
                             states: np.ndarray | StringValues | None = None,
                             ) -> float:
    """<A> on the circuit's output state, honoring mode and noise.

    The identity component is added exactly and every other string is
    estimated (module notes).  ``states`` is the output of
    ``simulate(circ, theta, noise, ops)`` when the caller already has it,
    for operators ``ops`` that include ``op``, so several operators can be
    estimated on one simulation; the cost that names them checks them
    hermitian.  A sampled estimate draws from ``rng``, which it requires.
    """
    if not isinstance(states, StringValues) and not op.is_hermitian():
        raise ValueError("expectation sampling requires a hermitian operator")
    if settings.mode == "sampled" and rng is None:
        raise ValueError("a sampled estimate requires an rng")
    if states is None:
        states = simulate(circ, theta, noise, [op])
    if isinstance(states, StringValues):
        strings, values = states.of(op)
    elif settings.mode == "exact":
        return expectation_from_state(states, op)
    else:
        strings, vals = string_overlaps(op, states, states)
        values = vals.real[_has_identity(strings):, None]
    # the identity's value is exactly 1
    ident = len(strings) - len(values)
    total = strings[0][3].real if ident else 0.0
    return float(_estimate_sum(values, [c.real for _, _, _, c in strings[ident:]],
                               settings, noise.boost, rng, total))


def expectation_from_state(psi: np.ndarray, op: PauliSum) -> float:
    """<psi|A|psi> for a normalized psi, refused when its imaginary part
    exceeds round-off relative to the sum of |coefficient| of A."""
    val = complex(np.vdot(psi, apply_sum(op, psi)))
    if not abs(val.imag) <= 1e-10 * op.one_norm():
        raise ValueError(f"<psi|A|psi> = {val} is not real: A is not hermitian")
    return val.real


# ---------------------------------------------------------------------------
# the ancilla overlap test on its coherence block


def _add_controlled(block: Circuit, circ: Circuit, side: str,
                    c: np.ndarray) -> np.ndarray:
    """Append what controlled-``circ``, of ``build_hea``'s gates, does to the
    coherence block with the control active on ``side`` (module notes);
    return its ancilla channels' and phases' scalar per mixing weight ``c``."""
    anc = block.width
    channels, phase = 0, 0.0
    for g in circ.gates:
        if g.kind in _GENERATOR:
            # two half-angle rotations around two CX(anc, q)
            block.gates.append(replace(g, side=side))
            channels += 2
        elif g.kind == "CX":
            for t in ccx_gates(anc, *g.qubits):
                if anc not in t.qubits:
                    block.gates.append(t)
                elif t.kind == "CX":
                    block.gates.append(Gate("X", t.qubits[1:], side=side))
                    channels += 1
                else:  # a PHASE on the ancilla
                    phase += t.angle
        else:
            raise ValueError(f"cannot control gate kind {g.kind!r}")
    return (1.0 - c) ** channels * cmath.exp(1j * (phase if side == "row" else -phase))


class OverlapEngine:
    """Estimates sums of overlaps <psi1| P |U2(theta)|0> for many strings.

    Without noise the overlaps are read off psi1 = U1|0> and U2(theta)|0>.
    With it they are the Hadamard test's ancilla readings at phase 0 and
    pi/2, Re and -Im of 2 (1 - c)^|P| tr(P rho_10) per string, c = 16 p2/15
    (module notes).  ``estimate_sum`` reads the output of ``circuit``: U2
    without noise, with it a ``block`` circuit evolving rho_10 on m qubits
    from |0...0><0...0|, rho_10 being ``block_scale`` times its output, one
    scalar per noise level.  ``u1`` is a bound circuit.
    """

    def __init__(self, u1: Circuit, u2: Circuit,
                 settings: MeasurementSettings, noise: NoiseModel):
        if u1.width != u2.width:
            raise ValueError("register widths differ")
        self.m = u2.width
        self.settings = settings
        self.noise = noise
        self.psi1 = run_pure(u1)
        self.circuit = u2
        if noise.enabled:
            self.circuit = Circuit(self.m, n_slots=u2.n_slots, block=True)
            c = _mixing_weight(_noise_levels(noise))
            self.block_scale = (0.5 * _add_controlled(self.circuit, u1, "col", c)
                                * _add_controlled(self.circuit, u2, "row", c))
        # the last operator read under noise and its _damping
        self._damped: tuple[PauliSum, np.ndarray] | None = None

    def _damping(self, op: PauliSum, strings) -> np.ndarray:
        """2 (1 - c)^|P| times ``block_scale`` per noise level (rows) and
        string of ``op`` (columns), computed once for a run of reads of the
        same operator."""
        if self._damped is None or self._damped[0] is not op:
            weight = np.array([(x | z).bit_count() for _, x, z, _ in strings])
            c = _mixing_weight(_noise_levels(self.noise))[:, None]
            self._damped = (op, 2.0 * self.block_scale[:, None] * (1.0 - c) ** weight)
        return self._damped[1]

    def estimate_sum(self, states: np.ndarray | StringValues, op: PauliSum,
                     rng: np.random.Generator | None) -> complex:
        """Sum of coeff * <psi1|P|psi2> over the strings of ``op``, read off
        ``states``, the output of ``simulate(self.circuit, theta, noise,
        ops)`` for operators ``ops`` that include ``op``: psi2 = U2(theta)|0>
        without noise, the values of the strings on the coherence block per
        noise level with it.  A sampled estimate draws from ``rng``, which
        it requires.
        """
        if op.width != self.m:
            raise ValueError("operator width mismatch")
        settings = self.settings
        if settings.mode == "sampled" and rng is None:
            raise ValueError("a sampled estimate requires an rng")
        if not self.noise.enabled:
            if settings.mode == "exact":
                return complex(np.vdot(self.psi1, apply_sum(op, states)))
            strings, overlaps = string_overlaps(op, self.psi1, states)
            rows = overlaps[None, :]
        else:
            strings, values = states.of(op)
            rows = self._damping(op, strings) * values.T
        # per string, Re and -Im of its value at each level
        values = np.stack([rows.real, -rows.imag]).transpose(2, 0, 1)
        return _estimate_sum(values, [coeff for _, _, _, coeff in strings],
                             settings, self.noise.boost, rng, 0.0 + 0j)
