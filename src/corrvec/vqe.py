"""Hardware-efficient ansatz and Rotosolve-based variational minimization.

The ansatz repeats a block of single-qubit rotations (one independent angle
per gate) followed by a linear CNOT ladder, and closes with a final rotation
layer.  Rotosolve exploits the exact sinusoidal dependence of the cost on
each angle: the value at the slot's angle and at +-pi/2 from it give the
coordinate minimum in closed form, so no step sizes or gradients appear
anywhere.

Every mode reads a slot off each circuit's restriction to it
(``circuits.restrictions``), and every slot drives one rotation: the rest
of the circuit is pulled back once per sweep or run per slot, by the rule
in the notes of ``circuits``.  A cost names its operators once, and its
circuits, their reads and its read follow from them, so under noise a
restriction, like a full run, gives the strings' values its read takes.
A sampled or noisy cost is
estimated on the outputs at +-pi/2 and at the angle the slot moves to,
three estimates per slot, drawn as on full simulations.  An exact cost
<psi|M|psi> needs no estimate: with phi the state before slot d's gate
R(t) = exp(-i t s/2) and S the rest of the circuit,
psi(t) = cos(t/2) a + sin(t/2) b for a = S phi and b = -i S s phi, and the
2x2 matrix K of M on the pair (a, b) gives the slot's whole sinusoid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .circuits import (Circuit, MeasurementSettings, NoiseModel, OverlapEngine,
                       restrictions, sample_pauli_expectation, simulate,
                       slot_gates)
from .pauli import PauliSum, apply_sum

VALID_ROTATIONS = ("RX", "RY", "RZ")


@dataclass(frozen=True)
class AnsatzSpec:
    width: int
    depth: int
    pattern: tuple[str, ...] = ("RY", "RZ")

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not self.pattern:
            raise ValueError("rotation pattern must be non-empty")
        for kind in self.pattern:
            if kind not in VALID_ROTATIONS:
                raise ValueError(f"unsupported rotation kind {kind!r}, "
                                 f"expected one of {VALID_ROTATIONS}")

    @property
    def n_slots(self) -> int:
        return self.width * len(self.pattern) * (self.depth + 1)


def build_hea(spec: AnsatzSpec) -> Circuit:
    """Layered ansatz circuit; slot order is block-major, then qubit, then
    pattern position, with the closing rotation layer last."""
    circ = Circuit(spec.width)
    k = len(spec.pattern)
    for block in range(spec.depth + 1):
        for q in range(spec.width):
            for j, kind in enumerate(spec.pattern):
                circ.add(kind, q, slot=(block * spec.width + q) * k + j)
        if block < spec.depth:
            for q in range(spec.width - 1):
                circ.add("CX", q, q + 1)
    return circ


def hf_start_angles(spec: AnsatzSpec, occupied: Sequence[int],
                    jitter: float = 0.0,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Angles that prepare the determinant with the given modes occupied.

    Each entangling ladder maps a basis state to its running-parity image,
    so flipping the right subset of qubits in the first rotation layer
    lands exactly on the requested determinant at the end of the circuit.

    The exact determinant is a stationary point of coordinate descent, so
    a small uniform jitter (pass jitter > 0 with an rng) is the standard
    way to start an actual optimization from this state.
    """
    if "RY" not in spec.pattern:
        raise ValueError("determinant start needs an RY slot in the pattern")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    if jitter > 0 and rng is None:
        raise ValueError("jitter > 0 requires an rng")
    bits = np.zeros(spec.width, dtype=np.uint8)
    for q in occupied:
        if not 0 <= q < spec.width:
            raise ValueError(f"occupied mode {q} outside 0..{spec.width - 1}")
        bits[q] = 1
    for _ in range(spec.depth):
        bits[1:] ^= bits[:-1]
    k = len(spec.pattern)
    j_ry = spec.pattern.index("RY")
    theta = np.zeros(spec.n_slots)
    for q in range(spec.width):
        if bits[q]:
            theta[q * k + j_ry] = np.pi
    if jitter > 0:
        theta = theta + rng.uniform(-jitter, jitter, size=spec.n_slots)
    return theta


def grow_hea_angles(theta: np.ndarray, old: AnsatzSpec, new: AnsatzSpec) -> np.ndarray:
    """Map angles onto a deeper ansatz: old blocks keep their slots, the
    closing layer stays the closing layer, inserted blocks start at zero."""
    if (old.width, old.pattern) != (new.width, new.pattern) or new.depth < old.depth:
        raise ValueError("can only grow depth with fixed width and pattern")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (old.n_slots,):
        raise ValueError(f"expected {old.n_slots} angles")
    per_block = old.width * len(old.pattern)
    out = np.zeros(new.n_slots)
    out[:old.depth * per_block] = theta[:old.depth * per_block]
    out[new.depth * per_block:] = theta[old.depth * per_block:]
    return out


def wrap_angle(x: float) -> float:
    w = (x + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if w == -np.pi else float(w)


class CircuitCost:
    """The sum of <ops> on the output psi of ``circ``, minus
    |<psi1|V|psi>|^2 / norm for an ``overlap`` term (engine, V, norm) whose
    ``OverlapEngine`` has ``circ`` as its U2, in the form
    ``rotosolve_sweep`` reads slot by slot.

    ``circuits`` holds ``circ`` and, under noise, the engine's coherence
    block; ``reads`` the operators estimated on each, ``ops`` and (V,).
    ``read(outputs)`` estimates the cost off each circuit's output as
    ``simulate`` gives it for those operators, drawing from ``rng`` in the
    order ops[0], overlap, ops[1:]; calling the object evaluates it at full
    angles.  With <w|psi> = <psi1|V|psi> / sqrt(norm) the cost is
    <psi|M|psi> for M the sum of ``ops`` minus |w><w|.  With exact,
    noiseless measurement, the one mode that reads ``w``, the sweep reads
    each slot off the 2x2 matrix of M (``matrix``), so ``circ`` is then
    checked as every sweep reads it (``circuits.slot_gates``): one RX, RY
    or RZ per slot.
    """

    def __init__(self, circ: Circuit, settings: MeasurementSettings,
                 noise: NoiseModel, rng: np.random.Generator | None,
                 ops: Sequence[PauliSum],
                 overlap: tuple[OverlapEngine, PauliSum, float] | None = None,
                 w: np.ndarray | None = None):
        self.ops = tuple(ops)
        if not all(op.is_hermitian() for op in self.ops):
            raise ValueError("a cost's operators must be hermitian")
        # the sum of |coefficient| over ops bounds every term summed into the
        # cost, the overlap term too: by Cauchy-Schwarz it is at most <Q+Q>
        self.size = sum(op.one_norm() for op in self.ops)
        self.circuits, self.reads = [circ], [self.ops]
        if overlap is not None and noise.enabled:
            self.circuits.append(overlap[0].circuit)
            self.reads.append((overlap[1],))
        self.settings, self.noise, self.rng = settings, noise, rng
        self.overlap, self.w = overlap, w
        self.exact = settings.mode == "exact" and not noise.enabled
        if self.exact:
            slot_gates(circ)
        # exact sweeps: angles and closed-form value at the end of the last
        # sweep, which the next sweep's full evaluation checks
        self.closed: tuple[np.ndarray, float] | None = None

    def __call__(self, theta: np.ndarray) -> float:
        return float(self.read([simulate(c, theta, self.noise, o) for c, o
                                in zip(self.circuits, self.reads, strict=True)]))

    def read(self, outputs: list) -> float:
        """The cost on one output per circuit, as the class notes say."""
        def estimate(op):
            return sample_pauli_expectation(self.circuits[0], None, op, self.settings,
                                            self.noise, self.rng, outputs[0])

        value = estimate(self.ops[0])
        if self.overlap is not None:
            engine, v_op, norm = self.overlap
            ov = engine.estimate_sum(outputs[-1], v_op, self.rng)
            value = float(value - abs(ov) ** 2 / norm)
        for op in self.ops[1:]:
            value += estimate(op)
        return value

    def matrix(self, pair: np.ndarray) -> tuple[np.ndarray, float]:
        """K[i, j] = <pair_i|M|pair_j> for a (2, 2^m) pair of states, and
        the size of the terms summed into K: max |<pair|ops|pair>| plus
        max |<pair|w>|^2.  Round-off in K is a few eps times that size."""
        k = pair.conj() @ sum(apply_sum(op, pair) for op in self.ops).T
        scale = float(np.abs(k).max())
        if self.w is not None:
            x = pair @ self.w.conj()
            k -= np.outer(x.conj(), x)
            scale += float(np.abs(x).max()) ** 2
        return k, scale


# a slot's sinusoid is flat when its amplitude is within round-off of the
# terms summed into its 2x2 matrix
_FLAT = 64 * np.finfo(float).eps


def _check_carried(value: float, carried: float, size: float, where: str) -> None:
    """Refuse an exact cost that differs from the carried one by more than
    1e-10 of ``size``, the size of the terms summed into it."""
    if not abs(value - carried) <= 1e-10 * size:
        raise AssertionError(f"{where}: exact cost {value:.15g} differs from "
                             f"the carried value {carried:.15g}")


def rotosolve_sweep(cost, theta: np.ndarray,
                    form: CircuitCost) -> tuple[np.ndarray, float]:
    """One coordinate-descent pass over all slots.

    Each slot is moved to the closed-form minimum of its sinusoidal
    restriction.  Returns the updated angles and the cost there.

    ``cost(theta)`` evaluates ``form`` at full angles (pass ``form``
    itself unless the call is to be observed); it is called once, at the
    start.  Each slot's restriction then comes from ``circuits.restrictions``
    per circuit of ``form``, with that circuit's operators: a statevector
    without noise, its operators' string values with it.  With exact,
    noiseless measurement the restriction of the first circuit is a pair
    of states (a, b), and the slot's whole sinusoid is read off the 2x2
    matrix K of the cost on it: a slot whose sinusoid is flat, its
    amplitude within round-off of the terms summed into K, keeps its
    angle, and the value at the slot's current angle must equal the
    carried one to 1e-10 of ``form.size``, the full evaluation at slot 0
    and the previous slot's closed-form minimum after that, or
    AssertionError is raised.
    Otherwise the cost is estimated on the outputs at +-pi/2 from the
    slot's angle and at the angle it moves to, in that order; the last is
    the next slot's value at its angle.
    """
    theta = np.array(theta, dtype=float)
    current = float(cost(theta))
    if not np.isfinite(current):
        raise ValueError("cost returned a non-finite value at the start point")
    if form.exact and form.closed is not None and np.array_equal(form.closed[0], theta):
        _check_carried(current, form.closed[1], form.size, "sweep start")
    half = 0.5 * np.pi
    slots = zip(*(restrictions(c, theta, form.noise, o)
                  for c, o in zip(form.circuits, form.reads, strict=True)))
    for d, parts in enumerate(slots):
        base = theta[d]
        if form.exact:
            k, scale = form.matrix(parts[0].batch)
            # f(t) = mean + amp_c cos t + amp_s sin t; relative to the
            # current angle f(base + x) = mean + rel_c cos x + rel_s sin x
            mean = 0.5 * (k[0, 0].real + k[1, 1].real)
            amp_c = 0.5 * (k[0, 0].real - k[1, 1].real)
            amp_s = k[0, 1].real
            c, s = np.cos(base), np.sin(base)
            rel_c = amp_c * c + amp_s * s
            rel_s = amp_s * c - amp_c * s
            _check_carried(mean + rel_c, current, form.size, f"slot {d}")
            amp = np.hypot(amp_c, amp_s)
            if amp <= _FLAT * scale:
                current = float(mean + rel_c)
                continue
        else:
            f_plus = form.read([p.at(base + half) for p in parts])
            f_minus = form.read([p.at(base - half) for p in parts])
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"cost returned a non-finite value at slot {d}")
            # twice rel_c and rel_s, read off the three values
            rel_c = 2.0 * current - f_plus - f_minus
            rel_s = f_plus - f_minus
        theta[d] = wrap_angle(base - half - np.arctan2(rel_c, rel_s))
        current = (float(mean - amp) if form.exact else
                   float(form.read([p.at(theta[d]) for p in parts])))
    if form.exact:
        form.closed = (theta.copy(), current)
    return theta, current


@dataclass
class OptimizationTrace:
    sweeps: int = 0
    cost_history: list[float] = field(default_factory=list)
    converged: bool = False

    def log_lines(self) -> str:
        return "".join(f"{i} {c:.12g}\n" for i, c in enumerate(self.cost_history))


def vqe_ground_state(h: PauliSum, spec: AnsatzSpec,
                     settings: MeasurementSettings, noise: NoiseModel,
                     rng: np.random.Generator, tol: float, max_sweeps: int,
                     penalty: PauliSum | None = None,
                     theta0: np.ndarray | None = None,
                     ) -> tuple[float, np.ndarray, OptimizationTrace]:
    """Minimize <H> over the ansatz family.

    ``penalty`` is an optional hermitian operator added to the cost only
    (symmetry enforcement); the returned energy is <H> alone at the final
    angles.  ``theta0`` fixes the starting angles (see hf_start_angles);
    by default they are drawn from ``rng``, uniformly from [-0.1, 0.1),
    which then draws every sampled estimate too.  Convergence: change in
    sweep cost below tol, judged on a 3-sweep moving average when
    measurements are sampled or noisy.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be hermitian")
    if h.width != spec.width:
        raise ValueError("ansatz width does not match the Hamiltonian")
    circ = build_hea(spec)
    cost = CircuitCost(circ, settings, noise, rng,
                       [h if penalty is None else h + penalty])
    if theta0 is None:
        theta = rng.uniform(-0.1, 0.1, size=spec.n_slots)
    else:
        theta = np.array(theta0, dtype=float)
        if theta.shape != (spec.n_slots,):
            raise ValueError(f"theta0 must have {spec.n_slots} angles")
    trace = OptimizationTrace()
    window = 1 if cost.exact else 3
    hist = trace.cost_history
    for sweep in range(max_sweeps):
        theta, value = rotosolve_sweep(cost, theta, cost)
        hist.append(value)
        trace.sweeps = sweep + 1
        if len(hist) >= 2 * window and abs(
                np.mean(hist[-window:]) - np.mean(hist[-2 * window:-window])) < tol:
            trace.converged = True
            break
    e0 = sample_pauli_expectation(circ, theta, h, settings, noise, rng)
    return float(e0), theta, trace
