"""Hardware-efficient ansatz and Rotosolve-based variational minimization.

The ansatz repeats a block of single-qubit rotations (one independent angle
per gate) followed by a linear CNOT ladder, and closes with a final rotation
layer.  Rotosolve exploits the exact sinusoidal dependence of the cost on
each angle: the value at the slot's angle and at +-pi/2 from it give the
coordinate minimum in closed form, so no step sizes or gradients appear
anywhere.

A sampled or noisy cost is probed as a black box, three evaluations per
slot.  An exact cost <psi|M|psi> is read off the circuit instead (see
``ExactCost``): with phi the state before slot d's gate R(t) = exp(-i t s/2)
and S the rest of the circuit, psi(t) = cos(t/2) a + sin(t/2) b for
a = S phi and b = -i S s phi.  One run of S on the pair (a, b) gives the
2x2 matrix K of M on it and with it the slot's whole sinusoid, while phi
advances by one gate range per slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .circuits import (Circuit, Gate, MeasurementSettings, NoiseModel,
                       apply_gates, sample_pauli_expectation)
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
                raise ValueError(f"unsupported rotation kind {kind!r}")

    @property
    def n_slots(self) -> int:
        return self.width * len(self.pattern) * (self.depth + 1)

    def grown(self, extra: int = 1) -> "AnsatzSpec":
        return AnsatzSpec(self.width, self.depth + extra, self.pattern)


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


class ExactCost:
    """The exact cost <psi|M|psi> of a circuit's output, with M the sum of
    ``ops`` minus |w><w|, in the form the pair path of ``rotosolve_sweep``
    reads.

    ``ops`` are hermitian sums, kept apart so that each keeps its compiled
    action, and ``w`` is an optional register vector.  The circuit's slots
    must be one-qubit rotations with unit scale, each used once and in gate
    order, as ``build_hea`` lays them out.
    """

    _GENERATOR = {"RX": "X", "RY": "Y", "RZ": "Z"}

    def __init__(self, circ: Circuit, ops: Sequence[PauliSum],
                 w: np.ndarray | None = None):
        self.circ = circ
        self.ops = tuple(ops)
        self.w = w
        self.positions = [i for i, g in enumerate(circ.gates) if g.slot is not None]
        slotted = [circ.gates[i] for i in self.positions]
        if ([g.slot for g in slotted] != list(range(circ.n_slots))
                or any(g.kind not in self._GENERATOR or g.scale != 1.0
                       for g in slotted)):
            raise ValueError("slots must be unit-scale rotations in gate order")
        self.generators = [Gate(self._GENERATOR[g.kind], g.qubits) for g in slotted]
        # angles and closed-form value at the end of the last sweep, which
        # the next sweep's full evaluation checks
        self.closed: tuple[np.ndarray, float] | None = None

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


def _check_carried(value: float, carried: float, where: str) -> None:
    if not abs(value - carried) <= 1e-10 * (1.0 + abs(carried)):
        raise AssertionError(f"{where}: exact cost {value:.15g} differs from "
                             f"the carried value {carried:.15g}")


def rotosolve_sweep(cost, theta: np.ndarray, *,
                    exact: ExactCost | None = None) -> tuple[np.ndarray, float]:
    """One coordinate-descent pass over all slots.

    Each slot is moved to the closed-form minimum of its sinusoidal
    restriction.  Returns the updated angles and the cost there.

    Without ``exact`` the cost is probed at +-pi/2 from each slot's angle
    and evaluated again after the move, which is the next slot's value at
    its current angle.  With ``exact`` (the same cost in exact form) the
    sweep calls ``cost`` once, at the start, and reads every slot's
    sinusoid off one pair run; a slot whose sinusoid is flat, its
    amplitude within round-off of the terms summed into it, keeps its
    angle.  Each slot's value at its current angle must then equal the
    carried one, the full evaluation at slot 0 and the previous slot's
    closed-form minimum after that, or AssertionError is raised.
    """
    theta = np.array(theta, dtype=float)
    current = float(cost(theta))
    if not np.isfinite(current):
        raise ValueError("cost returned a non-finite value at the start point")
    if exact is not None:
        return _pair_sweep(exact, theta, current)
    half = 0.5 * np.pi
    for d in range(theta.shape[0]):
        base = theta[d]
        f0 = current
        theta[d] = base + half
        f_plus = float(cost(theta))
        theta[d] = base - half
        f_minus = float(cost(theta))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"cost returned a non-finite value probing slot {d}")
        theta[d] = wrap_angle(base - half - np.arctan2(2.0 * f0 - f_plus - f_minus,
                                                       f_plus - f_minus))
        current = float(cost(theta))
    return theta, current


def _pair_sweep(exact: ExactCost, theta: np.ndarray,
                current: float) -> tuple[np.ndarray, float]:
    if exact.closed is not None and np.array_equal(exact.closed[0], theta):
        _check_carried(current, exact.closed[1], "sweep start")
    gates = exact.circ.gates
    phi = np.zeros(1 << exact.circ.width, dtype=complex)
    phi[0] = 1.0
    done = 0
    for d, pos in enumerate(exact.positions):
        apply_gates(phi, gates[done:pos], theta)
        done = pos
        pair = np.array([phi, phi])
        apply_gates(pair[1], [exact.generators[d]])
        pair[1] *= -1j
        apply_gates(pair, gates[pos + 1:], theta)
        k, scale = exact.matrix(pair)
        # f(t) = mean + amp_c cos t + amp_s sin t; relative to the current
        # angle f(base + x) = mean + rel_c cos x + rel_s sin x, the form the
        # probe path's update reads (2 rel_c = 2 f0 - f+ - f-,
        # 2 rel_s = f+ - f-), so both paths pick and wrap angles alike
        mean = 0.5 * (k[0, 0].real + k[1, 1].real)
        amp_c = 0.5 * (k[0, 0].real - k[1, 1].real)
        amp_s = k[0, 1].real
        base = theta[d]
        c, s = np.cos(base), np.sin(base)
        rel_c = amp_c * c + amp_s * s
        rel_s = amp_s * c - amp_c * s
        _check_carried(mean + rel_c, current, f"slot {d}")
        amp = np.hypot(amp_c, amp_s)
        if amp > _FLAT * scale:
            theta[d] = wrap_angle(base - 0.5 * np.pi - np.arctan2(rel_c, rel_s))
            current = float(mean - amp)
        else:
            current = float(mean + rel_c)
    exact.closed = (theta.copy(), current)
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
                     tol: float = 1e-9, max_sweeps: int = 200,
                     penalty: PauliSum | None = None,
                     rng: np.random.Generator | None = None,
                     theta0: np.ndarray | None = None,
                     ) -> tuple[float, np.ndarray, OptimizationTrace]:
    """Minimize <H> over the ansatz family.

    ``penalty`` is an optional hermitian operator added to the cost only
    (symmetry enforcement); the returned energy is <H> alone at the final
    angles.  ``theta0`` fixes the starting angles (see hf_start_angles);
    by default they are drawn uniformly from [-0.1, 0.1).  Convergence:
    change in sweep cost below tol, judged on a 3-sweep moving average
    when measurements are sampled or noisy.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be hermitian")
    if h.width != spec.width:
        raise ValueError("ansatz width does not match the Hamiltonian")
    if rng is None:
        rng = settings.make_rng()
    circ = build_hea(spec)
    cost_op = h if penalty is None else h + penalty
    exact_run = settings.mode == "exact" and not noise.enabled
    exact = ExactCost(circ, [cost_op]) if exact_run else None

    def cost(theta: np.ndarray) -> float:
        return sample_pauli_expectation(circ, theta, cost_op, settings, noise, rng)

    if theta0 is None:
        theta = rng.uniform(-0.1, 0.1, size=spec.n_slots)
    else:
        theta = np.array(theta0, dtype=float)
        if theta.shape != (spec.n_slots,):
            raise ValueError(f"theta0 must have {spec.n_slots} angles")
    trace = OptimizationTrace()
    window = 3
    for sweep in range(max_sweeps):
        theta, value = rotosolve_sweep(cost, theta, exact=exact)
        trace.cost_history.append(value)
        trace.sweeps = sweep + 1
        hist = trace.cost_history
        if exact_run:
            if len(hist) >= 2 and abs(hist[-1] - hist[-2]) < tol:
                trace.converged = True
                break
        elif len(hist) >= 2 * window:
            recent = np.mean(hist[-window:])
            previous = np.mean(hist[-2 * window:-window])
            if abs(recent - previous) < tol:
                trace.converged = True
                break
    e0 = sample_pauli_expectation(circ, theta, h, settings, noise, rng)
    return float(e0), theta, trace
