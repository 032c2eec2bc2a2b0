"""Variational solution of shifted linear systems, one frequency at a time.

For a perturbation V applied to the prepared ground state, the state
chi(z) = [z + s(H - E0)]^{-1} V |psi0> (s = -1 on the particle branch,
+1 on the hole branch) minimizes

    g(theta) = <0|U+ Q+Q U|0> - |<psi0|V+ Q U|0>|^2 / <psi0|V+V|psi0>,

a positive semidefinite quadratic form whose kernel is the normalized
correction vector.  The optimized circuit plus the scalar
gamma = <V|V> / <V|Q U|0> reproduces every Green's-function element of the
column without further optimization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import (Circuit, MeasurementSettings, NoiseModel, OverlapEngine,
                       run_pure, sample_pauli_expectation, simulate)
from .fermion import ladder_pauli, number_penalty
from .pauli import PauliSum
from .store import dumps_canonical
from .vqe import AnsatzSpec, build_hea, grow_hea_angles, rotosolve_sweep

PARTICLE, HOLE = "particle", "hole"
_BRANCH_CODE = {PARTICLE: 0, HOLE: 1}
_BRANCH_SIGN = {PARTICLE: -1, HOLE: +1}

V_NORM_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ShiftedOperator:
    """Q(z) = z + sign (H - e0); non-hermitian whenever Im z != 0."""

    base: PauliSum
    e0: float
    z: complex
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def to_pauli(self) -> PauliSum:
        return build_q(self.base, self.e0, self.z, self.sign)


def build_q(h: PauliSum, e0: float, z: complex, sign: int) -> PauliSum:
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    shift = PauliSum.identity(h.width, z - sign * e0)
    return shift + sign * h


@dataclass
class CorrectionVectorSolution:
    theta: np.ndarray
    residual: float              # g / <V|V> at the returned angles
    gamma: complex
    depth: int
    sweeps: int
    converged: bool
    zero: bool = False           # perturbation annihilated the ground state


@dataclass(frozen=True)
class SolverOptions:
    epsilon: float = 0.05        # convergence threshold on g / <V|V>
    max_sweeps: int = 60         # total sweep budget per point
    stall_sweeps: int = 10       # sweeps with <1% improvement before growing
    extra_depth: int = 3         # depth may grow to spec.depth + extra_depth
    sector_penalty: float = 1.0  # weight of the (N - n_target)^2 cost term
    gs_tol: float = 1e-8
    gs_max_sweeps: int = 200

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.extra_depth < 0:
            raise ValueError("extra_depth must be nonnegative")


class CorrectionProblem:
    """Shared per-column operators and the cost function at one frequency."""

    def __init__(self, h: PauliSum, e0: float, sign: int, v_op: PauliSum,
                 gs_circuit: Circuit, settings: MeasurementSettings,
                 noise: NoiseModel, n_target: int | None = None,
                 sector_penalty: float = 1.0):
        if gs_circuit.n_slots:
            raise ValueError("ground-state circuit must be fully bound")
        self.h = h
        self.e0 = e0
        self.sign = sign
        self.v_op = v_op
        self.gs_circuit = gs_circuit
        self.settings = settings
        self.noise = noise
        self.width = h.width
        # z-independent pieces: Q+Q = |z|^2 I + 2 Re(z) D + D^2 with
        # D = sign (H - e0), and V+Q = z V+ + V+ D.
        self.d_op = sign * (h - PauliSum.identity(h.width, e0))
        self.d2 = self.d_op * self.d_op
        self.v_adj = v_op.adjoint()
        self.vdj = self.v_adj * self.d_op
        self.vvdag = self.v_adj * v_op
        # The solution lives in a fixed particle-number sector, while the
        # prepared reference obeys Q|psi0> = z|psi0> and so costs only |z|^2:
        # at small |z| the optimizer can fall into that direction.  A sector
        # penalty (N - n_target)^2 removes every wrong-number direction and
        # is exactly zero on the states the solve is meant to reach.
        self.penalty_op = None
        if n_target is not None and sector_penalty > 0:
            self.penalty_op = number_penalty(h.width, n_target, sector_penalty)
        self._engines: dict[int, tuple[Circuit, OverlapEngine]] = {}

    def measure_v_norm(self, rng) -> float:
        return sample_pauli_expectation(self.gs_circuit, None, self.vvdag,
                                        self.settings, self.noise, rng)

    def qdq(self, z: complex) -> PauliSum:
        return (PauliSum.identity(self.width, abs(z) ** 2)
                + (2.0 * z.real) * self.d_op + self.d2)

    def vdq(self, z: complex) -> PauliSum:
        return z * self.v_adj + self.vdj

    def engine_for(self, spec: AnsatzSpec) -> tuple[Circuit, OverlapEngine]:
        cached = self._engines.get(spec.depth)
        if cached is None:
            circ = build_hea(spec)
            engine = OverlapEngine(self.gs_circuit, None, circ,
                                   self.settings, self.noise)
            cached = (circ, engine)
            self._engines[spec.depth] = cached
        return cached

    def make_cost(self, z: complex, spec: AnsatzSpec, v_norm: float, rng):
        """Returns (cost over angles, overlap estimator over angles).

        One cost evaluation simulates the ansatz once: <Q+Q>, the penalty
        and, without noise, the overlap all read that output.  The noisy
        overlap needs its own ancilla circuit.  Estimates are drawn in the
        order <Q+Q>, overlap, penalty.
        """
        qdq = self.qdq(z)
        vdq = self.vdq(z)
        circ, engine = self.engine_for(spec)
        settings, noise = self.settings, self.noise

        def overlap(theta, psi2=None) -> complex:
            return engine.estimate_sum(theta, vdq, rng, psi2)

        def cost(theta) -> float:
            states = simulate(circ, theta, noise)
            term1 = sample_pauli_expectation(circ, theta, qdq, settings, noise,
                                             rng, states)
            ov = overlap(theta, None if noise.enabled else states[0])
            value = float(term1 - abs(ov) ** 2 / v_norm)
            if self.penalty_op is not None:
                value += sample_pauli_expectation(circ, theta, self.penalty_op,
                                                  settings, noise, rng, states)
            return value

        return cost, overlap


def solve_correction_vector(problem: CorrectionProblem, z: complex,
                            spec: AnsatzSpec, options: SolverOptions,
                            rng: np.random.Generator,
                            theta0: np.ndarray | None = None,
                            depth0: int | None = None,
                            epsilon: float | None = None,
                            ) -> CorrectionVectorSolution:
    """Rotosolve until g/<V|V> < epsilon, growing depth on stalls.

    ``theta0``/``depth0`` warm-start from a neighboring frequency.  The
    returned angles are the best seen by measured cost.  ``epsilon``
    (default ``options.epsilon``) is where the sweeps stop; ``converged``
    always means the residual is below ``options.epsilon`` and gamma is
    defined, so a tighter re-solve that runs out of sweeps still counts
    as converged when it meets the sweep's threshold.
    """
    eps = options.epsilon if epsilon is None else epsilon
    v_norm = problem.measure_v_norm(rng)
    if v_norm < V_NORM_THRESHOLD:
        return CorrectionVectorSolution(
            theta=np.zeros(spec.n_slots), residual=0.0, gamma=0.0,
            depth=spec.depth, sweeps=0, converged=True, zero=True)

    cur = spec if depth0 is None else replace(spec, depth=depth0)
    max_depth = spec.depth + options.extra_depth
    if theta0 is not None:
        theta = np.asarray(theta0, dtype=float)
        if theta.shape != (cur.n_slots,):
            raise ValueError("warm-start angles do not match the depth")
    else:
        theta = rng.uniform(-0.1, 0.1, size=cur.n_slots)

    exact_run = problem.settings.mode == "exact" and not problem.noise.enabled
    cost, _ = problem.make_cost(z, cur, v_norm, rng)
    best_theta, best_val, best_depth = theta, np.inf, cur.depth
    history: list[float] = []
    sweeps = 0
    while sweeps < options.max_sweeps:
        theta, value = rotosolve_sweep(cost, theta, check_monotone=exact_run)
        sweeps += 1
        history.append(value)
        if value < best_val:
            best_theta, best_val, best_depth = theta.copy(), value, cur.depth
        if value / v_norm < eps:
            break
        if (len(history) >= options.stall_sweeps
                and cur.depth < max_depth
                and history[-options.stall_sweeps] - value
                    < 0.01 * abs(history[-options.stall_sweeps])):
            grown = replace(cur, depth=cur.depth + 1)
            theta = grow_hea_angles(theta, cur, grown)
            cur = grown
            cost, _ = problem.make_cost(z, cur, v_norm, rng)
            history.clear()

    if best_depth != cur.depth:
        cur = replace(cur, depth=best_depth)
    _, overlap = problem.make_cost(z, cur, v_norm, rng)
    denom = overlap(best_theta)
    converged = bool(best_val / v_norm < options.epsilon)
    if abs(denom) < 1e-10:
        gamma = 0.0 + 0j
        converged = False
    else:
        gamma = v_norm / denom
    return CorrectionVectorSolution(
        theta=best_theta, residual=float(best_val / v_norm), gamma=complex(gamma),
        depth=cur.depth, sweeps=sweeps, converged=converged)


# ---------------------------------------------------------------------------
# columns, sweeps, records


@dataclass
class PointRecord:
    """Everything produced by one (frequency, orbital, branch) solve."""

    k: int
    z: complex
    orbital: int
    branch: str
    elements: np.ndarray         # gamma * <V_i|U|0> over the orbital list
    theta: np.ndarray
    depth: int
    sweeps: int
    residual: float
    gamma: complex
    converged: bool
    attempts: int = 1

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "z_re": self.z.real, "z_im": self.z.imag,
            "orbital": self.orbital, "branch": self.branch,
            "elements_re": [float(x.real) for x in self.elements],
            "elements_im": [float(x.imag) for x in self.elements],
            "theta": [float(t) for t in self.theta],
            "depth": self.depth, "sweeps": self.sweeps,
            "residual": self.residual,
            "gamma_re": self.gamma.real, "gamma_im": self.gamma.imag,
            "converged": self.converged, "attempts": self.attempts,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PointRecord":
        return cls(
            k=d["k"], z=complex(d["z_re"], d["z_im"]), orbital=d["orbital"],
            branch=d["branch"],
            elements=np.array([complex(a, b) for a, b in
                               zip(d["elements_re"], d["elements_im"])]),
            theta=np.asarray(d["theta"], dtype=float), depth=d["depth"],
            sweeps=d["sweeps"], residual=d["residual"],
            gamma=complex(d["gamma_re"], d["gamma_im"]),
            converged=d["converged"], attempts=d.get("attempts", 1),
        )


def _point_rng(seed: int, branch: str, orbital: int, k: int, attempt: int):
    return np.random.default_rng(np.random.SeedSequence(
        [seed & 0xFFFFFFFF, _BRANCH_CODE[branch], orbital, k, attempt]))


def _stored_form(rec: PointRecord) -> PointRecord:
    """Round-trip a record through its persisted text representation.

    Warm starts, re-solve decisions, and matrix assembly then consume the
    same canonicalized floats whether the record was just computed or was
    loaded back from a checkpoint, which keeps interrupted-and-resumed runs
    byte-identical to uninterrupted ones.
    """
    return PointRecord.from_json_dict(json.loads(dumps_canonical(
        rec.to_json_dict())))


def _column_elements(problem: CorrectionProblem, spec_at: AnsatzSpec,
                     sol: CorrectionVectorSolution, element_ops: list[PauliSum],
                     rng) -> np.ndarray:
    if sol.zero or sol.gamma == 0:
        return np.zeros(len(element_ops), dtype=complex)
    circ, engine = problem.engine_for(spec_at)
    psi2 = None if problem.noise.enabled else run_pure(circ, sol.theta)
    vals = [engine.estimate_sum(sol.theta, a_op, rng, psi2) for a_op in element_ops]
    return sol.gamma * np.asarray(vals, dtype=complex)


def solve_column(h: PauliSum, e0: float, gs_circuit: Circuit,
                 zs: np.ndarray, branch: str, orbital: int,
                 orbitals: list[int], spec: AnsatzSpec, options: SolverOptions,
                 settings: MeasurementSettings, noise: NoiseModel, seed: int,
                 n_elec: int | None = None,
                 existing: dict[int, PointRecord] | None = None,
                 on_point=None) -> list[PointRecord]:
    """March one (orbital, branch) chain across the grid in order.

    Each frequency warm-starts from its predecessor.  After the pass, any
    interior point whose diagonal magnitude deviates more than 20% from both
    neighbors is re-solved at epsilon/10 with a fresh sub-seed.  ``n_elec``
    (electrons in the reference state) switches on the sector penalty for
    the N+1 / N-1 target space.
    """
    if branch not in _BRANCH_SIGN:
        raise ValueError(f"unknown branch {branch!r}")
    n_modes = h.width
    sign = _BRANCH_SIGN[branch]
    create = branch == PARTICLE
    v_op = ladder_pauli(orbital, create, n_modes)
    element_ops = [ladder_pauli(i, not create, n_modes) for i in orbitals]
    n_target = None if n_elec is None else n_elec + (1 if create else -1)
    problem = CorrectionProblem(h, e0, sign, v_op, gs_circuit, settings, noise,
                                n_target=n_target,
                                sector_penalty=options.sector_penalty)
    existing = existing or {}

    records: list[PointRecord] = []
    prev: tuple[np.ndarray, int] | None = None
    for k, z in enumerate(zs):
        rec = existing.get(k)
        if rec is None:
            rng = _point_rng(seed, branch, orbital, k, 0)
            theta0, depth0 = prev if prev is not None else (None, None)
            sol = solve_correction_vector(problem, complex(z), spec, options,
                                          rng, theta0=theta0, depth0=depth0)
            spec_at = replace(spec, depth=sol.depth)
            elements = _column_elements(problem, spec_at, sol, element_ops, rng)
            rec = _stored_form(PointRecord(
                k=k, z=complex(z), orbital=orbital, branch=branch,
                elements=elements, theta=sol.theta, depth=sol.depth,
                sweeps=sol.sweeps, residual=sol.residual, gamma=sol.gamma,
                converged=sol.converged))
            if on_point is not None:
                on_point(rec)
        prev = (rec.theta, rec.depth)
        records.append(rec)

    pos = orbitals.index(orbital)
    diag = np.array([abs(r.elements[pos]) for r in records])
    floor = 1e-12
    for k in range(1, len(records) - 1):
        if records[k].attempts > 1:
            continue
        left, mid, right = diag[k - 1], diag[k], diag[k + 1]
        if (abs(mid - left) > 0.2 * max(left, floor)
                and abs(mid - right) > 0.2 * max(right, floor)):
            rng = _point_rng(seed, branch, orbital, k, 1)
            warm = records[k - 1]
            sol = solve_correction_vector(
                problem, complex(zs[k]), spec, options, rng,
                theta0=warm.theta, depth0=warm.depth,
                epsilon=options.epsilon / 10.0)
            if sol.residual <= records[k].residual or not records[k].converged:
                spec_at = replace(spec, depth=sol.depth)
                elements = _column_elements(problem, spec_at, sol,
                                            element_ops, rng)
                rec = _stored_form(PointRecord(
                    k=k, z=complex(zs[k]), orbital=orbital, branch=branch,
                    elements=elements, theta=sol.theta, depth=sol.depth,
                    sweeps=sol.sweeps, residual=sol.residual, gamma=sol.gamma,
                    converged=sol.converged, attempts=2))
                records[k] = rec
                if on_point is not None:
                    on_point(rec)
    return records


def assemble_matrices(records: list[PointRecord], orbitals: list[int],
                      n_orb: int, n_points: int) -> np.ndarray:
    """Spin-orbital Green's-function matrices from column records.

    Particle records fill column j over rows i; hole records fill row j over
    columns i.  The spatial (spin-up) block is mirrored onto the spin-down
    block, cross-spin elements vanish for spin-restricted references.
    """
    m = 2 * n_orb
    out = np.zeros((n_points, m, m), dtype=complex)
    for rec in records:
        if rec.branch == PARTICLE:
            for pos, i in enumerate(orbitals):
                out[rec.k, i, rec.orbital] += rec.elements[pos]
        else:
            for pos, i in enumerate(orbitals):
                out[rec.k, rec.orbital, i] += rec.elements[pos]
    out[:, n_orb:, n_orb:] = out[:, :n_orb, :n_orb]
    return out


def sweep_columns(h: PauliSum, e0: float, gs_circuit: Circuit, zs: np.ndarray,
                  orbitals: list[int], spec: AnsatzSpec, options: SolverOptions,
                  settings: MeasurementSettings, noise: NoiseModel, seed: int,
                  n_elec: int | None = None, existing: dict | None = None,
                  on_point=None) -> list[PointRecord]:
    """All (branch, orbital) chains in a deterministic serial order."""
    existing = existing or {}
    records: list[PointRecord] = []
    for branch in (PARTICLE, HOLE):
        for j in orbitals:
            records.extend(solve_column(
                h, e0, gs_circuit, zs, branch, j, orbitals, spec, options,
                settings, noise, seed, n_elec=n_elec,
                existing=existing.get((branch, j)), on_point=on_point))
    return records
