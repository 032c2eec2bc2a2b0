"""Variational solution of shifted linear systems, one frequency at a time.

For a perturbation V applied to the prepared ground state, the state
chi(z) = [z + s(H - E0)]^{-1} V |psi0> (s = -1 on the particle branch,
+1 on the hole branch) minimizes

    g(theta) = <0|U+ Q+Q U|0> - |<psi0|V+ Q U|0>|^2 / <psi0|V+V|psi0>,

a positive semidefinite quadratic form whose kernel is the normalized
correction vector.  The optimized circuit plus the scalar
gamma = <V|V> / <V|Q U|0> reproduces every Green's-function element of the
column without further optimization: after its sweeps each point simulates
its overlap circuit once and reads the denominator of gamma and every
element of the column off that one output.
``CorrectionProblem`` derives a column's operators from its labels
(orbital, branch), and each solve returns the ``PointRecord`` it stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import (Circuit, MeasurementSettings, NoiseModel, OverlapEngine,
                       sample_pauli_expectation, simulate)
from .fermion import ladder_pauli, number_penalty
from .pauli import PauliSum, apply_sum, weighted_sum
from .store import canonical_fields
from .vqe import (AnsatzSpec, CircuitCost, build_hea, grow_hea_angles,
                  rotosolve_sweep)

PARTICLE, HOLE = "particle", "hole"
_BRANCH_CODE = {PARTICLE: 0, HOLE: 1}
_BRANCH_SIGN = {PARTICLE: -1, HOLE: +1}

V_NORM_THRESHOLD = 1e-8


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
        if min(self.max_sweeps, self.gs_max_sweeps, self.stall_sweeps) < 1:
            raise ValueError("max_sweeps, gs_max_sweeps and stall_sweeps "
                             "must be at least 1")
        if self.extra_depth < 0:
            raise ValueError("extra_depth must be nonnegative")
        if self.sector_penalty < 0:
            raise ValueError("sector_penalty must be nonnegative")


def target_sector(branch: str, n_elec: int) -> int:
    """The particle number of a branch's correction vector: V = c+ adds an
    electron to the reference's ``n_elec``, V = c removes one."""
    if branch not in _BRANCH_SIGN:
        raise ValueError(f"unknown branch {branch!r}")
    return n_elec - _BRANCH_SIGN[branch]


class CorrectionProblem:
    """One (orbital, branch) column's operators and its cost at each
    frequency, derived from those labels: V is c+ of ``orbital`` (sign -1)
    on the particle branch and c (sign +1) on the hole branch, and
    ``element_ops``, whose overlaps times gamma give the column's elements,
    are the adjoint ladder operators of every spatial orbital of ``h``.
    """

    def __init__(self, h: PauliSum, e0: float, branch: str, orbital: int,
                 n_elec: int, gs_circuit: Circuit, settings: MeasurementSettings,
                 noise: NoiseModel, sector_penalty: float):
        if gs_circuit.n_slots:
            raise ValueError("ground-state circuit must be fully bound")
        n_target = target_sector(branch, n_elec)
        create = branch == PARTICLE
        self.branch, self.orbital = branch, orbital
        self.v_op = ladder_pauli(orbital, create, h.width)
        self.element_ops = tuple(ladder_pauli(i, not create, h.width)
                                 for i in range(h.width // 2))
        self.gs_circuit, self.settings, self.noise = gs_circuit, settings, noise
        self.width = h.width
        # z-independent pieces: Q+Q = |z|^2 I + 2 Re(z) D + D^2 with
        # D = sign (H - e0), and V+Q = z V+ + V+ D.  Each z's weighted sum
        # combines the forms of these parts, each compiled once on first use.
        self.ident = PauliSum.identity(h.width)
        self.d_op = _BRANCH_SIGN[branch] * (h - PauliSum.identity(h.width, e0))
        self.d2 = self.d_op * self.d_op
        self.v_adj = self.v_op.adjoint()
        self.vdj = self.v_adj * self.d_op
        self.vdv = self.v_adj * self.v_op
        # The solution lives in a fixed particle-number sector, while the
        # prepared reference obeys Q|psi0> = z|psi0> and so costs only |z|^2:
        # at small |z| the optimizer can fall into that direction.  A sector
        # penalty (N - n_target)^2 removes every wrong-number direction and
        # is exactly zero on the states the solve is meant to reach.
        self.penalty_op = None
        if sector_penalty > 0:
            self.penalty_op = number_penalty(h.width, n_target, sector_penalty)
        self._engines: dict[int, tuple[Circuit, OverlapEngine]] = {}

    def measure_v_norm(self, rng) -> float:
        return sample_pauli_expectation(self.gs_circuit, None, self.vdv,
                                        self.settings, self.noise, rng)

    def qdq(self, z: complex) -> PauliSum:
        return weighted_sum(self.width, [(abs(z) ** 2, self.ident),
                                         (2.0 * z.real, self.d_op),
                                         (1.0, self.d2)])

    def vdq(self, z: complex) -> PauliSum:
        return weighted_sum(self.width, [(z, self.v_adj), (1.0, self.vdj)])

    def engine_for(self, spec: AnsatzSpec) -> tuple[Circuit, OverlapEngine]:
        cached = self._engines.get(spec.depth)
        if cached is None:
            circ = build_hea(spec)
            engine = OverlapEngine(self.gs_circuit, circ, self.settings,
                                   self.noise)
            cached = (circ, engine)
            self._engines[spec.depth] = cached
        return cached

    def make_cost(self, z: complex, spec: AnsatzSpec, v_norm: float,
                  rng) -> CircuitCost:
        """g at frequency z over the ansatz's angles, as a ``CircuitCost``
        of the ansatz with the operators Q+Q and the penalty and the
        overlap term (engine, V+Q, <V|V>), estimated in the order <Q+Q>,
        overlap, penalty.  Under noise the overlap is read off the Hadamard
        test's coherence block (``OverlapEngine.circuit``), whose every slot
        drives one gate on the block's rows.
        With exact, noiseless measurement, and only then, the sweep also
        reads g as the operator M = Q+Q + penalty - |w><w| / <V|V>: the
        overlap is <w|psi> with w = (V+Q)+ |psi0> = (z* + D) V|psi0>, which
        reuses the compiled D and V instead of compiling the adjoint of V+Q.
        """
        qdq, vdq = self.qdq(z), self.vdq(z)
        circ, engine = self.engine_for(spec)
        ops = [qdq] if self.penalty_op is None else [qdq, self.penalty_op]
        w = None
        if self.settings.mode == "exact" and not self.noise.enabled:
            v_psi0 = apply_sum(self.v_op, engine.psi1)
            w = (z.conjugate() * v_psi0 + apply_sum(self.d_op, v_psi0)) / np.sqrt(v_norm)
        return CircuitCost(circ, self.settings, self.noise, rng, ops,
                           (engine, vdq, v_norm), w)


def solve_correction_vector(problem: CorrectionProblem, k: int, z: complex,
                            spec: AnsatzSpec, options: SolverOptions,
                            rng: np.random.Generator,
                            theta0: np.ndarray | None = None) -> PointRecord:
    """The record of point ``k`` of the problem's column, at frequency z:
    Rotosolve until g/<V|V> < epsilon, growing depth on stalls.

    ``theta0`` warm-starts from a neighboring frequency's angles, whose
    number fixes the depth to start at: ``spec`` with that many blocks, or
    ValueError for angles that are not whole blocks of it.  The recorded
    angles are the best seen by measured cost; ``converged`` means their
    residual is below ``options.epsilon`` and gamma is defined.  One
    simulation of the overlap circuit at those angles then gives the
    denominator of gamma and each element of ``problem.element_ops``,
    estimated in that order.  A perturbation that annihilates the ground
    state records gamma 0, converged, with zero elements.  So does a
    denominator that vanishes, but not converged: at the correction vector
    |<V|Q U|0>| >= sqrt(<V|V>) |Im z|, because Q is normal with
    |eigenvalues| >= |Im z|, and a denominator below 1e-10 of that scale
    defines no gamma.
    """
    def record(theta, depth, sweeps, residual, gamma, elements, converged):
        return PointRecord(
            k=k, z_re=z.real, z_im=z.imag, orbital=problem.orbital,
            branch=problem.branch, elements_re=elements.real,
            elements_im=elements.imag, theta=theta, depth=depth, sweeps=sweeps,
            residual=residual, gamma_re=gamma.real, gamma_im=gamma.imag,
            converged=converged)

    zeros = np.zeros(len(problem.element_ops), dtype=complex)
    v_norm = problem.measure_v_norm(rng)
    if v_norm < V_NORM_THRESHOLD:
        return record(np.zeros(spec.n_slots), spec.depth, 0, 0.0, 0j, zeros, True)

    cur = spec
    max_depth = spec.depth + options.extra_depth
    if theta0 is not None:
        theta = np.asarray(theta0, dtype=float)
        blocks, rest = divmod(theta.size, spec.width * len(spec.pattern))
        if theta.ndim != 1 or rest or blocks < 2:
            raise ValueError("warm-start angles are not whole blocks of the ansatz")
        cur = replace(spec, depth=blocks - 1)
    else:
        theta = rng.uniform(-0.1, 0.1, size=cur.n_slots)

    cost = problem.make_cost(z, cur, v_norm, rng)
    best_theta, best_val, best_depth = theta, np.inf, cur.depth
    history: list[float] = []
    sweeps = 0
    while sweeps < options.max_sweeps:
        theta, value = rotosolve_sweep(cost, theta, cost)
        sweeps += 1
        history.append(value)
        if value < best_val:
            best_theta, best_val, best_depth = theta.copy(), value, cur.depth
        if value / v_norm < options.epsilon:
            break
        if (len(history) >= options.stall_sweeps
                and cur.depth < max_depth
                and history[-options.stall_sweeps] - value
                    < 0.01 * abs(history[-options.stall_sweeps])):
            grown = replace(cur, depth=cur.depth + 1)
            theta = grow_hea_angles(theta, cur, grown)
            cur = grown
            cost = problem.make_cost(z, cur, v_norm, rng)
            history.clear()

    _, engine = problem.engine_for(replace(cur, depth=best_depth))
    vdq = problem.vdq(z)
    states = simulate(engine.circuit, best_theta, problem.noise,
                      [vdq, *problem.element_ops])
    denom = engine.estimate_sum(states, vdq, rng)
    converged = bool(best_val / v_norm < options.epsilon)
    if abs(denom) < 1e-10 * np.sqrt(v_norm) * abs(z.imag):
        gamma, elements, converged = 0j, zeros, False
    else:
        gamma = complex(v_norm / denom)
        elements = gamma * np.asarray(
            [engine.estimate_sum(states, a_op, rng)
             for a_op in problem.element_ops], dtype=complex)
    return record(best_theta, best_depth, sweeps, float(best_val / v_norm),
                  gamma, elements, converged)


# ---------------------------------------------------------------------------
# columns, sweeps, records


@dataclass(frozen=True)
class PointRecord:
    """Everything produced by one (frequency, orbital, branch) solve.

    The fields are the keys of its checkpoint line.  Each float is rounded
    to its stored text as the record is built, so a resumed run reads back
    exactly the numbers an uninterrupted one goes on with.
    """

    k: int
    z_re: float
    z_im: float
    orbital: int
    branch: str
    elements_re: tuple[float, ...]   # gamma * <V_i|U|0> over the orbitals
    elements_im: tuple[float, ...]
    theta: tuple[float, ...]
    depth: int
    sweeps: int
    residual: float
    gamma_re: float
    gamma_im: float
    converged: bool
    attempts: int = 1            # 1; checkpoints of re-solved points hold 2

    def __post_init__(self):
        if self.branch not in _BRANCH_SIGN:
            raise ValueError(f"unknown branch {self.branch!r}")
        if len(self.elements_re) != len(self.elements_im):
            raise ValueError("elements_re and elements_im differ in length")
        canonical_fields(self)

    @property
    def z(self) -> complex:
        return complex(self.z_re, self.z_im)

    @property
    def gamma(self) -> complex:
        return complex(self.gamma_re, self.gamma_im)

    @property
    def elements(self) -> np.ndarray:
        return np.array(self.elements_re) + 1j * np.array(self.elements_im)

    def bound(self) -> float:
        """Bound on each element's error: g vanishes at the correction
        vector and Q(z) is normal with |eigenvalues| >= |Im z|, so the error
        is at most |gamma| sqrt(residual) / |Im z|.  A point whose overlap
        vanished stores 0 for elements of modulus <= 1 / |Im z|.  The error
        of the prepared ground state is excluded."""
        if self.gamma == 0 and not self.converged:
            return 1.0 / abs(self.z.imag)
        return abs(self.gamma) * np.sqrt(max(self.residual, 0.0)) / abs(self.z.imag)


def _point_rng(seed: int, branch: str, orbital: int, k: int):
    # the constant 0 keeps the draws that existing checkpoints were made with
    return np.random.default_rng(np.random.SeedSequence(
        [seed & 0xFFFFFFFF, _BRANCH_CODE[branch], orbital, k, 0]))


def solve_column(problem: CorrectionProblem, zs: np.ndarray, spec: AnsatzSpec,
                 options: SolverOptions, existing: dict[int, PointRecord],
                 on_point) -> list[PointRecord]:
    """March the problem's (orbital, branch) chain across the grid in order.

    Each frequency whose record ``existing`` lacks is solved once,
    warm-started from its predecessor, with draws seeded by the settings'
    seed and the point, and handed to ``on_point`` as it is solved; its
    record's residual bounds its error (``PointRecord.bound``), so no point
    is judged by its neighbours.
    """
    records: list[PointRecord] = []
    theta0 = None
    for k, z in enumerate(zs):
        rec = existing.get(k)
        if rec is None:
            rng = _point_rng(problem.settings.seed, problem.branch,
                             problem.orbital, k)
            rec = solve_correction_vector(problem, k, complex(z), spec, options,
                                          rng, theta0=theta0)
            on_point(rec)
        theta0 = rec.theta
        records.append(rec)
    return records


def assemble_matrices(records: list[PointRecord], n_orb: int, n_points: int,
                      values: list[np.ndarray] | None = None) -> np.ndarray:
    """Spin-orbital Green's-function matrices from column records, each
    holding an element for every one of the ``n_orb`` spatial orbitals.

    Particle records fill column j over rows i; hole records fill row j over
    columns i.  The spatial (spin-up) block is mirrored onto the spin-down
    block, cross-spin elements vanish for spin-restricted references.
    ``values``, one array over the orbitals per record, takes the place of
    the records' elements: a sweep sums its per-element bounds this way.
    """
    m = 2 * n_orb
    out = np.zeros((n_points, m, m), dtype=complex)
    if values is None:
        values = [rec.elements for rec in records]
    for rec, vals in zip(records, values):
        if rec.branch == PARTICLE:
            out[rec.k, :n_orb, rec.orbital] += vals
        else:
            out[rec.k, rec.orbital, :n_orb] += vals
    out[:, n_orb:, n_orb:] = out[:, :n_orb, :n_orb]
    return out


def sweep_columns(h: PauliSum, e0: float, gs_circuit: Circuit, zs: np.ndarray,
                  spec: AnsatzSpec, options: SolverOptions,
                  settings: MeasurementSettings, noise: NoiseModel, n_elec: int,
                  existing: dict, on_point) -> list[PointRecord]:
    """The (branch, orbital) chain of every spatial orbital of ``h`` on
    both branches (``solve_column``), in a deterministic serial order, from
    a reference of ``n_elec`` electrons; ``existing`` holds the records
    already solved by (branch, orbital), then by k."""
    records: list[PointRecord] = []
    for branch in (PARTICLE, HOLE):
        for j in range(h.width // 2):
            problem = CorrectionProblem(h, e0, branch, j, n_elec, gs_circuit,
                                        settings, noise, options.sector_penalty)
            records.extend(solve_column(problem, zs, spec, options,
                                        existing.get((branch, j), {}), on_point))
    return records
