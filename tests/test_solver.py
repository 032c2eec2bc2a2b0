"""Per-frequency variational linear solves and their bookkeeping."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from corrvec import circuits, pauli, solver
from corrvec.circuits import MeasurementSettings, NoiseModel
from corrvec.config import ConfigError, parse, to_json_dict
from corrvec.fermion import (ladder_pauli, number_operator, number_penalty,
                             total_spin_squared)
from corrvec.oracle import materialize
from corrvec.solver import (
    HOLE,
    PARTICLE,
    CorrectionProblem,
    PointRecord,
    SolverOptions,
    assemble_matrices,
    solve_column,
    solve_correction_vector,
    sweep_columns,
    target_sector,
)
from corrvec.vqe import AnsatzSpec, build_hea, hf_start_angles, vqe_ground_state


@pytest.fixture(scope="module")
def h2_gs(h2_hamiltonian):
    """Variationally prepared H2 ground state: (energy, bound circuit)."""
    spec = AnsatzSpec(width=4, depth=3)
    rng = np.random.default_rng(42)
    theta0 = hf_start_angles(spec, [0, 2], jitter=0.02, rng=rng)
    pen = number_penalty(4, 2, 1.0) + total_spin_squared(2)
    e0, theta, trace = vqe_ground_state(
        h2_hamiltonian, spec, MeasurementSettings(), NoiseModel(), rng,
        tol=1e-10, max_sweeps=200, penalty=pen, theta0=theta0)
    assert trace.converged
    return e0, build_hea(spec).bound(theta)


def discard(rec):
    """An ``on_point`` that keeps nothing."""


def particle_column(oracle, z, j):
    """Column j of the particle branch alone, from the oracle's poles and
    weights."""
    poles, weights = oracle.particle
    return np.einsum("ki,k->i", weights.conj(), weights[:, j] / (z - poles))


def test_build_q_matches_dense(dimer_hamiltonian, dimer_ground):
    """The column's operators follow from its labels: V = c+ of the orbital
    with sign -1 and target N+1 on the particle branch, V = c with sign +1
    and target N-1 on the hole branch, and the adjoint ladder operators of
    every orbital as elements.  The cost's operators against
    Q = z + sign (H - e0) built densely: qdq(z) is Q+Q and vdq(z) is V+Q."""
    e0, _ = dimer_ground
    mat = materialize(dimer_hamiltonian)
    eye = np.eye(mat.shape[0])
    gs_circ = build_hea(AnsatzSpec(width=4, depth=1)).bound(np.zeros(16))
    for branch, sign in ((PARTICLE, -1), (HOLE, +1)):
        problem = CorrectionProblem(dimer_hamiltonian, e0, branch, 1, 2, gs_circ,
                                    MeasurementSettings(), NoiseModel(), 0.5)
        create = sign < 0
        assert problem.v_op == ladder_pauli(1, create, 4)
        assert problem.element_ops == tuple(ladder_pauli(i, not create, 4)
                                            for i in (0, 1))
        assert target_sector(branch, 2) == 2 - sign
        assert problem.penalty_op == number_penalty(4, 2 - sign, 0.5)
        v_adj = materialize(problem.v_op).conj().T
        for z in (0.3 + 0.05j, -1.7 + 0.2j, 2.5j, 0.8):
            q = z * eye + sign * (mat - e0 * eye)
            assert np.allclose(materialize(problem.qdq(z)), q.conj().T @ q,
                               atol=1e-12)
            assert np.allclose(materialize(problem.vdq(z)), v_adj @ q,
                               atol=1e-12)


def test_solver_options_validation():
    for bad in ({"epsilon": 0.0}, {"extra_depth": -1}, {"max_sweeps": 0},
                {"gs_max_sweeps": 0}, {"stall_sweeps": 0},
                {"sector_penalty": -1.0}):
        with pytest.raises(ValueError):
            SolverOptions(**bad)


def test_correction_problem_requires_bound_circuit(h2_hamiltonian):
    spec = AnsatzSpec(width=4, depth=1)
    unbound = build_hea(spec)
    with pytest.raises(ValueError, match="fully bound"):
        CorrectionProblem(h2_hamiltonian, -0.9, PARTICLE, 0, 2, unbound,
                          MeasurementSettings(), NoiseModel(), 1.0)
    bound = unbound.bound(np.zeros(spec.n_slots))
    with pytest.raises(ValueError, match="unknown branch"):
        CorrectionProblem(h2_hamiltonian, -0.9, "up", 0, 2, bound,
                          MeasurementSettings(), NoiseModel(), 1.0)


def test_single_point_solve_matches_resolvent(h2_hamiltonian, h2_gs,
                                              h2_oracle, rng):
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=3)
    options = SolverOptions(epsilon=1e-5)
    zs = np.array([1.0 + 0.2j])
    problem = CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 0, 2, gs_circ,
                                MeasurementSettings(seed=9), NoiseModel(),
                                options.sector_penalty)
    records = solve_column(problem, zs, spec, options, {}, discard)
    rec = records[0]
    assert rec.converged
    assert rec.residual < 1e-5
    ref = particle_column(h2_oracle, 1.0 + 0.2j, 0)[:2]
    assert np.max(np.abs(rec.elements - ref)) < 1e-3


def test_grid_sweep_matches_oracle(h2_hamiltonian, h2_gs, h2_oracle):
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=3)
    options = SolverOptions(epsilon=1e-4)
    eta = 0.05
    omegas = np.array([-0.8, 0.0, 0.6])
    zs = omegas + 1j * eta
    records = sweep_columns(h2_hamiltonian, e0, gs_circ, zs, spec, options,
                            MeasurementSettings(seed=11), NoiseModel(), 2, {},
                            discard)
    assert all(r.converged for r in records)
    g = assemble_matrices(records, 2, len(zs))
    ref = h2_oracle.series(zs)
    assert np.max(np.abs(g - ref)) < 2e-2


def test_zero_perturbation_short_circuits():
    h = number_operator(4)
    spec = AnsatzSpec(width=4, depth=1)
    gs_circ = build_hea(spec).bound(np.zeros(spec.n_slots))
    zs = np.array([0.5 + 0.1j])
    problem = CorrectionProblem(h, 0.0, HOLE, 1, 0, gs_circ,
                                MeasurementSettings(seed=3), NoiseModel(), 1.0)
    records = solve_column(problem, zs, spec, SolverOptions(), {}, discard)
    rec = records[0]
    assert rec.converged
    assert rec.sweeps == 0
    assert rec.gamma == 0
    assert np.all(rec.elements == 0)


def test_vanishing_overlap_refuses_gamma_at_any_scale(h2_hamiltonian, h2_gs,
                                                    monkeypatch):
    """A denominator <V|Q U|0> that vanishes defines no gamma: the point
    stores gamma 0 and zero elements, is not converged, and is bounded by
    1 / |Im z|.  A small but finite one, 1e-8 of the overlap read, still
    defines gamma, and scaling H, E0 and z together leaves both verdicts
    as they are: the guard is relative to sqrt(<V|V>) |Im z|, the least
    |<V|Q U|0>| takes at the correction vector.  The options that weigh
    terms of g, epsilon and the sector penalty, carry the units of Q+Q and
    scale with it, so every scale runs the same sweeps."""
    e0, gs_circ = h2_gs
    real_estimate, real_simulate = circuits.OverlapEngine.estimate_sum, solver.simulate
    # only the read-off after the sweeps simulates through the solver module
    read_off = []
    monkeypatch.setattr(solver, "simulate", lambda *args: read_off.append(
        real_simulate(*args)) or read_off[-1])
    for scale in (1.0, 1e-4):
        for factor in (0.0, 1e-8):
            def estimate_sum(self, states, op, rng):
                value = real_estimate(self, states, op, rng)
                return factor * value if any(states is s for s in read_off) else value

            monkeypatch.setattr(circuits.OverlapEngine, "estimate_sum",
                                estimate_sum)
            z = scale * (1.0 + 0.2j)
            options = SolverOptions(max_sweeps=2, epsilon=0.05 * scale**2,
                                    sector_penalty=scale**2)
            problem = CorrectionProblem(
                scale * h2_hamiltonian, scale * e0, PARTICLE, 0, 2, gs_circ,
                MeasurementSettings(seed=9), NoiseModel(), options.sector_penalty)
            (rec,) = solve_column(problem, np.array([z]),
                                  AnsatzSpec(width=4, depth=2), options, {}, discard)
            assert (rec.gamma == 0) == (factor == 0), (scale, factor)
            if factor == 0:
                assert not rec.converged
                assert np.all(rec.elements == 0)
                assert rec.bound() == pytest.approx(1 / abs(z.imag))


def test_each_point_simulates_its_overlap_circuit_once(h2_hamiltonian,
                                                       h2_gs, monkeypatch):
    """After its last sweep a point simulates its overlap circuit once, and
    reads gamma's denominator and every element off that output."""
    e0, gs_circ = h2_gs
    after_sweeps = []
    real_sweep, real_simulate = solver.rotosolve_sweep, circuits.simulate

    def sweep(*args, **kwargs):
        result = real_sweep(*args, **kwargs)
        after_sweeps.clear()
        return result

    def simulate(*args, **kwargs):
        after_sweeps.append(args[0])
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(solver, "rotosolve_sweep", sweep)
    for module in (circuits, solver):
        monkeypatch.setattr(module, "simulate", simulate)
    per_point = []
    zs = np.array([-0.5 + 0.1j, 0.6 + 0.1j])
    problem = CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 1, 2, gs_circ,
                                MeasurementSettings(seed=9), NoiseModel(), 1.0)
    records = solve_column(
        problem, zs, AnsatzSpec(width=4, depth=2), SolverOptions(max_sweeps=2),
        {}, lambda rec: per_point.append(list(after_sweeps)))
    assert all(r.sweeps > 0 and r.gamma != 0 for r in records)
    assert [len(calls) for calls in per_point] == [1, 1]
    assert all(calls[0].n_slots for calls in per_point)


@pytest.mark.parametrize("settings", [
    MeasurementSettings(seed=9), MeasurementSettings(mode="sampled", shots=10_000, seed=9),
], ids=["exact", "sampled"])
def test_no_string_is_compiled_per_frequency(h2_hamiltonian, h2_gs, monkeypatch,
                                             settings):
    """Over one column of three frequencies every string is compiled while
    the first point is solved: each later point's Q+Q and V+Q combine the
    forms their parts already hold."""
    e0, gs_circ = h2_gs
    spy = mock.Mock(wraps=pauli.string_action)
    monkeypatch.setattr(pauli, "string_action", spy)
    per_point = []
    zs = np.array([-0.5, 0.1, 0.6]) + 0.1j
    problem = CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 1, 2, gs_circ,
                                settings, NoiseModel(), 1.0)
    solve_column(problem, zs, AnsatzSpec(width=4, depth=2),
                 SolverOptions(max_sweeps=2), {},
                 lambda rec: per_point.append(spy.call_count))
    assert per_point[0] > 0
    assert per_point == [spy.call_count] * 3


def test_warm_start_shape_is_checked(h2_hamiltonian, h2_gs, rng):
    """Warm-start angles set the starting depth by their number, and are
    refused unless they are whole blocks of at least a depth-1 ansatz."""
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=2)
    problem = CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 1, 2, gs_circ,
                                MeasurementSettings(), NoiseModel(), 1.0)
    for bad in (np.zeros(3), np.zeros(8), np.zeros((3, 8))):
        with pytest.raises(ValueError, match="whole blocks"):
            solve_correction_vector(problem, 0, 1.0 + 0.1j, spec,
                                    SolverOptions(), rng, theta0=bad)
    deeper = replace(spec, depth=3)
    rec = solve_correction_vector(
        problem, 0, 1.0 + 0.1j, spec, SolverOptions(max_sweeps=1), rng,
        theta0=rng.uniform(-0.1, 0.1, deeper.n_slots))
    assert rec.depth == 3 and len(rec.theta) == deeper.n_slots


def particle_problem(h2_hamiltonian, h2_gs):
    e0, gs_circ = h2_gs
    return CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 0, 2, gs_circ,
                             MeasurementSettings(), NoiseModel(), 1.0)


def test_exact_cost_simulates_once(h2_hamiltonian, h2_gs, monkeypatch, rng):
    problem = particle_problem(h2_hamiltonian, h2_gs)
    z, spec = 1.0 + 0.2j, AnsatzSpec(width=4, depth=2)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_slots)
    v_norm = problem.measure_v_norm(rng)
    cost = problem.make_cost(z, spec, v_norm, rng)
    calls = []
    real_run_pure = circuits.run_pure

    def counting(*args, **kwargs):
        calls.append(args)
        return real_run_pure(*args, **kwargs)

    monkeypatch.setattr(circuits, "run_pure", counting)
    value = cost(theta)
    assert len(calls) == 1

    # the shared state gives the quadratic form plus the sector penalty
    psi = real_run_pure(build_hea(spec), theta)
    psi0 = real_run_pure(problem.gs_circuit)
    q = materialize(problem.qdq(z))
    ov = np.vdot(psi0, materialize(problem.vdq(z)) @ psi)
    pen = materialize(problem.penalty_op)
    dense = (np.vdot(psi, (q + pen) @ psi) - abs(ov) ** 2 / v_norm).real
    assert value == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("noise", [
    NoiseModel(), NoiseModel(enabled=True, p2=0.005, boost=2.0, zne=True)],
    ids=["noiseless", "noisy"])
def test_sampled_cost_draws_in_the_documented_order(h2_hamiltonian, h2_gs, noise,
                                                    rng):
    """A sampled cost reads its outputs as a read written out by hand in
    the order <Q+Q>, overlap, penalty, bit for bit, drawing from an
    identically seeded generator; the same draws in another order give
    another value."""
    e0, gs_circ = h2_gs
    settings = MeasurementSettings(mode="sampled", shots=1000, seed=5)
    problem = CorrectionProblem(h2_hamiltonian, e0, PARTICLE, 0, 2, gs_circ,
                                settings, noise, 1.0)
    z, spec = 1.0 + 0.2j, AnsatzSpec(width=4, depth=1)
    v_norm = problem.measure_v_norm(np.random.default_rng(6))
    cost = problem.make_cost(z, spec, v_norm, np.random.default_rng(7))
    qdq, penalty = cost.ops
    engine, vdq, norm = cost.overlap
    assert (list(qdq), list(vdq)) == (list(problem.qdq(z)), list(problem.vdq(z)))
    assert penalty is problem.penalty_op and norm == v_norm
    circ = cost.circuits[0]
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_slots)
    outputs = [circuits.simulate(circ, theta, noise, [qdq, penalty])]
    if noise.enabled:
        assert cost.circuits[1] is engine.circuit and cost.reads[1] == (vdq,)
        outputs.append(circuits.simulate(engine.circuit, theta, noise, [vdq]))
    assert len(cost.circuits) == len(outputs)

    def by_hand(order):
        draws, value = np.random.default_rng(7), {}
        for term in order:
            if term == "overlap":
                value[term] = engine.estimate_sum(outputs[-1], vdq, draws)
            else:
                value[term] = circuits.sample_pauli_expectation(
                    circ, None, {"qdq": qdq, "penalty": penalty}[term], settings,
                    noise, draws, outputs[0])
        return (float(value["qdq"] - abs(value["overlap"]) ** 2 / v_norm)
                + value["penalty"])

    expect = by_hand(["qdq", "overlap", "penalty"])
    assert cost.read(outputs) == expect
    assert by_hand(["penalty", "overlap", "qdq"]) != expect


def test_converged_means_residual_below_epsilon(h2_hamiltonian, h2_gs):
    """A solve that runs out of sweeps is converged exactly when its
    residual is below epsilon and gamma is defined.  Its record carries the
    point's labels."""
    problem = particle_problem(h2_hamiltonian, h2_gs)
    spec = AnsatzSpec(width=4, depth=2)
    options = SolverOptions(epsilon=0.05, max_sweeps=1, extra_depth=0)
    rec = solve_correction_vector(problem, 4, 1.0 + 0.2j, spec, options,
                                  np.random.default_rng(5))
    assert (rec.k, rec.z, rec.orbital, rec.branch) == (4, 1.0 + 0.2j, 0, PARTICLE)
    assert rec.sweeps == options.max_sweeps
    assert rec.residual < options.epsilon
    assert rec.gamma != 0
    assert rec.converged

    strict = replace(options, epsilon=rec.residual / 2)
    rec = solve_correction_vector(problem, 4, 1.0 + 0.2j, spec, strict,
                                  np.random.default_rng(5))
    assert rec.residual >= strict.epsilon
    assert not rec.converged


def test_each_point_is_solved_once(lih_cas_hamiltonian, monkeypatch):
    """LiH CAS(2,2) on a coarse grid, where G is steep between neighbours:
    every point gets exactly one solve, whatever its neighbours hold."""
    h = lih_cas_hamiltonian
    spec = AnsatzSpec(width=4, depth=3)
    rng = np.random.default_rng(7)
    theta0 = hf_start_angles(spec, [0, 2], jitter=0.02, rng=rng)
    pen = number_penalty(4, 2, 1.0) + total_spin_squared(2)
    e0, theta, _ = vqe_ground_state(h, spec, MeasurementSettings(), NoiseModel(),
                                    rng, tol=1e-6, max_sweeps=200, penalty=pen,
                                    theta0=theta0)
    zs = np.linspace(-0.8, 0.0, 3) + 0.05j
    calls = []
    real_solve = solver.solve_correction_vector

    def counting(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_correction_vector", counting)
    records = sweep_columns(h, e0, build_hea(spec).bound(theta), zs, spec,
                            SolverOptions(max_sweeps=4),
                            MeasurementSettings(seed=7), NoiseModel(), 2, {},
                            discard)
    assert len(records) == 12
    assert len(calls) == len(records)
    assert all(r.attempts == 1 for r in records)


def test_point_record_roundtrip():
    rec = PointRecord(
        k=4, z_re=0.25, z_im=0.05, orbital=1, branch=HOLE,
        elements_re=(0.1, 0.3), elements_im=(-0.2, 0.4),
        theta=np.array([0.5, -0.25, 1.0]), depth=3, sweeps=12,
        residual=2.5e-4, gamma_re=1.5, gamma_im=-0.7, converged=True,
        attempts=2)
    assert rec.z == 0.25 + 0.05j and rec.gamma == 1.5 - 0.7j
    assert np.array_equal(rec.elements, [0.1 - 0.2j, 0.3 + 0.4j])
    assert rec.theta == (0.5, -0.25, 1.0)
    back = parse(PointRecord, to_json_dict(rec), "record")
    assert back == rec

    legacy = to_json_dict(rec)
    del legacy["attempts"]
    assert parse(PointRecord, legacy, "record").attempts == 1
    # a record is canonical as it is built: every float at 12 digits
    assert replace(rec, residual=0.1 + 0.2, theta=(1 / 3,)) == \
        replace(rec, residual=0.3, theta=(0.333333333333,))
    for bad in ({"branch": "up"}, {"elements_im": [0.0]},
                {"converged": 1}, {"sweeps": "x"}, {"gamma_re": float("nan")}):
        with pytest.raises(ConfigError):
            parse(PointRecord, dict(to_json_dict(rec), **bad), "record")


def test_point_bound_from_residual_and_gamma():
    rec = PointRecord(k=0, z_re=0.3, z_im=0.05, orbital=0, branch=PARTICLE,
                      elements_re=(0.1,), elements_im=(0.2,), theta=(0.0,),
                      depth=1, sweeps=3, residual=4e-4, gamma_re=3.0,
                      gamma_im=-4.0, converged=True)
    assert rec.bound() == pytest.approx(5 * 0.02 / 0.05)
    # a vanished overlap stores 0, which is off by at most 1 / |Im z|
    lost = replace(rec, elements_re=(0.0,), elements_im=(0.0,), gamma_re=0.0,
                   gamma_im=0.0, converged=False)
    assert lost.bound() == pytest.approx(1 / 0.05)


def test_assemble_matrices_placement():
    a, b, c, d = 0.1 + 0.5j, 0.2 - 0.1j, 0.3 + 0.0j, 0.4 + 0.2j
    common = dict(theta=(0.0,), depth=1, sweeps=1, residual=0.0, gamma_re=1.0,
                  gamma_im=0.0, converged=True)
    recs = [
        PointRecord(k=0, z_re=0.0, z_im=1.0, orbital=1, branch=PARTICLE,
                    elements_re=(a.real, b.real), elements_im=(a.imag, b.imag),
                    **common),
        PointRecord(k=1, z_re=0.0, z_im=2.0, orbital=0, branch=HOLE,
                    elements_re=(c.real, d.real), elements_im=(c.imag, d.imag),
                    **common),
    ]
    out = assemble_matrices(recs, 2, 2)
    assert out.shape == (2, 4, 4)
    assert out[0, 0, 1] == a and out[0, 1, 1] == b
    assert out[1, 0, 0] == c and out[1, 0, 1] == d
    assert np.array_equal(out[:, 2:, 2:], out[:, :2, :2])
    assert np.all(out[:, :2, 2:] == 0) and np.all(out[:, 2:, :2] == 0)


def test_sampled_noisy_solve_is_finite_and_repeatable(dimer_hamiltonian,
                                                      dimer_ground, monkeypatch):
    """A hole-branch correction vector on the Hubbard dimer under shot
    sampling, depolarizing noise and ZNE: every estimate of its sweeps
    reads the slot restrictions of the ansatz and of the Hadamard test's
    coherence block.  Its residual and gamma are finite, and a rerun with the same
    seed repeats its sweeps bit for bit, and so its record."""
    e0, _ = dimer_ground
    spec = AnsatzSpec(width=4, depth=1, pattern=("RY",))
    gs_circ = build_hea(spec).bound(hf_start_angles(spec, [0, 2]))
    settings = MeasurementSettings(mode="sampled", shots=10_000, seed=11)
    noise = NoiseModel(enabled=True, p2=0.005, boost=2.0, zne=True)
    options = SolverOptions(max_sweeps=1, extra_depth=0)

    real_sweep = solver.rotosolve_sweep

    def solve():
        swept = []
        monkeypatch.setattr(solver, "rotosolve_sweep", lambda *args: swept.append(
            real_sweep(*args)) or swept[-1])
        problem = CorrectionProblem(dimer_hamiltonian, e0, HOLE, 0, 2, gs_circ,
                                    settings, noise, options.sector_penalty)
        rec = solve_correction_vector(problem, 0, -0.5 + 0.1j, spec, options,
                                      np.random.default_rng(3))
        return rec, [(theta.tobytes(), value) for theta, value in swept]

    (first, swept), (again, swept_again) = solve(), solve()
    assert first.sweeps == 1 and len(swept) == 1
    assert np.isfinite(first.residual) and np.isfinite(first.gamma)
    assert first.gamma != 0
    assert first.elements.shape == (2,) and np.isfinite(first.elements).all()
    assert swept == swept_again
    assert first == again


@pytest.mark.parametrize("depth, block_pulled", [(2, True), (3, True), (2, False)])
def test_noisy_dimer_sweep_reads_the_block_by_the_pull_back_rule(
        dimer_hamiltonian, dimer_ground, depth, block_pulled, monkeypatch):
    """A noisy correction-vector sweep reads the coherence block through
    the strings of V+Q, 18 on the dimer's particle branch, by the rule that
    governs the ansatz: at depth 2, 18 strings x 216 gates <= 8 x the
    1,284 gate steps of the suffix runs, and at depth 3, 18 x 316 <=
    8 x 2,512, so the block is pulled back once.  With the memory cap at 0
    bytes nothing is pulled back, and every slot of the block but the
    closing layer's runs a suffix that meets a two-qubit gate: a split
    batch of complex (members, levels, 4^m) coefficients."""
    e0, _ = dimer_ground
    # the ground state on the same ansatz, as a sweep prepares it
    spec = AnsatzSpec(width=4, depth=depth)
    gs_circ = build_hea(spec).bound(hf_start_angles(spec, [0, 2]))
    settings = MeasurementSettings(mode="sampled", shots=100_000, seed=5)
    noise = NoiseModel(enabled=True, p2=0.005, boost=2.0, zne=True)
    problem = CorrectionProblem(dimer_hamiltonian, e0, PARTICLE, 1, 2, gs_circ,
                                settings, noise, 1.0)
    rng = np.random.default_rng(4)
    z = -0.5 + 0.1j
    cost = problem.make_cost(z, spec, problem.measure_v_norm(rng), rng)
    assert len(problem.vdq(z)) == 18
    assert len(cost.circuits[1].gates) == {2: 216, 3: 316}[depth]
    if not block_pulled:
        monkeypatch.setattr(circuits, "_PULL_BACK_BYTES", 0)
    pulled, suffix_runs = [], []
    pull_back, forward = circuits._pull_back, circuits.apply_gates
    monkeypatch.setattr(circuits, "_pull_back", lambda gates, *args: pulled.append(
        any(g.side for g in gates)) or pull_back(gates, *args))
    monkeypatch.setattr(circuits, "apply_gates", lambda states, gates, *args: suffix_runs.extend(
        [1] * (np.iscomplexobj(states) and states.ndim == 3
               and any(len(g.qubits) == 2 for g in gates)))
        or forward(states, gates, *args))
    solver.rotosolve_sweep(cost, rng.uniform(-0.1, 0.1, spec.n_slots), cost)
    assert pulled == ([False, True] if block_pulled else [])
    before_closing = spec.n_slots - spec.width * len(spec.pattern)
    assert len(suffix_runs) == (0 if block_pulled else before_closing)
