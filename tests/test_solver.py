"""Per-frequency variational linear solves and their bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest

from corrvec import circuits, solver
from corrvec.circuits import MeasurementSettings, NoiseModel
from corrvec.fermion import (ladder_pauli, number_operator, number_penalty,
                             total_spin_squared)
from corrvec.oracle import GreensOracle, materialize
from corrvec.pauli import PauliSum
from corrvec.solver import (
    HOLE,
    PARTICLE,
    CorrectionProblem,
    PointRecord,
    ShiftedOperator,
    SolverOptions,
    assemble_matrices,
    build_q,
    solve_column,
    solve_correction_vector,
    sweep_columns,
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
        h2_hamiltonian, spec, MeasurementSettings(), NoiseModel(),
        tol=1e-10, penalty=pen, theta0=theta0)
    assert trace.converged
    return e0, build_hea(spec).bound(theta)


def particle_column(lehmann, z, j):
    wp = lehmann.weights_particle
    return np.einsum("ki,k->i", wp.conj(),
                     wp[:, j] / (z - lehmann.poles_particle))


def test_build_q_matches_dense(dimer_hamiltonian, dimer_ground):
    e0, _ = dimer_ground
    z = 0.3 + 0.05j
    mat = materialize(dimer_hamiltonian)
    eye = np.eye(mat.shape[0])
    for sign in (-1, +1):
        q = materialize(build_q(dimer_hamiltonian, e0, z, sign))
        assert np.allclose(q, z * eye + sign * (mat - e0 * eye), atol=1e-12)
    with pytest.raises(ValueError):
        build_q(dimer_hamiltonian, e0, z, 0)


def test_shifted_operator_wraps_build_q(dimer_hamiltonian):
    op = ShiftedOperator(dimer_hamiltonian, -1.0, 0.5 + 0.1j, -1)
    direct = build_q(dimer_hamiltonian, -1.0, 0.5 + 0.1j, -1)
    assert (op.to_pauli() - direct).norm1() < 1e-14
    with pytest.raises(ValueError):
        ShiftedOperator(dimer_hamiltonian, -1.0, 0.5, 2)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverOptions(extra_depth=-1)


def test_correction_problem_requires_bound_circuit(h2_hamiltonian):
    spec = AnsatzSpec(width=4, depth=1)
    unbound = build_hea(spec)
    with pytest.raises(ValueError):
        CorrectionProblem(h2_hamiltonian, -0.9, -1,
                          PauliSum.identity(4), unbound,
                          MeasurementSettings(), NoiseModel())


def test_single_point_solve_matches_resolvent(h2_hamiltonian, h2_gs,
                                              h2_lehmann, rng):
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=3)
    options = SolverOptions(epsilon=1e-5)
    zs = np.array([1.0 + 0.2j])
    records = solve_column(h2_hamiltonian, e0, gs_circ, zs, PARTICLE, 0,
                           [0, 1], spec, options, MeasurementSettings(),
                           NoiseModel(), seed=9, n_elec=2)
    rec = records[0]
    assert rec.converged
    assert rec.residual < 1e-5
    ref = particle_column(h2_lehmann, 1.0 + 0.2j, 0)[:2]
    assert np.max(np.abs(rec.elements - ref)) < 1e-3


def test_grid_sweep_matches_oracle(h2_hamiltonian, h2_gs, h2_oracle):
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=3)
    options = SolverOptions(epsilon=1e-4)
    eta = 0.05
    omegas = np.array([-0.8, 0.0, 0.6])
    zs = omegas + 1j * eta
    records = sweep_columns(h2_hamiltonian, e0, gs_circ, zs, [0, 1], spec,
                            options, MeasurementSettings(), NoiseModel(),
                            seed=11, n_elec=2)
    assert all(r.converged for r in records)
    g = assemble_matrices(records, [0, 1], 2, len(zs))
    ref = h2_oracle.series(zs)
    assert np.max(np.abs(g - ref)) < 2e-2


def test_zero_perturbation_short_circuits():
    h = number_operator(4)
    spec = AnsatzSpec(width=4, depth=1)
    gs_circ = build_hea(spec).bound(np.zeros(spec.n_slots))
    zs = np.array([0.5 + 0.1j])
    records = solve_column(h, 0.0, gs_circ, zs, HOLE, 1, [0, 1], spec,
                           SolverOptions(), MeasurementSettings(),
                           NoiseModel(), seed=3)
    rec = records[0]
    assert rec.converged
    assert rec.sweeps == 0
    assert rec.gamma == 0
    assert np.all(rec.elements == 0)


def test_warm_start_shape_is_checked(h2_hamiltonian, h2_gs, rng):
    e0, gs_circ = h2_gs
    spec = AnsatzSpec(width=4, depth=2)
    problem = CorrectionProblem(h2_hamiltonian, e0, -1,
                                PauliSum.identity(4), gs_circ,
                                MeasurementSettings(), NoiseModel())
    with pytest.raises(ValueError):
        solve_correction_vector(problem, 1.0 + 0.1j, spec, SolverOptions(),
                                rng, theta0=np.zeros(3))


def particle_problem(h2_hamiltonian, h2_gs):
    e0, gs_circ = h2_gs
    return CorrectionProblem(h2_hamiltonian, e0, -1, ladder_pauli(0, True, 4),
                             gs_circ, MeasurementSettings(), NoiseModel(),
                             n_target=3)


def test_exact_cost_simulates_once(h2_hamiltonian, h2_gs, monkeypatch, rng):
    problem = particle_problem(h2_hamiltonian, h2_gs)
    z, spec = 1.0 + 0.2j, AnsatzSpec(width=4, depth=2)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_slots)
    v_norm = problem.measure_v_norm(rng)
    cost, _ = problem.make_cost(z, spec, v_norm, rng)
    calls = []
    real_run_pure = circuits.run_pure

    def counting(*args, **kwargs):
        calls.append(args)
        return real_run_pure(*args, **kwargs)

    monkeypatch.setattr(circuits, "run_pure", counting)
    monkeypatch.setattr(solver, "run_pure", counting)
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


def test_tight_resolve_that_meets_epsilon_is_converged(h2_hamiltonian, h2_gs):
    """A re-solve stops at epsilon/10 but is judged against the sweep's
    epsilon: running out of sweeps below that threshold is convergence."""
    problem = particle_problem(h2_hamiltonian, h2_gs)
    spec = AnsatzSpec(width=4, depth=2)
    options = SolverOptions(epsilon=0.05, max_sweeps=1, extra_depth=0)
    sol = solve_correction_vector(problem, 1.0 + 0.2j, spec, options,
                                  np.random.default_rng(5), epsilon=1e-9)
    assert sol.sweeps == options.max_sweeps
    assert 1e-9 < sol.residual < options.epsilon
    assert sol.gamma != 0
    assert sol.converged

    strict = replace(options, epsilon=sol.residual / 2)
    sol = solve_correction_vector(problem, 1.0 + 0.2j, spec, strict,
                                  np.random.default_rng(5), epsilon=1e-9)
    assert not sol.converged


def test_point_record_roundtrip():
    rec = PointRecord(
        k=4, z=0.25 + 0.05j, orbital=1, branch=HOLE,
        elements=np.array([0.1 - 0.2j, 0.3 + 0.4j]),
        theta=np.array([0.5, -0.25, 1.0]), depth=3, sweeps=12,
        residual=2.5e-4, gamma=1.5 - 0.7j, converged=True, attempts=2)
    back = PointRecord.from_json_dict(rec.to_json_dict())
    assert back.k == rec.k and back.z == rec.z
    assert back.orbital == rec.orbital and back.branch == rec.branch
    assert np.array_equal(back.elements, rec.elements)
    assert np.array_equal(back.theta, rec.theta)
    assert (back.depth, back.sweeps, back.attempts) == (3, 12, 2)
    assert back.residual == rec.residual and back.gamma == rec.gamma
    assert back.converged

    legacy = rec.to_json_dict()
    del legacy["attempts"]
    assert PointRecord.from_json_dict(legacy).attempts == 1


def test_assemble_matrices_placement():
    a, b, c, d = 0.1 + 0.5j, 0.2 - 0.1j, 0.3 + 0.0j, 0.4 + 0.2j
    recs = [
        PointRecord(k=0, z=1j, orbital=1, branch=PARTICLE,
                    elements=np.array([a, b]), theta=np.zeros(1),
                    depth=1, sweeps=1, residual=0.0, gamma=1.0,
                    converged=True),
        PointRecord(k=1, z=2j, orbital=0, branch=HOLE,
                    elements=np.array([c, d]), theta=np.zeros(1),
                    depth=1, sweeps=1, residual=0.0, gamma=1.0,
                    converged=True),
    ]
    out = assemble_matrices(recs, [0, 1], 2, 2)
    assert out.shape == (2, 4, 4)
    assert out[0, 0, 1] == a and out[0, 1, 1] == b
    assert out[1, 0, 0] == c and out[1, 0, 1] == d
    assert np.array_equal(out[:, 2:, 2:], out[:, :2, :2])
    assert np.all(out[:, :2, 2:] == 0) and np.all(out[:, 2:, :2] == 0)
