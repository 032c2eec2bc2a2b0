"""The exact slot reading of ``rotosolve_sweep`` against full re-simulation.

Every slot's 2x2 matrix K, read off one suffix run on the pair (a, b), must
give the same sinusoid f(t) = cos^2(t/2) K00 + sin^2(t/2) K11
+ sin(t) Re K01 as simulating the whole circuit with the slot at t, for the
ground-state cost and for the correction-vector cost, whose K must also be
[a b]+ (H' + penalty) [a b] with the dense H' of ``oracle_reference``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrvec.circuits import (Circuit, MeasurementSettings, NoiseModel,
                              sample_pauli_expectation)
from corrvec.oracle import materialize
from corrvec.pauli import PauliSum
from corrvec.solver import HOLE, PARTICLE, CorrectionProblem
from corrvec.vqe import AnsatzSpec, CircuitCost, build_hea, rotosolve_sweep
from oracle_reference import dense_h_prime

TOL = 1e-10
EXACT = MeasurementSettings()
NOISELESS = NoiseModel()


@st.composite
def ansatz_cases(draw):
    """(spec, rng): widths 1-5, depths 1-3, patterns of RX/RY/RZ."""
    spec = AnsatzSpec(draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                      tuple(draw(st.lists(st.sampled_from(("RX", "RY", "RZ")),
                                          min_size=1, max_size=3))))
    return spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def random_sum(rng, width: int, n_terms: int) -> PauliSum:
    """A hermitian sum of random strings with real normal coefficients."""
    labels = ["".join(rng.choice(list("IXYZ"), size=width)) for _ in range(n_terms)]
    return PauliSum(width, zip(labels, rng.normal(size=n_terms)))


def recorded_sweep(cost, theta, form):
    """One exact sweep of ``form``, started from ``cost``; returns the final
    angles, the value and each slot's (pair, K) in slot order."""
    seen = []
    matrix = form.matrix

    def recording(pair):
        k, scale = matrix(pair)
        seen.append((pair.copy(), k))
        return k, scale

    form.matrix = recording
    final, value = rotosolve_sweep(cost, theta, form)
    return final, value, seen


def sinusoid(k, t):
    c, s = np.cos(0.5 * t), np.sin(0.5 * t)
    return c * c * k[0, 0].real + s * s * k[1, 1].real + 2 * c * s * k[0, 1].real


def assert_matches_resimulation(cost, start, final, value, seen):
    """Slot d sees the angles of slots < d after their moves and of slots
    >= d before theirs; its sinusoid must match the full cost at its angle,
    +-pi/2 from it and the angle it moved to, which is the lowest."""
    assert len(seen) == start.shape[0]
    for d, (_, k) in enumerate(seen):
        context = np.concatenate([final[:d], start[d:]])
        base = start[d]
        at = {}
        for t in (base, base + 0.5 * np.pi, base - 0.5 * np.pi, final[d]):
            moved = context.copy()
            moved[d] = t
            full = cost(moved)
            at[t] = full
            assert abs(sinusoid(k, t) - full) <= TOL * (1 + abs(full)), (d, t)
        assert all(at[final[d]] <= v + TOL * (1 + abs(v)) for v in at.values()), d
    assert abs(value - cost(final)) <= TOL * (1 + abs(value))


def ground_state_form(circ, op):
    return CircuitCost(circ, EXACT, NOISELESS, None, [op])


def ground_state_case(spec, rng):
    """(full cost, exact form, start angles) for a random hermitian sum."""
    circ = build_hea(spec)
    op = random_sum(rng, spec.width, 6)

    def cost(theta):
        return sample_pauli_expectation(circ, theta, op, EXACT, NOISELESS)

    return (cost, ground_state_form(circ, op),
            rng.uniform(-np.pi, np.pi, spec.n_slots))


@settings(max_examples=40)
@given(ansatz_cases())
def test_ground_state_pair_matches_resimulation(case):
    cost, exact, start = ground_state_case(*case)
    final, value, seen = recorded_sweep(cost, start, exact)
    assert_matches_resimulation(cost, start, final, value, seen)


@settings(max_examples=40)
@given(ansatz_cases(), st.sampled_from((PARTICLE, HOLE)))
@example((AnsatzSpec(4, 3), np.random.default_rng(1)), PARTICLE)
@example((AnsatzSpec(5, 2, ("RX", "RZ")), np.random.default_rng(2)), HOLE)
@example((AnsatzSpec(1, 1, ("RY",)), np.random.default_rng(3)), HOLE)
def test_correction_pair_matches_dense_form_and_resimulation(case, branch):
    """A random H, reference circuit, z, orbital and electron count on
    either branch; the problem derives V, sign and target sector from its
    labels."""
    spec, rng = case
    m = spec.width
    h = random_sum(rng, m, 6)
    gs_spec = AnsatzSpec(m, 1)
    gs_circ = build_hea(gs_spec).bound(rng.uniform(-np.pi, np.pi, gs_spec.n_slots))
    e0 = float(rng.normal())
    # an orbital is a spin-up mode, the first ceil(m / 2) of the register
    orbital, n_elec = int(rng.integers(0, (m + 1) // 2)), int(rng.integers(0, m + 1))
    z = complex(rng.normal(), rng.uniform(0.05, 0.5))
    problem = CorrectionProblem(h, e0, branch, orbital, n_elec, gs_circ, EXACT,
                                NOISELESS, 0.7)
    sign = -1 if branch == PARTICLE else +1
    v_norm = problem.measure_v_norm(rng)
    cost = problem.make_cost(z, spec, v_norm, rng)

    start = rng.uniform(-np.pi, np.pi, size=spec.n_slots)
    final, value, seen = recorded_sweep(cost, start, cost)
    assert_matches_resimulation(cost, start, final, value, seen)

    psi0 = problem.engine_for(spec)[1].psi1
    dense = (dense_h_prime(h, e0, z, sign, materialize(problem.v_op) @ psi0)
             + materialize(problem.penalty_op))
    scale = np.abs(dense).max()
    for pair, k in seen:
        assert np.abs(k - pair.conj() @ dense @ pair.T).max() <= TOL * (1 + scale)


def test_pair_sweep_rejects_a_disagreeing_cost(rng):
    """The full evaluation at the start of a sweep checks the pair run at
    slot 0 and the closed-form value the previous sweep ended on."""
    spec = AnsatzSpec(width=3, depth=2, pattern=("RY", "RX"))
    cost, exact, theta = ground_state_case(spec, rng)
    with pytest.raises(AssertionError, match="slot 0"):
        rotosolve_sweep(lambda th: cost(th) + 1.0, theta, exact)

    cost, exact, theta = ground_state_case(spec, rng)
    theta, _ = rotosolve_sweep(cost, theta, exact)
    with pytest.raises(AssertionError, match="sweep start"):
        rotosolve_sweep(lambda th: cost(th) + 1e-6, theta, exact)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_carried_check_is_relative_to_the_size_of_the_cost(scale, rng):
    """The check of the carried value holds to 1e-10 of the size of the
    terms summed into the cost, the sum of |coefficient| of its operators:
    honest sweeps pass, and an offset of 1e-6 of that size trips it at slot
    0 and at the start of a sweep, whatever the scale of the operator."""
    spec = AnsatzSpec(width=3, depth=2, pattern=("RY", "RX"))
    op = scale * random_sum(rng, spec.width, 6)
    form = ground_state_form(build_hea(spec), op)
    assert form.size == pytest.approx(sum(abs(c) for _, c in op))

    def shifted(theta):
        return form(theta) + 1e-6 * form.size

    theta = rng.uniform(-np.pi, np.pi, spec.n_slots)
    with pytest.raises(AssertionError, match="slot 0"):
        rotosolve_sweep(shifted, theta, form)
    for _ in range(2):
        theta, _ = rotosolve_sweep(form, theta, form)
    with pytest.raises(AssertionError, match="sweep start"):
        rotosolve_sweep(shifted, theta, form)


def test_exact_cost_needs_unit_rotation_slots():
    """Every sweep reads one RX, RY or RZ per slot, the slots' gates in
    slot order: an exact cost refuses any other circuit when it is built,
    and a noisy sweep at its first slot, naming the fault."""
    spec = AnsatzSpec(width=2, depth=1)
    twice = Circuit(2)
    twice.add("RY", 0, slot=0)
    twice.add("CX", 0, 1)
    twice.add("RY", 1, slot=0)
    phase = build_hea(spec)
    phase.add("PHASE", 0, slot=spec.n_slots)
    reordered = build_hea(spec)
    reordered.gates.reverse()
    noise = NoiseModel(enabled=True, p2=0.01)
    for circ, fault in ((twice, "slot 0 drives more than one gate"),
                        (phase, f"slot {spec.n_slots} drives a PHASE, not a rotation"),
                        (reordered, "not in slot order")):
        with pytest.raises(ValueError, match=fault):
            ground_state_form(circ, PauliSum.identity(2))
        form = CircuitCost(circ, EXACT, noise, None, [PauliSum.identity(2)])
        with pytest.raises(ValueError, match=fault):
            rotosolve_sweep(lambda th: 0.0, np.zeros(circ.n_slots), form)
