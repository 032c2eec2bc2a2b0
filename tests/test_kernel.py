"""Property tests: the local-gate kernel and the compiled Pauli action
against the dense references in ``kron_reference``, and slot restrictions
against full runs of the kernel."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrvec import circuits, pauli
from corrvec.circuits import (ROTATION_KINDS, Circuit, MeasurementSettings,
                              NoiseModel, OverlapEngine, make_controlled,
                              restrictions, run_density, run_pure)
from corrvec.oracle import materialize
from corrvec.pauli import (PauliSum, apply_sum, precompile, precompiled_sum,
                           string_overlaps, string_traces)
from corrvec.vqe import AnsatzSpec, build_hea
import kron_reference as ref

TOL = 1e-12
ONE_QUBIT = ("H", "X", "PHASE", "RX", "RY", "RZ")
TWO_QUBIT = ("CX", "CY", "CZ")
# what make_controlled accepts: the gates build_hea emits
CONTROLLABLE_ONE_QUBIT = ("RX", "RY", "RZ")
CONTROLLABLE_TWO_QUBIT = ("CX",)

# on top of the suite's derandomized profile (conftest.py)
PROPERTY = settings(max_examples=30)
angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def random_circuits(draw, max_width=6, max_gates=12, controllable=False,
                    slots=True, width=None):
    """(circuit, angles) over every gate kind, fixed and slot-bound angles."""
    if width is None:
        width = draw(st.integers(1, max_width))
    circ = Circuit(width)
    one = CONTROLLABLE_ONE_QUBIT if controllable else ONE_QUBIT
    two = CONTROLLABLE_TWO_QUBIT if controllable else TWO_QUBIT
    for _ in range(draw(st.integers(0, max_gates))):
        if width > 1 and draw(st.booleans()):
            kind = draw(st.sampled_from(two))
            qubits = draw(st.lists(st.integers(0, width - 1), min_size=2,
                                   max_size=2, unique=True))
        else:
            kind = draw(st.sampled_from(one))
            qubits = [draw(st.integers(0, width - 1))]
        if kind not in ROTATION_KINDS:
            circ.add(kind, *qubits)
        elif slots and draw(st.booleans()):
            circ.add(kind, *qubits, slot=draw(st.integers(0, 3)),
                     scale=draw(st.sampled_from((1.0, 0.5, -0.5))))
        else:
            circ.add(kind, *qubits, angle=draw(angles))
    theta = np.array(draw(st.lists(angles, min_size=circ.n_slots,
                                   max_size=circ.n_slots)))
    return circ, theta


def kernel_unitary(circ, theta):
    """Columns U|b> from the kernel, preparing each basis state with X gates."""
    cols = []
    for b in range(1 << circ.width):
        prep = Circuit(circ.width)
        for q in range(circ.width):
            if b >> q & 1:
                prep.add("X", q)
        prep.extend(circ.gates)
        prep.n_slots = circ.n_slots
        cols.append(run_pure(prep, theta if circ.n_slots else None))
    return np.stack(cols, axis=1)


def max_diff(a, b):
    return float(np.max(np.abs(a - b)))


@PROPERTY
@given(random_circuits())
def test_run_pure_matches_kron(case):
    circ, theta = case
    assert max_diff(run_pure(circ, theta), ref.run_pure(circ, theta)) <= TOL


@PROPERTY
@given(random_circuits(max_width=5))
def test_kernel_unitary_matches_circuit_unitary(case):
    circ, theta = case
    assert max_diff(kernel_unitary(circ, theta),
                    ref.circuit_unitary(circ, theta)) <= TOL


@PROPERTY
@given(random_circuits(), st.sampled_from((0.0, 0.01, 0.3, 15.0 / 16.0)))
def test_run_density_matches_kron(case, p2):
    circ, theta = case
    assert max_diff(run_density(circ, theta, p2=p2),
                    ref.run_density(circ, theta, p2=p2)) <= TOL


@PROPERTY
@given(random_circuits(max_width=5, max_gates=6, controllable=True),
       st.sampled_from((0.0, 0.02)))
def test_controlled_circuits_match_kron(case, p2):
    circ, theta = case
    ctrl = make_controlled(circ)
    assert max_diff(run_pure(ctrl, theta), ref.run_pure(ctrl, theta)) <= TOL
    assert max_diff(run_density(ctrl, theta, p2=p2),
                    ref.run_density(ctrl, theta, p2=p2)) <= TOL


@PROPERTY
@given(st.data())
def test_overlap_circuits_match_kron(data):
    u1, _ = data.draw(random_circuits(max_width=5, max_gates=4,
                                      controllable=True, slots=False))
    width = u1.width
    u2, theta = data.draw(random_circuits(max_gates=4, controllable=True,
                                          width=width))
    label = data.draw(st.text("IXYZ", min_size=width, max_size=width))
    phi = data.draw(angles)
    circ = ref.overlap_circuit(u1, u2, label, phi)
    th = theta if circ.n_slots else None
    assert max_diff(run_pure(circ, th), ref.run_pure(circ, th)) <= TOL
    if width <= 3:
        assert max_diff(run_density(circ, th, p2=0.01),
                        ref.run_density(circ, th, p2=0.01)) <= TOL
        # the engine's closed-form suffix against the literal circuit
        op = PauliSum.from_label(label)
        for p2 in (0.01, 0.3, 15.0 / 16.0):
            noise = NoiseModel(enabled=True, p2=p2, zne=False)
            engine = OverlapEngine(u1, u2, MeasurementSettings(), noise)
            assert abs(engine.estimate_sum(th, op) - ref.estimate_overlap(
                u1, u2, th, op, MeasurementSettings(), noise, None)) <= TOL, p2


@st.composite
def restriction_cases(draw, case):
    """(circuit, noise, start angles, probe angles, moved angles).

    ``case`` "pure", "noisy" and "zne" draw an ansatz of width 1-4 and
    depth 1-2 over RX/RY/RZ, run without noise, at one noise level or at
    both ZNE levels; "overlap" draws the noisy ancilla prefix of an
    ``OverlapEngine`` on an ansatz of width 1-3 and depth 1, whose every
    slot drives two half-angle rotations around a noisy CX.
    """
    small = case == "overlap"
    spec = AnsatzSpec(draw(st.integers(1, 3 if small else 4)),
                      draw(st.integers(1, 1 if small else 2)),
                      tuple(draw(st.lists(st.sampled_from(("RX", "RY", "RZ")),
                                          min_size=1, max_size=2))))
    noise = (NoiseModel() if case == "pure" else
             NoiseModel(enabled=True, p2=draw(st.floats(0.001, 0.05)),
                        zne=case != "noisy"))
    circ = build_hea(spec)
    if small:
        u1_spec = AnsatzSpec(spec.width, 1)
        u1 = build_hea(u1_spec).bound(draw(st.lists(
            angles, min_size=u1_spec.n_slots, max_size=u1_spec.n_slots)))
        circ = OverlapEngine(u1, circ, MeasurementSettings(), noise).circuit
    n = spec.n_slots
    start, probes, moves = (np.array(draw(st.lists(angles, min_size=n, max_size=n)))
                            for _ in range(3))
    return circ, noise, start, probes, moves


@pytest.mark.parametrize("case", ["pure", "noisy", "zne", "overlap"])
@settings(max_examples=8)
@given(data=st.data())
def test_restrictions_match_full_runs(case, data):
    """Slot by slot, the restriction at an angle equals a full run with
    the slot at that angle, while the sweep moves each slot in turn, so
    each slot also checks the prefix its predecessors advanced."""
    check_sweep(*data.draw(restriction_cases(case)))


def check_sweep(circ, noise, theta, probes, moves):
    """Each slot's restriction at its probe angle against a full run, the
    sweep moving each slot to its ``moves`` angle after it is checked."""
    levels = [noise.p2, noise.boost * noise.p2] if noise.zne else [noise.p2]
    count = 0
    for d, restriction in enumerate(restrictions(circ, theta, noise)):
        probe = theta.copy()
        probe[d] = probes[d]
        full = ([run_pure(circ, probe)] if not noise.enabled else
                [run_density(circ, probe, p2=lvl) for lvl in levels])
        at = restriction.at(probes[d])
        assert len(at) == len(full)
        for a, b in zip(at, full):
            assert max_diff(a, b) <= TOL, d
        theta[d] = moves[d]
        count += 1
    assert count == circ.n_slots


@pytest.mark.parametrize("spec, suffix_runs", [
    (AnsatzSpec(4, 1, ("RY",)), 8),   # 8 slots, 2^4 > 8: a suffix run per slot
    (AnsatzSpec(2, 2), 0),            # 12 slots, 2^2 <= 12: the carried S
    (AnsatzSpec(4, 8), 0),            # 72 slots: peel drift over a long sweep
])
def test_statevector_sweeps_carry_the_suffix_when_the_register_is_small(
        spec, suffix_runs, monkeypatch):
    """A noiseless sweep reads every slot off one carried unitary when
    2^m <= n_slots and runs each slot's suffix otherwise; either way each
    restriction matches a full run."""
    runs = []
    suffix = circuits._slot_suffix
    monkeypatch.setattr(circuits, "_slot_suffix",
                        lambda *args: runs.append(1) or suffix(*args))
    rng = np.random.default_rng(spec.n_slots)
    theta, probes, moves = rng.uniform(-np.pi, np.pi, (3, spec.n_slots))
    check_sweep(build_hea(spec), NoiseModel(), theta, probes, moves)
    assert len(runs) == suffix_runs


@st.composite
def pauli_sums(draw, max_width=6):
    width = draw(st.integers(1, max_width))
    labels = draw(st.lists(st.text("IXYZ", min_size=width, max_size=width),
                           max_size=24))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3.0),
                           min_size=len(labels), max_size=len(labels)))
    return PauliSum(width, zip(labels, coeffs))


@PROPERTY
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_compiled_apply_sum_matches_string_loop(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    assert max_diff(apply_sum(op, psi), ref.apply_sum_loop(op, psi)) <= TOL
    # the compiled form is kept: a second call gives the same result
    assert np.array_equal(apply_sum(op, psi), apply_sum(op, psi))


@PROPERTY
@given(pauli_sums(max_width=5), st.integers(0, 2**32 - 1))
def test_compiled_density_expectation_matches_dense(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    direct = complex(np.trace(rho @ materialize(op)))
    strings, traces = string_traces(op, rho)
    summed = sum((coeff * t for (_, _, _, coeff), t in zip(strings, traces)), 0j)
    assert abs(summed - direct) <= TOL


@PROPERTY
@given(pauli_sums(max_width=5), st.integers(0, 2**32 - 1))
def test_string_tables_match_dense(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    bra, ket = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    bra, ket = bra / np.linalg.norm(bra), ket / np.linalg.norm(ket)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    strings, overlaps = string_overlaps(op, bra, ket)
    _, traces = string_traces(op, rho)
    labels = [label for label, _, _, _ in strings]
    assert labels == sorted(op.terms)
    for label, ov, tr in zip(labels, overlaps, traces):
        p = materialize(PauliSum.from_label(label))
        assert abs(ov - np.vdot(bra, p @ ket)) <= TOL
        assert abs(tr - np.trace(rho @ p)) <= TOL


@PROPERTY
@given(st.data())
def test_precompiled_sum_combines_precompiled_forms(data):
    """A weighted sum of precompiled parts takes its action and its string
    table from theirs, and both match the forms compiled from its terms."""
    first = data.draw(pauli_sums(max_width=4))
    parts = [(data.draw(st.complex_numbers(max_magnitude=3.0)),
              data.draw(pauli_sums(max_width=4).filter(
                  lambda op: op.width == first.width)) if k else first)
             for k in range(3)]
    for per_string in (False, True):
        for _, op in parts:
            precompile(op, per_string)
    rng = np.random.default_rng(len(first))
    dim = 1 << first.width
    bra, ket = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    with mock.patch.object(pauli, "string_action",
                           side_effect=AssertionError("a string compiled again")):
        combined = precompiled_sum(first.width, parts)
        action = apply_sum(combined, ket)
        strings, overlaps = string_overlaps(combined, bra, ket)
    fresh = PauliSum(first.width, combined.terms)
    assert max_diff(action, apply_sum(fresh, ket)) <= TOL
    fresh_strings, fresh_overlaps = string_overlaps(fresh, bra, ket)
    assert strings == fresh_strings
    assert np.array_equal(overlaps, fresh_overlaps)
