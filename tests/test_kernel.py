"""Property tests: the local-gate kernel and the compiled Pauli action
against the dense references in ``kron_reference``."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrvec.circuits import (ROTATION_KINDS, Circuit, make_controlled,
                              overlap_circuit, run_density, run_pure)
from corrvec.oracle import materialize
from corrvec.pauli import (PauliSum, apply_sum, density_expectation,
                           string_overlaps, string_traces)
import kron_reference as ref

TOL = 1e-12
ONE_QUBIT = ("H", "X", "PHASE", "RX", "RY", "RZ")
TWO_QUBIT = ("CX", "CY", "CZ", "CPHASE")
CONTROLLABLE_TWO_QUBIT = ("CX", "CZ")   # what make_controlled accepts

# a fixed example sequence keeps the suite deterministic
PROPERTY = settings(max_examples=30, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def random_circuits(draw, max_width=6, max_gates=12, controllable=False,
                    slots=True, width=None):
    """(circuit, angles) over every gate kind, fixed and slot-bound angles."""
    if width is None:
        width = draw(st.integers(1, max_width))
    circ = Circuit(width)
    two = CONTROLLABLE_TWO_QUBIT if controllable else TWO_QUBIT
    for _ in range(draw(st.integers(0, max_gates))):
        if width > 1 and draw(st.booleans()):
            kind = draw(st.sampled_from(two))
            qubits = draw(st.lists(st.integers(0, width - 1), min_size=2,
                                   max_size=2, unique=True))
        else:
            kind = draw(st.sampled_from(ONE_QUBIT))
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
    circ = overlap_circuit(u1, u2, label, phi)
    th = theta if circ.n_slots else None
    assert max_diff(run_pure(circ, th), ref.run_pure(circ, th)) <= TOL
    if width <= 3:
        assert max_diff(run_density(circ, th, p2=0.01),
                        ref.run_density(circ, th, p2=0.01)) <= TOL


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
    assert abs(density_expectation(rho, op) - direct) <= TOL


@PROPERTY
@given(pauli_sums(max_width=5), st.integers(0, 2**32 - 1))
def test_string_tables_match_dense(op, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << op.width
    bra, ket = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    bra, ket = bra / np.linalg.norm(bra), ket / np.linalg.norm(ket)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    labels, overlaps = string_overlaps(op, bra, ket)
    _, traces = string_traces(op, rho)
    assert labels == sorted(op.terms)
    for label, ov, tr in zip(labels, overlaps, traces):
        p = materialize(PauliSum.from_label(label))
        assert abs(ov - np.vdot(bra, p @ ket)) <= TOL
        assert abs(tr - np.trace(rho @ p)) <= TOL
