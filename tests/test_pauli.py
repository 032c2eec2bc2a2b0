"""Algebra of weighted Pauli-string sums: products, signs, actions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrvec.circuits import expectation_from_state
from corrvec.oracle import materialize
from corrvec.pauli import (
    PRUNE_TOL,
    PauliSum,
    apply_sum,
    string_action,
    string_overlaps,
    string_traces,
    sum_multiply,
)
from kron_reference import apply_string, multiply_sums, multiply_strings, string_matrix

# on top of the suite's derandomized profile (conftest.py)
PROPERTY = settings(max_examples=40)
widths = st.integers(1, 14)


def pauli_labels(width):
    return st.text("IXYZ", min_size=width, max_size=width)


@st.composite
def pauli_sums(draw, width, max_terms=6):
    drawn = draw(st.lists(pauli_labels(width), max_size=max_terms))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3.0),
                           min_size=len(drawn), max_size=len(drawn)))
    return PauliSum(width, zip(drawn, coeffs))


def bits(op):
    """(label, real bits, imaginary bits) per term, in the sum's order."""
    return [(label, c.real.hex(), c.imag.hex()) for label, c in op]


def string(label):
    return PauliSum(len(label), {label: 1.0})


def random_sum(width, n_terms, rng):
    labels = ["".join(rng.choice(list("IXYZ"), size=width)) for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return PauliSum(width, zip(labels, coeffs))


def test_validate_string_rejects_bad_input():
    assert dict(PauliSum(4, {"IXYZ": 1.0})) == {"IXYZ": 1.0}
    with pytest.raises(ValueError):
        PauliSum(3, {"IX": 1.0})
    with pytest.raises(ValueError):
        PauliSum(4, {"IXQZ": 1.0})


def test_masks_put_qubit_q_on_bit_q():
    # X on qubit 0, Y on qubit 1, Z on qubit 2
    assert string("XYZI").masks == {(0b0011, 0b0110): 1.0}
    assert PauliSum.identity(3, 2.0).masks == {(0, 0): 2.0}


def test_single_qubit_products():
    def product(a, b):
        return list(string(a) * string(b))

    assert product("X", "Y") == [("Z", 1j)]
    assert product("Y", "X") == [("Z", -1j)]
    assert product("Y", "Z") == [("X", 1j)]
    assert product("Z", "X") == [("Y", 1j)]
    for p in "XYZ":
        assert product(p, p) == [("I", 1.0)]
        assert product("I", p) == [(p, 1.0)]


def test_string_product_matches_dense(rng):
    for _ in range(20):
        a = "".join(rng.choice(list("IXYZ"), size=3))
        b = "".join(rng.choice(list("IXYZ"), size=3))
        phase, c = multiply_strings(a, b)
        lhs = string_matrix(a) @ string_matrix(b)
        assert np.allclose(lhs, phase * string_matrix(c), atol=1e-14)
        assert np.allclose(materialize(string(a) * string(b)),
                           lhs, atol=1e-14)


@PROPERTY
@given(st.data())
def test_mask_products_match_letter_table(data):
    width = data.draw(widths)
    a, b = data.draw(pauli_labels(width)), data.draw(pauli_labels(width))
    phase, c = multiply_strings(a, b)
    assert list(string(a) * string(b)) == [(c, phase)]


@PROPERTY
@given(st.data())
def test_sum_multiply_matches_label_double_loop(data):
    width = data.draw(widths)
    a, b = data.draw(pauli_sums(width)), data.draw(pauli_sums(width))
    assert bits(sum_multiply(a, b)) == bits(multiply_sums(a, b))


@PROPERTY
@given(st.data())
def test_string_tables_list_sorted_labels(data):
    width = data.draw(widths)
    op = data.draw(pauli_sums(width))
    dim = 1 << width
    # the values are not read here, so zero views stand in for the states
    vec = np.broadcast_to(np.zeros(1, dtype=complex), (dim,))
    rho = np.broadcast_to(np.zeros(1, dtype=complex), (dim, dim))
    for strings, _ in (string_overlaps(op, vec, vec), string_traces(op, rho)):
        assert [label for label, _, _, _ in strings] == sorted(dict(op))
        assert [(label, c) for label, _, _, c in strings] == sorted(op)


def test_construction_merges_and_prunes():
    op = PauliSum(2, [("XZ", 0.5), ("XZ", 0.5), ("YY", 1e-16)])
    assert len(op) == 1
    assert dict(op) == {"XZ": pytest.approx(1.0)}
    # exact cancellation leaves the empty operator
    zero = string("XZ") - string("XZ")
    assert len(zero) == 0
    assert dict(PauliSum(1, {"X": PRUNE_TOL / 2})) == {}


def test_pauli_sum_is_immutable():
    op = PauliSum.identity(2)
    with pytest.raises(AttributeError):
        op.width = 3


def test_linear_algebra_against_dense(rng):
    a = random_sum(3, 4, rng)
    b = random_sum(3, 4, rng)
    ma, mb = materialize(a), materialize(b)
    assert np.allclose(materialize(a + b), ma + mb, atol=1e-13)
    assert np.allclose(materialize(a - b), ma - mb, atol=1e-13)
    assert np.allclose(materialize(sum_multiply(a, b)), ma @ mb, atol=1e-12)
    assert np.allclose(materialize(a * b), ma @ mb, atol=1e-12)
    assert np.allclose(materialize(2.5j * a), 2.5j * ma, atol=1e-13)
    assert np.allclose(materialize(-a), -ma, atol=1e-13)


def test_adjoint_and_hermiticity(rng):
    a = random_sum(3, 5, rng)
    assert np.allclose(materialize(a.adjoint()), materialize(a).conj().T, atol=1e-13)
    herm = a + a.adjoint()
    assert herm.is_hermitian()
    assert not (1j * herm + PauliSum.identity(3)).is_hermitian()


@PROPERTY
@given(st.data())
def test_hermiticity_verdict_is_scale_invariant(data):
    """A sum is hermitian when every imaginary part is round-off next to
    its largest coefficient, here 1e-14 or 1e-13 of each real part, and not
    when one is 1e-6 or 1 of it; scaling the sum by 10^k, for k at which no
    term is pruned, gives the same verdict."""
    width = data.draw(st.integers(1, 4))
    labels = data.draw(st.lists(pauli_labels(width), min_size=1, max_size=6,
                                unique=True))
    ratios = data.draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-13, 1e-6, 1.0]),
                                min_size=len(labels), max_size=len(labels)))
    sizes = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(labels),
                               max_size=len(labels)))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(labels),
                               max_size=len(labels)))
    op = PauliSum(width, {label: sign * size * (1.0 + 1j * ratio)
                          for label, size, ratio, sign
                          in zip(labels, sizes, ratios, signs)})
    expect = max(ratios) <= 1e-13
    assert op.is_hermitian() == expect
    for k in range(-12, 13):
        scaled = 10.0 ** k * op
        assert len(scaled) == len(op)
        assert scaled.is_hermitian() == expect, k


def test_string_action_matches_dense(rng):
    labels = ("XYZ", "IYI", "ZZX", "YYY")
    x, z = np.array([next(iter(string(lbl).masks)) for lbl in labels]).T
    dim = 8
    for label, flip, phases in zip(labels, x, string_action(x, z, np.arange(dim))):
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            rebuilt[b ^ flip, b] = phases[b]
        assert np.allclose(rebuilt, string_matrix(label), atol=1e-14)
        assert np.allclose(materialize(string(label)),
                           string_matrix(label), atol=1e-14)
    # a coefficient scales each row, on any list of basis states
    coeff = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    basis = np.array([1, 4, 6])
    assert np.array_equal(string_action(x, z, basis, coeff),
                          coeff[:, None] * string_action(x, z, np.arange(dim))[:, basis])


def test_apply_string_and_sum(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    op = random_sum(3, 5, rng)
    assert np.allclose(apply_sum(op, psi), materialize(op) @ psi, atol=1e-12)
    for label in ("XIZ", "YZY"):
        dense = materialize(string(label)) @ psi
        assert np.allclose(apply_string(label, psi), dense, atol=1e-13)
    with pytest.raises(ValueError):
        apply_sum(op, psi[:4])


def test_expectation_exact(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    op = random_sum(2, 4, rng)
    herm = op + op.adjoint()
    val = expectation_from_state(psi, herm)
    assert val.imag == pytest.approx(0.0, abs=1e-10)
    assert val.real == pytest.approx(
        float(np.real(psi.conj() @ materialize(herm) @ psi)), abs=1e-12)
    # computational basis states against Z
    z0 = string("Z")
    assert expectation_from_state(np.array([1.0, 0.0], dtype=complex), z0).real == pytest.approx(1.0)
    assert expectation_from_state(np.array([0.0, 1.0], dtype=complex), z0).real == pytest.approx(-1.0)
    # an anti-hermitian part is refused at any scale
    skew = op - op.adjoint()
    assert abs(np.vdot(psi, materialize(skew) @ psi)) > 0.1
    for scale in (1e-6, 1.0, 1e8):
        with pytest.raises(ValueError, match="not hermitian"):
            expectation_from_state(psi, scale * (herm + 1e-3 * skew))
