"""Algebra of weighted Pauli-string sums: products, signs, actions."""

import numpy as np
import pytest

from corrvec.circuits import expectation_from_state
from corrvec.oracle import materialize
from corrvec.pauli import (
    PRUNE_TOL,
    PauliSum,
    apply_sum,
    multiply_strings,
    string_action,
    sum_multiply,
    validate_string,
)
from kron_reference import apply_string


def random_sum(width, n_terms, rng):
    labels = ["".join(rng.choice(list("IXYZ"), size=width)) for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return PauliSum(width, zip(labels, coeffs))


def test_validate_string_rejects_bad_input():
    validate_string("IXYZ", 4)
    with pytest.raises(ValueError):
        validate_string("IX", 3)
    with pytest.raises(ValueError):
        validate_string("IXQZ", 4)


def test_single_qubit_products():
    assert multiply_strings("X", "Y") == (1j, "Z")
    assert multiply_strings("Y", "X") == (-1j, "Z")
    assert multiply_strings("Y", "Z") == (1j, "X")
    assert multiply_strings("Z", "X") == (1j, "Y")
    for p in "XYZ":
        assert multiply_strings(p, p) == (1.0, "I")
        assert multiply_strings("I", p) == (1.0, p)


def test_string_product_matches_dense(rng):
    for _ in range(20):
        a = "".join(rng.choice(list("IXYZ"), size=3))
        b = "".join(rng.choice(list("IXYZ"), size=3))
        phase, c = multiply_strings(a, b)
        lhs = materialize(PauliSum.from_label(a)) @ materialize(PauliSum.from_label(b))
        rhs = phase * materialize(PauliSum.from_label(c))
        assert np.allclose(lhs, rhs, atol=1e-14)


def test_construction_merges_and_prunes():
    op = PauliSum(2, [("XZ", 0.5), ("XZ", 0.5), ("YY", 1e-16)])
    assert len(op) == 1
    assert op.coefficient("XZ") == pytest.approx(1.0)
    assert op.coefficient("YY") == 0.0
    # exact cancellation leaves the empty operator
    zero = PauliSum.from_label("XZ") - PauliSum.from_label("XZ")
    assert len(zero) == 0
    assert PauliSum(1, {"X": PRUNE_TOL / 2}).terms == {}


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


def test_string_action_matches_dense(rng):
    for label in ("XYZ", "IYI", "ZZX", "YYY"):
        flip, phases = string_action(label)
        dense = materialize(PauliSum.from_label(label))
        dim = 8
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            rebuilt[b ^ flip, b] = phases[b]
        assert np.allclose(rebuilt, dense, atol=1e-14)


def test_apply_string_and_sum(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    op = random_sum(3, 5, rng)
    assert np.allclose(apply_sum(op, psi), materialize(op) @ psi, atol=1e-12)
    for label in ("XIZ", "YZY"):
        dense = materialize(PauliSum.from_label(label)) @ psi
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
    z0 = PauliSum.from_label("Z")
    assert expectation_from_state(np.array([1.0, 0.0], dtype=complex), z0).real == pytest.approx(1.0)
    assert expectation_from_state(np.array([0.0, 1.0], dtype=complex), z0).real == pytest.approx(-1.0)
