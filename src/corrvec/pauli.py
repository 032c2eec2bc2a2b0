"""Weighted sums of Pauli strings on a fixed qubit register.

A Pauli string is a plain ``str`` of letters from ``IXYZ``; position ``i``
acts on qubit ``i``.  Qubit 0 is the least significant bit of a basis-state
index, so the dense matrix of a string is ``kron(P[m-1], ..., P[0])``.
Coefficients are complex and terms with magnitude at or below PRUNE_TOL are
dropped on construction, so the zero operator has no terms.

A sum acts on states through forms compiled on first use and kept on the
(immutable) sum: for ``apply_sum`` the strings that flip the same bits merge
into one diagonal, and for the per-string estimators every string keeps its
own row.  Either way a call is one vectorized gather, with no per-string
Python loop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

PAULI_CHARS = "IXYZ"
PRUNE_TOL = 1e-14

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# (a, b) -> (phase, c) with a.b = phase * c for single-qubit letters
_PRODUCT = {
    ("I", "I"): (1.0, "I"), ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"), ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"), ("Y", "I"): (1.0, "Y"), ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"), ("Y", "Y"): (1.0, "I"), ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def validate_string(label: str, width: int) -> None:
    if len(label) != width:
        raise ValueError(f"Pauli string {label!r} has length {len(label)}, expected {width}")
    bad = set(label) - set(PAULI_CHARS)
    if bad:
        raise ValueError(f"Pauli string {label!r} contains invalid letters {sorted(bad)}")


def multiply_strings(a: str, b: str) -> tuple[complex, str]:
    """Product of two Pauli strings: a.b = phase * c with phase in {1,-1,i,-i}."""
    if len(a) != len(b):
        raise ValueError("Pauli strings of unequal length")
    phase = 1.0 + 0j
    out = []
    for ca, cb in zip(a, b):
        ph, cc = _PRODUCT[(ca, cb)]
        phase *= ph
        out.append(cc)
    return phase, "".join(out)


def strings_commute(a: str, b: str) -> bool:
    """True when the strings commute (even number of conflicting sites)."""
    conflicts = sum(1 for ca, cb in zip(a, b) if ca != "I" and cb != "I" and ca != cb)
    return conflicts % 2 == 0


class PauliSum:
    """Immutable weighted sum of Pauli strings on ``width`` qubits."""

    # _compiled and _table stay unset until an action first needs them
    __slots__ = ("width", "_terms", "_compiled", "_table")

    def __init__(self, width: int, terms: Mapping[str, complex] | Iterable[tuple[str, complex]] = ()):
        if width < 1:
            raise ValueError("register width must be at least 1")
        merged: dict[str, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for label, coeff in items:
            validate_string(label, width)
            merged[label] = merged.get(label, 0.0) + complex(coeff)
        object.__setattr__(self, "width", width)
        object.__setattr__(
            self, "_terms",
            {k: v for k, v in merged.items() if abs(v) > PRUNE_TOL},
        )

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def identity(cls, width: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(width, {"I" * width: coeff})

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(len(label), {label: coeff})

    @property
    def terms(self) -> dict[str, complex]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[str, complex]]:
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.width == other.width and self._terms == other._terms

    def __repr__(self) -> str:
        parts = [f"({c:+.6g})*{lbl}" for lbl, c in sorted(self._terms.items())]
        return f"PauliSum({self.width}, {' + '.join(parts) or '0'})"

    def coefficient(self, label: str) -> complex:
        return self._terms.get(label, 0.0 + 0j)

    def _check_width(self, other: "PauliSum") -> None:
        if self.width != other.width:
            raise ValueError(f"register widths differ: {self.width} vs {other.width}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_width(other)
        merged = dict(self._terms)
        for label, coeff in other._terms.items():
            merged[label] = merged.get(label, 0.0) + coeff
        return PauliSum(self.width, merged)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return sum_multiply(self, other)
        return PauliSum(self.width, {k: v * other for k, v in self._terms.items()})

    def __rmul__(self, scalar) -> "PauliSum":
        return PauliSum(self.width, {k: v * scalar for k, v in self._terms.items()})

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate; strings are self-adjoint so only coefficients conjugate."""
        return PauliSum(self.width, {k: np.conj(v) for k, v in self._terms.items()})

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def norm1(self) -> float:
        """Sum of coefficient magnitudes."""
        return float(sum(abs(c) for c in self._terms.values()))

    def to_lines(self) -> str:
        """Textual dump, one term per line: coeff_re coeff_im letters."""
        lines = [
            f"{c.real:+.17g} {c.imag:+.17g} {lbl}"
            for lbl, c in sorted(self._terms.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_lines(cls, text: str, width: int | None = None) -> "PauliSum":
        terms = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"malformed Pauli term line: {raw!r}")
            re_s, im_s, label = fields
            terms.append((label, complex(float(re_s), float(im_s))))
        if width is None:
            if not terms:
                raise ValueError("cannot infer width from an empty dump")
            width = len(terms[0][0])
        return cls(width, terms)


def sum_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product of two sums, merged and pruned."""
    a._check_width(b)
    merged: dict[str, complex] = {}
    for la, ca in a._terms.items():
        for lb, cb in b._terms.items():
            phase, lc = multiply_strings(la, lb)
            merged[lc] = merged.get(lc, 0.0) + ca * cb * phase
    return PauliSum(a.width, merged)


def string_action(label: str) -> tuple[int, np.ndarray]:
    """Action of one Pauli string on computational basis states.

    Returns ``(flip, phases)`` such that P|b> = phases[b] * |b ^ flip>
    for every basis index b.  ``phases`` has shape (2**m,).
    """
    m = len(label)
    dim = 1 << m
    flip = 0
    phase0 = 1.0 + 0j
    z_mask = 0
    for q, ch in enumerate(label):
        if ch == "X":
            flip |= 1 << q
        elif ch == "Y":
            flip |= 1 << q
            z_mask |= 1 << q
            phase0 *= 1j
        elif ch == "Z":
            z_mask |= 1 << q
    b = np.arange(dim, dtype=np.uint64)
    # parity of bits of b under z_mask; Y contributes an extra i and a sign
    # convention fixed by Y|0> = i|1>, Y|1> = -i|0>
    masked = b & np.uint64(z_mask)
    parity = np.zeros(dim, dtype=np.int64)
    mm = masked.copy()
    while mm.any():
        parity ^= (mm & np.uint64(1)).astype(np.int64)
        mm >>= np.uint64(1)
    phases = phase0 * np.where(parity, -1.0, 1.0).astype(complex)
    return flip, phases


def _compiled(op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, diag)`` with A|psi> = sum_g diag[g] * psi[idx[g]].

    Row g gathers every string with flip mask f_g: idx[g] = b ^ f_g and
    diag[g][b] = sum of coeff * phases[b ^ f_g] over those strings.  Built
    once per operator and kept on it.
    """
    comp = getattr(op, "_compiled", None)
    if comp is None:
        dim = 1 << op.width
        merged: dict[int, np.ndarray] = {}
        for label, coeff in op:
            flip, phases = string_action(label)
            acc = merged.get(flip)
            if acc is None:
                merged[flip] = coeff * phases
            else:
                acc += coeff * phases
        flips = np.fromiter(merged, dtype=np.intp, count=len(merged))
        idx = np.arange(dim)[None, :] ^ flips[:, None]
        by_source = np.array(list(merged.values()), dtype=complex).reshape(-1, dim)
        comp = (idx, np.take_along_axis(by_source, idx, axis=1))
        object.__setattr__(op, "_compiled", comp)
    return comp


def apply_sum(op: PauliSum, psi: np.ndarray) -> np.ndarray:
    """A|psi> for a weighted sum acting on a statevector."""
    dim = 1 << op.width
    if psi.shape != (dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({dim},)")
    idx, diag = _compiled(op)
    return np.einsum("gc,gc->c", diag, psi[idx])


def _string_table(op: PauliSum) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(labels, idx, phases)`` over the strings in sorted label order:
    P_s|b> = phases[s][b] |idx[s][b]>.  Built once per operator and kept."""
    table = getattr(op, "_table", None)
    if table is None:
        labels = sorted(op._terms)
        dim = 1 << op.width
        actions = [string_action(label) for label in labels]
        flips = np.array([f for f, _ in actions], dtype=np.intp)
        phases = np.array([ph for _, ph in actions], dtype=complex).reshape(-1, dim)
        table = (labels, np.arange(dim)[None, :] ^ flips[:, None], phases)
        object.__setattr__(op, "_table", table)
    return table


def string_overlaps(op: PauliSum, bra: np.ndarray,
                    ket: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted labels of ``op`` and <bra|P|ket> for each of them."""
    labels, idx, phases = _string_table(op)
    return labels, np.einsum("sb,sb,b->s", bra.conj()[idx], phases, ket)


def string_traces(op: PauliSum, rho: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted labels of ``op`` and tr(rho P) for each of them."""
    labels, idx, phases = _string_table(op)
    return labels, np.einsum("sb,sb->s", phases,
                             rho[np.arange(rho.shape[0]), idx])


def density_expectation(rho: np.ndarray, op: PauliSum) -> complex:
    """tr(rho A) without materializing A: sum_g,b diag[g][b] rho[b ^ f_g, b]."""
    idx, diag = _compiled(op)
    return complex(np.sum(diag * rho[idx, np.arange(rho.shape[0])]))


def expectation_exact(state: np.ndarray, op: PauliSum) -> complex:
    """<state|A|state> from an explicit statevector.

    When A is hermitian the imaginary part must vanish; asserted to 1e-10.
    """
    val = np.vdot(state, apply_sum(op, state))
    if op.is_hermitian():
        assert abs(val.imag) <= 1e-10, f"hermitian expectation has imag {val.imag:.3e}"
    return complex(val)
