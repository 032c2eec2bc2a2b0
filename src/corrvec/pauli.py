"""Weighted sums of Pauli strings on a fixed qubit register.

A string is held as two integer bit masks (x, z), qubit q on bit q: x has
bit q set where the string acts with X or Y, z where it acts with Y or Z.
The string is P = i^{|x & z|} X^x Z^z, with |.| the number of set bits, so
every Y is i X Z.  Qubit 0 is the least significant bit of a basis-state
index, so P|b> = i^{|x & z|} (-1)^{|b & z|} |b ^ x> and the dense matrix of
a string is ``kron(P[m-1], ..., P[0])``.  The product of two strings is the
string (x1 ^ x2, z1 ^ z2) times i^k, k = |x1 & z1| + |x2 & z2| - |x3 & z3|
+ 2 |z1 & x2| mod 4.

Text labels exist only where callers meet a sum: the constructor,
``from_label``, ``identity``, ``terms``, iteration and ``coefficient`` take
or give a ``str`` of letters from ``IXYZ``, letter q acting on qubit q.
Coefficients are complex and terms with magnitude at or below PRUNE_TOL are
dropped on construction, so the zero operator has no terms.

A sum acts on states through forms compiled on first use and kept on the
(immutable) sum: for ``apply_sum`` the strings that flip the same bits merge
into one diagonal, and for the per-string estimators every string keeps its
own row, next to its label and coefficient.  Either way a call is one
vectorized gather, with no per-string Python loop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PRUNE_TOL = 1e-14

# a sum's strings as (label, x, z, coeff) in sorted label order
Strings = list[tuple[str, int, int, complex]]

# i^k for k = 0..3
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# the letter of (x bit) + 2 * (z bit)
_LETTERS = "IXZY"


def _string_masks(label: str, width: int) -> tuple[int, int]:
    """``(x, z)`` of a label of ``width`` letters from IXYZ."""
    if len(label) != width:
        raise ValueError(f"Pauli string {label!r} has length {len(label)}, expected {width}")
    bad = set(label) - set("IXYZ")
    if bad:
        raise ValueError(f"Pauli string {label!r} contains invalid letters {sorted(bad)}")
    rev = label[::-1]
    return int(rev.translate(_X_BITS), 2), int(rev.translate(_Z_BITS), 2)


def _label(x: int, z: int, width: int) -> str:
    return "".join(_LETTERS[(x >> q & 1) | (z >> q & 1) << 1] for q in range(width))


class PauliSum:
    """Immutable weighted sum of Pauli strings on ``width`` qubits."""

    # _terms maps (x, z) to the coefficient, in order of first occurrence;
    # _compiled and _table stay unset until an action first needs them
    __slots__ = ("width", "_terms", "_compiled", "_table")

    def __init__(self, width: int, terms: Mapping[str, complex] | Iterable[tuple[str, complex]] = ()):
        if width < 1:
            raise ValueError("register width must be at least 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._set(width, ((_string_masks(label, width), coeff) for label, coeff in items))

    def _set(self, width: int, items: Iterable[tuple[tuple[int, int], complex]]) -> None:
        """Merge ``((x, z), coeff)`` items in order and drop the negligible sums."""
        merged: dict[tuple[int, int], complex] = {}
        for key, coeff in items:
            merged[key] = merged.get(key, 0.0) + complex(coeff)
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
        return dict(self)

    @property
    def masks(self) -> dict[tuple[int, int], complex]:
        """The terms keyed by their ``(x, z)`` masks."""
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[str, complex]]:
        return ((_label(x, z, self.width), c) for (x, z), c in self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.width == other.width and self._terms == other._terms

    def __repr__(self) -> str:
        parts = [f"({c:+.6g})*{lbl}" for lbl, c in sorted(self)]
        return f"PauliSum({self.width}, {' + '.join(parts) or '0'})"

    def coefficient(self, label: str) -> complex:
        return self._terms.get(_string_masks(label, self.width), 0.0 + 0j)

    def _check_width(self, other: "PauliSum") -> None:
        if self.width != other.width:
            raise ValueError(f"register widths differ: {self.width} vs {other.width}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._check_width(other)
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0.0) + coeff
        return _from_masks(self.width, merged.items())

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return sum_multiply(self, other)
        return _from_masks(self.width, ((k, v * other) for k, v in self._terms.items()))

    def __rmul__(self, scalar) -> "PauliSum":
        return _from_masks(self.width, ((k, v * scalar) for k, v in self._terms.items()))

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate; strings are self-adjoint so only coefficients conjugate."""
        return _from_masks(self.width, ((k, np.conj(v)) for k, v in self._terms.items()))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())


def _from_masks(width: int, items: Iterable[tuple[tuple[int, int], complex]]) -> PauliSum:
    op = object.__new__(PauliSum)
    op._set(width, items)
    return op


def sum_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product of two sums, merged and pruned."""
    a._check_width(b)
    right = [(xb, zb, (xb & zb).bit_count(), cb) for (xb, zb), cb in b._terms.items()]
    merged: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a._terms.items():
        ya = (xa & za).bit_count()
        for xb, zb, yb, cb in right:
            key = (xa ^ xb, za ^ zb)
            k = ya + yb - (key[0] & key[1]).bit_count() + 2 * (za & xb).bit_count()
            merged[key] = merged.get(key, 0.0) + ca * cb * _I_POWERS[k & 3]
    return _from_masks(a.width, merged.items())


def weighted_sum(width: int, parts: Iterable[tuple[complex, PauliSum]]) -> PauliSum:
    """Sum of weight * op over ``parts``, each coefficient accumulated in
    order and the result pruned once, at the end."""
    merged: dict[tuple[int, int], complex] = {}
    for weight, op in parts:
        for key, coeff in op._terms.items():
            merged[key] = merged.get(key, 0.0) + weight * coeff
    return _from_masks(width, merged.items())


def precompiled_sum(width: int, parts: Sequence[tuple[complex, PauliSum]]) -> PauliSum:
    """``weighted_sum`` of ``parts``, holding each form that every part
    holds (``precompile``), built from theirs with no string compiled
    again: its action's rows are the weighted sums of the parts' rows, and
    its string table takes each string's phases from a part."""
    out = weighted_sum(width, parts)
    if all(getattr(op, "_compiled", None) is not None for _, op in parts):
        rows: dict[int, np.ndarray] = {}
        for weight, op in parts:
            idx, diag = op._compiled
            for flip, row in zip(idx[:, 0].tolist(), diag):
                acc = rows.get(flip)
                rows[flip] = weight * row if acc is None else acc + weight * row
        object.__setattr__(out, "_compiled", _by_flip(width, rows))
    if all(getattr(op, "_table", None) is not None for _, op in parts):
        _string_table(out, {(x, z): (label, row) for _, op in parts
                            for (label, x, z, _), row
                            in zip(op._table[0], op._table[2])})
    return out


def precompile(op: PauliSum, per_string: bool) -> PauliSum:
    """Build and keep on ``op`` the form its reads use: the action
    ``apply_sum`` gathers with, or with ``per_string`` the string table of
    the per-string estimators.  Returns ``op``."""
    if per_string:
        _string_table(op)
    else:
        _compiled(op)
    return op


def string_action(x: int, z: int, width: int) -> np.ndarray:
    """Action of the string with masks ``(x, z)`` on basis states: the
    ``phases`` of shape (2**width,) with P|b> = phases[b] * |b ^ x>."""
    # one product per Y, so every phase keeps the same signed zeros
    phase0 = 1.0 + 0j
    for _ in range((x & z).bit_count()):
        phase0 *= 1j
    b = np.arange(1 << width, dtype=np.uint64)
    parity = np.bitwise_count(b & np.uint64(z)) & 1
    return phase0 * np.where(parity, -1.0, 1.0).astype(complex)


def _compiled(op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, diag)`` with A|psi> = sum_g diag[g] * psi[idx[g]].

    Row g gathers every string with flip mask f_g: idx[g] = b ^ f_g and
    diag[g][b] = sum of coeff * phases[b ^ f_g] over those strings.  Built
    once per operator and kept on it.
    """
    comp = getattr(op, "_compiled", None)
    if comp is None:
        merged: dict[int, np.ndarray] = {}
        for (x, z), coeff in op._terms.items():
            phases = string_action(x, z, op.width)
            acc = merged.get(x)
            if acc is None:
                merged[x] = coeff * phases
            else:
                acc += coeff * phases
        idx, by_source = _by_flip(op.width, merged)
        comp = (idx, np.take_along_axis(by_source, idx, axis=1))
        object.__setattr__(op, "_compiled", comp)
    return comp


def _by_flip(width: int, rows: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, stacked)`` for rows keyed by flip mask f_g: idx[g] = b ^ f_g
    and stacked[g] the row of f_g."""
    dim = 1 << width
    flips = np.fromiter(rows, dtype=np.intp, count=len(rows))
    return (np.arange(dim)[None, :] ^ flips[:, None],
            np.array(list(rows.values()), dtype=complex).reshape(-1, dim))


def apply_sum(op: PauliSum, psi: np.ndarray) -> np.ndarray:
    """A|psi> for a weighted sum acting on a statevector, or on each
    statevector of a (..., 2^m) batch."""
    dim = 1 << op.width
    if psi.ndim < 1 or psi.shape[-1] != dim:
        raise ValueError(f"state has shape {psi.shape}, expected (..., {dim})")
    idx, diag = _compiled(op)
    return np.einsum("gc,...gc->...c", diag, psi[..., idx])


def _string_table(op: PauliSum,
                  known: Mapping[tuple[int, int], tuple[str, np.ndarray]] | None = None,
                  ) -> tuple[Strings, np.ndarray, np.ndarray]:
    """``(strings, idx, phases)`` with P_s|b> = phases[s][b] |idx[s][b]>,
    the strings in sorted label order, the order every per-string estimate
    is drawn in.  Built once per operator and kept; ``known`` maps every
    string's masks to its label and phases when they are already computed."""
    table = getattr(op, "_table", None)
    if table is None:
        if known is None:
            known = {(x, z): (_label(x, z, op.width), string_action(x, z, op.width))
                     for x, z in op._terms}
        strings = sorted((known[x, z][0], x, z, c) for (x, z), c in op._terms.items())
        dim = 1 << op.width
        flips = np.array([x for _, x, _, _ in strings], dtype=np.intp)
        phases = np.array([known[x, z][1] for _, x, z, _ in strings],
                          dtype=complex).reshape(-1, dim)
        table = (strings, np.arange(dim)[None, :] ^ flips[:, None], phases)
        object.__setattr__(op, "_table", table)
    return table


def string_overlaps(op: PauliSum, bra: np.ndarray, ket: np.ndarray) -> tuple[Strings, np.ndarray]:
    """The strings of ``op`` in sorted label order and <bra|P|ket> for each."""
    strings, idx, phases = _string_table(op)
    return strings, np.einsum("sb,sb,b->s", bra.conj()[idx], phases, ket)


def string_matrices(op: PauliSum) -> tuple[Strings, np.ndarray]:
    """The strings of ``op`` in sorted label order and the dense
    (2^m, 2^m) matrix of each."""
    strings, idx, phases = _string_table(op)
    dim = 1 << op.width
    mats = np.zeros((len(strings), dim, dim), dtype=complex)
    mats[np.arange(len(strings))[:, None], idx, np.arange(dim)] = phases
    return strings, mats


def string_traces(op: PauliSum, rho: np.ndarray) -> tuple[Strings, np.ndarray]:
    """The strings of ``op`` in sorted label order and tr(rho P) for each."""
    strings, idx, phases = _string_table(op)
    return strings, np.einsum("sb,sb->s", phases,
                              rho[np.arange(rho.shape[0]), idx])
