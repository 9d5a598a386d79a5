"""Exact arithmetic in GF(p^ell).

Elements are polynomials m_0 + m_1*e + ... + m_{ell-1}*e^(ell-1) over Z_p
modulo a monic irreducible polynomial of degree ell, indexed canonically by
sum_j m_j * p**j.  Multiplication runs through discrete exp/log tables over
a generator of the multiplicative group; addition through an eager table.
All derived data (Frobenius permutation, traces, trace Gram matrix and its
inverse, dual basis, subfield lists) is computed at construction time and
immutable afterwards, so fields are safe for unrestricted concurrent reads.
The one exception is :meth:`GFField.tables`, read-only numpy copies of the
index tables for vectorised sweeps, built on first use (a concurrent first
use builds them twice, with the same values).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DegreeMismatch, DivisionByZero, NotADivisor,
                     NotInSubfield, NotPrime, ReducibleModulus, SingularGram)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num, den, p):
    # remainder of num by monic den, coefficients ascending, over Z_p
    num = [c % p for c in num]
    dn = len(den) - 1
    for k in range(len(num) - 1 - dn, -1, -1):
        c = num[k + dn]
        if c:
            for j, dj in enumerate(den):
                num[k + j] = (num[k + j] - c * dj) % p
    return num[:dn]


def _is_irreducible(coeffs, p: int) -> bool:
    """Trial-division irreducibility test for a monic polynomial over Z_p.

    Degree-1 polynomials are always irreducible; degrees 2 and 3 reduce to a
    root search; higher degrees divide by every monic polynomial of degree
    up to half the modulus degree.  Adequate at desk scale.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    for d in range(2, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_mod(coeffs, divisor, p)):
                return False
    return True


@lru_cache(maxsize=None)
def _default_modulus(p: int, ell: int) -> tuple[int, ...]:
    # Lexicographically smallest (by low-order coefficients) monic irreducible.
    for tail in itertools.product(range(p), repeat=ell):
        coeffs = tuple(tail) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, ell={ell}")


def _mat_inverse_mod(mat, p):
    # Gauss-Jordan inverse of a small integer matrix over Z_p.
    n = len(mat)
    a = [row[:] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            raise SingularGram("trace Gram matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [(x * inv) % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


class FieldElement:
    """An element of GF(p^ell), identified by its canonical index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "GFField", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.index)

    def __add__(self, other):
        other = self.field.element(other)
        return FieldElement(self.field, self.field.add_index(self.index, other.index))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.field.element(other)
        return FieldElement(self.field, self.field.sub_index(self.index, other.index))

    def __rsub__(self, other):
        return self.field.element(other) - self

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_index(self.index))

    def __mul__(self, other):
        other = self.field.element(other)
        return FieldElement(self.field, self.field.mul_index(self.index, other.index))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.element(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, n: int):
        return FieldElement(self.field, self.field.pow_index(self.index, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_index(self.index))

    def frobenius(self, k: int = 1) -> "FieldElement":
        """m -> m^(p^k)."""
        return FieldElement(self.field, self.field.frobenius_index(self.index, k))

    def trace(self) -> int:
        """Trace down to Z_p: sum of all Galois conjugates, as an integer."""
        return self.field.trace_index(self.index)

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __int__(self):
        return self.index

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.index == other.index
        if isinstance(other, int):
            return self.field is not None and self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"FieldElement({self!s})"


@dataclass(frozen=True)
class DualBasisData:
    """Trace Gram matrix, its inverse, and the dual basis elements."""

    gram: tuple[tuple[int, ...], ...]
    gram_inv: tuple[tuple[int, ...], ...]
    elements: tuple[FieldElement, ...]


class FieldTables(NamedTuple):
    """Index arithmetic of a field as read-only int64 arrays.

    ``add[a, b]``, ``neg[a]``, ``mul[a, b]`` and ``trace[a]`` hold the
    indices (the trace as an integer in Z_p) that the scalar accessors
    return, so any index array can be mapped with one gather.  ``inv[0]``
    is 0, a placeholder for the undefined inverse of zero.
    """

    add: np.ndarray
    neg: np.ndarray
    mul: np.ndarray
    inv: np.ndarray
    trace: np.ndarray


class GFField:
    """GF(p^ell) with all derived tables; construct via :func:`make_field`."""

    def __init__(self, p: int, ell: int, modulus=None):
        self.modulus = _resolve_modulus(p, ell, modulus)
        self.p = p
        self.ell = ell
        self.order = p ** ell
        self._build_tables()
        self._arrays = None

    # -- table construction ----------------------------------------------------

    def _build_tables(self):
        p, ell, q = self.p, self.ell, self.order
        self._coeffs = [tuple((i // p**j) % p for j in range(ell)) for i in range(q)]
        self._add = [[self._index_of_sum(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._build_log_tables()
        self._frob = [self.pow_index(i, p) for i in range(q)]
        self._trace = []
        for i in range(q):
            acc, x = 0, i
            for _ in range(ell):
                acc = self._add[acc][x]
                x = self._frob[x]
            self._trace.append(self._coeffs[acc][0] if acc else 0)
            if acc and any(self._coeffs[acc][1:]):
                raise SingularGram("trace left the prime field")
        self._subfields = {}
        for d in self.divisors():
            fixed = [i for i in range(q) if self._frob_iter(i, d) == i]
            self._subfields[d] = tuple(fixed)
        self._dual = self._build_dual_basis()

    def _index_of_sum(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self._coeffs[a], self._coeffs[b]
        idx = 0
        for j in range(self.ell - 1, -1, -1):
            idx = idx * p + (ca[j] + cb[j]) % p
        return idx

    def _poly_mul_index(self, a: int, b: int) -> int:
        p, ell = self.p, self.ell
        ca, cb = self._coeffs[a], self._coeffs[b]
        prod = [0] * (2 * ell - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        rem = _poly_mod(prod, self.modulus, p)
        idx = 0
        for c in reversed(rem):
            idx = idx * p + c
        return idx

    def _build_log_tables(self):
        q = self.order
        if q == 2:
            self._exp, self._log = [1], [None, 0]
            return
        for g in range(1, q):
            seen = [None] * q
            exp = []
            x = 1
            for k in range(q - 1):
                if seen[x] is not None:
                    break
                seen[x] = k
                exp.append(x)
                x = self._poly_mul_index(x, g)
            if len(exp) == q - 1:
                self._exp, self._log = exp, seen
                return
        raise SingularGram("no multiplicative generator found")

    def _frob_iter(self, i: int, k: int) -> int:
        for _ in range(k % self.ell or 0):
            i = self._frob[i]
        return i

    def _build_dual_basis(self) -> DualBasisData:
        ell = self.ell
        eps_pows = [self.pow_index(self.p if ell > 1 else 1, k) for k in range(ell)]
        if ell == 1:
            eps_pows = [1]
        gram = [[self._trace[self.mul_index(eps_pows[l], eps_pows[k])]
                 for k in range(ell)] for l in range(ell)]
        gram_inv = _mat_inverse_mod(gram, self.p)
        dual = []
        for k in range(ell):
            acc = 0
            for l in range(ell):
                c = gram_inv[k][l]
                term = self.mul_index(self.element(c).index, eps_pows[l])
                acc = self._add[acc][term]
            dual.append(FieldElement(self, acc))
        for k in range(ell):
            for l in range(ell):
                want = 1 if k == l else 0
                if self._trace[self.mul_index(eps_pows[k], dual[l].index)] != want:
                    raise SingularGram("dual basis failed its defining property")
        return DualBasisData(
            gram=tuple(tuple(r) for r in gram),
            gram_inv=tuple(tuple(r) for r in gram_inv),
            elements=tuple(dual),
        )

    # -- index-level arithmetic --------------------------------------------------

    def tables(self) -> FieldTables:
        """The index tables as arrays, built on first use and then kept.

        Lazy, so building a field costs no more than before; sweeps over
        many elements or labels call this once and then gather.
        """
        if self._arrays is None:
            n = self.order - 1
            exp = np.array(self._exp, dtype=np.int64)
            log = np.array([0] + self._log[1:], dtype=np.int64)
            mul = exp[(log[:, None] + log[None, :]) % n]
            mul[0, :] = 0
            mul[:, 0] = 0
            inv = exp[-log % n]
            inv[0] = 0
            arrays = FieldTables(add=np.array(self._add, dtype=np.int64),
                                 neg=np.array(self._neg, dtype=np.int64),
                                 mul=mul, inv=inv,
                                 trace=np.array(self._trace, dtype=np.int64))
            for a in arrays:
                a.setflags(write=False)
            self._arrays = arrays
        return self._arrays

    def add_index(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub_index(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg_index(self, a: int) -> int:
        return self._neg[a]

    def mul_index(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv_index(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        n = self.order - 1
        return self._exp[(-self._log[a]) % n]

    def pow_index(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("negative power of zero field element")
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] * k) % n]

    def frobenius_index(self, a: int, k: int = 1) -> int:
        return self._frob_iter(a, k)

    def trace_index(self, a: int) -> int:
        return self._trace[a]

    # -- public API ----------------------------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an index (any integer, numpy ones included), coefficient
        sequence, text encoding, or element."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise DegreeMismatch("element belongs to a different field")
            return value
        if isinstance(value, str):
            parts = value.split(",")
            if len(parts) == 1:
                return self.element(int(parts[0]))
            return self.element([int(x) for x in parts])
        try:
            return FieldElement(self, operator.index(value) % self.order)
        except TypeError:
            pass
        try:
            coeffs = list(value)
        except TypeError:
            raise ConfigError(f"{value!r} is not a field element, index, "
                              "coefficient sequence or text") from None
        if len(coeffs) != self.ell:
            raise DegreeMismatch(
                f"expected {self.ell} coefficients, got {len(coeffs)}")
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + (c % self.p)
        return FieldElement(self, idx)

    def coeffs_of(self, index: int) -> tuple[int, ...]:
        return self._coeffs[index]

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def generator(self) -> FieldElement:
        """The polynomial generator e (the class of x); equals 1 when ell = 1."""
        return FieldElement(self, self.p if self.ell > 1 else 1)

    def elements(self):
        """All field elements in canonical index order."""
        return [FieldElement(self, i) for i in range(self.order)]

    def divisors(self) -> list[int]:
        return [d for d in range(1, self.ell + 1) if self.ell % d == 0]

    def check_divisor(self, d: int):
        """Raise NotADivisor unless d divides ell (GF(p^d) is a subfield)."""
        if d < 1 or self.ell % d != 0:
            raise NotADivisor(f"{d} does not divide {self.ell}")

    def subfield_indices(self, d: int) -> tuple[int, ...]:
        self.check_divisor(d)
        return self._subfields[d]

    def subfield_elements(self, d: int) -> list[FieldElement]:
        """The p^d elements fixed by the d-th Frobenius iterate, index order."""
        return [FieldElement(self, i) for i in self.subfield_indices(d)]

    def in_subfield(self, m, d: int) -> bool:
        self.check_divisor(d)
        idx = self.element(m).index
        return idx in set(self._subfields[d])

    def require_in_subfield(self, m, d: int,
                            message: str | None = None) -> FieldElement:
        """Coerce m, raising NotInSubfield unless it lies in GF(p^d).

        The default message names the element as a label.
        """
        el = self.element(m)
        if not self.in_subfield(el, d):
            raise NotInSubfield(message or f"label {el} is not in GF({self.p}^{d})")
        return el

    def subfield_trace(self, m, d: int) -> int:
        """Trace of m relative to the degree-d subfield extension of Z_p."""
        self.check_divisor(d)
        idx = self.element(m).index
        if self._frob_iter(idx, d) != idx:
            raise NotInSubfield(f"element {idx} is not in GF({self.p}^{d})")
        acc, x = 0, idx
        for _ in range(d):
            acc = self._add[acc][x]
            x = self._frob[x]
        return self._coeffs[acc][0] if acc else 0

    @property
    def dual_basis(self) -> DualBasisData:
        return self._dual

    def components(self, m) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(standard, dual) component vectors of m.

        Standard components expand m over the power basis; dual components
        are the traces of m against the power basis and expand m over the
        dual basis.
        """
        el = self.element(m)
        std = el.coeffs
        eps = self.generator
        dual = tuple(self._trace[self.mul_index(el.index, (eps ** l).index)]
                     for l in range(self.ell))
        return std, dual

    def galois_group_exponents(self, d: int) -> list[int]:
        """Frobenius iterate exponents {d, 2d, ..., ell} fixing GF(p^d)."""
        self.check_divisor(d)
        return [d * k for k in range(1, self.ell // d + 1)]

    @property
    def two_inverse(self) -> int:
        """Inverse of 2 in Z_p; only defined for odd characteristic."""
        if self.p == 2:
            raise DivisionByZero("2 is not invertible in characteristic 2")
        return pow(2, -1, self.p)

    def __repr__(self):
        return f"GFField(p={self.p}, ell={self.ell}, modulus={list(self.modulus)})"


def _resolve_modulus(p: int, ell: int, modulus) -> tuple[int, ...]:
    """Validate (p, ell, modulus) and return the monic modulus reduced mod p.

    ``None`` selects the default modulus; ``ell`` coefficients get the
    leading 1 appended.  Every spelling of one polynomial resolves to the
    same tuple.
    """
    if ell < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if modulus is None:
        return _default_modulus(p, ell)
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) == ell:
        mod = mod + (1,)
    if len(mod) != ell + 1 or mod[-1] != 1:
        raise DegreeMismatch(
            f"modulus must be monic of degree {ell}; got {list(modulus)}")
    if not _is_irreducible(mod, p):
        raise ReducibleModulus(f"polynomial {list(mod)} factors over Z_{p}")
    return mod


@lru_cache(maxsize=None)
def _cached_field(p: int, ell: int, modulus: tuple[int, ...]) -> GFField:
    return GFField(p, ell, modulus)


def make_field(p: int, ell: int, modulus=None) -> GFField:
    """Construct (or fetch the cached) GF(p^ell).

    When no modulus is given, the lexicographically smallest monic
    irreducible polynomial of degree ell is used.  Fields with identical
    (p, ell, modulus) are the same object, so their elements interoperate;
    the modulus is compared after resolution, so the default modulus and its
    explicit spellings give one field.
    """
    return _cached_field(p, ell, _resolve_modulus(p, ell, modulus))
