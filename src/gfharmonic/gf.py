"""Exact arithmetic in GF(p^ell).

Elements are polynomials m_0 + m_1*e + ... + m_{ell-1}*e^(ell-1) over Z_p
modulo a monic irreducible polynomial of degree ell, indexed canonically by
sum_j m_j * p**j.  The index arithmetic is a set of read-only int64 arrays
(:meth:`GFField.tables`), built once when the field is made: addition one
digit at a time, multiplication, inverses and the Frobenius map by gathers
on the exp/log tables of a generator of the multiplicative group, and the
trace by summing the Frobenius orbit.  The scalar accessors read these
arrays.  All derived data (traces, trace Gram matrix and its inverse, dual
basis, subfield lists) is computed at construction time and immutable
afterwards, so fields are safe for unrestricted concurrent reads.
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

    ``add[a, b]``, ``neg[a]``, ``mul[a, b]``, ``frob[a]`` (a^p) and
    ``trace[a]`` hold the indices (the trace as an integer in Z_p) that the
    scalar accessors return, so any index array can be mapped with one
    gather.  ``inv[0]`` is 0, a placeholder for the undefined inverse of
    zero.
    """

    add: np.ndarray
    neg: np.ndarray
    mul: np.ndarray
    inv: np.ndarray
    trace: np.ndarray
    frob: np.ndarray


class GFField:
    """GF(p^ell) with all derived tables; construct via :func:`make_field`."""

    def __init__(self, p: int, ell: int, modulus=None):
        self.modulus = _resolve_modulus(p, ell, modulus)
        self.p = p
        self.ell = ell
        self.order = p ** ell
        self._build_tables()

    # -- table construction ----------------------------------------------------

    def _build_tables(self):
        p, ell, q = self.p, self.ell, self.order
        idx = np.arange(q)
        # digit j of index i is coefficient j of its polynomial; the power
        # basis element e^j has the index p^j
        self._basis = p ** np.arange(ell)
        self._digits = idx[:, None] // self._basis % p
        # one digit at a time: the table of the indices below p^(j+1) holds
        # p^j (a_j + b_j mod p) plus the table below p^j
        digit_sum = (idx[:p, None] + idx[:p]) % p
        add = np.zeros((1, 1), dtype=np.int64)
        for w in self._basis:
            m = len(add)
            add = (digit_sum[:, None, :, None] * w + add[None, :, None, :]).reshape(m * p, m * p)
        n = q - 1
        exp = self._generator_powers()
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        mul = exp[(log[:, None] + log) % n]
        mul[0] = mul[:, 0] = 0
        inv, frob = exp[-log % n], exp[log * p % n]
        inv[0] = frob[0] = 0
        # the trace relative to GF(p^d) sums the d Frobenius images of each
        # element; the elements they bring back to themselves form GF(p^d)
        self._subfields, self._subfield_traces = {}, {}
        for d in self.divisors():
            acc, x = np.zeros(q, dtype=np.int64), idx
            for _ in range(d):
                acc, x = add[acc, x], frob[x]
            fixed = x == idx
            if self._digits[acc[fixed], 1:].any():
                raise SingularGram("trace left the prime field")
            self._subfields[d] = tuple(np.flatnonzero(fixed).tolist())
            self._subfield_traces[d] = np.where(fixed, self._digits[acc, 0], 0)
        self._exp, self._log = exp, log
        self._t = FieldTables(add=add, neg=-self._digits % p @ self._basis, mul=mul,
                              inv=inv, trace=self._subfield_traces[ell], frob=frob)
        for a in (*self._t, *self._subfield_traces.values(), self._digits, exp, log):
            a.setflags(write=False)
        self._dual = self._build_dual_basis()

    def _times(self, g: int) -> np.ndarray:
        # the index map m -> m g: the product of coefficient vectors,
        # reduced by the monic modulus from the top degree down
        p, ell = self.p, self.ell
        prod = np.zeros((self.order, 2 * ell - 1), dtype=np.int64)
        for j, c in enumerate(self._digits[g]):
            prod[:, j:j + ell] += c * self._digits
        tail = np.array(self.modulus[:-1])
        for k in range(2 * ell - 2, ell - 1, -1):
            prod[:, k - ell:k] = (prod[:, k - ell:k] - prod[:, k:k + 1] * tail) % p
        return prod[:, :ell] % p @ self._basis

    def _generator_powers(self) -> np.ndarray:
        # exp[k] = g^k for the first g (in index order) of order q - 1
        for g in range(1, self.order):
            step = self._times(g).tolist()
            exp, x = [1], step[1]
            while x != 1:
                exp.append(x)
                x = step[x]
            if len(exp) == self.order - 1:
                return np.array(exp, dtype=np.int64)
        raise SingularGram("no multiplicative generator found")

    def _build_dual_basis(self) -> DualBasisData:
        t, basis = self._t, self._basis
        gram = t.trace[t.mul[np.ix_(basis, basis)]].tolist()
        gram_inv = _mat_inverse_mod(gram, self.p)
        # the Z_p-combinations of the power basis with the rows of gram_inv
        dual = np.array(gram_inv, dtype=np.int64) @ basis
        if not np.array_equal(t.trace[t.mul[basis[:, None], dual]], np.eye(self.ell)):
            raise SingularGram("dual basis failed its defining property")
        return DualBasisData(
            gram=tuple(map(tuple, gram)),
            gram_inv=tuple(map(tuple, gram_inv)),
            elements=tuple(FieldElement(self, i) for i in dual.tolist()),
        )

    # -- index-level arithmetic --------------------------------------------------

    def tables(self) -> FieldTables:
        """The index tables as read-only arrays, built with the field; sweeps
        over many elements or labels gather from them."""
        return self._t

    def indices(self, value):
        """An index array as it is, any other value as ``element(value).index``:
        builders take one label or an index array of them."""
        return value if isinstance(value, np.ndarray) else self.element(value).index

    def add_index(self, a: int, b: int) -> int:
        return self._t.add.item(a, b)

    def sub_index(self, a: int, b: int) -> int:
        return self._t.add.item(a, self._t.neg.item(b))

    def neg_index(self, a: int) -> int:
        return self._t.neg.item(a)

    def mul_index(self, a: int, b: int) -> int:
        return self._t.mul.item(a, b)

    def inv_index(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        return self._t.inv.item(a)

    def pow_index(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("negative power of zero field element")
            return 0
        return self._exp.item(self._log.item(a) * k % (self.order - 1))

    def frobenius_index(self, a: int, k: int = 1) -> int:
        for _ in range(k % self.ell):
            a = self._t.frob.item(a)
        return a

    def trace_index(self, a: int) -> int:
        return self._t.trace.item(a)

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
        return tuple(self._digits[index].tolist())

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
        if self.frobenius_index(idx, d) != idx:
            raise NotInSubfield(f"element {idx} is not in GF({self.p}^{d})")
        return self._subfield_traces[d].item(idx)

    def subfield_traces(self, d: int) -> np.ndarray:
        """Read-only (q,) int64 array: at each index of GF(p^d), its trace
        relative to that subfield, as an integer in Z_p; 0 elsewhere."""
        self.check_divisor(d)
        return self._subfield_traces[d]

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
        t = self._t
        return el.coeffs, tuple(t.trace[t.mul[el.index, self._basis]].tolist())

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
