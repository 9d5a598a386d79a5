"""Exact scalars in scaled cyclotomic rings.

Every exact operator entry in this package is a value

    (1 / denom) * p**(-scale_exp / 2) * sum_j coeffs[j] * zeta**j

where ``zeta = exp(2*pi*i/N)`` and the integer coefficient vector is reduced
modulo the N-th cyclotomic polynomial.  The ring order N is chosen per field
so that a single ring contains every root of unity the operators need: the
additive character of Z_p, the imaginary unit (Fourier eigenvalues), and the
root of unity attached to the Frobenius eigenvalues.

sqrt(p) itself lives in the ring as a quadratic Gauss sum, so half-integer
powers of p are exact and scalars with mixed p-power scales can be added
without leaving the ring.  Equality is decidable by comparing canonical
forms coefficient-wise.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce

import numpy as np

from .errors import BackendMismatch, DivisionByZero


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_divide_exact(num, den):
    # Exact division of integer polynomials (ascending coefficients, monic den).
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dn]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:dn]):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def ring_order(p: int, ell: int) -> int:
    """Ring order N for GF(p^ell) scalars.

    lcm(4, p, ell) for odd p; for p = 2 the order must be a multiple of 8 so
    that sqrt(2) = zeta_8 + zeta_8^-1 exists in the ring.
    """
    if p == 2:
        return math.lcm(8, ell)
    return math.lcm(4, p, ell)


@lru_cache(maxsize=None)
def get_ring(order: int, char: int) -> "CycloRing":
    return CycloRing(order, char)


class CycloRing:
    """Arithmetic context for Z[zeta_N] scalars scaled by powers of a prime.

    Instances are cached; all scalars built from the same (order, char) pair
    share one ring object and may be combined freely.
    """

    def __init__(self, order: int, char: int):
        if order % 4 != 0:
            raise ValueError("ring order must be a multiple of 4")
        if char == 2 and order % 8 != 0:
            raise ValueError("characteristic 2 needs ring order divisible by 8")
        if order % char != 0:
            raise ValueError("ring order must be a multiple of the characteristic")
        self.order = order
        self.char = char
        mod = cyclotomic_polynomial(order)
        self.degree = len(mod) - 1
        self.modulus = mod
        # zeta^degree expressed in the power basis 1, zeta, ..., zeta^(deg-1)
        self._tail = tuple(-c for c in mod[:-1])
        self._zeta_pows = self._build_zeta_powers()
        self._omega_step = order // char
        self._i_exp = order // 4
        self._sqrt = self._build_sqrt_char()
        self._unit_phases = [cmath.exp(2j * cmath.pi * k / order) for k in range(order)]
        self._fold = None  # built by the first matmul
        self._zero = CycloScalar(self, (0,) * self.degree, 0, 1)
        one = [0] * self.degree
        one[0] = 1
        self._one = CycloScalar(self, tuple(one), 0, 1)

    def _build_zeta_powers(self):
        deg = self.degree
        rows = []
        v = [0] * deg
        v[0] = 1
        for _ in range(self.order):
            rows.append(tuple(v))
            lead = v[-1]
            v = [0] + v[:-1]
            if lead:
                v = [a + lead * t for a, t in zip(v, self._tail)]
        return rows

    def _build_sqrt_char(self):
        # sqrt(p) as an exact ring element.  For odd p this is the quadratic
        # Gauss sum sum_a legendre(a) * omega^a, corrected by -i when
        # p = 3 mod 4; for p = 2 it is zeta_8 + zeta_8^-1.
        p = self.char
        if p == 2:
            k = self.order // 8
            vec = self._addv(self._zeta_pows[k], self._zeta_pows[self.order - k])
        else:
            vec = [0] * self.degree
            for a in range(1, p):
                sign = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                row = self._zeta_pows[(a * self._omega_step) % self.order]
                vec = [x + sign * r for x, r in zip(vec, row)]
            if p % 4 == 3:
                vec = self._root_mul(vec, 3 * self.order // 4)
        square = self._mul(vec, vec)
        expected = [0] * self.degree
        expected[0] = p
        if list(square) != expected:
            raise ArithmeticError("sqrt(char) construction failed")
        return tuple(vec)

    # -- raw vector arithmetic (power basis, length == degree) --------------

    @staticmethod
    def _addv(u, v):
        return [a + b for a, b in zip(u, v)]

    def _mul(self, u, v):
        deg = self.degree
        conv = [0] * (2 * deg - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        conv[i + j] += ui * vj
        out = conv[:deg]
        pows = self._zeta_pows
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = pows[k]
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _root_mul(self, v, k):
        # v * zeta^k ; exponents reduced mod N via zeta^N = 1
        k %= self.order
        if k == 0:
            return list(v)
        n = self.order
        pows = self._zeta_pows
        out = [0] * self.degree
        for j, c in enumerate(v):
            if c:
                row = pows[(j + k) % n]
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _sqrt_mul(self, v, times):
        for _ in range(times):
            v = self._mul(v, self._sqrt)
        return v

    def _conj(self, v):
        n = self.order
        pows = self._zeta_pows
        out = [0] * self.degree
        for j, c in enumerate(v):
            if c:
                row = pows[(n - j) % n]
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _galois_conj(self, v, k):
        # zeta -> zeta^k for gcd(k, N) = 1
        n = self.order
        pows = self._zeta_pows
        out = [0] * self.degree
        for j, c in enumerate(v):
            if c:
                row = pows[(j * k) % n]
                out = [o + c * r for o, r in zip(out, row)]
        return out

    # -- canonical scalar construction ---------------------------------------

    def scalar(self, coeffs, scale_exp: int = 0, denom: int = 1) -> "CycloScalar":
        """Build the canonical scalar (1/denom) p^(-scale_exp/2) sum c_j zeta^j."""
        vec = list(coeffs)
        if len(vec) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        if scale_exp < 0:
            raise ValueError("scale_exp must be non-negative")
        if denom == 0:
            raise DivisionByZero("zero denominator")
        p = self.char
        e = scale_exp
        q = denom
        if q < 0:
            q = -q
            vec = [-c for c in vec]
        if not any(vec):
            return self._zero
        # All p-powers live in the scale exponent, never in the denominator.
        while q % p == 0:
            q //= p
            e += 2
        # Minimal scale exponent: strip sqrt(p) factors out of the numerator.
        while e >= 1:
            w = self._mul(vec, self._sqrt)
            if all(c % p == 0 for c in w):
                vec = [c // p for c in w]
                e -= 1
            else:
                break
        g = math.gcd(q, reduce(math.gcd, (abs(c) for c in vec)))
        if g > 1:
            q //= g
            vec = [c // g for c in vec]
        return CycloScalar(self, tuple(vec), e, q)

    # -- packed dense products -------------------------------------------------

    def _fold_table(self):
        # T[k, l] = zeta^(k+l) in the power basis, with its largest |entry|
        if self._fold is None:
            deg, n, pows = self.degree, self.order, self._zeta_pows
            table = np.array([[pows[(k + l) % n] for l in range(deg)]
                              for k in range(deg)], dtype=np.int64)
            self._fold = (table, int(np.abs(table).max()))
        return self._fold

    def _pack(self, rows):
        """Align a matrix of scalars to one (scale_exp, denom).

        Returns the flat coefficient list (row-major, ``degree`` per entry),
        the largest |coefficient|, and the common (E, Q): E is the largest
        scale exponent and Q the lcm of the denominators of the nonzero
        entries.  Each entry is rewritten as (1/Q) p^(-E/2) sum c_j zeta^j.
        """
        nonzero = [x for row in rows for x in row if x._nz]
        e_max = max((x.scale_exp for x in nonzero), default=0)
        q_lcm = math.lcm(*(x.denom for x in nonzero))
        p, sqrt = self.char, self._sqrt
        flat = []
        for row in rows:
            for x in row:
                de, m = e_max - x.scale_exp, q_lcm // x.denom
                if not x._nz or (de == 0 and m == 1):
                    flat.extend(x.coeffs)
                    continue
                vec = self._mul(x.coeffs, sqrt) if de % 2 else x.coeffs
                m *= p ** (de // 2)
                flat.extend(m * c for c in vec)
        top = max(max(flat), -min(flat))
        return flat, top, e_max, q_lcm

    def matmul(self, a_rows, b_rows) -> list:
        """Exact product of two matrices of scalars from this ring.

        Both operands are packed into integer tensors of shape
        (rows, cols, degree) over one common scale each, multiplied with one
        integer matmul, folded back to the power basis with the zeta^(k+l)
        table, and canonicalised entry by entry.  Everything runs in int64
        when the operands and n * degree^2 * max|A| * max|B| * max|T| (n the
        inner dimension), which bounds every intermediate, stay below 2^63;
        otherwise on Python integers (dtype=object).
        """
        n, inner, m = len(a_rows), len(b_rows), len(b_rows[0])
        deg = self.degree
        table, t_max = self._fold_table()
        a_flat, a_max, ea, qa = self._pack(a_rows)
        b_flat, b_max, eb, qb = self._pack(b_rows)
        bound = max(inner * deg * deg * a_max * b_max * t_max, a_max, b_max)
        if bound <= 2 ** 63 - 1:
            dtype = np.int64
        else:
            dtype, table = object, table.astype(object)
        a = np.array(a_flat, dtype=dtype).reshape(n, inner, deg)
        b = np.array(b_flat, dtype=dtype).reshape(inner, m * deg)
        prod = a.transpose(0, 2, 1).reshape(n * deg, inner) @ b
        folded = np.tensordot(prod.reshape(n, deg, m, deg), table, ([1, 3], [0, 1]))
        e, q = ea + eb, qa * qb
        return [[self.scalar(c, e, q) for c in row] for row in folded.tolist()]

    # -- convenience constructors --------------------------------------------

    @property
    def zero(self) -> "CycloScalar":
        return self._zero

    @property
    def one(self) -> "CycloScalar":
        return self._one

    def from_int(self, n: int) -> "CycloScalar":
        vec = [0] * self.degree
        vec[0] = n
        return self.scalar(vec)

    def rational(self, num: int, den: int = 1) -> "CycloScalar":
        vec = [0] * self.degree
        vec[0] = num
        return self.scalar(vec, 0, den)

    def root(self, k: int) -> "CycloScalar":
        """zeta^k."""
        return CycloScalar(self, self._zeta_pows[k % self.order], 0, 1)

    def omega(self, a: int) -> "CycloScalar":
        """The additive character value omega^a = exp(2*pi*i*a/p)."""
        return self.root((a % self.char) * self._omega_step)

    def omega_exponent(self, a: int) -> int:
        """Root exponent k with zeta^k = omega^a."""
        return ((a % self.char) * self._omega_step) % self.order

    def imag_unit(self) -> "CycloScalar":
        return self.root(self._i_exp)

    def sqrt_char(self) -> "CycloScalar":
        """sqrt(p) as an exact scalar."""
        return CycloScalar(self, self._sqrt, 0, 1)

    def sum_of_roots(self, exponents, scale_exp: int = 0, denom: int = 1) -> "CycloScalar":
        """Exact sum of zeta^e over an iterable of exponents, rescaled.

        Collects equal residues first, so summing q roots costs O(q) integer
        ops plus one basis fold; used by character-sum-shaped entries.
        """
        counts = [0] * self.order
        for e in exponents:
            counts[e % self.order] += 1
        vec = [0] * self.degree
        pows = self._zeta_pows
        for r, c in enumerate(counts):
            if c:
                row = pows[r]
                vec = [v + c * x for v, x in zip(vec, row)]
        return self.scalar(vec, scale_exp, denom)

    def __repr__(self):
        return f"CycloRing(order={self.order}, char={self.char})"


class CycloScalar:
    """Canonical element of a scaled cyclotomic ring.

    Instances are immutable and always in canonical form, so equality and
    hashing are plain tuple comparisons.  Arithmetic returns new scalars.
    """

    __slots__ = ("ring", "coeffs", "scale_exp", "denom", "_nz")

    def __init__(self, ring: CycloRing, coeffs: tuple, scale_exp: int, denom: int):
        self.ring = ring
        self.coeffs = coeffs
        self.scale_exp = scale_exp
        self.denom = denom
        self._nz = any(coeffs)

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nz

    def __bool__(self) -> bool:
        return self._nz

    @property
    def is_rational(self) -> bool:
        return self.scale_exp % 2 == 0 and not any(self.coeffs[1:])

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, CycloScalar):
            if other.ring is not self.ring:
                raise BackendMismatch("scalars from different rings")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._nz:
            return self
        if not self._nz:
            return other
        ring = self.ring
        ea, eb = self.scale_exp, other.scale_exp
        e = max(ea, eb)
        va = ring._sqrt_mul(list(self.coeffs), e - ea)
        vb = ring._sqrt_mul(list(other.coeffs), e - eb)
        q = math.lcm(self.denom, other.denom)
        ma, mb = q // self.denom, q // other.denom
        vec = [ma * a + mb * b for a, b in zip(va, vb)]
        return ring.scalar(vec, e, q)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if not self._nz:
            return self
        return CycloScalar(self.ring, tuple(-c for c in self.coeffs),
                           self.scale_exp, self.denom)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0 or not self._nz:
                return self.ring.zero
            return self.ring.scalar([other * c for c in self.coeffs],
                                    self.scale_exp, self.denom)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._nz or not other._nz:
            return self.ring.zero
        ring = self.ring
        vec = ring._mul(self.coeffs, other.coeffs)
        return ring.scalar(vec, self.scale_exp + other.scale_exp,
                           self.denom * other.denom)

    def __rmul__(self, other):
        return self.__mul__(other)

    def times_root(self, k: int) -> "CycloScalar":
        """Multiply by zeta^k; preserves canonical form (units do)."""
        if not self._nz or k % self.ring.order == 0:
            return self
        vec = self.ring._root_mul(self.coeffs, k)
        return CycloScalar(self.ring, tuple(vec), self.scale_exp, self.denom)

    def conj(self) -> "CycloScalar":
        """Complex conjugation zeta -> zeta^-1."""
        if not self._nz:
            return self
        vec = self.ring._conj(self.coeffs)
        return CycloScalar(self.ring, tuple(vec), self.scale_exp, self.denom)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "CycloScalar":
        """Exact inverse via the product of Galois conjugates.

        1/x = (prod of the non-identity conjugates of the numerator) divided
        by the integer field norm, rescaled by the denominator and p-power.
        """
        if not self._nz:
            raise DivisionByZero("inverse of zero scalar")
        ring = self.ring
        n = ring.order
        units = [k for k in range(2, n) if math.gcd(k, n) == 1]
        w = [0] * ring.degree
        w[0] = 1
        for k in units:
            w = ring._mul(w, ring._galois_conj(self.coeffs, k))
        norm_vec = ring._mul(self.coeffs, w)
        if any(norm_vec[1:]):
            raise ArithmeticError("field norm is not rational")
        norm = norm_vec[0]
        num = ring._sqrt_mul([self.denom * c for c in w], self.scale_exp)
        return ring.scalar(num, 0, norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return (self.ring is other.ring
                and self.coeffs == other.coeffs
                and self.scale_exp == other.scale_exp
                and self.denom == other.denom)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs, self.scale_exp, self.denom))

    # -- embedding ------------------------------------------------------------

    def __complex__(self) -> complex:
        ring = self.ring
        total = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                total += c * ring._unit_phases[j]
        return total / (self.denom * ring.char ** (self.scale_exp / 2))

    def __repr__(self):
        return (f"CycloScalar({list(self.coeffs)}, scale_exp={self.scale_exp}, "
                f"denom={self.denom}, N={self.ring.order})")


def embed_float(x: CycloScalar) -> complex:
    """Double-precision complex embedding zeta_N -> exp(2*pi*i/N)."""
    return complex(x)


class ScalarAccumulator:
    """Mutable exact sum used by inner loops (dots, label sums).

    Avoids per-term canonicalisation: terms are accumulated as raw
    coefficient vectors over a running common denominator and scale, and a
    single canonical scalar is produced at the end.
    """

    __slots__ = ("ring", "vec", "e", "q", "nonzero")

    def __init__(self, ring: CycloRing):
        self.ring = ring
        self.vec = [0] * ring.degree
        self.e = 0
        self.q = 1
        self.nonzero = False

    def _align(self, e: int, q: int):
        if e > self.e:
            self.vec = self.ring._sqrt_mul(self.vec, e - self.e)
            self.e = e
        if q != self.q:
            l = math.lcm(self.q, q)
            if l != self.q:
                m = l // self.q
                self.vec = [m * c for c in self.vec]
                self.q = l

    def _add_raw(self, vec, e, q):
        if e < self.e:
            vec = self.ring._sqrt_mul(vec, self.e - e)
            e = self.e
        self._align(e, q)
        m = self.q // q
        if m == 1:
            self.vec = [a + b for a, b in zip(self.vec, vec)]
        else:
            self.vec = [a + m * b for a, b in zip(self.vec, vec)]
        self.nonzero = True

    def add(self, x: CycloScalar, root: int = 0, sign: int = 1):
        """Accumulate sign * zeta^root * x."""
        if not x._nz:
            return
        vec = self.ring._root_mul(x.coeffs, root) if root else list(x.coeffs)
        if sign < 0:
            vec = [-c for c in vec]
        self._add_raw(vec, x.scale_exp, x.denom)

    def add_product(self, a: CycloScalar, b: CycloScalar, sign: int = 1):
        """Accumulate sign * a * b."""
        if not a._nz or not b._nz:
            return
        vec = self.ring._mul(a.coeffs, b.coeffs)
        if sign < 0:
            vec = [-c for c in vec]
        self._add_raw(vec, a.scale_exp + b.scale_exp, a.denom * b.denom)

    def add_conj_product(self, a: CycloScalar, b: CycloScalar):
        """Accumulate conj(a) * b."""
        if not a._nz or not b._nz:
            return
        vec = self.ring._mul(self.ring._conj(a.coeffs), b.coeffs)
        self._add_raw(vec, a.scale_exp + b.scale_exp, a.denom * b.denom)

    def value(self) -> CycloScalar:
        if not self.nonzero:
            return self.ring.zero
        return self.ring.scalar(self.vec, self.e, self.q)
