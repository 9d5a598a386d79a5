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

The exact array kernels on packed matrices live here too: ``matmul`` and
its entrywise form ``times``, ``stack``, ``from_entries`` (entries each at
their own scale and denominator) and :func:`distinct_rows`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce

import numpy as np

from .errors import BackendMismatch, DivisionByZero


INT64_MAX = 2 ** 63 - 1
FLOAT64_EXACT = 2 ** 53  # float64 holds every integer of magnitude up to 2^53
BLOCK_ENTRIES = 2048  # matrix entries per vectorised pass of unpack, times_roots and JSON


def _dtype_for(bound: int):
    """int64 when every value stays within bound <= 2^63 - 1, else Python ints.

    The dtype of the additive kernels; products go through _exact_matmul.
    """
    return np.int64 if bound <= INT64_MAX else object


def _exact_matmul(a, b, bound: int):
    """Exact a @ b of integer arrays, as int64 or (past 2^63) Python ints.

    ``bound`` must bound |x| for every entry of a and every partial sum of
    every output entry (b is a small table, or bounded the same way).
    Below 2^53 each of those is a float64 integer, so the product runs on
    float64 BLAS and no summation order or FMA can round; up to 2^63 - 1
    it runs in int64, and past that on Python ints (dtype=object).
    """
    dtype = _product_dtype(bound)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def _product_dtype(bound: int):
    """The rung of _exact_matmul for this bound: float64 below 2^53, else
    the dtype of _dtype_for."""
    return np.float64 if bound < FLOAT64_EXACT else _dtype_for(bound)


def _max_abs(a) -> int:
    return int(np.abs(a).max()) if a.size else 0


# storage dtypes, each used only for |values| <= its limit, so abs() cannot wrap
_STORAGE = ((np.int8, 2 ** 7 - 1), (np.int16, 2 ** 15 - 1),
            (np.int32, 2 ** 31 - 1), (np.int64, INT64_MAX))


def _storage_dtype(top: int):
    return next((t for t, limit in _STORAGE if top <= limit), object)


def compact(data):
    """data in the narrowest integer dtype that holds it, Python ints past int64.

    Packed matrices are stored this way; arithmetic widens again to int64
    or Python ints from its own bound.
    """
    return data.astype(_storage_dtype(_max_abs(data)), copy=False)


def distinct_rows(flat):
    """(distinct, inverse) with flat == distinct[inverse], the distinct rows
    of a 2-d array in lexicographic order; exact on every integer dtype,
    object included.  Run starts are marked one column at a time, so no
    temporary is as large as flat."""
    order = np.lexsort(flat.T[::-1])
    starts = np.zeros(len(flat), dtype=bool)
    starts[0] = True
    for col in flat.T:
        ranked = col[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return flat[order[starts]], inverse


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
        self._packed_tables = None  # built by the first packed operation
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
            vec = [a + b for a, b in zip(self._zeta_pows[k], self._zeta_pows[-k])]
        else:
            vec = [0] * self.degree
            for a in range(1, p):
                sign = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                row = self._zeta_pows[(a * self._omega_step) % self.order]
                vec = [x + sign * r for x, r in zip(vec, row)]
            if p % 4 == 3:
                vec = self._substitute(vec, 1, 3 * self.order // 4)
        square = self._mul(vec, vec)
        expected = [0] * self.degree
        expected[0] = p
        if list(square) != expected:
            raise ArithmeticError("sqrt(char) construction failed")
        return tuple(vec)

    # -- raw vector arithmetic (power basis, length == degree) --------------

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

    def _substitute(self, v, k: int, shift: int = 0):
        # v(zeta^k) * zeta^shift: coefficient j moves to zeta^(j k + shift),
        # exponents reduced mod N via zeta^N = 1
        n, pows = self.order, self._zeta_pows
        out = [0] * self.degree
        for j, c in enumerate(v):
            if c:
                row = pows[(j * k + shift) % n]
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _sqrt_mul(self, v, times):
        for _ in range(times):
            v = self._mul(v, self._sqrt)
        return v

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

    # -- packed matrices -------------------------------------------------------
    #
    # A packed matrix is a triple (data, E, Q).  data is an (n, m, degree)
    # integer array over the power basis, and entry (i, j) is the scalar
    # (1/Q) p^(-E/2) sum_k data[i, j, k] zeta^k.  In normal form E is the
    # largest scale exponent and Q the lcm of the denominators of the
    # canonical entries (E = 0, Q = 1 for the zero matrix).  Both are fixed
    # by the values and the power basis is a Z-basis, so two matrices are
    # equal exactly when their triples are.  Sums run in int64 while a
    # computed bound on every intermediate stays below 2^63, and on Python
    # integers (dtype=object) otherwise; products also take float64 BLAS
    # below 2^53 (see _exact_matmul).  Matrices store their arrays compacted
    # (see compact).

    def _tables(self):
        """Integer tables, built on first use, each with its largest |entry|.

        roots[k, i] is zeta^(i+k) in the power basis, so v @ roots[k] is
        v zeta^k and roots[:degree] folds a product of two vectors; conj
        and sqrt are the matrices of zeta -> zeta^-1 and of x -> sqrt(p) x.
        """
        if self._packed_tables is None:
            deg, n, pows = self.degree, self.order, self._zeta_pows
            roots = np.array([[pows[(i + k) % n] for i in range(deg)]
                              for k in range(n)], dtype=np.int64)
            conj = np.array([pows[-i % n] for i in range(deg)], dtype=np.int64)
            sqrt = np.array([self._mul(pows[i], self._sqrt) for i in range(deg)],
                            dtype=np.int64)
            for t in (roots, conj, sqrt):
                t.setflags(write=False)
            self._packed_tables = {name: (t, int(np.abs(t).max()))
                                   for name, t in (("roots", roots), ("conj", conj),
                                                   ("sqrt", sqrt))}
        return self._packed_tables

    def root_coeffs(self):
        """(N, degree) int64 array whose row k is zeta^k in the power basis."""
        return self._tables()["roots"][0][:, 0]

    def _times_table(self, data, name):
        """data @ table over the last axis, exact under the bound
        degree * max|data| * max|table| (see _exact_matmul)."""
        table, t_max = self._tables()[name]
        return _exact_matmul(data, table, self.degree * _max_abs(data) * t_max)

    def pack(self, rows):
        """Normal-form packed triple of a matrix of canonical scalars.

        Each distinct scalar object is aligned to the common (E, Q) once, by
        the rule of ``stack``, so matrices that repeat a few values pack at
        the cost of a gather.
        """
        n, m = len(rows), len(rows[0])
        slot, distinct, picks = {}, [], []
        for row in rows:
            for x in row:
                k = slot.get(id(x))
                if k is None:
                    k = slot[id(x)] = len(distinct)
                    distinct.append(x)
                picks.append(k)
        top = max(abs(c) for x in distinct for c in x.coeffs)
        vecs = np.array([x.coeffs for x in distinct], dtype=_dtype_for(top))
        table, e, q = self._align([(vecs[k:k + 1], x.scale_exp, x.denom)
                                   for k, x in enumerate(distinct)])
        return compact(table)[picks].reshape(n, m, self.degree), e, q

    def _normalise(self, data, e: int, q: int):
        """Normal form of the packed triple (data, e, q), q prime to p.

        Strips sqrt(p) from the whole matrix while every entry is divisible
        by it, then divides out the gcd of q and all coefficients.
        """
        if not data.any():
            return np.zeros(data.shape, dtype=np.int64), 0, 1
        p = self.char
        # two strips of sqrt(p) leave data / p, so they succeed exactly when
        # p divides every coefficient; after that at most one more can.  Each
        # strip is tried on the first entry before the whole array, which is
        # cheap
        while e >= 2 and not (data.flat[:self.degree] % p).any() and not (data % p).any():
            data, e = data // p, e - 2
        if e >= 1 and not (self._times_table(data.flat[:self.degree], "sqrt") % p).any():
            w = self._times_table(data, "sqrt")
            if not (w % p).any():
                data, e = w // p, e - 1
        if q > 1:
            g = math.gcd(q, int(np.gcd.reduce(data.ravel())))
            if g > 1:
                data, q = data // g, q // g
        return data, e, q

    def unpack(self, packed) -> tuple:
        """Rows of canonical scalars of a packed triple.

        Entry by entry this is ``scalar(data[i, j], E, Q)``, bit for bit,
        vectorised over blocks of nonzero entries; the block size bounds
        the temporaries to a few hundred kB at any matrix size.
        """
        data, e, q = packed
        n, m, deg = data.shape
        flat = data.reshape(n * m, deg)
        out = [self._zero] * (n * m)
        live = np.flatnonzero((flat != 0).any(axis=1))
        for start in range(0, len(live), BLOCK_ENTRIES):
            idx = live[start:start + BLOCK_ENTRIES]
            vecs, exps, denoms = self.canonical(flat[idx], e, q)
            for i, vec, ei, qi in zip(idx.tolist(), map(tuple, vecs.tolist()),
                                      exps.tolist(), denoms.tolist()):
                out[i] = CycloScalar(self, vec, ei, qi)
        return tuple(tuple(out[i * m:(i + 1) * m]) for i in range(n))

    def canonical(self, vecs, e: int, q: int):
        """Arrays (coeffs, scale_exp, denom) of scalar(vec, e, q) per row vec,
        q prime to p, a zero row giving (0, 0, 1): strip sqrt(p) from each row
        while it is divisible (at most e times), then divide out its gcd with q."""
        vecs = vecs.astype(object if vecs.dtype == object else np.int64)
        exps = np.full(len(vecs), e)
        todo = np.arange(len(vecs))
        p = self.char
        for _ in range(e):
            if not todo.size:
                break
            w = self._times_table(vecs[todo], "sqrt")
            ok = ~(w % p).any(axis=1)
            todo = todo[ok]
            if w.dtype == object:
                vecs = vecs.astype(object, copy=False)
            vecs[todo] = w[ok] // p
            exps[todo] -= 1
        if q > INT64_MAX:  # np.gcd takes no int64 array with a Python int past it
            vecs = vecs.astype(object)
        g = np.gcd(np.gcd.reduce(vecs, axis=1), q)
        if (g > 1).any():
            vecs = vecs // g[:, None]
        return vecs, exps, q // g

    def matmul(self, a, b):
        """Exact product of two packed matrices, in normal form.

        Leading batch axes broadcast as in numpy's matmul, one normal form
        for the whole batch.  Each entry of B is first multiplied by zeta^k
        for every k < degree (one stacked product with the root table).  One
        integer matmul of A, reshaped to (rows, inner * degree), by those
        products, reshaped to (inner * degree, cols * degree), then gives
        the power-basis coefficients of every entry, and one normalisation
        runs at (E_a + E_b, Q_a Q_b).  The largest of inner * degree^2 *
        max|A| * max|B| * max|T| (the partial sums of the second product),
        degree * max|B| * max|T| (those of the first) and max|A| picks one
        rung of _exact_matmul for both.
        """
        (ad, ea, qa), (bd, eb, qb) = a, b
        *_, inner, deg = ad.shape
        m = bd.shape[-2]
        table, t_max = self._tables()["roots"]
        a_max, b_max = _max_abs(ad), _max_abs(bd)
        bound = max(inner * deg * deg * a_max * b_max * t_max, deg * b_max * t_max, a_max)
        # [..., i, k, j] = b[..., i, j] zeta^k, on the rung of the second product
        dtype = _product_dtype(bound)
        rotated = (bd[..., None, :, :].astype(dtype, copy=False)
                   @ table[:deg].astype(dtype, copy=False))
        out = _exact_matmul(ad.reshape(ad.shape[:-2] + (inner * deg,)),
                            rotated.reshape(rotated.shape[:-4] + (inner * deg, m * deg)), bound)
        return self._normalise(out.reshape(out.shape[:-1] + (m, deg)), ea + eb, qa * qb)

    def times(self, a, b):
        """The entrywise product of two packed triples whose arrays broadcast,
        in normal form: one ``matmul`` of 1 x 1 batch members."""
        (ad, ea, qa), (bd, eb, qb) = a, b
        data, e, q = self.matmul((ad[..., None, None, :], ea, qa), (bd[..., None, None, :], eb, qb))
        return data[..., 0, 0, :], e, q

    def times_roots(self, data, row_roots=None, col_roots=None):
        """Entry (n, m) of a packed coefficient array times
        zeta^(row_roots[n] + col_roots[m]); either exponent array may be None,
        and with both None data comes back as it is.

        Units keep every entry canonical, so a packed triple keeps its
        (E, Q).  Each factor grows |coefficients| by at most degree * max|T|,
        which picks the arithmetic dtype.  Rows go through in blocks of
        about BLOCK_ENTRIES entries, so temporaries stay small at any size.
        """
        factors = sum(r is not None for r in (row_roots, col_roots))
        if not factors:
            return data
        table, t_max = self._tables()["roots"]
        bound = _max_abs(data) * (self.degree * t_max) ** factors
        dtype = _dtype_for(bound)
        table = table.astype(dtype, copy=False)
        cols = None if col_roots is None else table[np.asarray(col_roots) % self.order]
        out = np.empty(data.shape, dtype=_storage_dtype(bound))
        step = max(1, BLOCK_ENTRIES // data.shape[1])
        for i in range(0, data.shape[0], step):
            block = data[i:i + step].astype(dtype)
            if row_roots is not None:
                rows = table[np.asarray(row_roots[i:i + step]) % self.order]
                block = np.einsum("nmi,nij->nmj", block, rows)
            if cols is not None:
                block = np.einsum("nmi,mij->nmj", block, cols)
            out[i:i + step] = block
        return out

    def conj_coeffs(self, data):
        """Complex conjugate of every entry of a packed coefficient array."""
        return self._times_table(data, "conj")

    def root_sum(self, data, roots, dest, shape, e: int = 0, q: int = 1):
        """Normal-form triple of the array of the given shape whose flat entry
        s is the sum of data[i] zeta^roots[i] over every i with dest[i] == s,
        all at (e, q).

        ``roots`` (or None, for no rotation) has the shape of ``dest``, and
        ``data`` broadcasts against ``dest.shape + (degree,)``, so a value
        shared by many terms is stored once.  Terms are added in
        Z[x]/(x^N - 1), where the product by zeta^k moves coefficient j to
        position j + k mod N: one np.add.at per block of about BLOCK_ENTRIES
        terms along the first axis, then one fold by ``root_coeffs``.  Both
        are bounded by N max|T| times the most terms per slot times
        max|data|: the sums run in int64 below 2^63 and on Python ints past
        it, and the fold on the rung of _exact_matmul that the bound picks.
        """
        dest = np.asarray(dest)
        n, deg = self.order, self.degree
        data = np.asarray(data)
        terms = int(np.bincount(dest.ravel()).max()) if dest.size else 0
        bound = n * self._tables()["roots"][1] * terms * _max_abs(data)
        dtype = _dtype_for(bound)
        data = np.broadcast_to(data, dest.shape + (deg,))
        roots = np.broadcast_to(0 if roots is None else roots, dest.shape)
        acc = np.zeros(math.prod(shape) * n, dtype=dtype)
        step = max(1, BLOCK_ENTRIES // max(1, math.prod(dest.shape[1:])))
        for i in range(0, len(dest), step):
            slot = dest[i:i + step].reshape(-1, 1) * n
            pos = (roots[i:i + step].reshape(-1, 1) + np.arange(deg)) % n
            np.add.at(acc, (slot + pos).ravel(),
                      data[i:i + step].reshape(-1).astype(dtype, copy=False))
        out = _exact_matmul(acc.reshape(-1, n), self.root_coeffs(), bound)
        return self._normalise(out.reshape(tuple(shape) + (deg,)), e, q)

    def add(self, a, b):
        """Normal form of the entrywise sum of two packed triples of one shape.

        Triples at different (E, Q) are first aligned as in ``stack``; then
        the arrays are added.
        """
        if a[1:] == b[1:]:
            (da, e, q), db = a, b[0]
        else:
            data, e, q = self._align((a, b))
            da, db = data[:len(a[0])], data[len(a[0]):]
        dtype = _dtype_for(_max_abs(da) + _max_abs(db))
        return self._normalise(da.astype(dtype, copy=False) + db.astype(dtype, copy=False),
                               e, q)

    def stack(self, triples):
        """Normal-form triple of packed triples joined along their first axis.

        Each part, normal or not, is brought to the common (max E, lcm Q),
        the p-part of a denominator counting as scale (1/p = p^(-2/2)), and
        the whole is normalised once: a stack of B (n, m) matrices is one
        (B * n, m, degree) triple, equal for equal matrices.
        """
        return self._normalise(*self._align(triples))

    def from_entries(self, coeffs, scale_exps, denoms):
        """Normal-form triple of the rows of coeffs along axis 0, row k an
        entry at (scale_exps[k], denoms[k]), canonical or not; pass object
        arrays where a value may pass int64.  The rows are grouped by
        (E, Q), aligned by one ``stack`` and put back in place.  A zero row
        joins the group (0, 1), so its scale cannot inflate the others, and
        a negative denominator moves into the coefficients (compact storage
        holds |c| to its limit: -c cannot wrap)."""
        live = coeffs.reshape(len(coeffs), -1).any(axis=1)
        keys, group = distinct_rows(np.column_stack([np.where(live, scale_exps, 0),
                                                     np.where(live, denoms, 1)]))
        order = np.argsort(group, kind="stable")
        rows = np.split(order, np.cumsum(np.bincount(group))[:-1])
        data, e, q = self.stack([(coeffs[r] if den > 0 else -coeffs[r], exp, abs(den))
                                 for (exp, den), r in zip(keys.tolist(), rows)])
        out = np.empty_like(data)
        out[order] = data
        return out, e, q

    def _align(self, triples):
        # the triples joined along axis 0 at one (E, Q), Q prime to p; rows
        # an odd number of half-scales below E take one product with the
        # sqrt(p) table, and each row is multiplied by its Q ratio and p-power
        p = self.char
        parts = []
        for data, e, q in triples:
            while q % p == 0:
                q, e = q // p, e + 2
            parts.append((data, e, q))
        e_top = max(e for _, e, _ in parts)
        q_top = math.lcm(*(q for _, _, q in parts))
        sizes = [len(data) for data, _, _ in parts]
        data = np.concatenate([data for data, _, _ in parts])
        odd = [(e_top - e) % 2 == 1 for _, e, _ in parts]
        if any(odd):
            odd = np.repeat(odd, sizes)
            w = self._times_table(data[odd], "sqrt")
            data = data.astype(object if object in (w.dtype, data.dtype) else np.int64)
            data[odd] = w
        mult = [q_top // q * p ** ((e_top - e) // 2) for _, e, q in parts]
        top = max(mult)
        if top > 1:
            rows = np.repeat(np.array(mult, dtype=_dtype_for(top)), sizes)
            data = (data.astype(_dtype_for(_max_abs(data) * top), copy=False)
                    * rows.reshape((-1,) + (1,) * (data.ndim - 1)))
        return data, e_top, q_top

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

    def imag_unit(self) -> "CycloScalar":
        return self.root(self._i_exp)

    def sum_of_roots(self, exponents, scale_exp: int = 0, denom: int = 1) -> "CycloScalar":
        """Exact sum of zeta^e over an iterable of exponents, rescaled.

        Counts equal residues first (one bincount), then folds the counts
        with ``root_coeffs``; used by character-sum-shaped entries.
        """
        exps = np.fromiter(exponents, dtype=np.int64) % self.order
        counts = np.bincount(exps, minlength=self.order)
        vec = _exact_matmul(counts, self.root_coeffs(), len(exps) * self._tables()["roots"][1])
        return self.scalar(vec.tolist(), scale_exp, denom)

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
        vec = self.ring._substitute(self.coeffs, 1, k)
        return CycloScalar(self.ring, tuple(vec), self.scale_exp, self.denom)

    def conj(self) -> "CycloScalar":
        """Complex conjugation zeta -> zeta^-1."""
        if not self._nz:
            return self
        vec = self.ring._substitute(self.coeffs, -1)
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
            w = ring._mul(w, ring._substitute(self.coeffs, k))
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
        """Double-precision complex embedding zeta_N -> exp(2*pi*i/N)."""
        ring = self.ring
        total = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                total += c * ring._unit_phases[j]
        return total / (self.denom * ring.char ** (self.scale_exp / 2))

    def __repr__(self):
        return (f"CycloScalar({list(self.coeffs)}, scale_exp={self.scale_exp}, "
                f"denom={self.denom}, N={self.ring.order})")


class ScalarAccumulator:
    """Mutable exact sum, one term at a time.

    The per-term reference for the packed kernels (``root_sum``, ``matmul``,
    ``add``): tests compare them with loops over it, and the benchmark
    times its ``add`` and ``add_product``.  Terms are accumulated as raw
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

    def add(self, x: CycloScalar, root: int = 0):
        """Accumulate zeta^root * x."""
        if not x._nz:
            return
        vec = self.ring._substitute(x.coeffs, 1, root) if root else list(x.coeffs)
        self._add_raw(vec, x.scale_exp, x.denom)

    def add_product(self, a: CycloScalar, b: CycloScalar):
        """Accumulate a * b."""
        if not a._nz or not b._nz:
            return
        vec = self.ring._mul(a.coeffs, b.coeffs)
        self._add_raw(vec, a.scale_exp + b.scale_exp, a.denom * b.denom)

    def value(self) -> CycloScalar:
        if not self.nonzero:
            return self.ring.zero
        return self.ring.scalar(self.vec, self.e, self.q)
