"""Operator matrices and state vectors over exact cyclotomic scalars.

An ``OperatorMatrix`` and a ``StateVector`` each hold one value, as the
packed triple ``(data, E, Q)`` of ``CycloRing``: an ``(n, m, degree)``
integer array over the ring's power basis ((n, n) for a matrix, (n, 1) for
a state), with E the largest entry scale exponent and Q the lcm of the
entry denominators.  ``rows`` (``values`` for a state) unpacks it into
canonical CycloScalars on each read; it is the boundary view, for JSON,
fixtures and single entries.  The triple is fixed by the values, so
equality is ``np.array_equal``, and all arithmetic runs on it: products
and ``apply`` are ``ring.matmul``, ``+`` and ``-`` one aligned
``ring.add``, scalar multiples, tensor and outer products a matmul by a
one-entry or one-row operand, traces one ``ring.root_sum``.  Objects are
immutable, so every matrix built from a triple can share it; ``embed()``
is the one way out to floating point.  A monomial matrix (permutation plus
a root-of-unity phase per column), or a family of them, is one
``Monomial``: two integer index arrays whose leading axes index the
members, composed, inverted and compared by gathers; ``@`` between one
monomial and a dense operand, in either order, is a gather plus root
rotations, so an operator built as a ``Monomial`` is multiplied in that
form, and :func:`conjugate` takes either form.  Diagonal
projectors and character tables are built straight as triples, by one
diagonal write (``OperatorMatrix.projector``) or one gather of units
(:func:`root_matrix`).

A family of same-shape matrices is checked as one *stack*: the normal-form
triple ``(data, E, Q)`` of the B matrices joined along the first axis, a
``(B * n, m, degree)`` array brought to the common (max E, lcm Q) by
``CycloRing.stack``.  The triple is fixed by the values, so two stacks are
equal exactly when their triples are, and :func:`blocks_equal` compares
stacks block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclo import CycloRing, CycloScalar, compact
from .errors import BackendMismatch, DimensionMismatch

EXACT = "exact"


def _require_exact(backend):
    # the constructors keep their (dim, backend, ring, values) signature
    if backend != EXACT:
        raise BackendMismatch(f"unknown backend {backend!r}; only {EXACT!r} exists")


def _stored(packed):
    # a packed triple as a matrix keeps it: compact, and read-only because
    # every matrix built from the triple shares it
    data, e, q = packed
    data = compact(data)
    data.setflags(write=False)
    return data, e, q


def _scalar(ring: CycloRing, packed) -> CycloScalar:
    # the canonical scalar of a one-entry packed triple
    (x,), = ring.unpack(packed)
    return x


def _conj_transposed(ring: CycloRing, packed):
    # conjugation is an automorphism fixing sqrt(p): (E, Q) carry over
    data, e, q = packed
    return ring.conj_coeffs(data.transpose(1, 0, 2)), e, q


def _negated(packed):
    data, e, q = packed
    return -data, e, q


def _scaled(ring: CycloRing, packed, factor):
    # every entry times an int or scalar factor: the (n*m, 1) column of
    # entries by the (1, 1) factor
    if isinstance(factor, int):
        factor = ring.from_int(factor)
    if not isinstance(factor, CycloScalar) or factor.ring is not ring:
        raise BackendMismatch("factor is not a scalar of this ring")
    data, e, q = packed
    n, m, deg = data.shape
    out, e, q = ring.matmul((data.reshape(n * m, 1, deg), e, q), ring.pack(((factor,),)))
    return out.reshape(n, m, deg), e, q


class _Packed:
    """The storage OperatorMatrix and StateVector share: the normal-form
    packed triple (data, E, Q), in ``packed``."""

    __slots__ = ("dim", "ring", "packed")
    # numpy defers ``ndarray @ x`` to __rmatmul__ instead of wrapping x in
    # a 0-d object array
    __array_ufunc__ = None

    def _set(self, dim, ring, rows):
        # the rows constructor: canonical scalars packed at once
        self.dim = dim
        self.ring = ring
        self.packed = _stored(ring.pack(tuple(map(tuple, rows))))

    @property
    def rows(self):
        """Entries as a tuple of tuples of CycloScalar, unpacked from the
        triple on each read."""
        return self.ring.unpack(self.packed)

    @classmethod
    def from_packed(cls, ring: CycloRing, packed):
        """The value of a normal-form packed triple."""
        out = cls.__new__(cls)
        out.dim = packed[0].shape[0]
        out.ring = ring
        out.packed = _stored(packed)
        return out

    def _require_ring(self, other):
        if not isinstance(other, type(self)):
            raise BackendMismatch(f"operand is not a {type(self).__name__}")
        if self.ring is not other.ring:
            raise BackendMismatch("operands from different scalar rings")

    def _require_same(self, other):
        self._require_ring(other)
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")

    def _same_triple(self, other) -> bool:
        (a, ea, qa), (b, eb, qb) = self.packed, other.packed
        return ea == eb and qa == qb and np.array_equal(a, b)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.equals(other)


class OperatorMatrix(_Packed):
    """Dense square matrix in canonical element order; immutable."""

    __slots__ = ()

    def __init__(self, dim, backend, ring, rows):
        _require_exact(backend)
        self._set(dim, ring, rows)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def projector(cls, ring: CycloRing, dim: int, support) -> "OperatorMatrix":
        """The diagonal projector onto the point masses at the indices in
        support: one diagonal write into a zero triple."""
        data = np.zeros((dim, dim, ring.degree), dtype=np.int8)
        data[support, support, 0] = 1
        return cls.from_packed(ring, (data, 0, 1))

    @classmethod
    def identity(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        return cls.projector(ring, dim, np.arange(dim))

    @classmethod
    def zeros(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        return cls.from_packed(
            ring, (np.zeros((dim, dim, ring.degree), dtype=np.int64), 0, 1))

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        return OperatorMatrix.from_packed(self.ring, self.ring.add(self.packed, other.packed))

    def __sub__(self, other):
        self._require_same(other)
        return OperatorMatrix.from_packed(
            self.ring, self.ring.add(self.packed, _negated(other.packed)))

    def scaled(self, factor) -> "OperatorMatrix":
        """Scalar multiple by a CycloScalar or int."""
        return OperatorMatrix.from_packed(self.ring, _scaled(self.ring, self.packed, factor))

    def __matmul__(self, other):
        if isinstance(other, Monomial):
            return other.right_mul_dense(self)
        self._require_same(other)
        return OperatorMatrix.from_packed(
            self.ring, self.ring.matmul(self.packed, other.packed))

    def __rmatmul__(self, other):
        # Monomial @ matrix is handled by Monomial; anything else (an
        # embedded ndarray) is a different representation
        raise BackendMismatch(f"cannot multiply {type(other).__name__} by an OperatorMatrix")

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix.from_packed(self.ring, _conj_transposed(self.ring, self.packed))

    def trace(self):
        data, e, q = self.packed
        diag = np.arange(self.dim)
        return _scalar(self.ring, self.ring.root_sum(
            data[diag, diag], None, np.zeros(self.dim, dtype=np.intp), (1, 1), e, q))

    def tensor(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Tensor product with little-endian indexing: n = n_self + dim_self*n_other.

        The first factor acts on the least significant digit, matching the
        canonical element index sum(m_j * p**j).  The products of all entry
        pairs are one (da^2, 1) by (1, db^2) product, reordered.
        """
        self._require_ring(other)
        (ad, ea, qa), (bd, eb, qb) = self.packed, other.packed
        da, db, deg = self.dim, other.dim, self.ring.degree
        out, e, q = self.ring.matmul((ad.reshape(da * da, 1, deg), ea, qa),
                                     (bd.reshape(1, db * db, deg), eb, qb))
        out = out.reshape(da, da, db, db, deg).transpose(2, 0, 3, 1, 4)
        return OperatorMatrix.from_packed(
            self.ring, (out.reshape(da * db, da * db, deg), e, q))

    def apply(self, state: "StateVector") -> "StateVector":
        if not isinstance(state, StateVector) or state.ring is not self.ring:
            raise BackendMismatch("operand is not a StateVector of this ring")
        if state.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {state.dim}")
        return StateVector.from_packed(self.ring, self.ring.matmul(self.packed, state.packed))

    # -- comparisons ----------------------------------------------------------------

    def equals(self, other: "OperatorMatrix") -> bool:
        """Exact equality of every entry."""
        self._require_same(other)
        return self._same_triple(other)

    def is_unitary(self) -> bool:
        return (self @ self.adjoint()).equals(
            OperatorMatrix.identity(self.ring, self.dim))

    # -- conversion -------------------------------------------------------------------

    def embed(self) -> np.ndarray:
        """Lossy one-way conversion to a complex (dim, dim) numpy array."""
        return np.array([[complex(x) for x in row] for row in self.rows])

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


class StateVector(_Packed):
    """Complex function on the field, as a column vector in canonical order.

    Stored as a one-column matrix: an (n, 1, degree) packed triple, with
    ``values`` the boundary view of its canonical scalars.
    """

    __slots__ = ()

    def __init__(self, dim, backend, ring, values):
        _require_exact(backend)
        self._set(dim, ring, [(x,) for x in values])

    @property
    def values(self) -> tuple:
        return tuple(x for (x,) in self.rows)

    def __getitem__(self, i):
        # unpacks the one entry
        data, e, q = self.packed
        return _scalar(self.ring, (data[[int(i)]], e, q))

    def __add__(self, other):
        self._require_same(other)
        return StateVector.from_packed(self.ring, self.ring.add(self.packed, other.packed))

    def __sub__(self, other):
        self._require_same(other)
        return StateVector.from_packed(
            self.ring, self.ring.add(self.packed, _negated(other.packed)))

    def scaled(self, factor) -> "StateVector":
        return StateVector.from_packed(self.ring, _scaled(self.ring, self.packed, factor))

    def equals(self, other) -> bool:
        self._require_same(other)
        return self._same_triple(other)

    def embed(self) -> np.ndarray:
        """Lossy one-way conversion to a complex (dim,) numpy array."""
        return np.array([complex(v) for v in self.values])

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def inner_product(chi: StateVector, h: StateVector):
    """Scalar product (chi, h) = sum_m conj(chi(m)) h(m), as a (1, n) by
    (n, 1) product."""
    chi._require_same(h)
    return _scalar(chi.ring, chi.ring.matmul(_conj_transposed(chi.ring, chi.packed), h.packed))


def outer(u: StateVector, v: StateVector) -> OperatorMatrix:
    """The rank-one operator |u><v|: entry (n, m) is u(n) conj(v(m)), as an
    (n, 1) by (1, n) product."""
    u._require_same(v)
    return OperatorMatrix.from_packed(u.ring, u.ring.matmul(
        u.packed, _conj_transposed(v.ring, v.packed)))


def root_matrix(ring: CycloRing, roots, scale_exp: int = 0):
    """Normal-form triple of the (n, m) matrix whose entry (i, j) is
    p^(-scale_exp/2) zeta^roots[i, j]: one gather of the compact unit
    table, normalised as a one-part stack, so character tables cost one
    pass whatever their size."""
    return ring.stack([(compact(ring.root_coeffs())[np.asarray(roots) % ring.order],
                        scale_exp, 1)])


def blocks_equal(ring: CycloRing, stacks, count: int) -> np.ndarray:
    """For each of the ``count`` blocks of stacks of one shape, whether all
    the stacks agree on it: a (count,) bool array.  At one (E, Q) the
    coefficients are unique, so stacks that share it compare as they are;
    otherwise they are first aligned into one (``CycloRing.stack``)."""
    if len({stack[1:] for stack in stacks}) == 1:
        datas = [stack[0] for stack in stacks]
    else:
        datas = np.split(ring.stack(stacks)[0], len(stacks))
    first = datas[0].reshape(count, -1)
    return np.logical_and.reduce([(data.reshape(count, -1) == first).all(axis=1)
                                  for data in datas[1:]])


@dataclass(frozen=True)
class Spectrum:
    """Eigenprojectors of an operator U with U^n = 1; projector r belongs to
    the eigenvalue exp(2*pi*i*r/n)."""

    projectors: tuple

    @property
    def ranks(self) -> tuple:
        """The trace of each projector as an exact integer, or None where
        the trace is no integer (the operator is then no projector)."""
        out = []
        for pr in self.projectors:
            tr = pr.trace()
            k = round(complex(tr).real)
            out.append(k if tr == pr.ring.from_int(k) else None)
        return tuple(out)


def cyclic_spectrum(powers, ring: CycloRing) -> Spectrum:
    """Spectral projectors of U from powers = [U^0, ..., U^(n-1)], U^n = 1.

    Projector r is (1/n) sum_k zeta^(-r k N/n) U^k, with N the ring order
    (a multiple of n).
    """
    n = len(powers)
    step = ring.order // n
    projs = []
    for r in range(n):
        acc = powers[0]
        for k in range(1, n):
            acc = acc + powers[k].scaled(ring.root(-r * k * step))
        projs.append(acc.scaled(ring.rational(1, n)))
    return Spectrum(tuple(projs))


def conjugate(u: "OperatorMatrix | Monomial", a: "OperatorMatrix | Monomial"):
    """Basis change u a u^dagger, for u and a each dense or monomial: each
    product with a ``Monomial`` factor is a gather."""
    return u @ a @ u.adjoint()


class Monomial:
    """Permutation matrix with one root-of-unity phase per column, or a
    family of them: M(perm[m], m) = zeta^phase[m], zero elsewhere.

    ``perm`` and ``phase`` are read-only integer arrays of one shape (..., n)
    in the dtype the caller gives, phases reduced mod N; leading axes index
    the members of a family.  ``@``, ``adjoint``, ``**`` and
    ``scaled_by_root`` broadcast over them (a product is one flat ``np.take``
    per array), ``m[idx]`` selects members, ``matches`` compares them.  The
    dense-operand methods, ``to_matrix``, ``trace`` and ``tensor`` take one.
    """

    __slots__ = ("ring", "dim", "perm", "phase")

    def __init__(self, ring: CycloRing, perm, phase):
        reduced = np.asarray(phase) % ring.order  # a new array: kept where it has the shape
        perm, phase = np.broadcast_arrays(np.asarray(perm), reduced)
        self._set(ring, np.array(perm),
                  reduced if reduced.shape == phase.shape else np.array(phase))

    def _set(self, ring, perm, phase):  # arrays of one shape made for it, phases reduced
        self.ring, self.perm, self.phase, self.dim = ring, perm, phase, perm.shape[-1]
        perm.setflags(write=False)
        phase.setflags(write=False)
        return self

    def _like(self, perm, phase):
        return Monomial.__new__(Monomial)._set(self.ring, perm, phase)

    @classmethod
    def identity(cls, ring: CycloRing, dim: int) -> "Monomial":
        return cls.permutation(ring, np.arange(dim))

    @classmethod
    def diagonal_omega(cls, ring: CycloRing, omega_exponents) -> "Monomial":
        """Diagonal matrix with entries omega^a for integer exponents a; a
        family for an (..., n) array of them."""
        exps = np.asarray(omega_exponents)
        return cls(ring, np.arange(exps.shape[-1]), exps % ring.char * (ring.order // ring.char))

    @classmethod
    def permutation(cls, ring: CycloRing, perm) -> "Monomial":
        return cls(ring, perm, np.zeros_like(perm))

    def _row_starts(self):
        # the flat index of each member's first entry, shaped (..., 1)
        lead = self.perm.shape[:-1]
        return (np.arange(math.prod(lead)) * self.dim).reshape(lead + (1,))

    def _check(self, other, kind):
        if not isinstance(other, kind) or other.ring is not self.ring:
            raise BackendMismatch(f"operand is not a {kind.__name__} of this ring")
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return self.left_mul_dense(other)
        if not isinstance(other, Monomial):
            return NotImplemented
        self._check(other, Monomial)
        # column m of A B is zeta^(phase_B[m] + phase_A[perm_B[m]]) at row
        # perm_A[perm_B[m]], read in the row of A's member
        at = self._row_starts() + other.perm
        phase = other.phase + np.take(self.phase, at)
        if self.phase.any() and other.phase.any():  # else the sum is one reduced factor
            phase %= self.ring.order
        return self._like(np.take(self.perm, at), phase)

    def __getitem__(self, idx) -> "Monomial":
        """The members at idx, an index into the leading axes."""
        return self._like(self.perm[idx], self.phase[idx])

    def _inverse(self):
        # the inverse permutations: inv[perm[m]] = m sorts perm
        return np.argsort(self.perm, axis=-1).astype(self.perm.dtype, copy=False)

    def adjoint(self) -> "Monomial":
        inv = self._inverse()
        return self._like(inv, -np.take(self.phase, self._row_starts() + inv) % self.ring.order)

    def scaled_by_root(self, k) -> "Monomial":
        """Multiply by zeta^k, k an int or an array over the leading axes."""
        return Monomial(self.ring, self.perm,
                        self.phase + np.asarray(k, dtype=self.phase.dtype)[..., None])

    def matches(self, other: "Monomial") -> np.ndarray:
        """Per member, whether self and other are equal: a bool array over
        the broadcast leading axes (0-d for two monomials)."""
        self._check(other, Monomial)
        return (self.perm == other.perm).all(axis=-1) & (self.phase == other.phase).all(axis=-1)

    def tensor(self, other: "Monomial") -> "Monomial":
        """Little-endian tensor product, matching OperatorMatrix.tensor."""
        if other.ring is not self.ring:
            raise BackendMismatch("operand is not a Monomial of this ring")
        # column m = ma + da mb sits at [mb, ma]
        perm = self.perm + self.dim * other.perm[:, None]
        return Monomial(self.ring, perm.ravel(), (self.phase + other.phase[:, None]).ravel())

    def __pow__(self, n: int) -> "Monomial":
        out = Monomial(self.ring, np.arange(self.dim, dtype=self.perm.dtype),
                       np.zeros_like(self.phase))
        base = self if n >= 0 else self.adjoint()
        n = abs(n)
        while n:
            if n & 1:
                out = base @ out
            base = base @ base
            n >>= 1
        return out

    def _key(self):  # the values, whatever the storage dtype
        return (self.perm.shape, self.perm.astype(np.int64, copy=False).tobytes(),
                self.phase.astype(np.int64, copy=False).tobytes())

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.ring is other.ring and self._key() == other._key()

    def __hash__(self):
        return hash((id(self.ring), *self._key()))

    def to_matrix(self) -> OperatorMatrix:
        ring = self.ring
        data = np.zeros((self.dim, self.dim, ring.degree), dtype=np.int64)
        data[self.perm, np.arange(self.dim)] = ring.root_coeffs()[self.phase]
        return OperatorMatrix.from_packed(ring, (data, 0, 1))

    def trace(self) -> CycloScalar:
        return self.ring.sum_of_roots(self.phase[self.perm == np.arange(self.dim)])

    def _roots(self, phase):
        # None for all-zero phases, so times_roots leaves the gather as it is
        return phase if self.phase.any() else None

    def _left_mul(self, packed):
        # row n of self @ a is row inv[n] of a times zeta^phase[inv[n]]
        inv = self._inverse()
        data, e, q = packed
        return self.ring.times_roots(data[inv], row_roots=self._roots(self.phase[inv])), e, q

    def left_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a: row n is row inv[n] of a times zeta^phase[inv[n]]."""
        self._check(a, OperatorMatrix)
        return OperatorMatrix.from_packed(a.ring, self._left_mul(a.packed))

    def right_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """a @ self: column m is column perm[m] of a times zeta^phase[m]."""
        self._check(a, OperatorMatrix)
        data, e, q = a.packed
        out = self.ring.times_roots(data[:, self.perm], col_roots=self._roots(self.phase))
        return OperatorMatrix.from_packed(a.ring, (out, e, q))

    def conjugate_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a @ self^dagger, by :func:`conjugate`: a row gather, then a
        column gather."""
        self._check(a, OperatorMatrix)
        return conjugate(self, a)

    def apply(self, state: StateVector) -> StateVector:
        self._check(state, StateVector)
        return StateVector.from_packed(state.ring, self._left_mul(state.packed))

    def __repr__(self):
        return f"Monomial(dim={self.dim})"


def tensor_list(mats):
    """Tensor product of a list of factors, component 0 least significant."""
    out = mats[0]
    for m in mats[1:]:
        out = out.tensor(m)
    return out


def proportionality_phase(a: OperatorMatrix, b: OperatorMatrix):
    """If a = phase * b entrywise, return the exact unit phase, else None.

    The reference entry is the first nonzero entry of b in row-major
    order.  The phase is checked constant across all entries by
    cross-multiplication on the packed triples, a_ij b0 = a0 b_ij, as two
    (dim^2 x 1) by (1 x 1) products in normal form, then verified to have
    unit modulus.
    """
    a._require_same(b)
    (ad, ea, qa), (bd, eb, qb) = a.packed, b.packed
    nonzero = np.argwhere(bd.any(axis=2))
    if not len(nonzero):
        return None
    i0, j0 = nonzero[0]
    if not ad[i0, j0].any():
        return None
    ring, n, deg = a.ring, a.dim, a.ring.degree
    ref_a = (ad[i0, j0].reshape(1, 1, deg), ea, qa)
    ref_b = (bd[i0, j0].reshape(1, 1, deg), eb, qb)
    lhs = ring.matmul((ad.reshape(n * n, 1, deg), ea, qa), ref_b)
    rhs = ring.matmul((bd.reshape(n * n, 1, deg), eb, qb), ref_a)
    if lhs[1:] != rhs[1:] or not np.array_equal(lhs[0], rhs[0]):
        return None
    phase = _scalar(ring, ref_a) / _scalar(ring, ref_b)
    if phase * phase.conj() != ring.one:
        return None
    return phase
