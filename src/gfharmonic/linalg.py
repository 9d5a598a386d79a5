"""Operator matrices and state vectors over exact cyclotomic scalars.

Entries are CycloScalars and equality is decidable.  ``embed()`` is the one
way out to floating point: it returns a complex numpy array, ``complex(x)``
per entry, for numerical checks and the float JSON payload.

A matrix has two views of one value, each built on first use from
the other and then kept: ``rows``, a tuple of tuples of canonical scalars,
and ``packed``, the triple ``(data, E, Q)`` of ``CycloRing``: an
``(n, n, degree)`` integer array over the ring's power basis, with E the
largest entry scale exponent and Q the lcm of the entry denominators.  The
triple is fixed by the values, so equality is ``np.array_equal``.  Dense
products, monomial products, adjoints and equality run on the packed form
with numpy; ``rows`` is unpacked in one vectorised pass when an entry is
read.  Matrices are immutable, which is what lets each view be cached.
Monomial matrices (permutation plus a root-of-unity phase per column) get a
dedicated representation so products and conjugations stay O(dim^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import CycloRing, CycloScalar, ScalarAccumulator, compact
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


class OperatorMatrix:
    """Dense square matrix in canonical element order; immutable."""

    __slots__ = ("dim", "ring", "_rows", "_packed")
    # numpy defers ``ndarray @ matrix`` to __rmatmul__ instead of wrapping
    # the matrix in a 0-d object array
    __array_ufunc__ = None

    def __init__(self, dim, backend, ring, rows):
        _require_exact(backend)
        self.dim = dim
        self.ring = ring
        self._rows = tuple(map(tuple, rows))
        self._packed = None

    @property
    def rows(self):
        """Entries as a tuple of tuples of CycloScalar."""
        if self._rows is None:
            self._rows = self.ring.unpack(self._packed)
        return self._rows

    @property
    def packed(self):
        """The normal-form triple (data, E, Q)."""
        if self._packed is None:
            self._packed = _stored(self.ring.pack(self._rows))
        return self._packed

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_packed(cls, ring: CycloRing, packed) -> "OperatorMatrix":
        """Matrix from a normal-form packed triple; rows come lazily."""
        out = cls.__new__(cls)
        out.dim = packed[0].shape[0]
        out.ring = ring
        out._rows = None
        out._packed = _stored(packed)
        return out

    @classmethod
    def identity(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        data = np.zeros((dim, dim, ring.degree), dtype=np.int64)
        data[np.arange(dim), np.arange(dim), 0] = 1
        return cls.from_packed(ring, (data, 0, 1))

    @classmethod
    def zeros(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        return cls.from_packed(
            ring, (np.zeros((dim, dim, ring.degree), dtype=np.int64), 0, 1))

    @classmethod
    def from_sparse(cls, ring: CycloRing, dim: int, entries) -> "OperatorMatrix":
        """Matrix with the given {(n, m): scalar} entries, zero elsewhere."""
        rows = [[ring.zero] * dim for _ in range(dim)]
        for (n, m), x in entries.items():
            rows[n][m] = x
        return cls(dim, EXACT, ring, rows)

    def _require_ring(self, other: "OperatorMatrix"):
        if not isinstance(other, OperatorMatrix):
            raise BackendMismatch("operand is not an OperatorMatrix")
        if self.ring is not other.ring:
            raise BackendMismatch("operands from different scalar rings")

    def _require_same(self, other: "OperatorMatrix"):
        self._require_ring(other)
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        rows = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

    def __sub__(self, other):
        self._require_same(other)
        rows = [[a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

    def scaled(self, factor) -> "OperatorMatrix":
        """Scalar multiple by a CycloScalar or int."""
        rows = [[x * factor for x in row] for row in self.rows]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

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
        # conjugation is an automorphism fixing sqrt(p): (E, Q) carry over
        data, e, q = self.packed
        return OperatorMatrix.from_packed(
            self.ring, (self.ring.conj_coeffs(data.transpose(1, 0, 2)), e, q))

    def trace(self):
        acc = ScalarAccumulator(self.ring)
        for i in range(self.dim):
            acc.add(self.rows[i][i])
        return acc.value()

    def tensor(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Tensor product with little-endian indexing: n = n_self + dim_self*n_other.

        The first factor acts on the least significant digit, matching the
        canonical element index sum(m_j * p**j).
        """
        self._require_ring(other)
        da, db = self.dim, other.dim
        dim = da * db
        rows = []
        for n in range(dim):
            na, nb = n % da, n // da
            row = []
            for m in range(dim):
                ma, mb = m % da, m // da
                row.append(self.rows[na][ma] * other.rows[nb][mb])
            rows.append(row)
        return OperatorMatrix(dim, EXACT, self.ring, rows)

    def apply(self, state: "StateVector") -> "StateVector":
        if not isinstance(state, StateVector):
            raise BackendMismatch("operand is not a StateVector")
        if state.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {state.dim}")
        out = []
        for row in self.rows:
            acc = ScalarAccumulator(self.ring)
            for a, b in zip(row, state.values):
                if a._nz and b._nz:
                    acc.add_product(a, b)
            out.append(acc.value())
        return StateVector(self.dim, EXACT, self.ring, out)

    # -- comparisons ----------------------------------------------------------------

    def equals(self, other: "OperatorMatrix") -> bool:
        """Exact equality of every entry."""
        self._require_same(other)
        (a, ea, qa), (b, eb, qb) = self.packed, other.packed
        return ea == eb and qa == qb and np.array_equal(a, b)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return None

    def is_unitary(self) -> bool:
        return (self @ self.adjoint()).equals(
            OperatorMatrix.identity(self.ring, self.dim))

    # -- conversion -------------------------------------------------------------------

    def embed(self) -> np.ndarray:
        """Lossy one-way conversion to a complex (dim, dim) numpy array."""
        return np.array([[complex(x) for x in row] for row in self.rows])

    def entry(self, n: int, m: int):
        return self.rows[n][m]

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim})"


class StateVector:
    """Complex function on the field, as a column vector in canonical order."""

    __slots__ = ("dim", "ring", "values")

    def __init__(self, dim, backend, ring, values):
        _require_exact(backend)
        self.dim = dim
        self.ring = ring
        self.values = values

    @classmethod
    def from_values(cls, ring: CycloRing, values) -> "StateVector":
        values = list(values)
        return cls(len(values), EXACT, ring, values)

    @classmethod
    def point_mass(cls, ring: CycloRing, dim: int, k: int) -> "StateVector":
        vals = [ring.zero] * dim
        vals[k] = ring.one
        return cls(dim, EXACT, ring, vals)

    def __getitem__(self, i):
        return self.values[int(i)]

    def __add__(self, other):
        self._require_same(other)
        return StateVector(self.dim, EXACT, self.ring,
                           [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._require_same(other)
        return StateVector(self.dim, EXACT, self.ring,
                           [a - b for a, b in zip(self.values, other.values)])

    def scaled(self, factor) -> "StateVector":
        return StateVector(self.dim, EXACT, self.ring,
                           [v * factor for v in self.values])

    def _require_same(self, other):
        if not isinstance(other, StateVector):
            raise BackendMismatch("operand is not a StateVector")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        if self.ring is not other.ring:
            raise BackendMismatch("states from different scalar rings")

    def equals(self, other) -> bool:
        self._require_same(other)
        return all(a == b for a, b in zip(self.values, other.values))

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return None

    def embed(self) -> np.ndarray:
        """Lossy one-way conversion to a complex (dim,) numpy array."""
        return np.array([complex(v) for v in self.values])

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def inner_product(chi: StateVector, h: StateVector):
    """Scalar product (chi, h) = sum_m conj(chi(m)) h(m)."""
    chi._require_same(h)
    acc = ScalarAccumulator(chi.ring)
    for a, b in zip(chi.values, h.values):
        if a._nz and b._nz:
            acc.add_conj_product(a, b)
    return acc.value()


@dataclass(frozen=True)
class Spectrum:
    """Eigenprojectors of an operator U with U^n = 1; projector r belongs to
    the eigenvalue exp(2*pi*i*r/n)."""

    projectors: tuple

    @property
    def ranks(self) -> tuple[int, ...]:
        out = []
        for pr in self.projectors:
            tr = pr.trace()
            out.append(int(tr.coeffs[0] // tr.denom) if not tr.is_zero else 0)
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


def conjugate(u: OperatorMatrix, a: OperatorMatrix) -> OperatorMatrix:
    """Basis change u a u^dagger."""
    return (u @ a) @ u.adjoint()


class Monomial:
    """Permutation matrix with one root-of-unity phase per column.

    Entry convention: M(perm[m], m) = zeta^phase[m], zero elsewhere, with
    phases stored as exponents of the ring's N-th root of unity.  Products,
    adjoints, tensor products and dense conjugations all stay monomial or
    O(dim^2).
    """

    __slots__ = ("ring", "dim", "perm", "phase")

    def __init__(self, ring: CycloRing, perm, phase):
        self.ring = ring
        self.dim = len(perm)
        self.perm = tuple(perm)
        self.phase = tuple(p % ring.order for p in phase)

    @classmethod
    def identity(cls, ring: CycloRing, dim: int) -> "Monomial":
        return cls(ring, range(dim), [0] * dim)

    @classmethod
    def diagonal_omega(cls, ring: CycloRing, omega_exponents) -> "Monomial":
        """Diagonal matrix with entries omega^a for integer exponents a."""
        step = ring.order // ring.char
        return cls(ring, range(len(omega_exponents)),
                   [step * (a % ring.char) for a in omega_exponents])

    @classmethod
    def permutation(cls, ring: CycloRing, perm) -> "Monomial":
        return cls(ring, perm, [0] * len(perm))

    @classmethod
    def from_dense(cls, a: OperatorMatrix) -> "Monomial | None":
        """The monomial equal to a, or None when a is not monomial.

        A monomial's triple has E = 0, Q = 1 and one nonzero entry in each
        row and column, each a row of ``root_coeffs``.
        """
        data, e, q = a.packed
        live = data.any(axis=2)
        if e or q != 1 or not ((live.sum(axis=0) == 1).all()
                               and (live.sum(axis=1) == 1).all()):
            return None
        perm = live.argmax(axis=0)
        vecs = data[perm, np.arange(a.dim)]
        match = (vecs[:, None, :] == a.ring.root_coeffs()[None]).all(axis=2)
        if not match.any(axis=1).all():
            return None
        return cls(a.ring, perm.tolist(), match.argmax(axis=1).tolist())

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return self.left_mul_dense(other)
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.ring is not self.ring:
            raise BackendMismatch("monomials from different rings")
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        perm = tuple(self.perm[k] for k in other.perm)
        phase = tuple(other.phase[m] + self.phase[other.perm[m]]
                      for m in range(self.dim))
        return Monomial(self.ring, perm, phase)

    def adjoint(self) -> "Monomial":
        inv = [0] * self.dim
        for m, n in enumerate(self.perm):
            inv[n] = m
        phase = [-self.phase[inv[n]] for n in range(self.dim)]
        return Monomial(self.ring, inv, phase)

    def scaled_by_root(self, k: int) -> "Monomial":
        """Multiply the whole matrix by zeta^k."""
        return Monomial(self.ring, self.perm, [p + k for p in self.phase])

    def scaled_by_omega(self, a: int) -> "Monomial":
        return self.scaled_by_root((a % self.ring.char) * (self.ring.order // self.ring.char))

    def tensor(self, other: "Monomial") -> "Monomial":
        """Little-endian tensor product, matching OperatorMatrix.tensor."""
        if other.ring is not self.ring:
            raise BackendMismatch("monomials from different rings")
        da = self.dim
        dim = da * other.dim
        perm = []
        phase = []
        for m in range(dim):
            ma, mb = m % da, m // da
            perm.append(self.perm[ma] + da * other.perm[mb])
            phase.append(self.phase[ma] + other.phase[mb])
        return Monomial(self.ring, perm, phase)

    def __pow__(self, n: int) -> "Monomial":
        out = Monomial.identity(self.ring, self.dim)
        base = self if n >= 0 else self.adjoint()
        n = abs(n)
        while n:
            if n & 1:
                out = base @ out
            base = base @ base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.ring is other.ring and self.perm == other.perm
                and self.phase == other.phase)

    def __hash__(self):
        return hash((id(self.ring), self.perm, self.phase))

    def to_matrix(self) -> OperatorMatrix:
        ring = self.ring
        roots = ring.root_coeffs()
        data = np.zeros((self.dim, self.dim, ring.degree), dtype=np.int64)
        data[list(self.perm), np.arange(self.dim)] = roots[list(self.phase)]
        return OperatorMatrix.from_packed(ring, (data, 0, 1))

    def trace(self) -> CycloScalar:
        acc = ScalarAccumulator(self.ring)
        one = self.ring.one
        for m in range(self.dim):
            if self.perm[m] == m:
                acc.add(one, root=self.phase[m])
        return acc.value()

    def _arrays(self):
        # (perm, inverse permutation, phase) as index arrays
        perm = np.array(self.perm)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.dim)
        return perm, inv, np.array(self.phase)

    def left_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a: row n is row inv[n] of a times zeta^phase[inv[n]]."""
        self._check_dense(a)
        _, inv, phase = self._arrays()
        data, e, q = a.packed
        out = self.ring.times_roots(data[inv], row_roots=phase[inv])
        return OperatorMatrix.from_packed(a.ring, (out, e, q))

    def right_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """a @ self: column m is column perm[m] of a times zeta^phase[m]."""
        self._check_dense(a)
        perm, _, phase = self._arrays()
        data, e, q = a.packed
        out = self.ring.times_roots(data[:, perm], col_roots=phase)
        return OperatorMatrix.from_packed(a.ring, (out, e, q))

    def conjugate_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a @ self^dagger: entry (n, m) is a(inv[n], inv[m]) times
        zeta^(phase[inv[n]] - phase[inv[m]])."""
        self._check_dense(a)
        _, inv, phase = self._arrays()
        data, e, q = a.packed
        out = self.ring.times_roots(data[np.ix_(inv, inv)], phase[inv], -phase[inv])
        return OperatorMatrix.from_packed(a.ring, (out, e, q))

    def _check_dense(self, a: OperatorMatrix):
        if not isinstance(a, OperatorMatrix):
            raise BackendMismatch("operand is not an OperatorMatrix")
        if a.ring is not self.ring:
            raise BackendMismatch("operands from different scalar rings")
        if a.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {a.dim}")

    def apply(self, state: StateVector) -> StateVector:
        if not isinstance(state, StateVector):
            raise BackendMismatch("operand is not a StateVector")
        if state.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {state.dim}")
        vals = [None] * self.dim
        for m in range(self.dim):
            vals[self.perm[m]] = state.values[m].times_root(self.phase[m])
        return StateVector(self.dim, EXACT, state.ring, vals)

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
    (a0,), = ring.unpack(ref_a)
    (b0,), = ring.unpack(ref_b)
    phase = a0 / b0
    if phase * phase.conj() != ring.one:
        return None
    return phase
