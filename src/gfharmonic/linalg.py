"""Operator matrices and state vectors over exact cyclotomic scalars.

Two backends share one interface: the exact backend stores CycloScalar
entries and supports decidable equality; the float backend stores a numpy
complex matrix and supports norm-based comparison.  The exact dense product
also runs on numpy: ``CycloRing.matmul`` packs both operands into integer
tensors over the ring's power basis and does one integer matmul plus one
fold.  Monomial matrices (permutation plus a root-of-unity phase per column)
get a dedicated representation so products and conjugations stay O(dim^2).
"""

from __future__ import annotations

import math

import numpy as np

from .cyclo import CycloRing, CycloScalar, ScalarAccumulator
from .errors import BackendMismatch, DimensionMismatch, NotUnitary

EXACT = "exact"
FLOAT = "float"


class OperatorMatrix:
    """Dense square matrix in canonical element order."""

    __slots__ = ("dim", "backend", "ring", "rows")

    def __init__(self, dim, backend, ring, rows):
        self.dim = dim
        self.backend = backend
        self.ring = ring
        self.rows = rows

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_entries(cls, ring: CycloRing, rows) -> "OperatorMatrix":
        dim = len(rows)
        return cls(dim, EXACT, ring, [list(r) for r in rows])

    @classmethod
    def identity(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        one, zero = ring.one, ring.zero
        rows = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        return cls(dim, EXACT, ring, rows)

    @classmethod
    def zeros(cls, ring: CycloRing, dim: int) -> "OperatorMatrix":
        zero = ring.zero
        rows = [[zero] * dim for _ in range(dim)]
        return cls(dim, EXACT, ring, rows)

    @classmethod
    def from_complex(cls, array) -> "OperatorMatrix":
        arr = np.asarray(array, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch("float matrix must be square")
        return cls(arr.shape[0], FLOAT, None, arr)

    def _require_same(self, other: "OperatorMatrix"):
        if not isinstance(other, OperatorMatrix):
            raise BackendMismatch("operand is not an OperatorMatrix")
        if self.backend != other.backend:
            raise BackendMismatch("mixed exact/float operands")
        if self.backend == EXACT and self.ring is not other.ring:
            raise BackendMismatch("operands from different scalar rings")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim, FLOAT, None, self.rows + other.rows)
        rows = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

    def __sub__(self, other):
        self._require_same(other)
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim, FLOAT, None, self.rows - other.rows)
        rows = [[a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

    def scaled(self, factor) -> "OperatorMatrix":
        """Scalar multiple; factor is a CycloScalar/int (exact) or complex."""
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim, FLOAT, None, self.rows * complex(factor))
        rows = [[x * factor for x in row] for row in self.rows]
        return OperatorMatrix(self.dim, EXACT, self.ring, rows)

    def __matmul__(self, other):
        if isinstance(other, Monomial):
            return other.right_mul_dense(self)
        self._require_same(other)
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim, FLOAT, None, self.rows @ other.rows)
        return OperatorMatrix(self.dim, EXACT, self.ring,
                              self.ring.matmul(self.rows, other.rows))

    def adjoint(self) -> "OperatorMatrix":
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim, FLOAT, None, self.rows.conj().T)
        n = self.dim
        rows = [[self.rows[j][i].conj() for j in range(n)] for i in range(n)]
        return OperatorMatrix(n, EXACT, self.ring, rows)

    def trace(self):
        if self.backend == FLOAT:
            return complex(np.trace(self.rows))
        acc = ScalarAccumulator(self.ring)
        for i in range(self.dim):
            acc.add(self.rows[i][i])
        return acc.value()

    def tensor(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Tensor product with little-endian indexing: n = n_self + dim_self*n_other.

        The first factor acts on the least significant digit, matching the
        canonical element index sum(m_j * p**j).
        """
        self._require_same_family(other)
        if self.backend == FLOAT:
            return OperatorMatrix(self.dim * other.dim, FLOAT, None,
                                  np.kron(other.rows, self.rows))
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

    def _require_same_family(self, other):
        if self.backend != other.backend:
            raise BackendMismatch("mixed exact/float operands")
        if self.backend == EXACT and self.ring is not other.ring:
            raise BackendMismatch("tensor factors from different scalar rings")

    def apply(self, state: "StateVector") -> "StateVector":
        if state.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {state.dim}")
        if self.backend == FLOAT or state.backend == FLOAT:
            if self.backend != FLOAT or state.backend != FLOAT:
                raise BackendMismatch("mixed exact/float operands")
            return StateVector(self.dim, FLOAT, None, self.rows @ state.values)
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
        """Exact equality; only defined on the exact backend."""
        self._require_same(other)
        if self.backend == FLOAT:
            raise BackendMismatch("exact equality is undefined on the float backend")
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return None

    def frobenius_distance(self, other: "OperatorMatrix") -> float:
        a = self.embed().rows if self.backend == EXACT else self.rows
        b = other.embed().rows if other.backend == EXACT else other.rows
        if a.shape != b.shape:
            raise DimensionMismatch("shape mismatch")
        return float(np.linalg.norm(a - b))

    def close_to(self, other: "OperatorMatrix", tol: float = 1e-9) -> bool:
        return self.frobenius_distance(other) <= tol

    def is_unitary(self) -> bool:
        if self.backend == FLOAT:
            eye = np.eye(self.dim, dtype=complex)
            return bool(np.linalg.norm(self.rows @ self.rows.conj().T - eye) <= 1e-9)
        return (self @ self.adjoint()).equals(
            OperatorMatrix.identity(self.ring, self.dim))

    # -- conversion -------------------------------------------------------------------

    def embed(self) -> "OperatorMatrix":
        """Lossy one-way conversion to the float backend."""
        if self.backend == FLOAT:
            return self
        arr = np.array([[complex(x) for x in row] for row in self.rows])
        return OperatorMatrix(self.dim, FLOAT, None, arr)

    def entry(self, n: int, m: int):
        return self.rows[n][m]

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, backend={self.backend!r})"


class StateVector:
    """Complex function on the field, as a column vector in canonical order."""

    __slots__ = ("dim", "backend", "ring", "values")

    def __init__(self, dim, backend, ring, values):
        self.dim = dim
        self.backend = backend
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
        if self.backend == FLOAT:
            return StateVector(self.dim, FLOAT, None, self.values + other.values)
        return StateVector(self.dim, EXACT, self.ring,
                           [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._require_same(other)
        if self.backend == FLOAT:
            return StateVector(self.dim, FLOAT, None, self.values - other.values)
        return StateVector(self.dim, EXACT, self.ring,
                           [a - b for a, b in zip(self.values, other.values)])

    def scaled(self, factor) -> "StateVector":
        if self.backend == FLOAT:
            return StateVector(self.dim, FLOAT, None, self.values * complex(factor))
        return StateVector(self.dim, EXACT, self.ring,
                           [v * factor for v in self.values])

    def _require_same(self, other):
        if self.backend != other.backend:
            raise BackendMismatch("mixed exact/float operands")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        if self.backend == EXACT and self.ring is not other.ring:
            raise BackendMismatch("states from different scalar rings")

    def equals(self, other) -> bool:
        self._require_same(other)
        if self.backend == FLOAT:
            raise BackendMismatch("exact equality is undefined on the float backend")
        return all(a == b for a, b in zip(self.values, other.values))

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return None

    def embed(self) -> "StateVector":
        if self.backend == FLOAT:
            return self
        return StateVector(self.dim, FLOAT, None,
                           np.array([complex(v) for v in self.values]))

    def __repr__(self):
        return f"StateVector(dim={self.dim}, backend={self.backend!r})"


def inner_product(chi: StateVector, h: StateVector):
    """Scalar product (chi, h) = sum_m conj(chi(m)) h(m)."""
    chi._require_same(h)
    if chi.backend == FLOAT:
        return complex(np.vdot(chi.values, h.values))
    acc = ScalarAccumulator(chi.ring)
    for a, b in zip(chi.values, h.values):
        if a._nz and b._nz:
            acc.add_conj_product(a, b)
    return acc.value()


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
        zero = ring.zero
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for m in range(self.dim):
            rows[self.perm[m]][m] = ring.root(self.phase[m])
        return OperatorMatrix(self.dim, EXACT, ring, rows)

    def trace(self) -> CycloScalar:
        acc = ScalarAccumulator(self.ring)
        one = self.ring.one
        for m in range(self.dim):
            if self.perm[m] == m:
                acc.add(one, root=self.phase[m])
        return acc.value()

    def left_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a in O(dim^2): row permutation plus phase."""
        self._check_dense(a)
        inv = [0] * self.dim
        for m, n in enumerate(self.perm):
            inv[n] = m
        rows = []
        for n in range(self.dim):
            src = inv[n]
            k = self.phase[src]
            rows.append([x.times_root(k) for x in a.rows[src]])
        return OperatorMatrix(self.dim, EXACT, a.ring, rows)

    def right_mul_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """a @ self in O(dim^2): column permutation plus phase."""
        self._check_dense(a)
        rows = []
        for row in a.rows:
            rows.append([row[self.perm[m]].times_root(self.phase[m])
                         for m in range(self.dim)])
        return OperatorMatrix(self.dim, EXACT, a.ring, rows)

    def conjugate_dense(self, a: OperatorMatrix) -> OperatorMatrix:
        """self @ a @ self^dagger in O(dim^2)."""
        self._check_dense(a)
        inv = [0] * self.dim
        for m, n in enumerate(self.perm):
            inv[n] = m
        rows = []
        for n in range(self.dim):
            rn = inv[n]
            kn = self.phase[rn]
            row = []
            for m in range(self.dim):
                rm = inv[m]
                row.append(a.rows[rn][rm].times_root(kn - self.phase[rm]))
            rows.append(row)
        return OperatorMatrix(self.dim, EXACT, a.ring, rows)

    def _check_dense(self, a: OperatorMatrix):
        if a.backend != EXACT:
            raise BackendMismatch("monomial products need the exact backend")
        if a.ring is not self.ring:
            raise BackendMismatch("operands from different scalar rings")
        if a.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} != {a.dim}")

    def apply(self, state: StateVector) -> StateVector:
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

    Both operands must be exact.  The phase is checked constant across all
    entries by cross-multiplication, then verified to have unit modulus.
    """
    a._require_same(b)
    if a.backend != EXACT:
        raise BackendMismatch("phase extraction needs the exact backend")
    ref = None
    for i in range(a.dim):
        for j in range(a.dim):
            if b.rows[i][j]._nz:
                ref = (i, j)
                break
        if ref:
            break
    if ref is None:
        return None
    i0, j0 = ref
    if not a.rows[i0][j0]._nz:
        return None
    a0, b0 = a.rows[i0][j0], b.rows[i0][j0]
    for i in range(a.dim):
        for j in range(a.dim):
            if a.rows[i][j] * b0 != a0 * b.rows[i][j]:
                return None
    phase = a0 / b0
    if phase * phase.conj() != a.ring.one:
        return None
    return phase
