import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfharmonic.cyclo import ScalarAccumulator, get_ring
from gfharmonic.errors import BackendMismatch, DimensionMismatch
from gfharmonic.linalg import (Monomial, OperatorMatrix, StateVector,
                               conjugate, inner_product,
                               proportionality_phase, tensor_list)


@pytest.fixture(scope="module")
def ring():
    return get_ring(12, 3)


def random_monomial(ring, dim, seed):
    rng = random.Random(seed)
    perm = list(range(dim))
    rng.shuffle(perm)
    return Monomial(ring, perm, [rng.randrange(12) for _ in range(dim)])


def random_matrix(ring, dim, seed):
    rng = random.Random(seed)
    rows = [[ring.scalar([rng.randint(-2, 2) for _ in range(ring.degree)],
                         rng.randint(0, 2), rng.randint(1, 3))
             for _ in range(dim)] for _ in range(dim)]
    return OperatorMatrix(dim, "exact", ring, rows)


def test_identity_is_neutral(ring):
    a = random_matrix(ring, 4, 1)
    ident = OperatorMatrix.identity(ring, 4)
    assert (ident @ a).equals(a)
    assert (a @ ident).equals(a)


def test_matmul_against_entrywise_definition(ring):
    a = random_matrix(ring, 3, 2)
    b = random_matrix(ring, 3, 3)
    c = a @ b
    for n in range(3):
        for m in range(3):
            want = ring.zero
            for k in range(3):
                want = want + a.rows[n][k] * b.rows[k][m]
            assert c.rows[n][m] == want


def test_adjoint_and_trace(ring):
    a = random_matrix(ring, 4, 4)
    assert a.adjoint().adjoint().equals(a)
    tr = a.trace()
    want = ring.zero
    for i in range(4):
        want = want + a.rows[i][i]
    assert tr == want
    assert (a + a).trace() == 2 * tr


def test_tensor_identity_and_convention(ring):
    i3 = OperatorMatrix.identity(ring, 3)
    assert i3.tensor(i3).equals(OperatorMatrix.identity(ring, 9))
    a = random_matrix(ring, 2, 5)
    b = random_matrix(ring, 3, 6)
    t = a.tensor(b)
    # index n = n_a + dim_a * n_b: first factor on the least significant digit
    for n in range(6):
        for m in range(6):
            assert t.rows[n][m] == a.rows[n % 2][m % 2] * b.rows[n // 2][m // 2]


def test_dimension_and_backend_guards(ring):
    a = random_matrix(ring, 3, 7)
    b = random_matrix(ring, 4, 8)
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(BackendMismatch):
        a @ random_matrix(get_ring(20, 5), 3, 9)
    with pytest.raises(BackendMismatch):
        a @ a.embed()
    with pytest.raises(BackendMismatch):
        a.equals(a.embed())


def test_monomial_consistency_with_dense(ring):
    m1 = random_monomial(ring, 5, 10)
    m2 = random_monomial(ring, 5, 11)
    d1, d2 = m1.to_matrix(), m2.to_matrix()
    assert (m1 @ m2).to_matrix().equals(d1 @ d2)
    assert m1.adjoint().to_matrix().equals(d1.adjoint())
    assert (m1 ** 3).to_matrix().equals((d1 @ d1) @ d1)
    a = random_matrix(ring, 5, 12)
    assert m1.left_mul_dense(a).equals(d1 @ a)
    assert m1.right_mul_dense(a).equals(a @ d1)
    assert m1.conjugate_dense(a).equals((d1 @ a) @ d1.adjoint())
    assert m1.tensor(m2).to_matrix().equals(d1.tensor(d2))
    assert m1.trace() == d1.trace()


def test_monomial_matrices_are_unitary(ring):
    m = random_monomial(ring, 6, 13)
    assert m.to_matrix().is_unitary()
    assert m.to_matrix().embed().is_unitary()


def test_state_vector_ops(ring):
    s = StateVector.point_mass(ring, 4, 2)
    assert inner_product(s, s) == ring.one
    t = StateVector.from_values(ring, [ring.omega(1)] * 4)
    ip = inner_product(t, t)
    assert ip == ring.from_int(4)
    m = random_monomial(ring, 4, 14)
    moved = m.apply(s)
    assert moved.equals(m.to_matrix().apply(s))
    with pytest.raises(DimensionMismatch):
        inner_product(s, StateVector.point_mass(ring, 5, 0))


def test_inner_product_conjugate_symmetry(ring):
    rng = random.Random(15)
    u = StateVector.from_values(ring, [ring.scalar(
        [rng.randint(-2, 2) for _ in range(4)]) for _ in range(5)])
    v = StateVector.from_values(ring, [ring.scalar(
        [rng.randint(-2, 2) for _ in range(4)]) for _ in range(5)])
    assert inner_product(u, v) == inner_product(v, u).conj()
    nrm = inner_product(u, u)
    assert nrm == nrm.conj()  # real
    assert complex(nrm).real >= 0


def test_float_backend(ring):
    a = random_matrix(ring, 4, 16)
    b = random_matrix(ring, 4, 17)
    fa, fb = a.embed(), b.embed()
    exact = (a @ b).embed()
    assert np.linalg.norm((fa @ fb).rows - exact.rows) < 1e-12
    assert np.linalg.norm((fa + fb).rows - (a + b).embed().rows) < 1e-12
    assert np.linalg.norm(fa.adjoint().rows - a.adjoint().embed().rows) < 1e-12
    assert a.frobenius_distance(a) == 0.0
    assert a.close_to(a, tol=0.0)


def test_conjugate_helper(ring):
    m = random_monomial(ring, 4, 18)
    a = random_matrix(ring, 4, 19)
    u = m.to_matrix()
    assert conjugate(u, a).equals(m.conjugate_dense(a))


def test_proportionality_phase(ring):
    a = random_matrix(ring, 3, 20)
    phase = ring.omega(2)
    assert proportionality_phase(a.scaled(phase), a) == phase
    assert proportionality_phase(a, a) == ring.one
    b = random_matrix(ring, 3, 21)
    assert proportionality_phase(a, b) is None
    # non-unit proportionality factor is rejected
    assert proportionality_phase(a.scaled(ring.from_int(2)), a) is None


def test_tensor_list(ring):
    ms = [random_monomial(ring, 2, s).to_matrix() for s in (22, 23, 24)]
    t = tensor_list(ms)
    assert t.dim == 8
    for n in range(8):
        for m in range(8):
            want = (ms[0].rows[n % 2][m % 2]
                    * ms[1].rows[(n // 2) % 2][(m // 2) % 2]
                    * ms[2].rows[n // 4][m // 4])
            assert t.rows[n][m] == want


# -- differential check of the packed product against the per-entry loop ----

def reference_matmul(ring, a_rows, b_rows):
    """The per-entry accumulator product that the packed kernel replaced."""
    n = len(b_rows)
    cols = [[b_rows[k][j] for k in range(n)] for j in range(len(b_rows[0]))]
    out = []
    for row in a_rows:
        out_row = []
        for col in cols:
            acc = ScalarAccumulator(ring)
            for a, b in zip(row, col):
                if a._nz and b._nz:
                    acc.add_product(a, b)
            out_row.append(acc.value())
        out.append(out_row)
    return out


def as_tuples(rows):
    return [[(x.coeffs, x.scale_exp, x.denom) for x in row] for row in rows]


def mixed_matrix(ring, dim, rng, bound, zero_rows=()):
    """Random matrix with mixed scale exponents, denominators and zeros."""
    rows = []
    for i in range(dim):
        row = []
        for _ in range(dim):
            if i in zero_rows or rng.random() < 0.2:
                row.append(ring.zero)
                continue
            vec = [rng.randint(-bound, bound) for _ in range(ring.degree)]
            row.append(ring.scalar(vec, rng.randint(0, 3),
                                   rng.choice((1, 2, 3, 4, 6))))
        rows.append(row)
    return rows


# (ring order, characteristic) -> ring degree 4, 8, 12, 24
DIFF_RINGS = [(12, 3), (20, 5), (28, 7), (52, 13)]


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 2 ** 40, 10 ** 30])
def test_packed_matmul_matches_accumulator_loop(order, char, bound):
    # 2^40 fits int64 per coefficient but not through the product, and
    # 10^30 does not fit int64 at all: both must take the exact object path.
    ring = get_ring(order, char)
    rng = random.Random(order * 1000 + bound % 997)
    dim = 5
    a = mixed_matrix(ring, dim, rng, bound, zero_rows=(1,))
    b = mixed_matrix(ring, dim, rng, bound, zero_rows=(3,))
    assert as_tuples(ring.matmul(a, b)) == as_tuples(reference_matmul(ring, a, b))
    zero = OperatorMatrix.zeros(ring, dim).rows
    assert as_tuples(ring.matmul(zero, b)) == as_tuples(reference_matmul(ring, zero, b))
    assert as_tuples(ring.matmul(a, zero)) == as_tuples(zero)


def test_packed_matmul_on_operator_products():
    from gfharmonic.fourier import fourier_matrix
    from gfharmonic.gf import make_field
    f = fourier_matrix(make_field(3, 2))
    for a, b in ((f, f), (f, f.adjoint())):
        assert as_tuples((a @ b).rows) == as_tuples(
            reference_matmul(f.ring, a.rows, b.rows))


@settings(max_examples=60, deadline=None)
@given(ring_key=st.sampled_from(DIFF_RINGS),
       data=st.data(),
       scale_exp=st.integers(0, 3), denom=st.sampled_from((1, 2, 3, 4, 6)),
       extra_exp=st.integers(0, 3), extra_denom=st.integers(1, 12))
def test_canonical_form_independent_of_spelling(ring_key, data, scale_exp, denom,
                                                extra_exp, extra_denom):
    # The packed product rescales every entry to a common (e, denom) before
    # canonicalising; it is bit-identical only if canonical form ignores that.
    ring = get_ring(*ring_key)
    vec = data.draw(st.lists(st.integers(-50, 50), min_size=ring.degree,
                             max_size=ring.degree))
    # e = 0 keeps the vector verbatim, so this is the raw product by sqrt(p)^k
    lifted = (ring.scalar(vec) * ring.sqrt_char() ** extra_exp).coeffs
    respelled = ring.scalar([extra_denom * c for c in lifted],
                            scale_exp + extra_exp, denom * extra_denom)
    x = ring.scalar(vec, scale_exp, denom)
    assert (respelled.coeffs, respelled.scale_exp, respelled.denom) == \
        (x.coeffs, x.scale_exp, x.denom)
