import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfharmonic import cyclo
from gfharmonic.cyclo import ScalarAccumulator, get_ring
from gfharmonic.errors import BackendMismatch, DimensionMismatch
from gfharmonic.linalg import (EXACT, Monomial, OperatorMatrix, StateVector, blocks_equal,
                               conjugate, inner_product, outer, proportionality_phase,
                               tensor_list)
from test_packed_reference import from_dense


def state_of(ring, values):
    """An exact state from its canonical scalar values."""
    values = list(values)
    return StateVector(len(values), EXACT, ring, values)


def point_mass(ring, dim, k):
    return state_of(ring, [ring.one if i == k else ring.zero for i in range(dim)])


def sqrt_char(ring):
    """sqrt(p) as an exact scalar: p times p^(-1/2), in canonical form."""
    return ring.scalar([ring.char] + [0] * (ring.degree - 1), 1)


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
    a_rows, b_rows, c_rows = a.rows, b.rows, (a @ b).rows
    for n in range(3):
        for m in range(3):
            want = ring.zero
            for k in range(3):
                want = want + a_rows[n][k] * b_rows[k][m]
            assert c_rows[n][m] == want


def test_adjoint_and_trace(ring):
    a = random_matrix(ring, 4, 4)
    assert a.adjoint().adjoint().equals(a)
    tr = a.trace()
    want = ring.zero
    a_rows = a.rows
    for i in range(4):
        want = want + a_rows[i][i]
    assert tr == want
    assert (a + a).trace() == 2 * tr


def test_tensor_identity_and_convention(ring):
    i3 = OperatorMatrix.identity(ring, 3)
    assert i3.tensor(i3).equals(OperatorMatrix.identity(ring, 9))
    a = random_matrix(ring, 2, 5)
    b = random_matrix(ring, 3, 6)
    t, a, b = a.tensor(b).rows, a.rows, b.rows
    # index n = n_a + dim_a * n_b: first factor on the least significant digit
    for n in range(6):
        for m in range(6):
            assert t[n][m] == a[n % 2][m % 2] * b[n // 2][m // 2]


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
    f = m.to_matrix().embed()
    assert np.linalg.norm(f @ f.conj().T - np.eye(6)) <= 1e-9


def test_state_vector_ops(ring):
    s = point_mass(ring, 4, 2)
    assert inner_product(s, s) == ring.one
    t = state_of(ring, [ring.omega(1)] * 4)
    ip = inner_product(t, t)
    assert ip == ring.from_int(4)
    m = random_monomial(ring, 4, 14)
    moved = m.apply(s)
    assert moved.equals(m.to_matrix().apply(s))
    with pytest.raises(DimensionMismatch):
        inner_product(s, point_mass(ring, 5, 0))


def test_state_entry_is_the_entry_of_values(ring):
    rng = random.Random(4)
    s = state_of(ring, [row[0] for row in mixed_matrix(ring, 5, rng, 3)])
    values = s.values
    for i in [*range(5), -1, -5, np.int64(3)]:
        x, y = s[i], values[i]
        assert (x.coeffs, x.scale_exp, x.denom) == (y.coeffs, y.scale_exp, y.denom)
    with pytest.raises(IndexError):
        s[5]


def test_state_guards(ring):
    s = point_mass(ring, 4, 2)
    emb = s.embed()
    assert isinstance(emb, np.ndarray) and emb.shape == (4,)
    with pytest.raises(BackendMismatch):
        inner_product(s, emb)
    with pytest.raises(BackendMismatch):
        s.equals(emb)
    with pytest.raises(BackendMismatch):
        OperatorMatrix.identity(ring, 4).apply(emb)
    with pytest.raises(BackendMismatch):
        Monomial.identity(ring, 4).left_mul_dense(OperatorMatrix.identity(ring, 4).embed())
    with pytest.raises(BackendMismatch):
        StateVector(4, "float", None, emb)
    with pytest.raises(BackendMismatch):
        OperatorMatrix(1, "float", None, [[0j]])


def test_matrices_and_states_are_unhashable(ring):
    # equality is by value and no __hash__ is defined: neither may key a dict
    with pytest.raises(TypeError):
        hash(OperatorMatrix.identity(ring, 2))
    with pytest.raises(TypeError):
        hash(point_mass(ring, 2, 0))


def test_inner_product_conjugate_symmetry(ring):
    rng = random.Random(15)
    u = state_of(ring, [ring.scalar(
        [rng.randint(-2, 2) for _ in range(4)]) for _ in range(5)])
    v = state_of(ring, [ring.scalar(
        [rng.randint(-2, 2) for _ in range(4)]) for _ in range(5)])
    assert inner_product(u, v) == inner_product(v, u).conj()
    nrm = inner_product(u, u)
    assert nrm == nrm.conj()  # real
    assert complex(nrm).real >= 0


def test_float_backend(ring):
    a = random_matrix(ring, 4, 16)
    b = random_matrix(ring, 4, 17)
    fa, fb = a.embed(), b.embed()
    assert isinstance(fa, np.ndarray) and fa.shape == (4, 4)
    assert np.linalg.norm(fa @ fb - (a @ b).embed()) < 1e-12
    assert np.linalg.norm(fa + fb - (a + b).embed()) < 1e-12
    assert np.linalg.norm(fa.conj().T - a.adjoint().embed()) < 1e-12
    assert np.linalg.norm(fa - a.embed()) == 0.0


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (7, 2), (5, 3)], ids=str)
def test_monomial_embed_matches_the_dense_embedding(pe):
    from gfharmonic import frobenius, heisenberg
    from gfharmonic.gf import make_field
    field = make_field(*pe)
    q, ring = field.order, heisenberg.ring_for(field)
    rng = np.random.default_rng(q)
    labels = rng.integers(q, size=(2, 2, 3))
    family = Monomial(ring, rng.permuted(np.tile(np.arange(q), (2, 3, 1)), axis=-1),
                      rng.integers(ring.order, size=(2, 3, q)))
    cases = [family, family[1, 2], heisenberg.displacement_monomial(field, *labels),
             heisenberg.displacement_monomial(field, 1, 2),
             Monomial.permutation(ring, rng.permutation(q)),  # all phases zero
             heisenberg.parity_monomial(field), frobenius.frobenius_monomial(field)]
    for mono in cases:
        got, lead = mono.embed(), mono.perm.shape[:-1]
        assert got.shape == lead + (q, q) and got.dtype == complex
        for at in np.ndindex(lead):
            assert np.abs(got[at] - mono[at].to_matrix().embed()).max() <= 1e-12


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
    t, ms = t.rows, [m.rows for m in ms]
    for n in range(8):
        for m in range(8):
            want = (ms[0][n % 2][m % 2]
                    * ms[1][(n // 2) % 2][(m // 2) % 2]
                    * ms[2][n // 4][m // 4])
            assert t[n][m] == want


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


def packed_product(ring, a_rows, b_rows):
    return ring.unpack(ring.matmul(ring.pack(a_rows), ring.pack(b_rows)))


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
    assert as_tuples(packed_product(ring, a, b)) == as_tuples(reference_matmul(ring, a, b))
    zero = OperatorMatrix.zeros(ring, dim).rows
    assert as_tuples(packed_product(ring, zero, b)) == as_tuples(reference_matmul(ring, zero, b))
    assert as_tuples(packed_product(ring, a, zero)) == as_tuples(zero)


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
    lifted = (ring.scalar(vec) * sqrt_char(ring) ** extra_exp).coeffs
    respelled = ring.scalar([extra_denom * c for c in lifted],
                            scale_exp + extra_exp, denom * extra_denom)
    x = ring.scalar(vec, scale_exp, denom)
    assert (respelled.coeffs, respelled.scale_exp, respelled.denom) == \
        (x.coeffs, x.scale_exp, x.denom)


# -- differential checks of the packed representation ------------------------

def coprime_denoms(p):
    return [d for d in (1, 2, 3, 4, 6) if d % p]


def raw_packed(ring, dim, rng, bound):
    """A packed triple (data, E, Q) that is not in normal form: each entry is
    a random vector times sqrt(p)^k and a divisor of Q, with zeros mixed in,
    so unpacking strips a different number of sqrt(p) per entry."""
    p = ring.char
    e, q = 4, math.lcm(*coprime_denoms(p))
    sqrt = sqrt_char(ring)
    entries = []
    for _ in range(dim * dim):
        if rng.random() < 0.2:
            entries.append([0] * ring.degree)
            continue
        vec = [rng.randint(-bound, bound) for _ in range(ring.degree)]
        lifted = (ring.scalar(vec) * sqrt ** rng.randint(0, e)).coeffs
        mult = rng.choice([d for d in coprime_denoms(p) if q % d == 0])
        entries.append([mult * c for c in lifted])
    top = max(abs(c) for vec in entries for c in vec)
    dtype = np.int64 if top < 2 ** 63 else object
    return np.array(entries, dtype=dtype).reshape(dim, dim, ring.degree), e, q


@pytest.fixture(params=["one_block", "small_blocks"])
def blocks(request, monkeypatch):
    """Run a packed kernel in one vectorised block, and in blocks of 3 entries."""
    if request.param == "small_blocks":
        monkeypatch.setattr(cyclo, "BLOCK_ENTRIES", 3)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 2 ** 50, 10 ** 30])
def test_unpack_matches_per_entry_scalar(order, char, bound, blocks):
    # 2^50 stays int64 in the array but not through the sqrt(p) strip, and
    # 10^30 starts past the int64 bound.
    ring = get_ring(order, char)
    rng = random.Random(order * 7 + bound % 991)
    data, e, q = raw_packed(ring, 4, rng, bound)
    want = [[ring.scalar(data[i, j].tolist(), e, q) for j in range(4)]
            for i in range(4)]
    got = ring.unpack((data, e, q))
    assert as_tuples(got) == as_tuples(want)
    assert all(type(c) is int for row in got for x in row for c in x.coeffs)
    # pack is the inverse of unpack on canonical entries
    rows = mixed_matrix(ring, 4, rng, bound, zero_rows=(2,))
    assert as_tuples(ring.unpack(ring.pack(rows))) == as_tuples(rows)


def reference_monomial_rows(mono, rows, side):
    """Per-entry times_root products, as the monomial methods once did."""
    n = mono.dim
    inv = [0] * n
    for m, k in enumerate(mono.perm):
        inv[k] = m
    ph = mono.phase
    if side == "left":
        return [[rows[inv[i]][j].times_root(ph[inv[i]]) for j in range(n)]
                for i in range(n)]
    if side == "right":
        return [[rows[i][mono.perm[j]].times_root(ph[j]) for j in range(n)]
                for i in range(n)]
    return [[rows[inv[i]][inv[j]].times_root(ph[inv[i]] - ph[inv[j]])
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 2 ** 58, 10 ** 30])
def test_packed_monomial_products_match_times_root(order, char, bound, blocks):
    # 2^58 fits int64 as data but not through a root product
    ring = get_ring(order, char)
    rng = random.Random(order + bound % 983)
    dim = 5
    rows = mixed_matrix(ring, dim, rng, bound, zero_rows=(0,))
    a = OperatorMatrix(dim, "exact", ring, rows)
    perm = list(range(dim))
    rng.shuffle(perm)
    mono = Monomial(ring, perm, [rng.randrange(order) for _ in range(dim)])
    for side, got in (("left", mono.left_mul_dense(a)),
                      ("right", mono.right_mul_dense(a)),
                      ("conjugate", mono.conjugate_dense(a))):
        want = reference_monomial_rows(mono, rows, side)
        assert as_tuples(got.rows) == as_tuples(want), side
        assert got.equals(OperatorMatrix(dim, "exact", ring, want)), side
    adj = [[rows[j][i].conj() for j in range(dim)] for i in range(dim)]
    assert as_tuples(a.adjoint().rows) == as_tuples(adj)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
def test_equals_separates_coefficient_scale_and_denominator(order, char):
    ring = get_ring(order, char)
    rng = random.Random(order)
    rows = mixed_matrix(ring, 4, rng, 5)
    rows[0][0] = ring.one  # keeps (data, E, Q) in normal form for any E, Q
    a = OperatorMatrix(4, "exact", ring, rows)
    data, e, q = a.packed
    assert a.equals(OperatorMatrix.from_packed(ring, (data.copy(), e, q)))
    bumped = data.copy()
    bumped[3, 2, ring.degree - 1] += 1
    variants = {
        "coefficient": (bumped, e, q),
        "scale": (data, e + 1, q),
        "denominator": (data, e, q * 2 if ring.char != 2 else q * 3),
    }
    for what, packed in variants.items():
        b = OperatorMatrix.from_packed(ring, packed)
        assert not a.equals(b), what
        assert not b.equals(a), what
        # the entrywise comparison agrees
        assert any(x != y for ra, rb in zip(a.rows, b.rows)
                   for x, y in zip(ra, rb)), what


def test_fourier_matrix_differs_from_its_adjoint():
    from gfharmonic.fourier import fourier_matrix
    from gfharmonic.gf import make_field
    f = fourier_matrix(make_field(3, 2))
    assert not f.equals(f.adjoint())
    assert f.equals(f.adjoint().adjoint())
    assert f.is_unitary()
    assert not f.scaled(f.ring.from_int(2)).is_unitary()


def test_operator_matrix_is_immutable(ring):
    a = random_matrix(ring, 3, 25)
    with pytest.raises(TypeError):
        a.rows[0][0] = ring.one
    b = OperatorMatrix.from_packed(ring, a.packed)
    with pytest.raises(TypeError):
        b.rows[1][1] = ring.one
    with pytest.raises(ValueError):
        b.packed[0][0, 0, 0] += 1
    assert b.equals(a)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 10 ** 30])
def test_packed_product_is_in_normal_form(order, char, bound):
    # equality compares packed triples, so a product must come out with the
    # same (data, E, Q) as the packing of its canonical entries
    ring = get_ring(order, char)
    rng = random.Random(order * 31 + bound % 977)
    a = mixed_matrix(ring, 4, rng, bound)
    b = mixed_matrix(ring, 4, rng, bound)
    got_data, got_e, got_q = ring.matmul(ring.pack(a), ring.pack(b))
    want_data, want_e, want_q = ring.pack(reference_matmul(ring, a, b))
    assert (got_e, got_q) == (want_e, want_q)
    assert np.array_equal(got_data, want_data)
    half = OperatorMatrix.identity(ring, 4).scaled(ring.rational(1, 2))
    double = OperatorMatrix.identity(ring, 4).scaled(ring.from_int(2))
    assert (half @ double).equals(OperatorMatrix.identity(ring, 4))


# -- packed proportionality phase against the per-entry loop ----------------

def reference_proportionality_phase(a, b):
    """The per-entry cross-multiplication loop the packed version replaced."""
    ref = None
    a_rows, b_rows = a.rows, b.rows
    for i in range(a.dim):
        for j in range(a.dim):
            if not b_rows[i][j].is_zero:
                ref = (i, j)
                break
        if ref:
            break
    if ref is None:
        return None
    i0, j0 = ref
    if a_rows[i0][j0].is_zero:
        return None
    a0, b0 = a_rows[i0][j0], b_rows[i0][j0]
    for i in range(a.dim):
        for j in range(a.dim):
            if a_rows[i][j] * b0 != a0 * b_rows[i][j]:
                return None
    phase = a0 / b0
    if phase * phase.conj() != a.ring.one:
        return None
    return phase


def same_phase(got, want):
    if want is None:
        return got is None
    return (got is not None and (got.coeffs, got.scale_exp, got.denom)
            == (want.coeffs, want.scale_exp, want.denom))


def proportionality_cases():
    from gfharmonic.frobenius import frobenius_monomial
    from gfharmonic.gf import make_field
    from gfharmonic.hilbert import ring_for
    from gfharmonic.symplectic import closed_form_matrix, enumerate_group, synthesize

    field = make_field(3, 2, [2, 1, 1])
    ring = ring_for(field)
    g = frobenius_monomial(field)
    cases = []
    valid = []
    for row in enumerate_group(field):
        r, s, t, _ = (field.element(int(x)) for x in row)
        if not (r.is_zero or t.is_zero or (s * t + 1).is_zero):
            valid.append(row)
    for row in valid[::97][:4]:
        built = synthesize(field, row)
        cases.append((built, closed_form_matrix(field, row)))
        cases.append((g.conjugate_dense(built),
                      synthesize(field, [field.element(int(x)).frobenius(1).index
                                         for x in row])))
    built = cases[0][0]
    zero = OperatorMatrix.zeros(ring, field.order)
    rows = [list(row) for row in built.rows]
    rows[4][7] = rows[4][7].times_root(3)
    one_off = OperatorMatrix(field.order, "exact", ring, rows)
    cases += [(zero, built), (built, zero), (zero, zero), (built, one_off),
              (one_off, built), (built.scaled(ring.rational(3, 2)), built),
              (built.scaled(sqrt_char(ring)), built),
              (built.scaled(ring.root(5)), built)]
    return cases


def test_packed_proportionality_phase_matches_entry_loop():
    cases = proportionality_cases()
    verdicts = []
    for a, b in cases:
        want = reference_proportionality_phase(a, b)
        assert same_phase(proportionality_phase(a, b), want)
        verdicts.append(want is not None)
    # both outcomes occur: the closed-form and Frobenius pairs and the root
    # multiple are proportional; zero, one-entry and non-unit cases are not
    assert verdicts == [True] * 8 + [False] * 7 + [True]


def test_operator_matrix_rejects_ndarray_operands(ring):
    a = random_matrix(ring, 3, 30)
    with pytest.raises(BackendMismatch):
        a.embed() @ a
    with pytest.raises(BackendMismatch):
        random_monomial(ring, 3, 31).apply(np.ones(3))
    with pytest.raises(BackendMismatch):
        random_monomial(ring, 3, 31).apply([ring.one] * 3)
    # a monomial on the left still takes the dense product
    m = random_monomial(ring, 3, 32)
    assert (m @ a).equals(m.to_matrix() @ a)


def test_monomial_from_dense(ring):
    for seed in range(5):
        m = random_monomial(ring, 6, 40 + seed)
        assert from_dense(m.to_matrix()) == m
    ident = OperatorMatrix.identity(ring, 4)
    assert from_dense(ident) == Monomial.identity(ring, 4)
    assert from_dense(ident.scaled(2)) is None
    assert from_dense(ident.scaled(sqrt_char(ring))) is None
    assert from_dense(OperatorMatrix.zeros(ring, 4)) is None
    assert from_dense(random_matrix(ring, 4, 45)) is None
    # one root per column, but two in one row
    rows = [[ring.zero] * 3 for _ in range(3)]
    rows[0][0] = rows[0][1] = rows[2][2] = ring.root(1)
    assert from_dense(OperatorMatrix(3, "exact", ring, rows)) is None
    # the right support, but 1 + zeta is not a root of unity
    rows = [[ring.one + ring.root(1) if n == m else ring.zero for m in range(3)]
            for n in range(3)]
    assert from_dense(OperatorMatrix(3, "exact", ring, rows)) is None


# -- stacks: one triple for a family of same-shape matrices --------------------

def assert_same_triple(got, want):
    assert got[1:] == want[1:]
    assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 2 ** 50, 10 ** 30])
def test_stack_matches_pack_of_joined_rows(order, char, bound):
    # a normal part with mixed (E, Q), a zero part, a part not in normal
    # form and a part whose denominator holds p: the stack is the normal
    # form of all their entries, block after block
    ring = get_ring(order, char)
    p = ring.char
    rng = random.Random(order + bound % 991)
    dim = 4
    mixed = mixed_matrix(ring, dim, rng, bound, zero_rows=(2,))
    raw = raw_packed(ring, dim, rng, bound)
    vecs = [[rng.randint(-bound, bound) for _ in range(ring.degree)] for _ in range(dim * dim)]
    p_den = (np.array(vecs, dtype=object).reshape(dim, dim, -1), 1, 2 * p)
    zero = OperatorMatrix.zeros(ring, dim)
    got = ring.stack([ring.pack(mixed), raw, zero.packed, p_den])
    p_rows = [[ring.scalar(v, 1, 2 * p) for v in vecs[i * dim:(i + 1) * dim]]
              for i in range(dim)]
    want = ring.pack(mixed + list(ring.unpack(raw)) + list(zero.rows) + p_rows)
    assert_same_triple(got, want)
    assert_same_triple(ring.stack([zero.packed]), zero.packed)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 10 ** 30])
def test_batched_matmul_matches_per_block_products(order, char, bound):
    ring = get_ring(order, char)
    rng = random.Random(order * 7 + bound % 89)
    lefts = [ring.pack(mixed_matrix(ring, 3, rng, bound)) for _ in range(4)]
    rights = [ring.pack(mixed_matrix(ring, 3, rng, bound)) for _ in range(4)]
    (ad, ea, qa), (bd, eb, qb) = ring.stack(lefts), ring.stack(rights)
    got, e, q = ring.matmul((ad.reshape(4, 3, 3, -1), ea, qa), (bd.reshape(4, 3, 3, -1), eb, qb))
    want = ring.stack([ring.matmul(a, b) for a, b in zip(lefts, rights)])
    assert_same_triple((got.reshape(12, 3, -1), e, q), want)
    # a leading axis of one broadcasts: the same left factor for every block
    got, e, q = ring.matmul((lefts[0][0][None], *lefts[0][1:]),
                            (bd.reshape(4, 3, 3, -1), eb, qb))
    want = ring.stack([ring.matmul(lefts[0], (bd[3 * i:3 * i + 3], eb, qb)) for i in range(4)])
    assert_same_triple((got.reshape(12, 3, -1), e, q), want)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 10 ** 30])
def test_conjugate_takes_either_form(order, char, bound):
    ring = get_ring(order, char)
    rng = random.Random(order * 11 + bound % 83)
    u = OperatorMatrix(4, "exact", ring, mixed_matrix(ring, 4, rng, bound))
    perm = list(range(4))
    rng.shuffle(perm)
    m = Monomial(ring, perm, [rng.randrange(order) for _ in range(4)])
    x = m.to_matrix()
    # a monomial goes through the gather, its dense form through two products
    want = ((u @ x) @ u.adjoint()).packed
    assert_same_triple(conjugate(u, m).packed, want)
    assert_same_triple(conjugate(u, x).packed, want)
    # a mismatch raises the same typed error in either form
    other = get_ring(*DIFF_RINGS[DIFF_RINGS.index((order, char)) - 1])
    for a in (Monomial(other, perm, m.phase % other.order), OperatorMatrix.identity(other, 4)):
        with pytest.raises(BackendMismatch):
            conjugate(u, a)
    for a in (Monomial.identity(ring, 3), OperatorMatrix.identity(ring, 3)):
        with pytest.raises(DimensionMismatch):
            conjugate(u, a)


@pytest.mark.parametrize("order,char", DIFF_RINGS)
def test_outer_matches_entry_products(order, char):
    ring = get_ring(order, char)
    rng = random.Random(order)
    for _ in range(3):
        u, v = ([row[0] for row in mixed_matrix(ring, 5, rng, 2 ** 40)] for _ in range(2))
        want = ring.pack([[x * y.conj() for y in v] for x in u])
        assert_same_triple(outer(state_of(ring, u), state_of(ring, v)).packed, want)


def test_blocks_equal_separates_coefficient_scale_and_denominator(ring):
    a, b = (ring.pack(mixed_matrix(ring, 3, random.Random(s), 3)) for s in (1, 2))
    base = ring.stack([a, b, a])
    assert blocks_equal(ring, [base, base, base], 3).tolist() == [True] * 3
    data = np.array(b[0], dtype=np.int64)
    data[1, 2, 0] += 1
    for changed in [(data, *b[1:]), (b[0], b[1] + 1, b[2]), (b[0], b[1], 5 * b[2])]:
        other = ring.stack([a, changed, a])
        assert blocks_equal(ring, [base, other], 3).tolist() == [True, False, True]
        assert blocks_equal(ring, [other, base, base], 3).tolist() == [True, False, True]


def reference_normalise(ring, data, e, q):
    """The one-strip-at-a-time normalisation the double strip replaced."""
    p = ring.char
    while e >= 1:
        w = ring._times_table(data, "sqrt")
        if (w % p).any():
            break
        data, e = w // p, e - 1
    g = math.gcd(q, int(np.gcd.reduce(data.ravel())))
    if g > 1:
        data, q = data // g, q // g
    return data, e, q


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 10 ** 30])
def test_normalise_matches_single_strips(order, char, bound):
    ring = get_ring(order, char)
    rng = random.Random(order + 5)
    data, e, q = raw_packed(ring, 4, rng, bound)
    lifted = ring._times_table(data, "sqrt")
    for triple in [(data, e, q), (data * ring.char, e + 2, q), (lifted, e + 1, q),
                   (lifted * ring.char, e + 3, 1), (data * ring.char, 1, q), (data, 0, q),
                   (data[:1] * 0, 3, 1)]:
        assert_same_triple(ring._normalise(*triple), reference_normalise(ring, *triple))


def whole_array_strip_normalise(ring, data, e, q):
    """_normalise as it was before the odd sqrt(p) strip tested the first
    entry: one whole-array product with the sqrt(p) table whenever E >= 1."""
    if not data.any():
        return np.zeros(data.shape, dtype=np.int64), 0, 1
    p = ring.char
    while e >= 2 and not (data.flat[:ring.degree] % p).any() and not (data % p).any():
        data, e = data // p, e - 2
    if e >= 1:
        w = ring._times_table(data, "sqrt")
        if not (w % p).any():
            data, e = w // p, e - 1
    if q > 1:
        g = math.gcd(q, int(np.gcd.reduce(data.ravel())))
        if g > 1:
            data, q = data // g, q // g
    return data, e, q


@pytest.mark.parametrize("order,char", DIFF_RINGS)
@pytest.mark.parametrize("bound", [3, 10 ** 30])
def test_normalise_first_entry_strip_matches_whole_array_strip(order, char, bound):
    # random triples at odd and even E, some with a zero first entry, some
    # stored as object, some lifted by sqrt(p) so that the odd strip succeeds
    ring = get_ring(order, char)
    rng = random.Random(order * 7 + bound % 89)
    cases = set()
    for trial in range(48):
        data, _, q = raw_packed(ring, 3, rng, bound)
        e = rng.randint(0, 5)
        if trial % 3 == 1:
            data = ring._times_table(data, "sqrt")
            e = max(e, 1)
        if trial % 4 == 2:
            data = np.array(data, dtype=np.int64 if data.dtype != object else object)
            data.reshape(-1, ring.degree)[0] = 0
        if trial % 5 == 3:
            data = data.astype(object)
        got = ring._normalise(data, e, q)
        assert_same_triple(got, whole_array_strip_normalise(ring, data, e, q))
        first_zero = not data.reshape(-1, ring.degree)[0].any()
        cases.add((e % 2, (e - got[1]) % 2, first_zero, data.dtype == object))
    # at odd E the odd strip both fails and succeeds
    assert {(0, 0), (1, 0), (1, 1)} <= {c[:2] for c in cases}
    assert any(c[2] and c[0] for c in cases) and any(c[3] for c in cases)
