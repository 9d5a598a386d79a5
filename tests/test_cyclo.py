import cmath
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfharmonic import cyclo
from gfharmonic.cyclo import (CycloScalar, ScalarAccumulator,
                              cyclotomic_polynomial, get_ring, ring_order)
from gfharmonic.errors import BackendMismatch, DivisionByZero


def sqrt_char(ring):
    """sqrt(p) as an exact scalar: p times p^(-1/2), in canonical form."""
    return ring.scalar([ring.char] + [0] * (ring.degree - 1), 1)


def omega_exponent(ring, a):
    """Root exponent k with zeta^k = omega^a."""
    return a % ring.char * (ring.order // ring.char)


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_ring_order_covers_required_roots():
    assert ring_order(3, 2) == 12
    assert ring_order(3, 3) == 12
    assert ring_order(5, 2) == 20
    assert ring_order(7, 1) == 28
    # characteristic 2 needs the eighth root of unity for sqrt(2)
    assert ring_order(2, 1) % 8 == 0
    assert ring_order(2, 3) % 8 == 0


@pytest.fixture(scope="module")
def ring3():
    return get_ring(12, 3)


def test_character_sum_vanishes(ring3):
    w = ring3.omega(1)
    assert w + w * w + 1 == ring3.zero


def test_imaginary_unit_squares_to_minus_one(ring3):
    i = ring3.imag_unit()
    assert i * i == ring3.from_int(-1)


def test_norm_of_one_plus_two_omega(ring3):
    x = ring3.from_int(1) + 2 * ring3.omega(1)
    assert x * x.conj() == 3


def test_embeddings(ring3):
    w = ring3.omega(1)
    assert cmath.isclose(complex(w), cmath.exp(2j * cmath.pi / 3),
                         abs_tol=1e-12)
    x = ring3.from_int(1) + 2 * ring3.omega(1)
    assert cmath.isclose(complex(x), 1j * math.sqrt(3), abs_tol=1e-12)
    third = ring3.scalar([1, 0, 0, 0], scale_exp=2)
    assert cmath.isclose(complex(third), 1 / 3, abs_tol=1e-15)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sqrt_char_squares_to_char(p):
    ring = get_ring(ring_order(p, 1), p)
    s = sqrt_char(ring)
    assert (s.scale_exp, s.denom) == (0, 1)  # the ring holds sqrt(p) itself
    assert s * s == p
    assert cmath.isclose(complex(s), math.sqrt(p), abs_tol=1e-12)


def test_unpack_past_int64_denominator():
    # Q = 2^70 + 1 = 5^2 * ... is past int64: the gcd of each row with Q
    # runs on Python ints, and rows divisible by 5 or 25 reduce it
    ring = get_ring(ring_order(3, 2), 3)
    q = 2 ** 70 + 1
    rng = random.Random(5)
    data = np.array([[[rng.randint(-9, 9) for _ in range(ring.degree)] for _ in range(3)]
                     for _ in range(2)])
    data[0, 1] *= 25
    data[1, 0] *= 5
    data[1, 2] = 0
    for e in (0, 1, 2):
        rows = ring.unpack((data, e, q))
        assert rows == tuple(tuple(ring.scalar(data[i, j].tolist(), e, q) for j in range(3))
                             for i in range(2))
    assert {x.denom for row in rows for x in row} == {q, q // 25, q // 5, 1}


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(want)), n


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sqrt_char_gauss_sum_sign_matches_sympy(p):
    # sqrt(p) is built from the quadratic Gauss sum g = sum_k omega^(k^2),
    # which is +sqrt(p) for p = 1 mod 4 and +i sqrt(p) for p = 3 mod 4
    sympy = pytest.importorskip("sympy")
    ring = get_ring(ring_order(p, 1), p)
    g = ring.sum_of_roots(omega_exponent(ring, k * k) for k in range(p))
    g_sympy = sum(sympy.exp(2 * sympy.pi * sympy.I * k * k / p) for k in range(p))
    assert cmath.isclose(complex(g), complex(sympy.N(g_sympy, 30)), abs_tol=1e-9)
    unit = 1 if p % 4 == 1 else ring.imag_unit()
    assert g == sqrt_char(ring) * unit
    assert cmath.isclose(complex(sqrt_char(ring)), float(sympy.sqrt(p)),
                         abs_tol=1e-12)


def test_half_scale_arithmetic(ring3):
    inv_sqrt = ring3.scalar([1, 0, 0, 0], scale_exp=1)
    assert inv_sqrt * inv_sqrt == ring3.rational(1, 3)
    assert sqrt_char(ring3) * inv_sqrt == ring3.one
    # adding scalars of mixed scale parity stays exact
    mixed = ring3.one + inv_sqrt
    assert mixed - inv_sqrt == ring3.one


def test_canonical_form_is_unique(ring3):
    # all p factors live in the scale exponent, none in the denominator
    assert ring3.rational(1, 3) == ring3.scalar([1, 0, 0, 0], 2, 1)
    assert ring3.scalar([3, 0, 0, 0], 2, 1) == ring3.scalar([1, 0, 0, 0], 0, 1)
    assert ring3.scalar([2, 0, 0, 0], 0, 6) == ring3.rational(1, 3)
    assert ring3.scalar([0, 0, 0, 0], 5, 7) == ring3.zero
    assert ring3.zero.scale_exp == 0 and ring3.zero.denom == 1


def test_conjugation_is_involution_and_ring_map(ring3):
    rng = random.Random(7)
    for _ in range(50):
        a = ring3.scalar([rng.randint(-3, 3) for _ in range(4)],
                         rng.randint(0, 2), rng.randint(1, 4))
        b = ring3.scalar([rng.randint(-3, 3) for _ in range(4)],
                         rng.randint(0, 2), rng.randint(1, 4))
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_embedding_is_ring_homomorphism():
    # spec-level invariant: 10^3 random pairs at 1e-12
    for order, p in ((12, 3), (20, 5)):
        ring = get_ring(order, p)
        rng = random.Random(order)
        for _ in range(500):
            a = ring.scalar([rng.randint(-2, 2) for _ in range(ring.degree)],
                            rng.randint(0, 2), rng.randint(1, 3))
            b = ring.scalar([rng.randint(-2, 2) for _ in range(ring.degree)],
                            rng.randint(0, 2), rng.randint(1, 3))
            assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-12
            assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-12


def test_exact_inverse(ring3):
    rng = random.Random(11)
    for _ in range(30):
        vec = [rng.randint(-3, 3) for _ in range(4)]
        if not any(vec):
            vec[0] = 1
        x = ring3.scalar(vec, rng.randint(0, 2), rng.randint(1, 3))
        assert x * x.inverse() == ring3.one
    with pytest.raises(DivisionByZero):
        ring3.zero.inverse()


def test_power_and_division(ring3):
    w = ring3.omega(1)
    assert w ** 3 == ring3.one
    assert w ** 0 == ring3.one
    x = ring3.from_int(2) + w
    assert (x ** 3) == x * x * x
    assert x / x == ring3.one
    assert w ** -1 == w.conj()


def test_sum_of_roots(ring3):
    # omega + omega^2 + 1 over exponent list
    step = 12 // 3
    val = ring3.sum_of_roots([0, step, 2 * step])
    assert val == ring3.zero
    val = ring3.sum_of_roots([0, 0, step], scale_exp=2)
    assert val == (ring3.from_int(2) + ring3.omega(1)) * ring3.rational(1, 3)


def test_accumulator_matches_naive_sum(ring3):
    rng = random.Random(13)
    xs = [ring3.scalar([rng.randint(-2, 2) for _ in range(4)],
                       rng.randint(0, 3), rng.randint(1, 4)) for _ in range(25)]
    acc = ScalarAccumulator(ring3)
    total = ring3.zero
    for x in xs:
        acc.add(x)
        total = total + x
    assert acc.value() == total


def test_rings_do_not_mix():
    a = get_ring(12, 3).one
    b = get_ring(20, 5).one
    with pytest.raises(BackendMismatch):
        a + b


def test_scalar_hash_consistency(ring3):
    a = ring3.rational(1, 3)
    b = ring3.scalar([1, 0, 0, 0], 2, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- hypothesis properties of the scalar ring ---------------------------------

# (ring order, characteristic) -> ring degree 4, 8, 12, 24
PROPERTY_RINGS = [(12, 3), (20, 5), (28, 7), (52, 13)]


@st.composite
def scalars(draw, ring, nonzero=False):
    vec = draw(st.lists(st.integers(-5, 5), min_size=ring.degree,
                        max_size=ring.degree))
    if nonzero and not any(vec):
        vec[draw(st.integers(0, ring.degree - 1))] = 1
    return ring.scalar(vec, draw(st.integers(0, 3)),
                       draw(st.sampled_from((1, 2, 3, 4, 6))))


@st.composite
def ring_and_scalars(draw, count, nonzero=False):
    ring = get_ring(*draw(st.sampled_from(PROPERTY_RINGS)))
    return ring, [draw(scalars(ring, nonzero)) for _ in range(count)]


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(ring_and_scalars(3))
def test_ring_axioms(rs):
    ring, (a, b, c) = rs
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ring.zero == a
    assert a + (-a) == ring.zero
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ring.one == a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=25, deadline=None)
@given(ring_and_scalars(1, nonzero=True))
def test_inverse_is_exact(rs):
    ring, (x,) = rs
    assert x * x.inverse() == ring.one


@PROPERTY_SETTINGS
@given(ring_and_scalars(2))
def test_conj_is_involutive_ring_homomorphism(rs):
    ring, (a, b) = rs
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert ring.one.conj() == ring.one


@PROPERTY_SETTINGS
@given(ring_and_scalars(2))
def test_complex_embedding_is_homomorphism(rs):
    ring, (a, b) = rs
    assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-9
    assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
    assert abs(complex(a.conj()) - complex(a).conjugate()) < 1e-9


# -- the exact product ladder: float64, int64 and Python-int products ---------
#
# Every integer product of the packed kernels runs on the rung that its bound
# picks: float64 BLAS below 2^53, int64 up to 2^63 - 1, Python ints past it.
# Each property forces one rung by the operand magnitude and compares with
# the same values computed in Python ints, one scalar at a time, so the three
# rungs agree with each other.

RUNGS = ("float64", "int64", "object")
RUNG_TOP = {"float64": 2 ** 53 - 1, "int64": cyclo.INT64_MAX, "object": 2 ** 90}
LADDER_SETTINGS = settings(max_examples=30, deadline=None)


def rung(bound):
    return "float64" if bound < 2 ** 53 else "int64" if bound <= cyclo.INT64_MAX else "object"


@contextmanager
def recorded_bounds():
    """The bound of every exact product taken inside the block, in order."""
    bounds = []
    product = cyclo._exact_matmul

    def spy(a, b, bound):
        bounds.append(bound)
        return product(a, b, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclo, "_exact_matmul", spy)
        yield bounds


@st.composite
def int_arrays(draw, shape, top):
    """An integer array of the given shape whose largest |entry| is top."""
    values = draw(st.lists(st.integers(-top, top), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    values[0] = draw(st.sampled_from((top, -top)))
    dtype = np.int64 if top <= cyclo.INT64_MAX else object
    return np.array(values, dtype=dtype).reshape(shape)


def python_product(ring, ad, bd):
    """Coefficient vectors of the matrix product, entry by entry in Python ints."""
    a, b = ad.tolist(), bd.tolist()
    inner, m = bd.shape[:2]
    return [[[sum(c) for c in zip(*(ring._mul(row[k], b[k][j]) for k in range(inner)))]
             for j in range(m)] for row in a]


def packed_scalars(ring, vecs, e, q):
    """Normal-form triple of a matrix of coefficient vectors at (e, q), as lists."""
    data, e, q = ring.pack([[ring.scalar(v, e, q) for v in row] for row in vecs])
    return data.tolist(), e, q


def as_lists(packed):
    data, e, q = packed
    assert data.dtype in (np.int64, object)
    return data.tolist(), e, q


@LADDER_SETTINGS
@given(ring_key=st.sampled_from(PROPERTY_RINGS), path=st.sampled_from(RUNGS),
       dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       e=st.integers(0, 2), q=st.sampled_from((1, 2, 4)), data=st.data())
def test_matmul_rungs_agree_with_python_ints(ring_key, path, dims, e, q, data):
    ring = get_ring(*ring_key)
    n, inner, m = dims
    deg, t_max = ring.degree, ring._tables()["roots"][1]
    top = math.isqrt(RUNG_TOP[path] // (inner * deg * deg * t_max))
    ad = data.draw(int_arrays((n, inner, deg), top))
    bd = data.draw(int_arrays((inner, m, deg), top))
    with recorded_bounds() as bounds:
        got = ring.matmul((ad, e, q), (bd, 0, 1))
    assert rung(bounds[0]) == path
    assert as_lists(got) == packed_scalars(ring, python_product(ring, ad, bd), e, q)


@LADDER_SETTINGS
@given(ring_key=st.sampled_from(PROPERTY_RINGS), path=st.sampled_from(RUNGS),
       name=st.sampled_from(("sqrt", "conj")), rows=st.integers(1, 5), data=st.data())
def test_times_table_rungs_agree_with_python_ints(ring_key, path, name, rows, data):
    ring = get_ring(*ring_key)
    table, t_max = ring._tables()[name]
    vecs = data.draw(int_arrays((rows, ring.degree), RUNG_TOP[path] // (ring.degree * t_max)))
    with recorded_bounds() as bounds:
        got = ring._times_table(vecs, name)
    assert rung(bounds[0]) == path
    assert got.dtype in (np.int64, object)
    cols = list(zip(*table.tolist()))
    assert got.tolist() == [[sum(x * t for x, t in zip(row, col)) for col in cols]
                            for row in vecs.tolist()]


@LADDER_SETTINGS
@given(ring_key=st.sampled_from(PROPERTY_RINGS), path=st.sampled_from(RUNGS),
       slots=st.integers(1, 3), e=st.integers(0, 2), q=st.sampled_from((1, 2, 4)),
       data=st.data())
def test_root_sum_rungs_agree_with_python_ints(ring_key, path, slots, e, q, data):
    ring = get_ring(*ring_key)
    n, deg = ring.order, ring.degree
    dest = np.array(data.draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=6)))
    roots = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(dest),
                                        max_size=len(dest))))
    per_slot = int(np.bincount(dest).max())
    top = RUNG_TOP[path] // (n * ring._tables()["roots"][1] * per_slot)
    vecs = data.draw(int_arrays((len(dest), deg), top))
    with recorded_bounds() as bounds:
        got = ring.root_sum(vecs, roots, dest, (1, slots), e, q)
    assert rung(bounds[0]) == path
    acc = [[0] * deg for _ in range(slots)]
    for vec, k, s in zip(vecs.tolist(), roots.tolist(), dest.tolist()):
        acc[s] = [x + y for x, y in zip(acc[s], ring._substitute(vec, 1, k))]
    assert as_lists(got) == packed_scalars(ring, [acc], e, q)


@pytest.mark.parametrize("top,path", [(2 ** 24 + 1, "float64"), (2 ** 27 + 1, "int64")])
def test_matmul_on_each_side_of_2_53(top, path):
    # ring degree 4, where max|T| = 1: the product bound of two 1 x 1 matrices
    # with every coefficient top is 16 top^2, just below 2^53 for top =
    # 2^24 + 1.  For top = 2^27 + 1 the exact product has the odd coefficient
    # -3 top^2, past 2^53, which no float64 holds: it must run in int64.
    ring = get_ring(12, 3)
    assert ring._tables()["roots"][1] == 1
    ad = np.full((1, 1, ring.degree), top, dtype=np.int64)
    want = python_product(ring, ad, ad)
    with recorded_bounds() as bounds:
        got = ring.matmul((ad, 0, 1), (ad, 0, 1))
    assert rung(bounds[0]) == path
    assert as_lists(got) == (want, 0, 1)
    odd_past_2_53 = [c for c in want[0][0] if c % 2 and abs(c) > 2 ** 53]
    assert bool(odd_past_2_53) == (path == "int64")
