import pytest

from gfharmonic.errors import (DegreeMismatch, DivisionByZero, NotADivisor,
                               NotInSubfield, NotPrime, ReducibleModulus)
from gfharmonic.gf import make_field


def brute_force_irreducible(coeffs, p):
    """Independent oracle: trial division over Z_p, ascending coefficients."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True

    def poly_rem(num, den):
        num = [c % p for c in num]
        dn = len(den) - 1
        for k in range(len(num) - 1 - dn, -1, -1):
            c = num[k + dn]
            if c:
                for j, dj in enumerate(den):
                    num[k + j] = (num[k + j] - c * dj) % p
        return num[:dn]

    import itertools
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(poly_rem(list(coeffs), list(tail) + [1])):
                return False
    return True


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [1, 2, 1])  # (x+1)^2
    with pytest.raises(DegreeMismatch):
        make_field(3, 2, [1, 0, 0, 1])


def test_default_moduli_are_lexicographically_smallest():
    assert make_field(3, 1).modulus == (0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 3).modulus == (1, 0, 2, 1)
    # oracle: nothing lexicographically smaller is irreducible
    import itertools
    for p, ell, found in ((3, 2, (1, 0)), (3, 3, (1, 0, 2))):
        for tail in itertools.product(range(p), repeat=ell):
            if tail == found:
                break
            assert not brute_force_irreducible(list(tail) + [1], p)
        assert brute_force_irreducible(list(found) + [1], p)


def test_gf9_canonical_element_listing(gf9):
    # 0, 1, 2, e, 1+e, 2+e, 2e, 1+2e, 2+2e
    listing = [str(e) for e in gf9.elements()]
    assert listing == ["0,0", "1,0", "2,0", "0,1", "1,1", "2,1",
                       "0,2", "1,2", "2,2"]


def test_gf9_arithmetic(gf9):
    eps = gf9.generator
    assert eps * eps == gf9.element([1, 2])
    assert eps ** 3 == gf9.element([2, 2])
    for a in gf9.elements():
        if not a.is_zero:
            assert a * a.inverse() == gf9.one
    with pytest.raises(DivisionByZero):
        gf9.zero.inverse()


def test_element_coercion_and_encoding(gf9):
    assert gf9.element("0,2") == gf9.element([0, 2])
    assert gf9.element("7") == gf9.element(7)
    assert str(gf9.element(7)) == "1,2"
    assert int(gf9.element([1, 2])) == 7
    with pytest.raises(DegreeMismatch):
        gf9.element([1, 2, 0])


def test_frobenius(gf9):
    eps = gf9.generator
    assert eps.frobenius() == gf9.element([2, 2])
    assert eps.frobenius(2) == eps
    for c in range(3):
        assert gf9.element(c).frobenius() == gf9.element(c)
    for m in gf9.elements():
        assert m.frobenius(gf9.ell) == m
        # independent oracle: frobenius is the p-th power
        assert m.frobenius() == m ** 3


@pytest.mark.parametrize("p,ell", [(3, 2), (3, 3), (3, 4), (2, 4)])
def test_frobenius_is_field_automorphism(p, ell):
    f = make_field(p, ell)
    q = f.order
    for a in range(q):
        for b in range(q):
            fa, fb = f.frobenius_index(a), f.frobenius_index(b)
            assert f.frobenius_index(f.add_index(a, b)) == f.add_index(fa, fb)
            assert f.frobenius_index(f.mul_index(a, b)) == f.mul_index(fa, fb)


def test_gf9_traces(gf9):
    assert gf9.generator.trace() == 2
    assert gf9.one.trace() == 2
    assert [gf9.element(i).trace() for i in range(9)] == [0, 2, 1, 2, 1, 0, 1, 0, 2]
    for m in gf9.elements():
        assert m.trace() == m.frobenius().trace()


def test_subfield_trace(gf9):
    assert gf9.subfield_trace(2, 1) == 2
    assert gf9.element(2).trace() == 1  # full trace doubles on the prime field
    assert gf9.subfield_trace(0, 1) == 0
    with pytest.raises(NotInSubfield):
        gf9.subfield_trace(gf9.generator, 1)
    with pytest.raises(NotADivisor):
        gf9.subfield_trace(1, 3)


def test_require_in_subfield(gf9):
    assert gf9.require_in_subfield(2, 1) == gf9.element(2)
    with pytest.raises(NotInSubfield, match=r"label 0,1 is not in GF\(3\^1\)"):
        gf9.require_in_subfield(gf9.generator, 1)
    with pytest.raises(NotInSubfield, match="custom"):
        gf9.require_in_subfield(gf9.generator, 1, "custom")
    with pytest.raises(NotADivisor):
        gf9.require_in_subfield(1, 3)


def test_gf27_prime_subfield_trace_vanishes():
    f = make_field(3, 3)
    for c in range(3):
        assert f.element(c).trace() == 0
        assert f.subfield_trace(c, 1) == c  # subfield trace is the identity here


@pytest.mark.parametrize("p,ell", [(3, 2), (3, 4), (5, 2), (2, 6)])
def test_trace_ratio_over_subfields(p, ell):
    f = make_field(p, ell)
    for d in f.divisors():
        ratio = (ell // d) % p
        for i in f.subfield_indices(d):
            assert f.trace_index(i) == (ratio * f.subfield_trace(i, d)) % p


@pytest.mark.parametrize("p,ell", [(3, 2), (3, 3), (5, 2), (2, 6)])
def test_subfield_trace_not_identically_zero(p, ell):
    f = make_field(p, ell)
    for d in f.divisors():
        assert any(f.subfield_trace(i, d) != 0 for i in f.subfield_indices(d))


def test_gf9_dual_basis(gf9):
    dual = gf9.dual_basis
    assert dual.gram == ((2, 2), (2, 0))
    assert dual.gram_inv == ((0, 2), (2, 1))
    assert dual.elements[0] == gf9.element([0, 2])
    assert dual.elements[1] == gf9.element([2, 1])


def test_prime_field_dual_basis():
    f = make_field(5, 1)
    assert f.dual_basis.gram == ((1,),)
    assert f.dual_basis.elements[0] == f.one


@pytest.mark.parametrize("p,ell", [(3, 2), (3, 3), (5, 2), (7, 1), (2, 4)])
def test_dual_basis_defining_property(p, ell):
    f = make_field(p, ell)
    eps = f.generator
    for k in range(ell):
        for l in range(ell):
            want = 1 if k == l else 0
            assert ((eps ** k) * f.dual_basis.elements[l]).trace() == want


def test_components(gf9):
    std, dual = gf9.components(gf9.element([0, 2]))
    assert std == (0, 2)
    assert dual == (1, 0)
    assert gf9.components(gf9.zero) == ((0, 0), (0, 0))


@pytest.mark.parametrize("p,ell", [(3, 2), (3, 4)])
def test_trace_bilinear_identity(p, ell):
    f = make_field(p, ell)
    for a in range(f.order):
        std_a, dual_a = f.components(a)
        for b in range(f.order):
            std_b, dual_b = f.components(b)
            t = f.trace_index(f.mul_index(a, b))
            assert t == sum(x * y for x, y in zip(std_a, dual_b)) % p
            assert t == sum(x * y for x, y in zip(dual_a, std_b)) % p


def test_component_conversion_through_gram(gf9):
    g = gf9.dual_basis.gram
    ginv = gf9.dual_basis.gram_inv
    for m in range(9):
        std, dual = gf9.components(m)
        assert dual == tuple(sum(g[l][k] * std[k] for k in range(2)) % 3
                             for l in range(2))
        assert std == tuple(sum(ginv[l][k] * dual[k] for k in range(2)) % 3
                            for l in range(2))


def test_subfield_elements(gf9):
    assert [str(e) for e in gf9.subfield_elements(1)] == ["0,0", "1,0", "2,0"]
    assert len(gf9.subfield_elements(2)) == 9
    with pytest.raises(NotADivisor):
        gf9.subfield_elements(3)


def test_subfield_closure_gf81():
    f = make_field(3, 4)
    sub = f.subfield_indices(2)
    assert len(sub) == 9
    sub_set = set(sub)
    for a in sub:
        for b in sub:
            assert f.add_index(a, b) in sub_set
            assert f.mul_index(a, b) in sub_set


def test_galois_group_exponents(gf9):
    assert gf9.galois_group_exponents(2) == [2]
    assert gf9.galois_group_exponents(1) == [1, 2]
    for k in gf9.galois_group_exponents(1):
        for i in gf9.subfield_indices(1):
            assert gf9.frobenius_index(i, k) == i
    f64 = make_field(2, 6)
    assert f64.galois_group_exponents(2) == [2, 4, 6]
    for k in f64.galois_group_exponents(2):
        for i in f64.subfield_indices(2):
            assert f64.frobenius_index(i, k) == i
    with pytest.raises(NotADivisor):
        gf9.galois_group_exponents(4)


def test_field_caching():
    assert make_field(3, 2, [2, 1, 1]) is make_field(3, 2, (2, 1, 1))
    assert make_field(3, 2) is not make_field(3, 2, [2, 1, 1])


def test_field_cache_keys_on_resolved_modulus():
    # the default modulus of GF(9) is x^2 + 1
    default = make_field(3, 2)
    for spelling in ([1, 0, 1], (1, 0), [4, 3, 1], [1, 0, 4]):
        assert make_field(3, 2, spelling) is default
    a = make_field(3, 2, [1, 0, 1])
    assert (a.one + default.one) == default.element(2)


@pytest.mark.parametrize("p,ell", [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_index_arrays_match_scalar_tables(p, ell):
    from gfharmonic.gf import GFField
    field = GFField(p, ell)
    assert field._arrays is None  # built on first use, not with the field
    t = field.tables()
    assert field.tables() is t
    q = field.order
    for a in range(q):
        assert t.neg[a] == field.neg_index(a)
        assert t.trace[a] == field.trace_index(a)
        assert t.inv[a] == (field.inv_index(a) if a else 0)
        for b in range(q):
            assert t.add[a, b] == field.add_index(a, b)
            assert t.mul[a, b] == field.mul_index(a, b)
    for arr in t:
        assert arr.dtype == "int64" and not arr.flags.writeable


def test_check_divisor_is_public(gf9):
    gf9.check_divisor(1)
    gf9.check_divisor(2)
    for d in (0, 3, -1):
        with pytest.raises(NotADivisor):
            gf9.check_divisor(d)
