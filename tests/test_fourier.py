import random

import pytest

from gfharmonic.errors import NotADivisor
from gfharmonic.fourier import (component_factorization_check, fourier_matrix,
                                fourier_spectrum, fourier_transform,
                                subfield_fourier,
                                subfield_fourier_power_relation_check)
from gfharmonic.gf import make_field
from gfharmonic.hilbert import inner_product, ring_for, subspace_projector
from gfharmonic.linalg import EXACT, OperatorMatrix, StateVector


def state_of(ring, values):
    """An exact state from its canonical scalar values."""
    values = list(values)
    return StateVector(len(values), EXACT, ring, values)


def point_mass(ring, dim, k):
    return state_of(ring, [ring.one if i == k else ring.zero for i in range(dim)])


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def random_state(field, seed):
    ring = ring_for(field)
    rng = random.Random(seed)
    return state_of(ring, [
        ring.scalar([rng.randint(-2, 2) for _ in range(ring.degree)],
                    rng.randint(0, 2), rng.randint(1, 3))
        for _ in range(field.order)])


def test_zero_row_is_constant(gf9):
    ring = ring_for(gf9)
    f = fourier_matrix(gf9).rows
    const = ring.scalar([1, 0, 0, 0], 2)  # 9^(-1/2) = 1/3
    assert all(f[0][m] == const for m in range(9))
    assert all(f[n][0] == const for n in range(9))


def test_fourth_power_and_unitarity(gf9):
    ring = ring_for(gf9)
    f = fourier_matrix(gf9)
    ident = OperatorMatrix.identity(ring, 9)
    assert (f @ f.adjoint()).equals(ident)
    f2 = f @ f
    assert (f2 @ f2).equals(ident)


def test_entries_galois_symmetric(gf9):
    f = fourier_matrix(gf9).rows
    for n in range(9):
        for m in range(9):
            assert f[n][m] == f[gf9.frobenius_index(n)][
                gf9.frobenius_index(m)]


def test_transform_point_mass_and_period(gf9):
    ring = ring_for(gf9)
    delta = point_mass(ring, 9, 0)
    out = fourier_transform(gf9, delta)
    const = ring.scalar([1, 0, 0, 0], 2)
    assert all(v == const for v in out.values)
    chi = random_state(gf9, 1)
    four = chi
    for _ in range(4):
        four = fourier_transform(gf9, four)
    assert four.equals(chi)


def test_parseval(gf9):
    chi = random_state(gf9, 2)
    out = fourier_transform(gf9, chi)
    assert inner_product(out, out) == inner_product(chi, chi)


def test_transform_matches_phi_overlap(gf9):
    from gfharmonic.hilbert import phi_basis
    chi = random_state(gf9, 3)
    out = fourier_transform(gf9, chi).values
    for n in range(9):
        assert out[n] == inner_product(phi_basis(gf9, n), chi)


def test_component_factorization(gf9):
    rep = component_factorization_check(gf9)
    assert rep["factorization_dual_std"]
    assert rep["factorization_std_dual"]
    assert rep["naive_differs"]
    n, m, t, e_naive = rep["witness"]
    assert t != e_naive
    # oracle recomputation of the witness entry
    assert gf9.trace_index(gf9.mul_index(n, m)) == t
    std_n = gf9.coeffs_of(n)
    std_m = gf9.coeffs_of(m)
    assert sum(a * b for a, b in zip(std_n, std_m)) % 3 == e_naive


def test_factorization_trivial_for_prime_field():
    f = make_field(5, 1)
    rep = component_factorization_check(f)
    assert rep["factorization_dual_std"] and rep["factorization_std_dual"]


def test_subfield_fourier_gf9(gf9):
    ring = ring_for(gf9)
    sub = subfield_fourier(gf9, 1).rows
    # prime-field transform on the block of indices 0, 1, 2: 3^(-1/2) omega^(n m)
    for n in range(9):
        for m in range(9):
            want = ring.scalar(ring.omega(n * m).coeffs, 1) if max(n, m) < 3 else ring.zero
            assert sub[n][m] == want
    block = fourier_matrix(gf9, 1)
    assert block.dim == 3
    assert all(block.rows[n][m] == sub[n][m] for n in range(3) for m in range(3))
    assert subfield_fourier(gf9, 2).equals(fourier_matrix(gf9))
    assert fourier_matrix(gf9, 2).equals(fourier_matrix(gf9))
    with pytest.raises(NotADivisor):
        subfield_fourier(gf9, 3)
    with pytest.raises(NotADivisor):
        fourier_matrix(gf9, 3)


@pytest.mark.parametrize("p,ell,d", [(3, 2, 1), (3, 3, 1), (2, 4, 2)])
def test_subfield_fourier_projector_algebra(p, ell, d):
    f = make_field(p, ell)
    sub_f = subfield_fourier(f, d)
    pi = subspace_projector(f, d)
    assert (sub_f @ sub_f.adjoint()).equals(pi)
    s2 = sub_f @ sub_f
    assert (s2 @ s2).equals(pi)
    # the same laws on the p^d block, against the block's identity
    block, ident = fourier_matrix(f, d), OperatorMatrix.identity(ring_for(f), f.p ** d)
    assert (block @ block.adjoint()).equals(ident)
    b2 = block @ block
    assert (b2 @ b2).equals(ident)


def test_power_relation_gf9(gf9):
    ring = ring_for(gf9)
    rep = subfield_fourier_power_relation_check(gf9, 1)
    assert rep["holds"] and rep["power"] == 2
    # frozen block oracle: (1/3) omega^(2 n m) on the prime subfield
    f = fourier_matrix(gf9).rows
    for n in range(3):
        for m in range(3):
            want = ring.scalar(ring.omega(2 * n * m).coeffs, 2)
            assert f[n][m] == want
    assert subfield_fourier_power_relation_check(gf9, 2)["holds"]


def test_power_relation_gf27_trace_degeneracy():
    # ell/d = p forces a constant subfield block 27^(-1/2)
    f = make_field(3, 3)
    ring = ring_for(f)
    rep = subfield_fourier_power_relation_check(f, 1)
    assert rep["holds"] and rep["power"] == 3
    fmat = fourier_matrix(f).rows
    const = ring.scalar([1, 0, 0, 0], 3)
    for n in range(3):
        for m in range(3):
            assert fmat[n][m] == const


def test_spectrum_algebra(gf9):
    ring = ring_for(gf9)
    spec = fourier_spectrum(gf9)
    ident = OperatorMatrix.identity(ring, 9)
    zero = OperatorMatrix.zeros(ring, 9)
    total = spec.projectors[0]
    for pr in spec.projectors[1:]:
        total = total + pr
    assert total.equals(ident)
    for r in range(4):
        for s in range(4):
            want = spec.projectors[r] if r == s else zero
            assert (spec.projectors[r] @ spec.projectors[s]).equals(want)
    f = fourier_matrix(gf9)
    i_unit = ring.imag_unit()
    recon = (spec.projectors[0] + spec.projectors[1].scaled(i_unit)
             - spec.projectors[2] - spec.projectors[3].scaled(i_unit))
    assert recon.equals(f)
    assert (f @ spec.projectors[1]).equals(spec.projectors[1].scaled(i_unit))
    assert sum(spec.ranks) == 9
