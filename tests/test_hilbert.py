import random

import pytest

from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import make_field
from gfharmonic.hilbert import (inner_product, phi_basis, phi_basis_matrix,
                                point_projector, ring_for,
                                subspace_projector, tensor_factorize_phi)
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


def test_point_projectors_gf3():
    f = make_field(3, 1)
    ring = ring_for(f)
    q0 = point_projector(f, 0).rows
    for n in range(3):
        for m in range(3):
            want = ring.one if n == m == 0 else ring.zero
            assert q0[n][m] == want


def test_point_projector_algebra(gf9):
    ring = ring_for(gf9)
    total = point_projector(gf9, 0)
    for k in range(1, 9):
        total = total + point_projector(gf9, k)
    assert total.equals(OperatorMatrix.identity(ring, 9))
    q2 = point_projector(gf9, 2)
    qe = point_projector(gf9, gf9.generator)
    assert (q2 @ qe).equals(OperatorMatrix.zeros(ring, 9))
    assert (q2 @ q2).equals(q2)


def test_subspace_projectors(gf9):
    ring = ring_for(gf9)
    assert subspace_projector(gf9, 2).equals(OperatorMatrix.identity(ring, 9))
    pi1 = subspace_projector(gf9, 1)
    pi1_rows = pi1.rows
    for i in range(9):
        want = ring.one if i < 3 else ring.zero
        assert pi1_rows[i][i] == want
    assert (pi1 @ pi1).equals(pi1)
    assert pi1.adjoint().equals(pi1)


def test_nested_subspace_projectors():
    f = make_field(3, 4)
    pi1 = subspace_projector(f, 1)
    pi2 = subspace_projector(f, 2)
    assert (pi1 @ pi2).equals(pi1)
    assert (pi2 @ pi1).equals(pi1)


def test_phi_basis_orthonormal_and_complete(gf9):
    ring = ring_for(gf9)
    phis = [phi_basis(gf9, n) for n in range(9)]
    for n in range(9):
        for r in range(9):
            want = ring.one if n == r else ring.zero
            assert inner_product(phis[n], phis[r]) == want
    # completeness: sum_n conj(phi_n(m)) phi_n(k) = delta(m, k)
    values = [phi.values for phi in phis]
    for m in range(9):
        for k in range(9):
            total = ring.zero
            for n in range(9):
                total = total + values[n][m].conj() * values[n][k]
            assert total == (ring.one if m == k else ring.zero)


def test_phi_zero_is_constant(gf9):
    phi0 = phi_basis(gf9, 0).values
    assert all(v == phi0[0] for v in phi0)


def test_phi_galois_covariance(gf9):
    # phi_n(m) = phi_{n^p}(m^p) for all 81 pairs
    phis = [phi_basis(gf9, n).values for n in range(9)]
    for n in range(9):
        np_ = gf9.frobenius_index(n)
        for m in range(9):
            assert phis[n][m] == phis[np_][gf9.frobenius_index(m)]


def test_phi_matrix_is_fourier_adjoint(gf9):
    mat = phi_basis_matrix(gf9)
    assert mat.is_unitary()
    assert mat.equals(fourier_matrix(gf9).adjoint())


def test_point_mass_inner_products(gf9):
    ring = ring_for(gf9)
    deltas = [point_mass(ring, 9, k) for k in range(9)]
    for k in range(9):
        for m in range(9):
            want = ring.one if k == m else ring.zero
            assert inner_product(deltas[k], deltas[m]) == want


def test_random_norm_nonnegative(gf9):
    ring = ring_for(gf9)
    rng = random.Random(3)
    chi = state_of(ring, [
        ring.scalar([rng.randint(-2, 2) for _ in range(4)]) for _ in range(9)])
    nrm = inner_product(chi, chi)
    assert nrm == nrm.conj()
    assert complex(nrm).real >= 0


def test_tensor_factorize_phi_zero(gf9):
    factors = tensor_factorize_phi(gf9, 0)
    assert len(factors) == 2
    for fac in factors:
        values = fac.values
        assert all(v == values[0] for v in values)


def test_tensor_factorize_phi_both_pairings(gf9):
    # phi_n(m) = prod_l factor_{dual n_l}(std m_l) = prod_l phi-comp of
    # (std n_l) at (dual m_l)
    from gfharmonic.hilbert import component_character
    for n in (gf9.generator.index, 5, 8):
        phi = phi_basis(gf9, n).values
        factors = [fac.values for fac in tensor_factorize_phi(gf9, n)]
        std_n, dual_n = gf9.components(n)
        swapped = [component_character(gf9, a).values for a in std_n]
        for m in range(9):
            std_m, dual_m = gf9.components(m)
            prod = factors[0][std_m[0]] * factors[1][std_m[1]]
            assert prod == phi[m]
            prod2 = swapped[0][dual_m[0]] * swapped[1][dual_m[1]]
            assert prod2 == phi[m]
