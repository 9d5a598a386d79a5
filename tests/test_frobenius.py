import random

import pytest

from gfharmonic.errors import NotUnitary
from gfharmonic.fourier import fourier_matrix, fourier_spectrum
from gfharmonic.frobenius import (combined_eigenspace_projector,
                                  conjugated_galois_group,
                                  frobenius_fourier_commutation_check,
                                  frobenius_matrix, frobenius_monomial,
                                  frobenius_spectrum, galois_group_H,
                                  subfield_containment_check)
from gfharmonic.gf import make_field
from gfharmonic.heisenberg import displacement
from gfharmonic.hilbert import ring_for, subspace_projector
from gfharmonic.linalg import EXACT, Monomial, OperatorMatrix, StateVector, conjugate


def state_of(ring, values):
    """An exact state from its canonical scalar values."""
    values = list(values)
    return StateVector(len(values), EXACT, ring, values)


def point_mass(ring, dim, k):
    return state_of(ring, [ring.one if i == k else ring.zero for i in range(dim)])


# Frobenius eigenprojector entries for the pinned GF(9) field, in halves;
# frozen from the worked example (the degree-2 extension pairs indices
# (3,8), (4,6), (5,7) and fixes 0, 1, 2).
PROJ0_HALVES = [
    [2, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1],
]
PROJ1_HALVES = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
    [0, 0, 0, 0, -1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 1],
]


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def test_prime_field_frobenius_is_identity():
    f = make_field(5, 1)
    ring = ring_for(f)
    assert frobenius_matrix(f).equals(OperatorMatrix.identity(ring, 5))


def test_frobenius_operator_basics(gf9):
    ring = ring_for(gf9)
    g = frobenius_matrix(gf9)
    ident = OperatorMatrix.identity(ring, 9)
    assert (g @ g).equals(ident)
    assert (g @ g.adjoint()).equals(ident)
    mono = frobenius_monomial(gf9)
    assert sorted(mono.perm) == list(range(9))
    assert all(ph == 0 for ph in mono.phase)


def test_frobenius_action_on_point_masses(gf9):
    ring = ring_for(gf9)
    mono = frobenius_monomial(gf9)
    for k in range(9):
        moved = mono.apply(point_mass(ring, 9, k))
        target = point_mass(ring, 9, gf9.frobenius_index(k))
        assert moved.equals(target)
    # (G chi)(n) = chi(n^(p^(ell-1))) on a generic vector
    rng = random.Random(5)
    chi = state_of(ring, [
        ring.scalar([rng.randint(-2, 2) for _ in range(4)]) for _ in range(9)])
    moved, chi = mono.apply(chi).values, chi.values
    for n in range(9):
        assert moved[n] == chi[gf9.frobenius_index(n, gf9.ell - 1)]


def test_galois_groups(gf9):
    # a group is one Monomial family: member k - 1 is G^(dk)
    ring = ring_for(gf9)
    assert galois_group_H(gf9, 2).perm.shape == (1, 9)
    assert galois_group_H(gf9, 2)[0] == Monomial.identity(ring, 9)
    members = galois_group_H(gf9, 1)
    assert len(members.perm) == 2
    g = frobenius_monomial(gf9)
    assert members[0] == g and members[1] == g @ g
    pi1 = subspace_projector(gf9, 1)
    for k in range(2):
        assert (members[k] @ pi1).equals(pi1)


def test_galois_group_gf81_subfield():
    f = make_field(3, 4)
    members = galois_group_H(f, 2)
    assert len(members.perm) == 2
    g2 = frobenius_monomial(f) ** 2
    assert members[0] == g2 and members[1] == g2 @ g2
    pi2 = subspace_projector(f, 2)
    for k in range(2):
        assert (members[k] @ pi2).equals(pi2)


def test_conjugated_galois_group(gf9):
    ring = ring_for(gf9)
    ident = OperatorMatrix.identity(ring, 9)
    members = galois_group_H(gf9, 1)
    plain = [members[k].to_matrix() for k in range(2)]
    conj_by_id = conjugated_galois_group(gf9, ident, 1)
    assert len(conj_by_id) == 2
    for a, b in zip(plain, conj_by_id):
        assert a.equals(b)
    # the Fourier matrix commutes with the Frobenius operator
    f = fourier_matrix(gf9)
    conj_by_f = conjugated_galois_group(gf9, f, 1)
    for a, b in zip(plain, conj_by_f):
        assert a.equals(b)
    # a displacement unitary rotates the fixed subspace consistently
    u = displacement(gf9, gf9.generator, gf9.one)
    rotated = conjugated_galois_group(gf9, u, 1)
    pi_rot = conjugate(u, subspace_projector(gf9, 1))
    for mat in rotated:
        assert (mat @ pi_rot).equals(pi_rot)
    with pytest.raises(NotUnitary):
        conjugated_galois_group(gf9, ident + ident, 1)


def test_commutation_with_fourier(gf9):
    rep = frobenius_fourier_commutation_check(gf9)
    assert rep["commutes_with_fourier"]
    assert rep["commutes_with_projectors"]


def test_commutation_with_fourier_gf27():
    f = make_field(3, 3)
    g = frobenius_matrix(f)
    pr = fourier_spectrum(f).projectors[2]
    assert (pr @ g).equals(g @ pr)


def test_commutes_with_subspace_projectors(gf9):
    g = frobenius_matrix(gf9)
    for d in gf9.divisors():
        pi = subspace_projector(gf9, d)
        assert (g @ pi).equals(pi @ g)


def test_spectrum_matches_frozen_matrices(gf9):
    ring = ring_for(gf9)
    half = ring.rational(1, 2)
    spec = frobenius_spectrum(gf9)
    for expected, proj in ((PROJ0_HALVES, spec.projectors[0]),
                           (PROJ1_HALVES, spec.projectors[1])):
        proj = proj.rows
        for n in range(9):
            for m in range(9):
                assert proj[n][m] == half * expected[n][m]
    assert spec.ranks == (6, 3)


def test_spectrum_algebra(gf9):
    ring = ring_for(gf9)
    spec = frobenius_spectrum(gf9)
    g = frobenius_matrix(gf9)
    ident = OperatorMatrix.identity(ring, 9)
    zero = OperatorMatrix.zeros(ring, 9)
    assert (spec.projectors[0] + spec.projectors[1]).equals(ident)
    assert (spec.projectors[0] @ spec.projectors[1]).equals(zero)
    assert (spec.projectors[0] - spec.projectors[1]).equals(g)
    f = fourier_matrix(gf9)
    for pr in spec.projectors:
        assert (f @ pr).equals(pr @ f)
    for pi_f in fourier_spectrum(gf9).projectors:
        for pr in spec.projectors:
            assert (pi_f @ pr).equals(pr @ pi_f)


def test_containment_gf9(gf9):
    pi1 = subspace_projector(gf9, 1)
    w0 = frobenius_spectrum(gf9).projectors[0]
    assert (pi1 @ w0).equals(pi1)
    assert (w0 @ pi1).equals(pi1)


@pytest.mark.parametrize("p,ell", [(3, 3), (3, 4)])
def test_containment_all_divisors(p, ell):
    f = make_field(p, ell)
    for d in f.divisors():
        rep = subfield_containment_check(f, d)
        assert rep["left"] and rep["right"]


def test_combined_projector_gf81():
    f = make_field(3, 4)
    spec = frobenius_spectrum(f)
    comb = combined_eigenspace_projector(f, 2)
    assert comb.equals(spec.projectors[0] + spec.projectors[2])


def test_spectrum_gf27_resolution():
    f = make_field(3, 3)
    ring = ring_for(f)
    spec = frobenius_spectrum(f)
    total = spec.projectors[0]
    for pr in spec.projectors[1:]:
        total = total + pr
    assert total.equals(OperatorMatrix.identity(ring, 27))
    assert sum(spec.ranks) == 27
    step = ring.order // 3
    recon = spec.projectors[0]
    for lam in (1, 2):
        recon = recon + spec.projectors[lam].scaled(ring.root(lam * step))
    assert recon.equals(frobenius_matrix(f))
