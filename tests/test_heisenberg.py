import random

import numpy as np
import pytest

from gfharmonic.errors import (DimensionMismatch, EvenCharacteristic,
                               NotInSubfield, WrongFixture, ZeroTrace)
from gfharmonic.fourier import fourier_matrix
from gfharmonic.frobenius import frobenius_monomial
from gfharmonic.gf import make_field
from gfharmonic.heisenberg import (component_displacement_monomial,
                                   displacement, displacement_monomial,
                                   grid_certificate, marginal_projectors, marginal_sum_alpha,
                                   marginal_sum_beta,
                                   overcomplete_expansion_check,
                                   parity_monomial,
                                   resolution_of_identity_check,
                                   subfield_power_relation_check,
                                   tensor_factorize_displacement, weyl_expand,
                                   weyl_reconstruct, x_monomial, x_power,
                                   z_monomial, z_power, z_spectrum_example)
from gfharmonic.hilbert import phi_basis, point_projector, ring_for
from gfharmonic.linalg import (EXACT, Monomial, OperatorMatrix, StateVector,
                               conjugate, tensor_list)


def state_of(ring, values):
    """An exact state from its canonical scalar values."""
    values = list(values)
    return StateVector(len(values), EXACT, ring, values)


def omega_exponent(ring, a):
    """Root exponent k with zeta^k = omega^a."""
    return a % ring.char * (ring.order // ring.char)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


@pytest.fixture(scope="module")
def gf3():
    return make_field(3, 1)


def random_operator(field, seed):
    ring = ring_for(field)
    rng = random.Random(seed)
    q = field.order
    rows = [[ring.scalar([rng.randint(-2, 2) for _ in range(ring.degree)],
                         rng.randint(0, 2), rng.randint(1, 3))
             for _ in range(q)] for _ in range(q)]
    return OperatorMatrix(q, EXACT, ring, rows)


def test_z_diagonal_frozen(gf9):
    ring = ring_for(gf9)
    z = z_power(gf9, 1).rows
    expected = [0, 2, 1, 2, 1, 0, 1, 0, 2]
    for i in range(9):
        for j in range(9):
            want = ring.omega(expected[i]) if i == j else ring.zero
            assert z[i][j] == want


def test_z_group_law(gf9):
    ring = ring_for(gf9)
    for a in range(9):
        for b in range(9):
            lhs = z_monomial(gf9, a) @ z_monomial(gf9, b)
            assert lhs == z_monomial(gf9, gf9.add_index(a, b))
    zp = z_monomial(gf9, 1) ** 3
    assert zp == Monomial.identity(ring, 9)
    assert z_power(gf9, 0).equals(OperatorMatrix.identity(ring, 9))


def test_x_is_cyclic_shift_on_prime_field(gf3):
    ring = ring_for(gf3)
    x = x_power(gf3, 1).rows
    for n in range(3):
        for m in range(3):
            want = ring.one if n == (m + 1) % 3 else ring.zero
            assert x[n][m] == want


def test_x_shift_action(gf9):
    ring = ring_for(gf9)
    rng = random.Random(2)
    chi = state_of(ring, [
        ring.scalar([rng.randint(-2, 2) for _ in range(4)]) for _ in range(9)])
    values = chi.values
    for b in range(9):
        moved = x_monomial(gf9, b).apply(chi).values
        for n in range(9):
            assert moved[n] == values[gf9.sub_index(n, b)]


def test_zx_commutation(gf9):
    # Z^a X^b = X^b Z^a omega^(Tr(a b)) for all 81 pairs
    for a in range(9):
        za = z_monomial(gf9, a)
        for b in range(9):
            xb = x_monomial(gf9, b)
            t = gf9.trace_index(gf9.mul_index(a, b))
            assert (za @ xb) == (xb @ za).scaled_by_root(omega_exponent(ring_for(gf9), t))
    # worked value: braiding phase of Z^eps with X^1 is omega^2
    eps = gf9.generator.index
    braid = ((z_monomial(gf9, eps) @ x_monomial(gf9, 1))
             @ z_monomial(gf9, eps).adjoint()) @ x_monomial(gf9, 1).adjoint()
    assert braid == Monomial.identity(ring_for(gf9), 9).scaled_by_root(
        omega_exponent(ring_for(gf9), 2))


def test_displacement_entry_formula(gf9):
    # independent oracle: build D as the ordered product with the half phase
    ring = ring_for(gf9)
    half = gf9.two_inverse
    for a, b in ((1, 2), (3, 5), (7, 4)):
        direct = displacement_monomial(gf9, a, b)
        h = (-half * gf9.trace_index(gf9.mul_index(a, b))) % 3
        product = (z_monomial(gf9, a) @ x_monomial(gf9, b)).scaled_by_root(
            omega_exponent(ring, h))
        assert direct == product
    assert displacement(gf9, 4, 0).equals(z_power(gf9, 4))
    assert displacement(gf9, 0, 4).equals(x_power(gf9, 4))


def reference_displacement_monomial(field, a, b, phase_coeff=None):
    """The per-entry loop of scalar table calls the gathers replaced."""
    ring = ring_for(field)
    c = field.two_inverse if phase_coeff is None else phase_coeff % field.p
    base = field.trace_index(field.mul_index(c, field.mul_index(a, b)))
    perm = [field.add_index(m, b) for m in range(field.order)]
    phase = [omega_exponent(ring, base + field.trace_index(field.mul_index(a, m)))
             for m in range(field.order)]
    return Monomial(ring, perm, phase)


@pytest.mark.parametrize("p,ell", [(3, 2), (5, 2)])
@pytest.mark.parametrize("phase_coeff", [None, 1])
def test_displacement_gathers_match_table_loop(p, ell, phase_coeff):
    field = make_field(p, ell)
    q = field.order
    alpha, beta = np.divmod(np.arange(q * q), q)
    family = displacement_monomial(field, alpha, beta, phase_coeff)
    assert family.perm.shape == family.phase.shape == (q * q, q)
    for k, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        want = reference_displacement_monomial(field, a, b, phase_coeff)
        assert displacement_monomial(field, a, b, phase_coeff) == want
        assert family[k] == want
    # the perturbed phase differs from the true one on some label
    if phase_coeff is not None:
        assert any(displacement_monomial(field, a, b)
                   != displacement_monomial(field, a, b, phase_coeff)
                   for a in range(q) for b in range(q))


def test_displacement_rejects_char_two():
    f4 = make_field(2, 2)
    with pytest.raises(EvenCharacteristic):
        displacement(f4, 1, 1)


def test_composition_law_exhaustive(gf9):
    half = gf9.two_inverse
    monos = {(a, b): displacement_monomial(gf9, a, b)
             for a in range(9) for b in range(9)}
    for a1 in range(9):
        for b1 in range(9):
            m1 = monos[(a1, b1)]
            for a2 in range(9):
                for b2 in range(9):
                    lhs = m1 @ monos[(a2, b2)]
                    ph = half * (gf9.trace_index(gf9.mul_index(a1, b2))
                                 - gf9.trace_index(gf9.mul_index(b1, a2)))
                    rhs = monos[(gf9.add_index(a1, a2), gf9.add_index(b1, b2))]
                    assert lhs == rhs.scaled_by_root(omega_exponent(ring_for(gf9), ph))


def test_adjoint_negates_label(gf9):
    for a, b in ((0, 0), (1, 3), (5, 8)):
        assert displacement_monomial(gf9, a, b).adjoint() == \
            displacement_monomial(gf9, gf9.neg_index(a), gf9.neg_index(b))


def test_fourier_conjugation_all_labels(gf9):
    f = fourier_matrix(gf9)
    for a in range(9):
        for b in range(9):
            lhs = displacement_monomial(gf9, a, b).right_mul_dense(f)
            rhs = displacement_monomial(gf9, b, gf9.neg_index(a)).left_mul_dense(f)
            assert lhs.equals(rhs)


def test_frobenius_conjugation_all_labels(gf9):
    g = frobenius_monomial(gf9)
    for lam in range(2):
        gl = g ** lam
        gli = gl.adjoint()
        for a in range(9):
            for b in range(9):
                lhs = (gl @ displacement_monomial(gf9, a, b)) @ gli
                rhs = displacement_monomial(gf9, gf9.frobenius_index(a, lam),
                                            gf9.frobenius_index(b, lam))
                assert lhs == rhs
    # worked value: conjugating D(eps, 0) gives D(eps^3, 0) = D(2+2eps, 0)
    eps = gf9.generator
    lhs = (g @ displacement_monomial(gf9, eps.index, 0)) @ g.adjoint()
    assert lhs == displacement_monomial(gf9, gf9.element([2, 2]).index, 0)


def test_subfield_labels_fixed(gf9):
    g = frobenius_monomial(gf9)
    for a in range(3):
        for b in range(3):
            d = displacement_monomial(gf9, a, b)
            assert (g @ d) @ g.adjoint() == d


def test_frobenius_does_not_commute_with_generator_phase(gf9):
    g = frobenius_monomial(gf9)
    zg = z_monomial(gf9, gf9.generator)
    assert (g @ zg) != (zg @ g)


def test_displacement_orthogonality(gf3):
    ring = ring_for(gf3)
    labels = [(a, b) for a in range(3) for b in range(3)]
    for l1 in labels:
        for l2 in labels:
            tr = (displacement_monomial(gf3, *l1).adjoint()
                  @ displacement_monomial(gf3, *l2)).trace()
            assert tr == (ring.from_int(3) if l1 == l2 else ring.zero)


def test_trace_of_displacement(gf9):
    ring = ring_for(gf9)
    for a in range(9):
        for b in range(9):
            tr = displacement_monomial(gf9, a, b).trace()
            want = ring.from_int(9) if a == b == 0 else ring.zero
            assert tr == want


def test_tensor_factorization(gf9):
    ring = ring_for(gf9)
    eps = gf9.generator
    # trivial label
    for fac in tensor_factorize_displacement(gf9, gf9.zero, gf9.zero):
        assert fac.equals(OperatorMatrix.identity(ring, 3))
    # X^eps = 1 (x) shift
    facs = tensor_factorize_displacement(gf9, gf9.zero, eps)
    assert x_power(gf9, eps).equals(tensor_list(facs))
    assert facs[0].equals(OperatorMatrix.identity(ring, 3))
    # Z^eps splits along the dual components (2, 0)
    facs = tensor_factorize_displacement(gf9, eps, gf9.zero)
    assert z_power(gf9, eps).equals(tensor_list(facs))
    assert facs[0].equals(component_displacement_monomial(gf9, 2, 0).to_matrix())
    assert facs[1].equals(OperatorMatrix.identity(ring, 3))
    # the worked pair
    two_eps, one_two_eps = gf9.element([0, 2]), gf9.element([1, 2])
    facs = tensor_factorize_displacement(gf9, two_eps, one_two_eps)
    assert displacement(gf9, two_eps, one_two_eps).equals(tensor_list(facs))
    assert facs[0].equals(component_displacement_monomial(gf9, 1, 1).to_matrix())
    assert facs[1].equals(component_displacement_monomial(gf9, 0, 2).to_matrix())


def test_tensor_factorization_random_labels(gf9):
    rng = random.Random(4)
    for _ in range(6):
        a, b = rng.randrange(9), rng.randrange(9)
        facs = tensor_factorize_displacement(gf9, a, b)
        assert displacement(gf9, a, b).equals(tensor_list(facs))


def test_weyl_identity_table(gf9):
    ring = ring_for(gf9)
    table = weyl_expand(gf9, OperatorMatrix.identity(ring, 9)).rows
    for a in range(9):
        for b in range(9):
            want = ring.from_int(9) if a == b == 0 else ring.zero
            assert table[a][b] == want


def test_weyl_point_projector(gf9):
    # expansion of the projector at 2 is supported on the diagonal labels
    # with phase-operator coefficients omega^(Tr(2 a))
    ring = ring_for(gf9)
    q2 = point_projector(gf9, 2)
    table = weyl_expand(gf9, q2)
    values = table.rows
    for a in range(9):
        assert values[a][0] == ring.omega(
            gf9.trace_index(gf9.mul_index(2, a)))
        for b in range(1, 9):
            assert values[a][b].is_zero
    assert weyl_reconstruct(gf9, table).equals(q2)
    assert values[0][0] == q2.trace()


def test_weyl_single_displacement(gf9):
    ring = ring_for(gf9)
    table = weyl_expand(gf9, displacement(gf9, 3, 4)).rows
    support = [(a, b) for a in range(9) for b in range(9)
               if not table[a][b].is_zero]
    assert len(support) == 1
    # the composition law forces the support at the negated label
    assert support[0] == (gf9.neg_index(3), gf9.neg_index(4))


def test_weyl_round_trip_random(gf9):
    for seed in range(5):
        theta = random_operator(gf9, seed)
        assert weyl_reconstruct(gf9, weyl_expand(gf9, theta)).equals(theta)


def test_resolution_of_identity(gf9):
    ring = ring_for(gf9)
    cert, _ = grid_certificate(gf9)
    assert cert is None
    assert resolution_of_identity_check(
        gf9, OperatorMatrix.identity(ring, 9), cert)["holds"]
    assert resolution_of_identity_check(gf9, point_projector(gf9, 0), cert)["holds"]
    with pytest.raises(ZeroTrace):
        resolution_of_identity_check(gf9, z_power(gf9, 1), cert)
    with pytest.raises(DimensionMismatch):
        resolution_of_identity_check(gf9, OperatorMatrix.identity(ring, 3), cert)


def test_overcomplete_expansion(gf9):
    ring = ring_for(gf9)
    rng = random.Random(9)
    psi = phi_basis(gf9, 0)
    chi = state_of(ring, [
        ring.scalar([rng.randint(-2, 2) for _ in range(4)],
                    rng.randint(0, 2), rng.randint(1, 2))
        for _ in range(9)])
    assert overcomplete_expansion_check(gf9, psi, chi, grid_certificate(gf9)[0])["holds"]


@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("call", [
    lambda f, op, state: weyl_expand(f, op),
    lambda f, op, state: weyl_reconstruct(f, op),
    lambda f, op, state: resolution_of_identity_check(f, op, None),
    lambda f, op, state: overcomplete_expansion_check(f, state, phi_basis(f, 1), None),
    lambda f, op, state: overcomplete_expansion_check(f, phi_basis(f, 0), state, None),
], ids=["weyl_expand", "weyl_reconstruct", "resolution", "overcomplete_psi", "overcomplete_chi"])
def test_label_sums_reject_other_dimensions(gf9, call, ell):
    # GF(3), GF(9) and GF(27) share one ring, so only the dimension is wrong
    other = make_field(3, ell)
    with pytest.raises(DimensionMismatch):
        call(gf9, OperatorMatrix.identity(ring_for(other), other.order), phi_basis(other, 0))


def test_marginal_sums_small_field(gf3):
    ring = ring_for(gf3)
    par = parity_monomial(gf3)
    # beta = 0: plain character sum gives the projector at 0
    assert marginal_sum_alpha(gf3, 0).equals(point_projector(gf3, 0))
    # beta = 1: parity composed with the projector at -2^(-1) = 1
    lhs = marginal_sum_alpha(gf3, 1)
    assert lhs.equals(par.left_mul_dense(point_projector(gf3, 1)))
    # brute-force oracle: the only nonzero entry sits at (2^(-1), -2^(-1))
    lhs = lhs.rows
    for n in range(3):
        for m in range(3):
            want = ring.one if (n, m) == (2, 1) else ring.zero
            assert lhs[n][m] == want


def test_marginal_beta_sum(gf9):
    f = fourier_matrix(gf9)
    par = parity_monomial(gf9)
    eps = gf9.generator
    half = gf9.element(gf9.two_inverse)
    lhs = marginal_sum_beta(gf9, eps)
    q_tilde = conjugate(f, point_projector(gf9, half * eps))
    assert lhs.equals(par.right_mul_dense(q_tilde))


def test_marginal_projectors_full(gf9):
    rep = marginal_projectors(gf9, grid_certificate(gf9))
    assert rep["alpha_sums"] and rep["beta_sums"]


def test_parity_is_fourier_squared(gf9):
    f = fourier_matrix(gf9)
    assert parity_monomial(gf9).to_matrix().equals(f @ f)


def test_subfield_displacement(gf9):
    ring = ring_for(gf9)
    eps = gf9.generator
    assert displacement(gf9, 1, eps, d=2).equals(displacement(gf9, 1, eps))
    small = displacement(gf9, 1, 0, d=1)
    assert small.dim == 3
    for i in range(3):
        assert small.rows[i][i] == ring.omega(i)  # subfield trace is identity
    with pytest.raises(NotInSubfield):
        displacement(gf9, eps, 0, d=1)
    with pytest.raises(NotInSubfield):
        displacement_monomial(gf9, 0, eps, d=1)


def test_subfield_power_relation(gf9):
    rep = subfield_power_relation_check(gf9, 1, 1, 0)
    assert rep["holds"] and rep["power"] == 2
    # frozen oracle: full-field block diag(1, w^2, w^4=w) is the square
    ring = ring_for(gf9)
    d = displacement(gf9, 1, 0).rows
    for i in range(3):
        assert d[i][i] == ring.omega((2 * i) % 3)
    assert subfield_power_relation_check(gf9, 1, 0, 1)["holds"]
    for a in range(3):
        for b in range(3):
            assert subfield_power_relation_check(gf9, 1, a, b)["holds"]


def test_z_spectrum_example(gf9):
    rep = z_spectrum_example(gf9)
    assert rep["z"]["memberships"] == {0: (0, 5, 7), 1: (2, 4, 6), 2: (1, 3, 8)}
    assert rep["z_eps"]["memberships"] == {0: (0, 3, 6), 1: (2, 5, 8),
                                           2: (1, 4, 7)}
    assert rep["z"]["decomposition"] and rep["z_eps"]["decomposition"]
    assert rep["z"]["idempotent"] and rep["z_eps"]["idempotent"]
    assert rep["z"]["ranks"] == (3, 3, 3) and rep["z_eps"]["ranks"] == (3, 3, 3)
    assert rep["families_differ"]
    with pytest.raises(WrongFixture):
        z_spectrum_example(make_field(3, 2))


def test_subfield_generator_operators(gf9):
    from gfharmonic.heisenberg import subfield_fourier_intertwining_check
    ring = ring_for(gf9)
    # prime-subfield generators on their block: diagonal phases and shifts
    z1 = displacement(gf9, 1, 0, d=1).rows
    for m in range(3):
        assert z1[m][m] == ring.omega(m)  # subfield trace is identity
    x1 = displacement(gf9, 0, 1, d=1).rows
    for m in range(3):
        assert x1[(m + 1) % 3][m] == ring.one
    with pytest.raises(NotInSubfield):
        displacement(gf9, gf9.generator, 0, d=1)
    rep = subfield_fourier_intertwining_check(gf9, 1)
    assert rep["z_to_shift"] and rep["shift_to_z"] and rep["braiding"]
    # whole-field case coincides with the plain generators
    rep = subfield_fourier_intertwining_check(gf9, 2)
    assert rep["z_to_shift"] and rep["shift_to_z"] and rep["braiding"]
