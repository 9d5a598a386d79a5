import cmath
import math
import random

import numpy as np
import pytest

import gfharmonic.symplectic as sp
from gfharmonic.errors import (ConstraintViolated, DomainRestriction,
                               EvenCharacteristic, NotInSubfield, WrongFixture,
                               ZeroScaling)
from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import make_field
from gfharmonic.heisenberg import displacement, x_power, z_power
from gfharmonic.hilbert import operator_cache, ring_for
from gfharmonic.linalg import (Monomial, OperatorMatrix, conjugate,
                               proportionality_phase)
from gfharmonic.symplectic import (ACTION_KEYS, SymplecticParams,
                                   action_check, action_sweep,
                                   closed_form_elements_check,
                                   closed_form_matrix, element_factors,
                                   enumerate_group,
                                   fourier_params, gauss_sum,
                                   generator_scaling, generator_shear_x,
                                   generator_shear_z,
                                   frobenius_action_check,
                                   non_factorization_witness,
                                   shear_x_closed_form, synthesize,
                                   transformed_marginals)


@pytest.fixture(scope="module")
def gf3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def test_gauss_sums(gf3, gf9):
    r3 = ring_for(gf3)
    assert gauss_sum(gf3, 0).value == 3
    g1 = gauss_sum(gf3, 1).value
    assert g1 == r3.from_int(1) + 2 * r3.omega(1)
    assert cmath.isclose(complex(g1), 1j * math.sqrt(3), abs_tol=1e-12)
    g9 = gauss_sum(gf9, 1).value
    assert g9 * g9.conj() == 9
    assert gauss_sum(gf9, 0).value == 9
    for a in range(1, 9):
        gv = gauss_sum(gf9, a).value
        assert gv * gv.conj() == 9


def test_generator_scaling(gf9):
    ring = ring_for(gf9)
    assert generator_scaling(gf9, 1) == Monomial.identity(ring, 9)
    s2 = generator_scaling(gf9, 2)
    assert (s2 @ s2) == Monomial.identity(ring, 9)
    for x in range(1, 9):
        for y in range(1, 9):
            lhs = generator_scaling(gf9, x) @ generator_scaling(gf9, y)
            assert lhs == generator_scaling(gf9, gf9.mul_index(x, y))
    with pytest.raises(ZeroScaling):
        generator_scaling(gf9, 0)


def test_generator_shear_z(gf3, gf9):
    ring = ring_for(gf3)
    assert generator_shear_z(gf3, 0) == Monomial.identity(ring, 3)
    diag = generator_shear_z(gf3, 1).to_matrix()
    expected = [0, 2, 2]  # 2^(-1) m^2 = 2 m^2 over Z_3
    for i in range(3):
        assert diag.rows[i][i] == ring.omega(expected[i])
    ring9 = ring_for(gf9)
    for x in range(9):
        for y in range(9):
            lhs = generator_shear_z(gf9, x) @ generator_shear_z(gf9, y)
            assert lhs == generator_shear_z(gf9, gf9.add_index(x, y))
        assert (generator_shear_z(gf9, x) ** 3) == Monomial.identity(ring9, 9)
    with pytest.raises(EvenCharacteristic):
        generator_shear_z(make_field(2, 2), 1)


def test_generator_shear_x(gf3, gf9):
    # construction matches both the brute-force element sum and the
    # generic-matmul Fourier conjugation
    for field in (gf3, gf9):
        f = fourier_matrix(field)
        for xi in (0, 1, field.order - 1):
            built = generator_shear_x(field, xi)
            assert built.equals(shear_x_closed_form(field, xi))
            explicit = (f @ generator_shear_z(field, xi).to_matrix()) @ f.adjoint()
            assert built.equals(explicit)
            assert built.is_unitary()
    lhs = generator_shear_x(gf9, 2) @ generator_shear_x(gf9, 5)
    assert lhs.equals(generator_shear_x(gf9, gf9.add_index(2, 5)))


def reference_shear_x(field, xi):
    """Every entry of the shear as its own q-term character sum, the q^2 loop
    that generator_shear_x replaced."""
    ring = ring_for(field)
    q = field.order
    phase = generator_shear_z(field, xi).phase
    step = ring.order // ring.char
    tr_rows = [[step * field.trace_index(field.mul_index(n, k))
                for k in range(q)] for n in range(q)]
    return [[ring.sum_of_roots(
                (tr_rows[n][k] + phase[k] - tr_rows[m][k] for k in range(q)),
                2 * field.ell)
             for m in range(q)] for n in range(q)]


@pytest.mark.parametrize("p,ell,xis", [
    (3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (5, 2, None),
    (3, 3, None), (7, 2, (1, 3, 48)),
])
def test_shear_x_convolution_matches_entrywise_sums(p, ell, xis):
    # canonical tuples, not __eq__, so a vacuous equality cannot pass
    field = make_field(p, ell)
    for xi in (range(field.order) if xis is None else xis):
        built = generator_shear_x(field, xi)
        want = reference_shear_x(field, xi)
        for n in range(field.order):
            for m in range(field.order):
                x, y = built.rows[n][m], want[n][m]
                assert ((x.coeffs, x.scale_exp, x.denom)
                        == (y.coeffs, y.scale_exp, y.denom)), (p, ell, xi, n, m)


def test_operator_cache_lives_off_the_field():
    field = make_field(5, 1)
    f = fourier_matrix(field)
    shear = generator_shear_x(field, 2)
    assert fourier_matrix(field) is f
    assert generator_shear_x(field, 2) is shear
    assert operator_cache(field)["fourier"] is f
    assert not hasattr(field, "_op_cache")


def test_symplectic_params_validation(gf9):
    with pytest.raises(ConstraintViolated):
        SymplecticParams(r=gf9.one, s=gf9.one, t=gf9.one, u=gf9.one)
    with pytest.raises(ConstraintViolated):
        SymplecticParams.from_rst(gf9, 0, 1, 1)
    params = SymplecticParams.from_rst(gf9, 1, gf9.one + gf9.generator,
                                       gf9.generator)
    assert params.u == gf9.element(2)


def test_identity_synthesis(gf9):
    ring = ring_for(gf9)
    params = SymplecticParams.from_rst(gf9, 1, 0, 0)
    assert synthesize(gf9, params).equals(OperatorMatrix.identity(ring, 9))


def test_action_check_small(gf3):
    params = SymplecticParams.from_rst(gf3, 1, 1, 1)
    rep = action_check(gf3, params)
    assert all(rep.values())


def test_group_enumeration_counts():
    for p, ell in ((3, 1), (5, 1), (3, 2)):
        f = make_field(p, ell)
        q = f.order
        group = enumerate_group(f)
        assert len(group) == q * (q * q - 1)
        assert len({(g.r.index, g.s.index, g.t.index, g.u.index)
                    for g in group}) == len(group)


def test_exhaustive_action_gf3(gf3):
    for params in enumerate_group(gf3):
        rep = action_check(gf3, params)
        assert all(rep.values()), str(params)


def test_fourier_element(gf9):
    ring = ring_for(gf9)
    params = fourier_params(gf9)
    s_op = synthesize(gf9, params)
    phase = proportionality_phase(s_op, fourier_matrix(gf9))
    assert phase is not None
    rep = action_check(gf9, params, labels=[1, gf9.generator])
    assert all(rep.values())


def test_degenerate_charts(gf9):
    # r = 0 chart with free u, and the 1 + s*t = 0 chart
    zero, one = gf9.zero, gf9.one
    t = gf9.generator
    params = SymplecticParams(r=zero, s=-t.inverse(), t=t, u=gf9.element(5))
    rep = action_check(gf9, params, labels=[1, gf9.generator])
    assert all(rep.values())
    s = gf9.element(2)
    t2 = -s.inverse()  # 1 + s t = 0
    params2 = SymplecticParams(r=one, s=s, t=t2, u=zero)
    assert (one * zero - s * t2) == one
    rep = action_check(gf9, params2, labels=[1, gf9.generator])
    assert all(rep.values())


def test_paper_example_conjugation(gf9):
    eps = gf9.generator
    params = SymplecticParams.from_rst(gf9, 1, gf9.one + eps, eps)
    s_op = synthesize(gf9, params)
    assert s_op.is_unitary()
    target = displacement(gf9, gf9.element([0, 2]), gf9.element([1, 2]))
    assert conjugate(s_op, z_power(gf9, eps)).equals(target)
    # the shift labelled by the generator lands on D(1, eps)
    img = params.apply(gf9.zero, eps)
    assert (str(img[0]), str(img[1])) == ("1,0", "0,1")
    assert conjugate(s_op, x_power(gf9, eps)).equals(displacement(gf9, *img))


def test_closed_form(gf3, gf9):
    r3 = ring_for(gf3)
    params = SymplecticParams.from_rst(gf3, 1, 1, 1)
    rep = closed_form_elements_check(gf3, params)
    assert rep["proportional"] and rep["phase_is_one"]
    assert synthesize(gf3, params).equals(closed_form_matrix(gf3, params))
    eps = gf9.generator
    params9 = SymplecticParams.from_rst(gf9, 1, gf9.one + eps, eps)
    rep = closed_form_elements_check(gf9, params9)
    assert rep["proportional"] and rep["phase_is_one"]
    with pytest.raises(DomainRestriction):
        closed_form_matrix(gf9, SymplecticParams.from_rst(gf9, 1, 1, 0))


def test_closed_form_many_triples(gf9):
    rng = random.Random(6)
    checked = 0
    group = enumerate_group(gf9)
    rng.shuffle(group)
    for params in group:
        if params.r.is_zero or params.t.is_zero or (params.s * params.t
                                                    + 1).is_zero:
            continue
        rep = closed_form_elements_check(gf9, params)
        assert rep["proportional"] and rep["phase_is_one"], str(params)
        checked += 1
        if checked >= 25:
            break
    assert checked == 25


def test_frobenius_covariance(gf9):
    eps = gf9.generator
    params = SymplecticParams.from_rst(gf9, 1, eps, 0)
    rep = frobenius_action_check(gf9, params)
    assert rep["covariant"]
    # conjugated element equals the one built from Frobenius-mapped
    # parameters: (1, eps, 0) -> (1, eps^3, 0) = (1, 2+2eps, 0)
    mapped = params.frobenius(1)
    assert mapped.s == gf9.element([2, 2])
    base = SymplecticParams.from_rst(gf9, 1, 1, 2)
    rep = frobenius_action_check(gf9, base, subfield_d=1)
    assert rep["covariant"] and rep["subfield_fixed"]
    with pytest.raises(NotInSubfield,
                       match="parameters are not all in the requested subfield"):
        frobenius_action_check(gf9, params, subfield_d=1)


def test_transformed_marginals(gf3, gf9):
    params = SymplecticParams.from_rst(gf3, 1, 1, 1)
    rep = transformed_marginals(gf3, params)
    assert rep["alpha_sums"] and rep["beta_sums"]
    eps = gf9.generator
    params9 = SymplecticParams.from_rst(gf9, 1, gf9.one + eps, eps)
    rep = transformed_marginals(gf9, params9)
    assert rep["alpha_sums"] and rep["beta_sums"]
    ident = SymplecticParams.from_rst(gf9, 1, 0, 0)
    rep = transformed_marginals(gf9, ident)
    assert rep["alpha_sums"] and rep["beta_sums"]


def test_preserved_commutation_phase(gf9):
    # transformed pair keeps the Weyl braiding for sampled parameters
    rng = random.Random(8)
    for _ in range(3):
        r = gf9.element(rng.randrange(1, 9))
        params = SymplecticParams.from_rst(gf9, r, rng.randrange(9),
                                           rng.randrange(9))
        rep = action_check(gf9, params, labels=[1, gf9.generator.index])
        assert rep["commutation"]


def test_non_factorization_witness(gf9):
    rep = non_factorization_witness(gf9)
    assert rep["x_eps_is_identity_tensor_shift"]
    assert rep["x_image_matches"]
    assert rep["x_image_label"] == ("1,0", "0,1")
    assert rep["x_image_factors"][0] != (0, 0)
    assert rep["diag_image_matches"]
    assert rep["diag_image_factor_pair"] == ((1, 1), (0, 2))
    assert rep["not_tensor_product"]
    with pytest.raises(WrongFixture):
        non_factorization_witness(make_field(3, 2))


def test_even_characteristic_rejected():
    f4 = make_field(2, 2)
    with pytest.raises(EvenCharacteristic):
        synthesize(f4, SymplecticParams.from_rst(f4, 1, 0, 0))


# -- the per-base action sweep against the per-element reference -----------

def reference_verdicts(field, elements, labels):
    return np.array([[res[k] for k in ACTION_KEYS]
                     for res in (action_check(field, g, labels=labels)
                                 for g in elements)])


def power_basis(field):
    return [field.generator ** k for k in range(field.ell)]


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_action_sweep_matches_action_check(p, ell):
    field = make_field(p, ell)
    group = enumerate_group(field)
    got = action_sweep(field, group, power_basis(field))
    assert got.shape == (len(group), len(ACTION_KEYS)) and got.dtype == bool
    assert np.array_equal(got, reference_verdicts(field, group, power_basis(field)))
    assert got.all()


@pytest.mark.parametrize("p", [3, 5])
def test_action_sweep_on_every_label(p):
    field = make_field(p, 1)
    group = enumerate_group(field)
    assert np.array_equal(action_sweep(field, group),
                          reference_verdicts(field, group, None))
    assert action_sweep(field, []).shape == (0, len(ACTION_KEYS))


def test_element_factors_rebuild_synthesize(gf9):
    ring = ring_for(gf9)
    group = enumerate_group(gf9)
    fac = element_factors(gf9, group)
    f_adj = fourier_matrix(gf9).adjoint()
    for k, params in enumerate(group):
        assert fac.fourier[k] == (params.r.is_zero
                                  or (params.s * params.t + 1).is_zero)
        u = (generator_shear_x(gf9, int(fac.shear[k]))
             @ Monomial(ring, fac.perm[k], fac.phase[k]))
        if fac.fourier[k]:
            u = u @ f_adj
        assert u.equals(synthesize(gf9, params)), str(params)


def flip_shear_sign(monkeypatch, field):
    orig = sp.generator_shear_x
    monkeypatch.setattr(sp, "generator_shear_x",
                        lambda f, xi: orig(f, -f.element(xi)))


def scale_shear(monkeypatch, field):
    orig = sp.generator_shear_x
    monkeypatch.setattr(sp, "generator_shear_x",
                        lambda f, xi: orig(f, xi).scaled(2))


def drop_fourier_adjoint(monkeypatch, field):
    ident = OperatorMatrix.identity(ring_for(field), field.order)
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: ident)


def adjoint_fourier(monkeypatch, field):
    wrong = fourier_matrix(field).adjoint()
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: wrong)


def scale_fourier(monkeypatch, field):
    wrong = fourier_matrix(field).scaled(2)
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: wrong)


# fault -> (some element still passes, the sweep falls back to action_check)
PLANTED = {
    "flipped_shear_sign": (flip_shear_sign, True, False),
    "dropped_fourier_adjoint": (drop_fourier_adjoint, True, False),
    "wrong_fourier_adjoint": (adjoint_fourier, True, False),
    "wrong_fourier_not_unitary": (scale_fourier, True, True),
    "shear_not_unitary": (scale_shear, False, False),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_faults_fail_on_the_same_elements(gf9, monkeypatch, fault):
    plant, some_pass, falls_back = PLANTED[fault]
    plant(monkeypatch, gf9)
    group = enumerate_group(gf9)
    labels = power_basis(gf9)
    want = reference_verdicts(gf9, group, labels)
    calls = []
    orig_check = sp.action_check
    monkeypatch.setattr(sp, "action_check",
                        lambda *a, **k: calls.append(a) or orig_check(*a, **k))
    got = action_sweep(gf9, group, labels)
    assert np.array_equal(got, want)
    passed = want.all(axis=1)
    assert not passed.all()
    assert passed.any() == some_pass
    fourier_chart = element_factors(gf9, group).fourier
    assert len(calls) == (fourier_chart.sum() if falls_back else 0)


def test_action_sweep_exhaustive_gf25_and_gf27():
    for p, ell in ((5, 2), (3, 3)):
        field = make_field(p, ell)
        group = enumerate_group(field)
        assert action_sweep(field, group, power_basis(field)).all()
