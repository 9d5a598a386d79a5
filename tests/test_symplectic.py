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
from gfharmonic.heisenberg import (displacement, displacement_monomial, grid_certificate,
                                   x_monomial, x_power, z_monomial, z_power)
from gfharmonic.hilbert import ring_for
from gfharmonic.linalg import (Monomial, OperatorMatrix, conjugate,
                               proportionality_phase)
from gfharmonic.symplectic import (ACTION_KEYS, action_check, action_sweep,
                                   closed_form_elements_check,
                                   closed_form_matrix, determinant, element_factors,
                                   element_row, enumerate_group,
                                   fourier_params, gauss_sum,
                                   generator_scaling, generator_shear_x,
                                   generator_shear_z,
                                   frobenius_action_check,
                                   non_factorization_witness,
                                   shear_x_closed_form, synthesize,
                                   transformed_marginals)
from gfharmonic.verify import symplectic_suite
from test_packed_reference import (adjoint_fourier, drop_fourier_adjoint, from_dense,
                                   non_clifford_fourier, scale_fourier)


@pytest.fixture(scope="module")
def gf3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def entries(field, row):
    """The field elements (r, s, t, u) of one element row: the reference
    form for label images and parameter tests."""
    return tuple(field.element(int(x)) for x in row)


def test_gauss_sums(gf3, gf9):
    r3 = ring_for(gf3)
    assert gauss_sum(gf3, 0) == 3
    g1 = gauss_sum(gf3, 1)
    assert g1 == r3.from_int(1) + 2 * r3.omega(1)
    assert cmath.isclose(complex(g1), 1j * math.sqrt(3), abs_tol=1e-12)
    g9 = gauss_sum(gf9, 1)
    assert g9 * g9.conj() == 9
    assert gauss_sum(gf9, 0) == 9
    for a in range(1, 9):
        gv = gauss_sum(gf9, a)
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
        built = generator_shear_x(field, xi).rows
        want = reference_shear_x(field, xi)
        for n in range(field.order):
            for m in range(field.order):
                x, y = built[n][m], want[n][m]
                assert ((x.coeffs, x.scale_exp, x.denom)
                        == (y.coeffs, y.scale_exp, y.denom)), (p, ell, xi, n, m)


def test_operator_cache_lives_off_the_field():
    field = make_field(5, 1)
    f = fourier_matrix(field)
    row = sp._shear_row(field, 2)
    assert fourier_matrix(field) is f
    assert sp._shear_row(field, 2) is row
    # the shear is its cached row gathered anew; every spelling of the
    # parameter reads the one entry
    shear = generator_shear_x(field, 2).packed
    entries = sp._shear_row.cache_info().currsize
    for xi in (2, field.element(2), [2]):
        got = generator_shear_x(field, xi).packed
        assert np.array_equal(got[0], shear[0]) and got[1:] == shear[1:]
    assert sp._shear_row.cache_info().currsize == entries
    assert not hasattr(field, "_op_cache")


def test_symplectic_params_validation(gf9):
    with pytest.raises(ConstraintViolated, match=r"^parameters do not satisfy r\*u - s\*t = 1$"):
        element_row(gf9, gf9.one, gf9.one, gf9.one, gf9.one)
    with pytest.raises(ConstraintViolated, match="^r = 0 leaves u undetermined; supply it$"):
        element_row(gf9, 0, 1, 1)
    row = element_row(gf9, 1, gf9.one + gf9.generator, gf9.generator)
    assert entries(gf9, row)[3] == gf9.element(2)
    assert row.tolist() == [1, 4, 3, 2] and row.dtype == np.int64
    assert np.array_equal(element_row(gf9, *row), row)
    with pytest.raises(ConstraintViolated, match="r\\*u - s\\*t = 1"):
        element_row(gf9, 1, 4, 3, 1)
    # the r = 0 chart takes u as given, and its determinant is checked
    t = gf9.generator
    assert element_row(gf9, 0, -t.inverse(), t, 5).tolist() == [0, (-t.inverse()).index,
                                                                 t.index, 5]
    with pytest.raises(ConstraintViolated, match="r\\*u - s\\*t = 1"):
        element_row(gf9, 0, t.inverse(), t, 5)


def test_determinant_matches_field_arithmetic(gf9):
    rows = np.random.default_rng(3).integers(0, 9, size=(200, 4))
    want = []
    for row in rows:
        r, s, t, u = entries(gf9, row)
        want.append((r * u - s * t).index)
    assert determinant(gf9, rows).tolist() == want


def test_identity_synthesis(gf9):
    ring = ring_for(gf9)
    row = element_row(gf9, 1, 0, 0)
    assert synthesize(gf9, row).equals(OperatorMatrix.identity(ring, 9))


def test_action_check_small(gf3):
    row = element_row(gf3, 1, 1, 1)
    rep = action_check(gf3, row)
    assert all(rep.values())


def test_group_enumeration_counts():
    for p, ell in ((3, 1), (5, 1), (3, 2)):
        f = make_field(p, ell)
        q = f.order
        group = enumerate_group(f)
        assert group.shape == (q * (q * q - 1), 4) and group.dtype == np.int64
        assert len({tuple(g) for g in group.tolist()}) == len(group)
        for row in group:  # r u - s t = 1, by field arithmetic
            r, s, t, u = entries(f, row)
            assert r * u - s * t == f.one
        assert (determinant(f, group) == 1).all()


def test_exhaustive_action_gf3(gf3):
    for row in enumerate_group(gf3):
        rep = action_check(gf3, row)
        assert all(rep.values()), row


def test_fourier_element(gf9):
    row = fourier_params(gf9)
    assert row.tolist() == [0, 1, gf9.neg_index(1), 0] and row.dtype == np.int64
    s_op = synthesize(gf9, row)
    phase = proportionality_phase(s_op, fourier_matrix(gf9))
    assert phase is not None
    rep = action_check(gf9, row, labels=[1, gf9.generator])
    assert all(rep.values())


def test_degenerate_charts(gf9):
    # r = 0 chart with free u, and the 1 + s*t = 0 chart
    zero, one = gf9.zero, gf9.one
    t = gf9.generator
    row = element_row(gf9, zero, -t.inverse(), t, gf9.element(5))
    rep = action_check(gf9, row, labels=[1, gf9.generator])
    assert all(rep.values())
    s = gf9.element(2)
    t2 = -s.inverse()  # 1 + s t = 0
    row2 = element_row(gf9, one, s, t2, zero)
    assert (one * zero - s * t2) == one
    rep = action_check(gf9, row2, labels=[1, gf9.generator])
    assert all(rep.values())


def image(field, row, alpha, beta):
    """(u a + s b, t a + r b) by field arithmetic, the reference for label_images."""
    r, s, t, u = entries(field, row)
    return (u * alpha + s * beta, t * alpha + r * beta)


def test_paper_example_conjugation(gf9):
    eps = gf9.generator
    row = element_row(gf9, 1, gf9.one + eps, eps)
    s_op = synthesize(gf9, row)
    assert s_op.is_unitary()
    target = displacement(gf9, gf9.element([0, 2]), gf9.element([1, 2]))
    assert conjugate(s_op, z_power(gf9, eps)).equals(target)
    # the shift labelled by the generator lands on D(1, eps)
    img = image(gf9, row, gf9.zero, eps)
    assert sp.label_images(gf9, row, 0, eps.index) == (img[0].index, img[1].index)
    assert (str(img[0]), str(img[1])) == ("1,0", "0,1")
    assert conjugate(s_op, x_power(gf9, eps)).equals(displacement(gf9, *img))


def test_closed_form(gf3, gf9):
    row = element_row(gf3, 1, 1, 1)
    rep = closed_form_elements_check(gf3, row)
    assert rep["proportional"] and rep["phase_is_one"]
    assert synthesize(gf3, row).equals(closed_form_matrix(gf3, row))
    eps = gf9.generator
    row9 = element_row(gf9, 1, gf9.one + eps, eps)
    rep = closed_form_elements_check(gf9, row9)
    assert rep["proportional"] and rep["phase_is_one"]
    with pytest.raises(DomainRestriction):
        closed_form_matrix(gf9, element_row(gf9, 1, 1, 0))


def test_closed_form_many_triples(gf9):
    rng = random.Random(6)
    checked = 0
    group = list(enumerate_group(gf9))
    rng.shuffle(group)
    for row in group:
        r, s, t, _ = entries(gf9, row)
        if r.is_zero or t.is_zero or (s * t + 1).is_zero:
            continue
        rep = closed_form_elements_check(gf9, row)
        assert rep["proportional"] and rep["phase_is_one"], row
        checked += 1
        if checked >= 25:
            break
    assert checked == 25


def test_frobenius_covariance(gf9):
    eps = gf9.generator
    row = element_row(gf9, 1, eps, 0)
    rep = frobenius_action_check(gf9, row)
    assert rep["covariant"]
    # conjugated element equals the one built from Frobenius-mapped
    # parameters: (1, eps, 0) -> (1, eps^3, 0) = (1, 2+2eps, 0)
    mapped = gf9.tables().frob[row]
    assert mapped.tolist() == [x.frobenius(1).index for x in entries(gf9, row)]
    assert mapped[1] == gf9.element([2, 2]).index
    base = element_row(gf9, 1, 1, 2)
    rep = frobenius_action_check(gf9, base, subfield_d=1)
    assert rep["covariant"] and rep["subfield_fixed"]
    with pytest.raises(NotInSubfield,
                       match="parameters are not all in the requested subfield"):
        frobenius_action_check(gf9, row, subfield_d=1)


def test_transformed_marginals(gf3, gf9):
    row = element_row(gf3, 1, 1, 1)
    rep = transformed_marginals(gf3, row, grid_certificate(gf3))
    assert rep["alpha_sums"] and rep["beta_sums"]
    eps, grid = gf9.generator, grid_certificate(gf9)
    row9 = element_row(gf9, 1, gf9.one + eps, eps)
    rep = transformed_marginals(gf9, row9, grid)
    assert rep["alpha_sums"] and rep["beta_sums"]
    ident = element_row(gf9, 1, 0, 0)
    rep = transformed_marginals(gf9, ident, grid)
    assert rep["alpha_sums"] and rep["beta_sums"]


def test_preserved_commutation_phase(gf9):
    # transformed pair keeps the Weyl braiding for sampled parameters
    rng = random.Random(8)
    for _ in range(3):
        r = gf9.element(rng.randrange(1, 9))
        row = element_row(gf9, r, rng.randrange(9), rng.randrange(9))
        rep = action_check(gf9, row, labels=[1, gf9.generator.index])
        assert rep["commutation"]


def test_non_factorization_witness(gf9):
    rep = non_factorization_witness(gf9)
    assert rep["x_eps_is_identity_tensor_shift"]
    assert rep["x_image_matches"]
    assert rep["x_image_label"] == ("1,0", "0,1")
    assert rep["x_image_factors"][0] != (0, 0)
    assert rep["diag_image_matches"] and rep["diag_image_split"]
    assert rep["diag_image_factor_pair"] == ((1, 1), (0, 2))
    assert rep["not_tensor_product"]
    with pytest.raises(WrongFixture):
        non_factorization_witness(make_field(3, 2))


def test_even_characteristic_rejected():
    f4 = make_field(2, 2)
    with pytest.raises(EvenCharacteristic):
        synthesize(f4, element_row(f4, 1, 0, 0))


# -- the per-base action sweep against the per-element reference -----------

def reference_action_check(field, row, labels=None):
    """The action law of one element by FieldElement arithmetic, one dense
    product per label: S Z^a = D(u a, t a) S, S X^b = D(s b, r b) S and
    S D(a, b) = D(g(a, b)) S for every label value (the conjugation form,
    given unitarity), and the Weyl commutation phase of the transformed
    pair.  It maps labels by field arithmetic on the row's entries, not by
    label_images, so that it stays independent of the sweep."""
    s_op = synthesize(field, row)
    if not s_op.is_unitary():
        return {"unitary": False, "z_action": False, "x_action": False,
                "displacement_action": False, "commutation": False}
    r, s, t, u = entries(field, row)
    ring = ring_for(field)

    def image(alpha, beta):
        return (u * alpha + s * beta, t * alpha + r * beta)
    els = field.elements() if labels is None else [field.element(x) for x in labels]
    ok_z = all((s_op @ z_monomial(field, a)).equals(
        displacement_monomial(field, *image(a, field.zero)) @ s_op) for a in els)
    ok_x = all((s_op @ x_monomial(field, b)).equals(
        displacement_monomial(field, *image(field.zero, b)) @ s_op) for b in els)
    ok_d = all((s_op @ displacement_monomial(field, a, b)).equals(
        displacement_monomial(field, *image(a, b)) @ s_op) for a in els for b in els)
    # transformed pair keeps the Weyl commutation phase
    ok_comm = True
    for a in els:
        for b in els:
            zp = displacement_monomial(field, *image(a, field.zero))
            xp = displacement_monomial(field, *image(field.zero, b))
            lhs = xp @ zp
            omega = -field.trace_index(field.mul_index(a.index, b.index)) % field.p
            rhs = (zp @ xp).scaled_by_root(omega * (ring.order // field.p))
            if lhs != rhs:
                ok_comm = False
    return {"unitary": True, "z_action": ok_z, "x_action": ok_x,
            "displacement_action": ok_d, "commutation": ok_comm}


def reference_verdicts(field, elements, labels):
    return np.array([[res[k] for k in ACTION_KEYS]
                     for res in (reference_action_check(field, g, labels=labels)
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


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_action_check_is_the_one_element_sweep(p, ell):
    # on every element, against the FieldElement reference: every label of
    # GF(3) and GF(5), the power basis of GF(7) and GF(9)
    field = make_field(p, ell)
    labels = None if field.order <= 5 else power_basis(field)
    for row in enumerate_group(field):
        rep = action_check(field, row, labels)
        assert list(rep) == list(ACTION_KEYS)
        assert rep == reference_action_check(field, row, labels), row


@pytest.mark.parametrize("p", [3, 5])
def test_action_sweep_on_every_label(p):
    field = make_field(p, 1)
    group = enumerate_group(field)
    assert np.array_equal(action_sweep(field, group),
                          reference_verdicts(field, group, None))
    assert action_sweep(field, group[:0]).shape == (0, len(ACTION_KEYS))


def test_element_factors_rebuild_synthesize(gf9):
    ring = ring_for(gf9)
    group = enumerate_group(gf9)
    fac = element_factors(gf9, group)
    f_adj = fourier_matrix(gf9).adjoint()
    for k, row in enumerate(group):
        r, s, t, _ = entries(gf9, row)
        assert fac.fourier[k] == (r.is_zero or (s * t + 1).is_zero)
        u = (generator_shear_x(gf9, int(fac.shear[k]))
             @ Monomial(ring, fac.monomial.perm[k], fac.monomial.phase[k]))
        if fac.fourier[k]:
            u = u @ f_adj
        assert u.equals(synthesize(gf9, row)), row


def plant_shear_rows(monkeypatch, wrong):
    """Plant wrong(row, f, xi) on the shears' convolution rows, which the
    synthesis and the sweeps read; the dense shears gather the planted
    rows."""
    row = sp._shear_row
    monkeypatch.setattr(sp, "_shear_row", lambda f, xi: wrong(row, f, xi))


def flip_shear_sign(monkeypatch, field):
    plant_shear_rows(monkeypatch, lambda row, f, xi: row(f, f.neg_index(xi)))


def scale_shear(monkeypatch, field):
    def scaled(row, f, xi):  # every value times 2, in normal form
        g, e, den = row(f, xi)
        ring = ring_for(f)
        out, e, den = ring.matmul((g[:, None], e, den), ring.pack(((ring.from_int(2),),)))
        return out[:, 0], e, den
    plant_shear_rows(monkeypatch, scaled)


# fault -> some element still passes
PLANTED = {
    "flipped_shear_sign": (flip_shear_sign, True),
    "dropped_fourier_adjoint": (drop_fourier_adjoint, True),
    "wrong_fourier_adjoint": (adjoint_fourier, True),
    "wrong_fourier_not_unitary": (scale_fourier, True),
    "fourier_not_clifford": (non_clifford_fourier, True),
    "shear_not_unitary": (scale_shear, False),
}


def test_planted_non_clifford_fourier_is_unitary(gf9, monkeypatch):
    non_clifford_fourier(monkeypatch, gf9)
    f = sp.fourier_matrix(gf9)
    assert f.is_unitary()
    assert from_dense(f.adjoint() @ x_power(gf9, 1) @ f) is None
    assert from_dense(f.adjoint() @ z_power(gf9, 1) @ f) is not None


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_faults_fail_on_the_same_elements(gf9, monkeypatch, fault):
    plant, some_pass = PLANTED[fault]
    plant(monkeypatch, gf9)
    group = enumerate_group(gf9)
    labels = power_basis(gf9)
    want = reference_verdicts(gf9, group, labels)
    got = action_sweep(gf9, group, labels)
    assert np.array_equal(got, want)
    passed = want.all(axis=1)
    assert not passed.all()
    assert passed.any() == some_pass


@pytest.mark.parametrize("pe,fault,name", [
    ((3, 2), "flipped_shear_sign", "action_law_exhaustive"),
    ((3, 2), "fourier_not_clifford", "action_law_exhaustive"),
    ((5, 2), "wrong_fourier_not_unitary", "action_law_sampled")], ids=str)
def test_action_law_witness_names_the_first_failing_element(pe, fault, name, monkeypatch):
    field = make_field(*pe)
    item = next(i for i in symplectic_suite(field).items if i.name == name)
    assert item.status == "pass" and "witness" not in item.detail
    seen = []
    original = sp.action_sweep
    monkeypatch.setattr(sp, "action_sweep",
                        lambda f, els, labels: seen.append(els) or original(f, els, labels))
    PLANTED[fault][0](monkeypatch, field)
    item = next(i for i in symplectic_suite(field).items if i.name == name)
    for row in seen[0]:
        res = reference_action_check(field, row, labels=power_basis(field))
        if not all(res.values()):
            break
    r, s, t, u = entries(field, row)
    key = next(k for k in ACTION_KEYS if not res[k])
    assert item.status == "fail"
    assert item.detail == f"elements={len(seen[0])}, witness=({r}, {s}, {t}, {u}):{key}"


def test_action_sweep_exhaustive_gf25_and_gf27():
    for p, ell in ((5, 2), (3, 3)):
        field = make_field(p, ell)
        group = enumerate_group(field)
        assert action_sweep(field, group, power_basis(field)).all()


@pytest.mark.parametrize("pe", [(3, 1), (3, 2)], ids=str)
def test_shear_grid_laws_of_no_pairs_and_no_units(pe):
    # no pair and no unit is two empty verdicts, not an error from an empty stack
    additive, unitary = sp.shear_grid_laws(make_field(*pe), [], [], [])
    for law in (additive, unitary):
        assert law.dtype == bool and law.shape == (0,)
