"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (zero tolerance) unless a float tolerance is
part of the criterion itself.
"""

import random
import time

import pytest

from gfharmonic.cli import main as cli_main
from gfharmonic.fourier import fourier_matrix
from gfharmonic.frobenius import frobenius_spectrum
from gfharmonic.gf import make_field
from gfharmonic.heisenberg import (component_displacement_monomial,
                                   displacement, tensor_factorize_displacement,
                                   z_power, z_spectrum_example)
from gfharmonic.hilbert import ring_for
from gfharmonic.linalg import conjugate, tensor_list
from gfharmonic.symplectic import (action_check, closed_form_elements_check,
                                   element_row, enumerate_group, synthesize)
from gfharmonic.verify import VerifyConfig, run_all, run_suite

GRID = ((3, 1), (3, 2), (5, 1), (3, 3))

FROB_PROJ_0_HALVES = [
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
FROB_PROJ_1_HALVES = [
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


def test_criterion_1_gf9_fixture_reproduction(gf9):
    start = time.monotonic()
    ring = ring_for(gf9)

    # diagonal phase operator: omega exponents (0,2,1,2,1,0,1,0,2)
    z = z_power(gf9, 1).rows
    expected = [0, 2, 1, 2, 1, 0, 1, 0, 2]
    assert all(z[i][i] == ring.omega(expected[i]) for i in range(9))

    # rank-3 eigenprojector memberships of Z and Z^eps
    rep = z_spectrum_example(gf9)
    assert rep["z"]["memberships"] == {0: (0, 5, 7), 1: (2, 4, 6),
                                       2: (1, 3, 8)}
    assert rep["z_eps"]["memberships"] == {0: (0, 3, 6), 1: (2, 5, 8),
                                           2: (1, 4, 7)}
    assert rep["z"]["decomposition"] and rep["z_eps"]["decomposition"]
    assert rep["families_differ"]

    # Frobenius eigenprojectors match the half-integer matrices entrywise
    spec = frobenius_spectrum(gf9)
    half = ring.rational(1, 2)
    for expected_mat, proj in ((FROB_PROJ_0_HALVES, spec.projectors[0]),
                               (FROB_PROJ_1_HALVES, spec.projectors[1])):
        proj = proj.rows
        for n in range(9):
            for m in range(9):
                assert proj[n][m] == half * expected_mat[n][m]

    # symplectic conjugation example.  Note: with the defining action
    # S Z^a S+ = D(u a, t a), the element (r,s,t) = (1, 1+e, e) maps the
    # label (e, 0) to (2e, 1+2e); the shift label (0, e) maps to (1, e).
    # The displacement at (2e, 1+2e) is produced by conjugating the
    # diagonal generator, and it splits into the stated component pair.
    eps = gf9.generator
    s_op = synthesize(gf9, element_row(gf9, 1, gf9.one + eps, eps))
    two_eps = gf9.element([0, 2])
    one_two_eps = gf9.element([1, 2])
    target = displacement(gf9, two_eps, one_two_eps)
    assert conjugate(s_op, z_power(gf9, eps)).equals(target)
    facs = tensor_factorize_displacement(gf9, two_eps, one_two_eps)
    assert target.equals(tensor_list(facs))
    assert facs[0].equals(component_displacement_monomial(gf9, 1, 1).to_matrix())
    assert facs[1].equals(component_displacement_monomial(gf9, 0, 2).to_matrix())

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"fixture run took {elapsed:.1f}s"
    print(f"\nCRITERION 1 (GF(9) fixture reproduction, {elapsed:.2f}s): PASS")


def test_criterion_2_identity_suites_on_grid():
    start = time.monotonic()
    failures = []
    for p, ell in GRID:
        field = make_field(p, ell)
        for report in run_all(field, VerifyConfig()):
            for item in report.items:
                if item.status == "fail":
                    failures.append((p, ell, report.suite, item.name))
    assert not failures, failures
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"grid run took {elapsed:.1f}s"
    print(f"\nCRITERION 2 (identity suites on the grid, {elapsed:.1f}s): PASS")


def test_criterion_3_exhaustive_symplectic_action(gf9):
    start = time.monotonic()
    gf3 = make_field(3, 1)
    for field, want in ((gf3, 24), (gf9, 720)):
        group = enumerate_group(field)
        q = field.order
        assert len(group) == want == q * (q * q - 1)
        labels = [field.one, field.generator] if field.ell > 1 else [field.one]
        for row in group:
            rep = action_check(field, row, labels=labels)
            assert all(rep.values()), row
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"exhaustive sweep took {elapsed:.1f}s"
    print(f"\nCRITERION 3 (exhaustive symplectic action, 24 + 720 elements, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_4_closed_form_against_synthesis():
    start = time.monotonic()
    rng = random.Random(99)
    counts = {}
    for p, ell in GRID:
        field = make_field(p, ell)
        valid = []
        for row in enumerate_group(field):
            r, s, t, _ = (field.element(int(x)) for x in row)
            if not (r.is_zero or t.is_zero or (s * t + 1).is_zero):
                valid.append(row)
        rng.shuffle(valid)
        take = valid if len(valid) <= 50 else valid[:50]
        for row in take:
            rep = closed_form_elements_check(field, row)
            assert rep["proportional"], row
            phase = rep["phase"]
            # exact unit-modulus phase, constant across entries by
            # construction of the extraction (cross-multiplied, deviation 0)
            assert phase * phase.conj() == ring_for(field).one
        counts[(p, ell)] = len(take)
    assert counts[(3, 1)] == 8  # every valid triple over GF(3)
    assert all(c >= 50 for k, c in counts.items() if k != (3, 1))
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 4 (closed form vs synthesis, triples={counts}, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_5_degenerate_trace_block():
    field = make_field(3, 3)
    ring = ring_for(field)
    f = fourier_matrix(field)
    const = ring.scalar([1, 0, 0, 0], 3)  # 27^(-1/2)
    rows = f.rows
    for n in field.subfield_indices(1):
        for m in field.subfield_indices(1):
            assert rows[n][m] == const
    print("\nCRITERION 5 (degenerate-trace constant block on GF(27)): PASS")


def test_criterion_6_float_exact_coherence():
    start = time.monotonic()
    for p, ell in GRID:
        field = make_field(p, ell)
        report = run_suite(field, "float", VerifyConfig(tolerance=1e-9))
        bad = [i.name for i in report.items if i.status == "fail"]
        assert not bad, (p, ell, bad)
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 6 (float/exact coherence at 1e-9, {elapsed:.1f}s): PASS")


def test_criterion_7_negative_controls(capsys):
    # a wrong displacement half-phase must make verification fail (exit 1)
    field = make_field(3, 1)
    bad_coeff = (field.two_inverse + 1) % field.p
    code = cli_main(["verify", "heisenberg", "--p", "3", "--ell", "1",
                     "--perturb-displacement-phase", str(bad_coeff)])
    assert code == 1
    code = cli_main(["verify", "heisenberg", "--p", "3", "--ell", "2",
                     "--modulus", "2,1,1",
                     "--perturb-displacement-phase", str(bad_coeff)])
    assert code == 1
    # a reducible modulus must be rejected at construction (exit 2)
    code = cli_main(["verify", "all", "--p", "3", "--ell", "2",
                     "--modulus", "1,2,1"])
    assert code == 2
    capsys.readouterr()
    print("\nCRITERION 7 (negative controls: perturbed phase exits 1, "
          "reducible modulus exits 2): PASS")
