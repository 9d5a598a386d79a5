import pytest

from gfharmonic.gf import make_field
from gfharmonic.verify import (SUITE_NAMES, VerifyConfig, run_all, run_suite)


def test_all_suites_pass_on_prime_field():
    field = make_field(5, 1)
    for report in run_all(field, VerifyConfig()):
        assert report.passed, [i.name for i in report.items
                               if i.status == "fail"]


def test_char_two_suites_skip_not_fail():
    field = make_field(2, 3)
    reports = {r.suite: r for r in run_all(field, VerifyConfig())}
    for name in ("gf", "fourier", "frobenius"):
        assert reports[name].passed
        assert all(i.status == "pass" for i in reports[name].items)
    for name in ("heisenberg", "symplectic"):
        assert reports[name].items[0].status == "skip"
        assert reports[name].passed  # skips do not fail the suite


def test_perturbed_phase_fails_at_library_level():
    field = make_field(3, 1)
    bad = (field.two_inverse + 1) % field.p
    report = run_suite(field, "heisenberg",
                       VerifyConfig(displacement_phase_coeff=bad))
    failed = {i.name for i in report.items if i.status == "fail"}
    assert "composition_law" in failed
    assert "fourier_maps_labels" in failed
    assert not report.passed


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite(make_field(3, 1), "nope", VerifyConfig())


def test_report_json_shape():
    field = make_field(3, 1)
    report = run_suite(field, "gf", VerifyConfig())
    data = report.to_json()
    assert data["suite"] == "gf"
    assert data["passed"] is True
    assert all({"name", "status"} <= set(item) for item in data["items"])
    assert set(SUITE_NAMES) == {"gf", "fourier", "frobenius", "heisenberg",
                                "symplectic"}


def test_action_law_checks_the_full_power_basis(monkeypatch):
    import gfharmonic.verify as vf
    field = make_field(3, 3)
    seen = set()
    real = vf.sp.action_sweep

    def recording(f, elements, labels=None):
        seen.update(field.element(x).index for x in labels)
        return real(f, elements, labels)

    monkeypatch.setattr(vf.sp, "action_sweep", recording)
    report = run_suite(field, "symplectic", VerifyConfig())
    assert report.passed
    assert seen == {(field.generator ** k).index for k in range(3)}
