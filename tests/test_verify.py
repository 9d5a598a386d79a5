import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfharmonic import verify
from gfharmonic.errors import ConfigError
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


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -0.5])
def test_float_suite_rejects_a_tolerance_that_decides_nothing(tol, monkeypatch):
    # inf passed every item, a wrong half-phase too; nan or a negative value
    # would fail them all.  The check comes before any operator is built.
    monkeypatch.setattr(verify.fr, "fourier_matrix", lambda *args: pytest.fail("built F"))
    with pytest.raises(ConfigError, match="tolerance must be a finite number >= 0"):
        run_suite(make_field(3, 2), "float", VerifyConfig(tolerance=tol))


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


def test_spectrum_ranks_are_exact_traces(monkeypatch):
    from gfharmonic import fourier, frobenius, verify
    from gfharmonic.hilbert import ring_for
    from gfharmonic.linalg import OperatorMatrix, Spectrum

    gf3, gf9 = make_field(3, 1), make_field(3, 2)
    ident = OperatorMatrix.identity(ring_for(gf3), 3)
    assert Spectrum((fourier.fourier_matrix(gf3), ident)).ranks == (None, 3)  # tr F = i
    half = OperatorMatrix.identity(ring_for(gf9), 9).scaled(ring_for(gf9).rational(1, 2))
    assert Spectrum((half, half)).ranks == (None, None)  # tr = 9/2 each
    assert fourier.fourier_spectrum(gf9).ranks == (3, 2, 2, 2)
    # a rank that is no integer fails the partition item of both suites
    for module, attr, suite in ((fourier, "fourier_spectrum", verify.fourier_suite),
                                (frobenius, "frobenius_spectrum", verify.frobenius_suite)):
        monkeypatch.setattr(module, attr, lambda field: Spectrum((half, half)))
        status = {i.name: i.status for i in suite(gf9).items}
        assert status["projector_ranks_partition"] == "fail"


def test_symplectic_suite_does_not_import_numpy_ma():
    # numpy.ma costs about 13 ms to import, and plain np.unique imports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "from gfharmonic.gf import make_field\n"
            "from gfharmonic.verify import run_suite\n"
            "assert run_suite(make_field(3, 2), 'symplectic').passed\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
