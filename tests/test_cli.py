import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gfharmonic

from gfharmonic.cli import main
from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import GFField, make_field
from gfharmonic.hilbert import point_projector, ring_for
from gfharmonic.jsonio import matrix_from_json, matrix_to_json


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_field_report(capsys):
    code, out = run_cli(capsys, ["field", "--p", "3", "--ell", "2",
                                 "--modulus", "2,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["dual_basis"][0] == "0,2"
    assert data["gram"] == [[2, 2], [2, 0]]
    assert data["elements"][3] == "0,1"
    assert data["traces"] == [0, 2, 1, 2, 1, 0, 1, 0, 2]
    assert data["subfields"]["1"] == ["0,0", "1,0", "2,0"]


def test_field_prime(capsys):
    code, out = run_cli(capsys, ["field", "--p", "3", "--ell", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3 and data["modulus"] == [0, 1]


def test_field_not_prime_exits_2(capsys):
    code, _ = run_cli(capsys, ["field", "--p", "4", "--ell", "1"])
    assert code == 2


def test_missing_required_args_exits_2(capsys):
    code, _ = run_cli(capsys, ["field"])
    assert code == 2


def test_order_cap(capsys):
    code, _ = run_cli(capsys, ["field", "--p", "7", "--ell", "4"])
    assert code == 2
    code, _ = run_cli(capsys, ["field", "--p", "7", "--ell", "4",
                               "--max-order", "3000"])
    assert code == 0


@pytest.mark.parametrize("argv", [["field"], ["verify", "all"]], ids=["field", "verify"])
def test_order_cap_never_builds_the_power(capsys, argv):
    # 3**100000000 has 48 million digits; the cap check must not build it
    start = time.perf_counter()
    code = main(argv + ["--p", "3", "--ell", "100000000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1
    assert err.startswith("error: field order 3**100000000 exceeds the cap 343")


def test_op_zpow_matches_frozen_diagonal(capsys):
    code, out = run_cli(capsys, ["op", "zpow", "--alpha", "1,0", "--p", "3",
                                 "--ell", "2", "--modulus", "2,1,1"])
    assert code == 0
    field = make_field(3, 2, [2, 1, 1])
    ring = ring_for(field)
    mat = matrix_from_json(json.loads(out), ring).rows
    expected = [0, 2, 1, 2, 1, 0, 1, 0, 2]
    for i in range(9):
        assert mat[i][i] == ring.omega(expected[i])


def test_op_displace_identity(capsys):
    code, out = run_cli(capsys, ["op", "displace", "--alpha", "0,0",
                                 "--beta", "0,0", "--p", "3", "--ell", "2",
                                 "--modulus", "2,1,1"])
    assert code == 0
    field = make_field(3, 2, [2, 1, 1])
    ring = ring_for(field)
    mat = matrix_from_json(json.loads(out), ring)
    from gfharmonic.linalg import OperatorMatrix
    assert mat.equals(OperatorMatrix.identity(ring, 9))


def test_op_symplectic_emits_parameter_matrix(capsys):
    code, out = run_cli(capsys, ["op", "symplectic", "--r", "1,0", "--s",
                                 "1,1", "--t", "0,1", "--p", "3", "--ell",
                                 "2", "--modulus", "2,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["parameter_matrix"] == [["2,0", "1,1"], ["0,1", "1,0"]]
    field = make_field(3, 2, [2, 1, 1])
    mat = matrix_from_json(data, ring_for(field))
    # emitted unitary reproduces the worked conjugation example
    from gfharmonic.heisenberg import displacement, z_power
    from gfharmonic.linalg import conjugate
    target = displacement(field, field.element([0, 2]), field.element([1, 2]))
    assert conjugate(mat, z_power(field, field.generator)).equals(target)


def test_op_float_backend(capsys):
    code, out = run_cli(capsys, ["op", "fourier", "--p", "3", "--ell", "1",
                                 "--backend", "float"])
    assert code == 0
    data = json.loads(out)
    assert data["backend"] == "float"
    f = matrix_from_json(data)
    assert isinstance(f, np.ndarray) and f.shape == (3, 3)
    assert np.linalg.norm(f @ f.conj().T - np.eye(3)) <= 1e-9


def test_op_float_entries_embed_the_exact_matrix(capsys):
    code, out = run_cli(capsys, ["op", "fourier", "--p", "3", "--ell", "2",
                                 "--backend", "float"])
    assert code == 0
    entries = json.loads(out)["entries"]
    exact = fourier_matrix(make_field(3, 2))
    assert entries == [[complex(x).real, complex(x).imag]
                       for row in exact.rows for x in row]


def test_op_projector(capsys):
    code, out = run_cli(capsys, ["op", "projector", "--point", "2", "--p",
                                 "3", "--ell", "1"])
    assert code == 0
    code, out = run_cli(capsys, ["op", "projector", "--subspace", "1",
                                 "--p", "3", "--ell", "2"])
    assert code == 0
    code, out = run_cli(capsys, ["op", "projector", "--p", "3", "--ell", "1"])
    assert code == 2


def test_verify_single_field(capsys):
    code, out = run_cli(capsys, ["verify", "all", "--p", "3", "--ell", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    suites = {s["suite"] for f in data["fields"] for s in f["suites"]}
    assert suites == {"gf", "fourier", "frobenius", "heisenberg", "symplectic"}


def test_verify_exhaustive_symplectic(capsys):
    code, out = run_cli(capsys, ["verify", "symplectic", "--p", "3", "--ell",
                                 "1", "--exhaustive"])
    assert code == 0
    data = json.loads(out)
    items = {i["name"]: i for f in data["fields"] for s in f["suites"]
             for i in s["items"]}
    assert items["action_law_exhaustive"]["status"] == "pass"
    assert items["action_law_exhaustive"]["detail"] == "elements=24"


def test_verify_char_two_skips(capsys):
    code, out = run_cli(capsys, ["verify", "all", "--p", "2", "--ell", "2"])
    assert code == 0
    data = json.loads(out)
    bysuite = {s["suite"]: s for f in data["fields"] for s in f["suites"]}
    assert bysuite["heisenberg"]["items"][0]["status"] == "skip"
    assert bysuite["symplectic"]["items"][0]["status"] == "skip"
    assert bysuite["gf"]["passed"] and bysuite["fourier"]["passed"]


def test_verify_perturbed_phase_fails(capsys):
    field = make_field(3, 1)
    bad = (field.two_inverse + 1) % 3
    code, out = run_cli(capsys, ["verify", "heisenberg", "--p", "3", "--ell",
                                 "1", "--perturb-displacement-phase", str(bad)])
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]


def test_verify_reducible_modulus_exits_2(capsys):
    code, _ = run_cli(capsys, ["verify", "all", "--p", "3", "--ell", "2",
                               "--modulus", "1,2,1"])
    assert code == 2


def test_verify_float_backend(capsys):
    code, out = run_cli(capsys, ["verify", "all", "--p", "3", "--ell", "2",
                                 "--backend", "float"])
    assert code == 0
    data = json.loads(out)
    assert data["fields"][0]["suites"][0]["suite"] == "float"


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.5", "0"])
def test_verify_tolerance_must_be_finite_and_nonnegative(capsys, tol):
    # inf would pass every float item and nan or a negative value fail them
    # all, whatever the identities hold; 0 is a real (strict) threshold
    code = main(["verify", "all", "--p", "3", "--ell", "1", "--backend", "float",
                 "--tolerance", tol])
    out, err = capsys.readouterr()
    if tol == "0":
        assert code in (0, 1) and err == ""
        assert json.loads(out)["fields"][0]["suites"][0]["suite"] == "float"
    else:
        assert code == 2 and out == ""
        assert err == f"error: --tolerance must be a finite number >= 0; got {float(tol)!r}\n"


def test_fixtures(capsys):
    code, out = run_cli(capsys, ["fixtures"])
    assert code == 0
    data = json.loads(out)
    assert data["diff"] == []
    assert all(c["match"] for c in data["checks"])
    names = {c["check"] for c in data["checks"]}
    assert {"z_diagonal", "z_eigenprojector_memberships",
            "frobenius_eigenprojectors",
            "symplectic_conjugation_chain"} <= names


def test_swapped_dual_components_fail_fixtures_and_suite(capsys, monkeypatch):
    # the witness derives the factor labels and the tensor split from the
    # field's components, so a fault there fails both readers of it
    components = GFField.components

    def swapped(field, m):
        std, dual = components(field, m)
        return std, dual[::-1]

    monkeypatch.setattr(GFField, "components", swapped)
    code, out = run_cli(capsys, ["fixtures"])
    assert code == 1
    assert json.loads(out)["diff"] == [{"check": "symplectic_conjugation_chain", "diff": [
        {"displacement_tensor_split": False}, {"tensor_factor_labels": [[0, 1], [1, 2]]}]}]
    code, out = run_cli(capsys, ["verify", "symplectic", "--p", "3", "--ell", "2",
                                 "--modulus", "2,1,1"])
    items = {i["name"]: i["status"] for i in json.loads(out)["fields"][0]["suites"][0]["items"]}
    assert code == 1 and items["non_factorization_witness"] == "fail"


def test_json_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(capsys, ["field", "--p", "3", "--ell", "1",
                                 "--json", str(path)])
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["order"] == 3


def test_weyl_command(tmp_path, capsys):
    import gfharmonic.hilbert as hs
    from gfharmonic.jsonio import matrix_to_json as m2j
    field = make_field(3, 2, [2, 1, 1])
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(m2j(hs.point_projector(field, 2))))
    code, out = run_cli(capsys, ["weyl", "--theta", str(theta_path), "--p",
                                 "3", "--ell", "2", "--modulus", "2,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["round_trip"] is True
    support = [(a, b) for a in range(9) for b in range(9)
               if any(data["values"][a][b]["coeffs"])]
    assert all(b == 0 for _, b in support) and len(support) == 9
    code, _ = run_cli(capsys, ["weyl", "--p", "3", "--ell", "1"])
    assert code == 2


def test_weyl_rejects_float_theta(tmp_path, capsys):
    field = make_field(3, 2, [2, 1, 1])
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(
        matrix_to_json(point_projector(field, 2).embed())))
    code = main(["weyl", "--theta", str(theta_path), "--p", "3", "--ell",
                 "2", "--modulus", "2,1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def theta_payload(entry0):
    # the 3 x 3 exact matrix over GF(3) that is zero but for entry (0, 0)
    ring = ring_for(make_field(3, 1))
    data = matrix_to_json(point_projector(make_field(3, 1), 0))
    data["entries"][0] = entry0
    assert data["entries"][1] == {"coeffs": [0] * ring.degree, "scale_exp": 0,
                                  "denom": 1, "N": ring.order}
    return data


def test_weyl_round_trips_a_denominator_past_int64(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_payload(
        {"coeffs": [1, 0, 0, 0], "scale_exp": 0, "denom": 2 ** 70 + 1, "N": 12})))
    code, out = run_cli(capsys, ["weyl", "--p", "3", "--ell", "1", "--theta", str(path)])
    assert code == 0 and json.loads(out)["round_trip"] is True


@pytest.mark.parametrize("text", [
    json.dumps(theta_payload({"coeffs": [1, 0], "scale_exp": 0, "denom": 1, "N": 12})),
    json.dumps(theta_payload({"coeffs": [1, 0, 0, 0], "scale_exp": -1, "denom": 1, "N": 12})),
    json.dumps(theta_payload({"coeffs": [1, 0, 0, 0], "scale_exp": 0, "N": 12})),
    "this is not JSON",
    b"\xff\xfe not UTF-8",
    json.dumps({"dim": 0, "backend": "exact", "entries": []}),
], ids=["coefficient-count", "negative-scale", "missing-key", "not-json", "not-utf8",
        "empty-matrix"])
def test_weyl_rejects_a_malformed_theta(text, tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["weyl", "--p", "3", "--ell", "1", "--theta", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_verify_verbose(capsys):
    code = main(["verify", "gf", "--p", "3", "--ell", "1", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert "gf.frobenius_order: pass" in captured.err


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--ell", "2", "--modulus", "a"],
    ["op", "zpow", "--p", "3", "--ell", "2", "--alpha", "x,y"],
    ["op", "zpow", "--p", "3", "--ell", "2", "--alpha", "99"],
    ["op", "zpow", "--p", "3", "--ell", "2", "--alpha", "3,0"],
    ["op", "projector", "--p", "3", "--ell", "1", "--point", "-1"],
    ["verify", "gf", "--ell", "2"],
    ["op", "fourier", "--p", "3", "--ell", "2", "--d", "0"],
    ["op", "fourier", "--p", "3", "--ell", "2", "--d", "-1"],
    ["op", "projector", "--p", "3", "--ell", "2", "--subspace", "0"],
])
def test_bad_input_exits_2_with_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("extra,message", [
    (["--u", "1"], "parameters do not satisfy r*u - s*t = 1"),
    (["--r", "0"], "r = 0 leaves u undetermined; supply it"),
    (["--r", "0", "--u", "5"], "parameters do not satisfy r*u - s*t = 1"),
], ids=["bad_u", "r0_without_u", "r0_bad_u"])
def test_op_symplectic_rejects_a_non_group_element(capsys, extra, message):
    code = main(["op", "symplectic", "--p", "3", "--ell", "2", "--modulus", "2,1,1",
                 "--r", "1", "--s", "4", "--t", "3", *extra])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--ell", "1", "--backend", "float"],
    ["field", "--p", "3", "--ell", "1", "--tolerance", "0.1"],
    ["op", "fourier", "--p", "3", "--ell", "1", "--tolerance", "0.1"],
    ["weyl", "--p", "3", "--ell", "1", "--backend", "float"],
    ["weyl", "--p", "3", "--ell", "1", "--tolerance", "0.1"],
    ["fixtures", "--p", "7"],
    ["fixtures", "--ell", "3"],
    ["fixtures", "--modulus", "1,1"],
    ["fixtures", "--backend", "float"],
    ["fixtures", "--tolerance", "0.1"],
    ["fixtures", "--max-order", "2"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flags_a_subcommand_does_not_read_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err


GF9_FLAGS = ["--p", "3", "--ell", "2"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "all", *GF9_FLAGS, "--backend", "float", "--perturb-displacement-phase", "1"],
     "--backend float does not read --perturb-displacement-phase"),
    (["verify", "all", *GF9_FLAGS, "--backend", "float", "--perturb-displacement-phase", "0"],
     "--backend float does not read --perturb-displacement-phase"),
    (["verify", "all", *GF9_FLAGS, "--backend", "float", "--exhaustive"],
     "--backend float does not read --exhaustive"),
    (["verify", "heisenberg", *GF9_FLAGS, "--backend", "float"],
     "--backend float runs only the float suite; use 'verify all', not 'verify heisenberg'"),
    (["op", "fourier", *GF9_FLAGS, "--alpha", "1", "--r", "2"],
     "op fourier does not read --alpha, --r"),
    (["op", "displace", *GF9_FLAGS, "--alpha", "1", "--beta", "2", "--d", "1"],
     "op displace does not read --d"),
    (["op", "projector", *GF9_FLAGS, "--point", "1", "--subspace", "1"],
     "projector takes --point or --subspace, not both"),
    (["verify", "gf", *GF9_FLAGS, "--perturb-displacement-phase", "1"],
     "verify gf does not read --perturb-displacement-phase (only the heisenberg suite does)"),
    (["verify", "symplectic", *GF9_FLAGS, "--perturb-displacement-phase", "0"],
     "verify symplectic does not read --perturb-displacement-phase "
     "(only the heisenberg suite does)"),
    (["verify", "fourier", *GF9_FLAGS, "--exhaustive"],
     "verify fourier does not read --exhaustive (only the symplectic suite does)"),
    (["verify", "heisenberg", *GF9_FLAGS, "--exhaustive", "--perturb-displacement-phase", "1"],
     "verify heisenberg does not read --exhaustive (only the symplectic suite does)"),
], ids=["float-perturbed-phase", "float-perturbed-phase-0", "float-exhaustive",
        "float-named-suite", "fourier-label-flags", "displace-d", "projector-both",
        "gf-perturbed-phase", "symplectic-perturbed-phase-0", "fourier-exhaustive",
        "heisenberg-exhaustive"])
def test_flags_without_effect_exit_2(capsys, argv, message):
    # a flag the run would ignore must not pass for one it obeyed: under the
    # float backend, or in a suite other than heisenberg, the perturbed phase
    # would be a negative control that cannot fail
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(gfharmonic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gfharmonic.cli", "field", "--p", "3",
         "--ell", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 3
