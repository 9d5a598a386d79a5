import json
import os
import subprocess
import sys

import pytest

import gfharmonic

from gfharmonic.cli import main
from gfharmonic.gf import make_field
from gfharmonic.hilbert import ring_for
from gfharmonic.jsonio import matrix_from_json


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


def test_op_zpow_matches_frozen_diagonal(capsys):
    code, out = run_cli(capsys, ["op", "zpow", "--alpha", "1,0", "--p", "3",
                                 "--ell", "2", "--modulus", "2,1,1"])
    assert code == 0
    field = make_field(3, 2, [2, 1, 1])
    ring = ring_for(field)
    mat = matrix_from_json(json.loads(out), ring)
    expected = [0, 2, 1, 2, 1, 0, 1, 0, 2]
    for i in range(9):
        assert mat.rows[i][i] == ring.omega(expected[i])


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
    mat = matrix_from_json(data)
    assert mat.is_unitary()


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
])
def test_bad_input_exits_2_with_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(gfharmonic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gfharmonic.cli", "field", "--p", "3",
         "--ell", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 3
