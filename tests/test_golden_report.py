"""The ``verify`` reports, byte for byte against recorded output.

The files under ``data/`` are the stdout of the commands below.  An
intended change of report output regenerates them, for example with
``python -m gfharmonic.cli verify all > tests/data/verify_all_default_grid.json``.
"""

import pathlib

import pytest

from gfharmonic.cli import main

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv, code", [
    ("verify_all_default_grid.json", ["verify", "all"], 0),
    ("verify_heisenberg_gf9_perturbed.json",
     ["verify", "heisenberg", "--p", "3", "--ell", "2",
      "--perturb-displacement-phase", "1"], 1),
    # GF(49) runs the sampled group checks: action_law_sampled and the
    # 50-element closed-form draw
    ("verify_symplectic_gf49.json", ["verify", "symplectic", "--p", "7", "--ell", "2"], 0),
    # GF(49) runs the label sums as products with the character table, and
    # the label laws read from the certified grid above the q <= 27 of
    # their brute-force references
    ("verify_heisenberg_gf49.json", ["verify", "heisenberg", "--p", "7", "--ell", "2"], 0),
])
def test_verify_report_matches_recorded_output(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()
