"""Command-line front end.

Subcommands: ``field`` (field tables as JSON), ``op`` (emit an operator
matrix), ``verify`` (run identity suites over a field or the default grid),
``fixtures`` (reproduce the pinned GF(9) worked examples and diff them).

Exit codes: 0 success, 1 verification/fixture failure, 2 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fourier as fr
from . import frobenius as fb
from . import heisenberg as hb
from . import hilbert as hs
from . import symplectic as sp
from . import verify as vf
from .errors import ConfigError, GFHarmonicError
from .gf import make_field
from .jsonio import matrix_from_json, matrix_to_json, scalar_to_json
from .linalg import OperatorMatrix, conjugate, tensor_list

DEFAULT_MAX_ORDER = 343

GF9_Z_DIAG_EXPONENTS = (0, 2, 1, 2, 1, 0, 1, 0, 2)
GF9_Z_MEMBERSHIPS = {0: (0, 5, 7), 1: (2, 4, 6), 2: (1, 3, 8)}
GF9_ZEPS_MEMBERSHIPS = {0: (0, 3, 6), 1: (2, 5, 8), 2: (1, 4, 7)}
# Frobenius eigenprojector entries for the pinned GF(9) field, in halves.
GF9_FROB_PROJ_0 = (
    (2, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 1),
)
GF9_FROB_PROJ_1 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, -1, 0),
    (0, 0, 0, 0, -1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 0, 1, 0),
    (0, 0, 0, -1, 0, 0, 0, 0, 1),
)


def _parse_modulus(text):
    if text is None:
        return None
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ConfigError(f"--modulus must be comma-separated integers; "
                          f"got {text!r}") from None


def _label(field, text, flag):
    """Field element from an index ``k`` or coefficients ``m_0,...,m_{ell-1}``.

    Labels must be in range (0 <= k < q, 0 <= m_j < p): a label that
    ``GFField.element`` would silently reduce is rejected instead.
    """
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be an index or comma-separated "
                          f"coefficients; got {text!r}") from None
    if len(parts) == 1:
        if not 0 <= parts[0] < field.order:
            raise ConfigError(f"{flag} index {parts[0]} is outside "
                              f"0..{field.order - 1}")
        return field.element(parts[0])
    if len(parts) != field.ell or not all(0 <= c < field.p for c in parts):
        raise ConfigError(f"{flag} needs {field.ell} coefficients in "
                          f"0..{field.p - 1}; got {text!r}")
    return field.element(parts)


def _build_field(args):
    p = args.p
    ell = args.ell
    if p is None or ell is None:
        raise ConfigError("--p and --ell are required for this command")
    if p ** ell > args.max_order:
        raise ConfigError(
            f"field order {p}**{ell} exceeds the cap {args.max_order} "
            "(raise with --max-order)")
    return make_field(p, ell, _parse_modulus(args.modulus))


def _emit(args, payload) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _element_str(el) -> str:
    return str(el)


def _matrix_payload(args, mat: OperatorMatrix) -> dict:
    if args.backend == "float":
        mat = mat.embed()
    return matrix_to_json(mat)


# ---------------------------------------------------------------------------


def cmd_field(args) -> int:
    field = _build_field(args)
    dual = field.dual_basis
    traces = {}
    for d in field.divisors():
        traces[str(d)] = {
            str(field.element(i)): field.subfield_trace(i, d)
            for i in field.subfield_indices(d)
        }
    payload = {
        "p": field.p,
        "ell": field.ell,
        "order": field.order,
        "modulus": list(field.modulus),
        "elements": [_element_str(e) for e in field.elements()],
        "traces": [field.trace_index(i) for i in range(field.order)],
        "subfield_traces": traces,
        "gram": [list(r) for r in dual.gram],
        "gram_inverse": [list(r) for r in dual.gram_inv],
        "dual_basis": [_element_str(e) for e in dual.elements],
        "subfields": {
            str(d): [_element_str(e) for e in field.subfield_elements(d)]
            for d in field.divisors()
        },
    }
    _emit(args, payload)
    return 0


def cmd_op(args) -> int:
    field = _build_field(args)
    kind = args.kind
    if kind == "fourier":
        mat = (fr.subfield_fourier(field, args.d) if args.d
               else fr.fourier_matrix(field))
    elif kind == "frobenius":
        mat = fb.frobenius_matrix(field)
    elif kind == "zpow":
        if args.alpha is None:
            raise ConfigError("zpow needs --alpha")
        mat = hb.z_power(field, _label(field, args.alpha, "--alpha"))
    elif kind == "xpow":
        if args.beta is None:
            raise ConfigError("xpow needs --beta")
        mat = hb.x_power(field, _label(field, args.beta, "--beta"))
    elif kind == "displace":
        if args.alpha is None or args.beta is None:
            raise ConfigError("displace needs --alpha and --beta")
        mat = hb.displacement(field, _label(field, args.alpha, "--alpha"),
                              _label(field, args.beta, "--beta"))
    elif kind == "symplectic":
        if args.r is None or args.s is None or args.t is None:
            raise ConfigError("symplectic needs --r, --s and --t")
        r = _label(field, args.r, "--r")
        s = _label(field, args.s, "--s")
        t = _label(field, args.t, "--t")
        if args.u is not None:
            params = sp.SymplecticParams(r=r, s=s, t=t,
                                         u=_label(field, args.u, "--u"))
        else:
            params = sp.SymplecticParams.from_rst(field, r, s, t)
        mat = sp.synthesize(field, params)
        payload = _matrix_payload(args, mat)
        payload["parameter_matrix"] = [
            [_element_str(x) for x in row] for row in params.matrix()]
        _emit(args, payload)
        return 0
    elif kind == "projector":
        if args.point is not None:
            mat = hs.point_projector(field, _label(field, args.point, "--point"))
        elif args.subspace is not None:
            mat = hs.subspace_projector(field, args.subspace)
        else:
            raise ConfigError("projector needs --point or --subspace")
    else:
        raise ConfigError(f"unknown operator kind {kind!r}")
    _emit(args, _matrix_payload(args, mat))
    return 0


def cmd_weyl(args) -> int:
    field = _build_field(args)
    if args.theta is None:
        raise ConfigError("weyl needs --theta <json-file>")
    with open(args.theta, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    theta = matrix_from_json(data, hs.ring_for(field))
    if theta.backend != "exact":
        raise ConfigError("weyl expansion needs an exact-backend matrix")
    table = hb.weyl_expand(field, theta, source=args.theta)
    payload = {
        "dim": field.order,
        "labels": "values[alpha_index][beta_index]",
        "values": [[scalar_to_json(x) for x in row] for row in table.values],
        "round_trip": hb.weyl_reconstruct(field, table).equals(theta),
    }
    _emit(args, payload)
    return 0 if payload["round_trip"] else 1


def cmd_verify(args) -> int:
    config = vf.VerifyConfig(
        backend=args.backend,
        tolerance=args.tolerance,
        exhaustive=args.exhaustive,
        displacement_phase_coeff=args.perturb_displacement_phase,
    )
    if args.p is None and (args.ell is not None or args.modulus is not None):
        raise ConfigError("--ell and --modulus need --p")
    if args.p is not None:
        grid = [(args.p, args.ell if args.ell is not None else 1)]
        moduli = [_parse_modulus(args.modulus)]
    else:
        grid = list(vf.DEFAULT_GRID)
        moduli = [None] * len(grid)
    suites = (list(vf.SUITE_NAMES) if args.suite == "all" else [args.suite])
    if args.backend == "float":
        suites = ["float"]
    fields_payload = []
    all_pass = True
    for (p, ell), modulus in zip(grid, moduli):
        if p ** ell > args.max_order:
            raise ConfigError(
                f"field order {p}**{ell} exceeds the cap {args.max_order}")
        field = make_field(p, ell, modulus)
        reports = [vf.run_suite(field, name, config) for name in suites]
        all_pass = all_pass and all(r.passed for r in reports)
        if args.verbose:
            for rep in reports:
                for item in rep.items:
                    print(f"[{rep.field_desc}] {rep.suite}.{item.name}: "
                          f"{item.status}", file=sys.stderr)
        fields_payload.append({
            "p": p, "ell": ell, "modulus": list(field.modulus),
            "suites": [r.to_json() for r in reports],
        })
    payload = {"passed": all_pass, "fields": fields_payload}
    _emit(args, payload)
    return 0 if all_pass else 1


def _fixture_checks(field):
    """All pinned GF(9) worked-example comparisons, as (name, ok, diff)."""
    ring = hs.ring_for(field)
    checks = []

    z = hb.z_power(field, 1)
    diff = []
    for i in range(9):
        want = ring.omega(GF9_Z_DIAG_EXPONENTS[i])
        if z.rows[i][i] != want:
            diff.append({"entry": [i, i], "expected_omega_exponent":
                         GF9_Z_DIAG_EXPONENTS[i]})
    checks.append(("z_diagonal", diff))

    rep = hb.z_spectrum_example(field)
    diff = []
    if {k: rep["z"]["memberships"][k] for k in rep["z"]["memberships"]} \
            != GF9_Z_MEMBERSHIPS:
        diff.append({"z_memberships": str(rep["z"]["memberships"])})
    if {k: rep["z_eps"]["memberships"][k] for k in rep["z_eps"]["memberships"]} \
            != GF9_ZEPS_MEMBERSHIPS:
        diff.append({"z_eps_memberships": str(rep["z_eps"]["memberships"])})
    if not (rep["z"]["decomposition"] and rep["z_eps"]["decomposition"]
            and rep["families_differ"]):
        diff.append({"spectral_decomposition": False})
    checks.append(("z_eigenprojector_memberships", diff))

    # point projector at 2 as a pure phase-operator average
    q2 = hs.point_projector(field, 2)
    acc = None
    for a in range(9):
        term = hb.z_monomial(field, a).to_matrix().scaled(
            ring.omega(-field.trace_index(field.mul_index(2, a))))
        acc = term if acc is None else acc + term
    rebuilt = acc.scaled(ring.rational(1, 9))
    diff = [] if rebuilt.equals(q2) else [{"phase_average_projector": False}]
    checks.append(("point_projector_phase_average", diff))

    spec = fb.frobenius_spectrum(field)
    half = ring.rational(1, 2)
    diff = []
    for name, expected, proj in (("0", GF9_FROB_PROJ_0, spec.projectors[0]),
                                 ("1", GF9_FROB_PROJ_1, spec.projectors[1])):
        for n in range(9):
            for m in range(9):
                want = half * expected[n][m]
                if proj.rows[n][m] != want:
                    diff.append({"projector": name, "entry": [n, m],
                                 "expected_halves": expected[n][m]})
    checks.append(("frobenius_eigenprojectors", diff))

    eps = field.generator
    params = sp.SymplecticParams.from_rst(field, field.one, field.one + eps, eps)
    s_op = sp.synthesize(field, params)
    target = hb.displacement(field, field.element([0, 2]), field.element([1, 2]))
    diff = []
    if not conjugate(s_op, hb.z_power(field, eps)).equals(target):
        diff.append({"conjugated_diagonal_generator": False})
    facs = hb.tensor_factorize_displacement(field, field.element([0, 2]),
                                            field.element([1, 2]))
    if not target.equals(tensor_list(facs)):
        diff.append({"displacement_tensor_split": False})
    want_pair = ((1, 1), (0, 2))
    got_pair = tuple((field.components(field.element([0, 2]))[1][l],
                      field.element([1, 2]).coeffs[l]) for l in range(2))
    if got_pair != want_pair:
        diff.append({"tensor_factor_labels": got_pair})
    wit = sp.non_factorization_witness(field)
    if not wit["not_tensor_product"]:
        diff.append({"non_factorization": False})
    checks.append(("symplectic_conjugation_chain", diff))
    return checks


def cmd_fixtures(args) -> int:
    field = make_field(3, 2, [2, 1, 1])
    checks = _fixture_checks(field)
    diff = [{"check": name, "diff": d} for name, d in checks if d]
    payload = {
        "field": {"p": 3, "ell": 2, "modulus": [2, 1, 1]},
        "checks": [{"check": name, "match": not d} for name, d in checks],
        "diff": diff,
    }
    _emit(args, payload)
    return 0 if not diff else 1


# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--p", type=int, default=None, help="characteristic")
    parser.add_argument("--ell", type=int, default=None, help="extension degree")
    parser.add_argument("--modulus", default=None,
                        help="comma-separated modulus coefficients c0,c1,...")
    parser.add_argument("--backend", choices=["exact", "float"], default="exact")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="float-backend comparison tolerance")
    parser.add_argument("--json", default=None, help="write output to this path")
    parser.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                        help="largest allowed field order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfharmonic",
        description="Exact harmonic analysis on GF(p^ell): field tables, "
                    "operators, and bit-exact verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="emit field tables as JSON")
    _add_common(p_field)
    p_field.set_defaults(func=cmd_field)

    p_op = sub.add_parser("op", help="emit an operator matrix as JSON")
    p_op.add_argument("kind", choices=["fourier", "frobenius", "zpow", "xpow",
                                       "displace", "symplectic", "projector"])
    _add_common(p_op)
    p_op.add_argument("--d", type=int, default=None,
                      help="subfield degree (fourier)")
    p_op.add_argument("--alpha", default=None, help="element label")
    p_op.add_argument("--beta", default=None, help="element label")
    p_op.add_argument("--r", default=None)
    p_op.add_argument("--s", default=None)
    p_op.add_argument("--t", default=None)
    p_op.add_argument("--u", default=None)
    p_op.add_argument("--point", default=None, help="projector point label")
    p_op.add_argument("--subspace", type=int, default=None,
                      help="projector subfield degree")
    p_op.set_defaults(func=cmd_op)

    p_weyl = sub.add_parser("weyl", help="expand an operator over displacements")
    _add_common(p_weyl)
    p_weyl.add_argument("--theta", default=None,
                        help="path to an exact operator-matrix JSON file")
    p_weyl.set_defaults(func=cmd_weyl)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("suite",
                          choices=["all", "gf", "fourier", "frobenius",
                                   "heisenberg", "symplectic"])
    _add_common(p_verify)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="force exhaustive group sweeps")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print one line per identity to stderr")
    p_verify.add_argument("--perturb-displacement-phase", type=int,
                          default=None, metavar="COEFF",
                          help="self-test hook: override the half-phase "
                               "coefficient; suites must then fail")
    p_verify.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser("fixtures",
                           help="reproduce the pinned GF(9) worked examples")
    _add_common(p_fix)
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFHarmonicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
