"""Child process of the benchmark: one job, the kernel micro-runs, or the gate.

Run by ``bench/run.py`` with ``src`` on ``PYTHONPATH``, one fresh interpreter
per job, because gfharmonic caches every field, ring and operator in-process
and a CLI user always starts cold::

    python3 bench/worker.py job   <workload> <seed> <out_dir> <tag> <traced>
    python3 bench/worker.py micro <seed> <out_file>
    python3 bench/worker.py gate  <workload> <seed> <out_dir> <tag>...

The CLI is driven through ``gfharmonic.cli.main(argv)``: the package is not
installed, and ``python -m gfharmonic.cli`` does nothing because ``cli.py``
has no ``__main__`` block.

This module imports gfharmonic only inside the functions below, so the
parent can read ``JOBS`` without importing the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

# What one job (one fresh process) does, per workload.  Sized so that a 30 s
# run fits two to five jobs (field-tables is not in BENCHMARK.json).
JOBS = {
    # every suite on the fields of verify.DEFAULT_GRID with q <= 9
    "verify-grid": {"fields": ((3, 1), (3, 2), (5, 1), (7, 1)),
                    "suites": ("gf", "fourier", "frobenius", "heisenberg",
                               "symplectic")},
    # the dense-product suites on the two q >= 25 fields of DEFAULT_GRID
    "verify-dense": {"fields": ((5, 2), (3, 3)),
                     "suites": ("fourier", "frobenius")},
    # `gfharmonic op symplectic` on GF(169): ring degree 24, as for GF(343)
    "emit-op": {"fields": ((13, 2),)},
    # `gfharmonic field` on the two largest tables the benchmark builds
    "field-tables": {"fields": ((7, 4), (3, 7))},
}
FIELD_MAX_ORDER = "2401"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit_params(seed: int, golden: dict) -> list[str]:
    """The (r, s, t) labels of the emit-op job for this seed.

    Drawn from a fixed list of generic-chart triples (r != 0, st + 1 != 0)
    whose output digests the golden file holds.
    """
    entries = golden["emit-op"]
    return [str(x) for x in entries[random.Random(seed).randrange(len(entries))]["triple"]]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one job


def run_job(workload: str, seed: int, out_dir: Path, tag: str, traced: bool) -> None:
    from gfharmonic import cli, gf, hilbert, verify

    spec = JOBS[workload]
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer(f"{workload}/seed={seed}/{tag}")
        tracer.install()
        top = tracer.harness_span
    else:
        top = lambda name: contextlib.nullcontext()  # noqa: E731

    record: dict = {"workload": workload, "seed": seed, "traced": traced}
    if workload == "emit-op":
        r, s, t = emit_params(seed, json.loads(GOLDEN.read_text(encoding="utf-8")))
    build_rss = 0.0
    with top("setup"):
        fields = []
        for p, ell in spec["fields"]:
            before = _maxrss_mb()
            fields.append(gf.make_field(p, ell))
            build_rss += _maxrss_mb() - before
            if workload != "field-tables":
                hilbert.ring_for(fields[-1])
    record["setup_end"] = time.monotonic()
    record["gf_build_rss_mb"] = build_rss

    outputs = []
    if "suites" in spec:
        reports = []
        for field in fields:
            config = verify.VerifyConfig(seed=seed)
            for suite in spec["suites"]:
                with top(f"verify.{suite}.{field.p}_{field.ell}"):
                    reports.append(verify.run_suite(field, suite, config).to_json())
        path = out_dir / f"{tag}-report.json"
        with top("verify.report"):
            path.write_text(json.dumps(reports, indent=2), encoding="utf-8")
        outputs.append(str(path))
        record["rc"] = 0
    elif workload == "emit-op":
        path = out_dir / f"{tag}-op.json"
        argv = ["op", "symplectic", "--p", "13", "--ell", "2",
                "--r", r, "--s", s, "--t", t, "--json", str(path)]
        with top("cli.main"):
            record["rc"] = cli.main(argv)
        outputs.append(str(path))
    else:
        record["rc"] = 0
        for field in fields:
            path = out_dir / f"{tag}-field-{field.p}_{field.ell}.json"
            argv = ["field", "--p", str(field.p), "--ell", str(field.ell),
                    "--max-order", FIELD_MAX_ORDER, "--json", str(path)]
            with top("cli.main"):
                record["rc"] = record["rc"] or cli.main(argv)
            outputs.append(str(path))
    record["job_end"] = time.monotonic()
    record["outputs"] = outputs
    record["emit_bytes"] = (sum(os.path.getsize(p) for p in outputs)
                            if workload in ("emit-op", "field-tables") else 0)
    if tracer is not None:
        record["trace"] = tracer.summary()
        spans_path = out_dir / f"{tag}-spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": tracer.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans,
                       "harness": sorted(tracer.harness)}, fh, separators=(",", ":"))
        record["spans_file"] = str(spans_path)
    (out_dir / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")


# ---------------------------------------------------------------------------
# kernel micro-runs

# cyclotomic ring degree -> a field whose ring has it
CYCLO_RINGS = {4: (3, 2), 8: (5, 2), 12: (7, 2), 24: (7, 3)}
POOL = 200
PASSES = 7


def _per_call_us(fn, items, reset=None) -> dict:
    """Median per-call microseconds over PASSES timed passes.

    One untimed warm-up pass comes first; ``reset`` runs untimed before
    every pass (a fresh accumulator).
    """
    times = []
    for i in range(PASSES + 1):
        if reset is not None:
            reset()
        start = time.perf_counter()
        for item in items:
            fn(item)
        if i:
            times.append((time.perf_counter() - start) / len(items) * 1e6)
    return {"value": statistics.median(times), "samples": PASSES * len(items)}


def _per_call_s(fn, samples: int) -> dict:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"value": statistics.median(times), "samples": samples}


def run_micro(seed: int, out_file: Path) -> None:
    from gfharmonic import fourier, gf, heisenberg, hilbert
    from gfharmonic.cyclo import ScalarAccumulator, get_ring, ring_order
    from gfharmonic.linalg import EXACT, OperatorMatrix

    rng = random.Random(seed)
    out = {}
    # the q x q table build, first so that its peak-RSS growth stands alone
    before = _maxrss_mb()
    out["gf.build_s.q2401"] = _per_call_s(lambda: gf.make_field(7, 4), 1)
    out["gf.build_rss_mb.q2401"] = {"value": _maxrss_mb() - before, "samples": 1}
    for degree, (p, ell) in CYCLO_RINGS.items():
        ring = get_ring(ring_order(p, ell), p)

        def rand_vec(lo, hi):
            vec = [rng.randint(lo, hi) for _ in range(ring.degree)]
            vec[rng.randrange(ring.degree)] = rng.choice((-2, -1, 1, 2))
            return vec

        # mixed scale exponents and denominators, as in suite inputs
        xs = [ring.scalar(rand_vec(-3, 3), rng.choice((0, 1, 2)),
                          rng.choice((1, 1, 2))) for _ in range(POOL)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        raw = [(rand_vec(-9, 9), rng.choice((2, 3, 4)), rng.choice((1, 2, 3)))
               for _ in range(POOL)]
        roots = [(x, rng.randrange(ring.order)) for x in xs]
        state = {}

        def fresh_acc():
            state["acc"] = ScalarAccumulator(ring)

        out[f"cyclo.mul_us.d{degree}"] = _per_call_us(lambda ab: ab[0] * ab[1], pairs)
        out[f"cyclo.scalar_us.d{degree}"] = _per_call_us(lambda a: ring.scalar(*a), raw)
        out[f"cyclo.times_root_us.d{degree}"] = _per_call_us(
            lambda xk: xk[0].times_root(xk[1]), roots)
        out[f"cyclo.acc_add_us.d{degree}"] = _per_call_us(
            lambda x: state["acc"].add(x), xs, fresh_acc)
        out[f"cyclo.acc_add_product_us.d{degree}"] = _per_call_us(
            lambda ab: state["acc"].add_product(*ab), pairs, fresh_acc)
        if degree == 24:
            exps = [[rng.randrange(ring.order) for _ in range(p ** ell)]
                    for _ in range(20)]
            out["cyclo.sum_of_roots_us.d24"] = _per_call_us(
                lambda e: ring.sum_of_roots(e, 2 * ell), exps)

    # exact F @ F.  The warm-up product runs on the smallest field only: the
    # code path is the same, and one q = 49 product takes about a second.
    fmats = {q: fourier.fourier_matrix(gf.make_field(p, ell))
             for q, (p, ell) in ((9, (3, 2)), (25, (5, 2)), (27, (3, 3)),
                                 (49, (7, 2)))}
    fmats[9] @ fmats[9]
    for q, samples in ((9, 15), (25, 5), (27, 5), (49, 3)):
        out[f"linalg.matmul_s.q{q}"] = _per_call_s(lambda: fmats[q] @ fmats[q], samples)

    for q, (p, ell) in ((25, (5, 2)), (27, (3, 3))):
        field = gf.make_field(p, ell)
        ring = hilbert.ring_for(field)
        theta = OperatorMatrix(q, EXACT, ring, [
            [ring.scalar([rng.randint(-1, 1) for _ in range(ring.degree)])
             for _ in range(q)] for _ in range(q)])
        table = heisenberg.weyl_expand(field, theta)  # warm-up
        heisenberg.weyl_reconstruct(field, table)
        out[f"heisenberg.weyl_expand_s.q{q}"] = _per_call_s(
            lambda: heisenberg.weyl_expand(field, theta), 3)
        out[f"heisenberg.weyl_reconstruct_s.q{q}"] = _per_call_s(
            lambda: heisenberg.weyl_reconstruct(field, table), 3)
    out_file.write_text(json.dumps(out), encoding="utf-8")


# ---------------------------------------------------------------------------
# correctness gate (outside every timed interval)


def entry_digest(path, ring) -> str:
    from gfharmonic.jsonio import matrix_from_json

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    mat = matrix_from_json(data, ring)
    h = hashlib.sha256()
    for row in mat.rows:
        for x in row:
            h.update(repr((x.coeffs, x.scale_exp, x.denom)).encode())
    return h.hexdigest()


def verify_items(path) -> list:
    """Sorted (suite, field, item, status) of a verify job's report."""
    reports = json.loads(Path(path).read_text(encoding="utf-8"))
    return sorted([rep["suite"], rep["field"], item["name"], item["status"]]
                  for rep in reports for item in rep["items"])


def negative_controls() -> dict:
    """Checks that must fail, or equality checks have gone vacuous.

    The perturbed phase reaches scalar and monomial comparisons but not
    ``OperatorMatrix.equals``, so a distinct pair of dense matrices (the
    Fourier matrix of GF(9) and its adjoint) must also compare unequal.
    """
    from gfharmonic import errors, fourier, gf, verify

    gf9 = gf.make_field(3, 2)
    rep = verify.heisenberg_suite(gf9, verify.VerifyConfig(displacement_phase_coeff=1))
    try:
        gf.make_field(3, 2, [2, 0, 1])
        reducible_rejected = False
    except errors.ReducibleModulus:
        reducible_rejected = True
    f = fourier.fourier_matrix(gf9)
    return {"perturbed_phase_fails": not rep.passed,
            "reducible_modulus_rejected": reducible_rejected,
            "fourier_unequal_to_adjoint": not f.equals(f.adjoint())}


def output_digest(workload: str, seed: int, job: dict) -> object:
    """What the golden file records for one job's output."""
    if workload.startswith("verify"):
        return verify_items(job["outputs"][0])
    if workload == "emit-op":
        from gfharmonic import gf, hilbert
        return entry_digest(job["outputs"][0], hilbert.ring_for(gf.make_field(13, 2)))
    return [sha256_file(p) for p in job["outputs"]]


def expected_digest(workload: str, seed: int, golden: dict) -> object:
    if workload == "emit-op":
        triple = [int(x) for x in emit_params(seed, golden)]
        for entry in golden["emit-op"]:
            if entry["triple"] == triple:
                return entry["digest"]
        raise KeyError(f"no golden digest for {triple}")
    return golden[workload]


def run_gate(workload: str, seed: int, out_dir: Path, tags: list[str]) -> dict:
    """Count attempted and failed operations over the jobs of one run.

    An operation is one check item, one emitted matrix or one field table.
    Identical inputs give byte-identical outputs, so only the first job's
    output is decoded; the others must match it byte for byte.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = expected_digest(workload, seed, golden)
    per_job = len(expected) if workload != "emit-op" else 1
    attempted = failed = 0
    reference = None
    for tag in tags:
        attempted += per_job
        path = out_dir / f"{tag}.json"
        if not path.is_file():
            failed += per_job
            continue
        job = json.loads(path.read_text(encoding="utf-8"))
        if job["rc"] != 0 or not all(os.path.isfile(p) for p in job["outputs"]):
            failed += per_job
            continue
        hashes = [sha256_file(p) for p in job["outputs"]]
        if reference is None:
            reference = hashes
            got = output_digest(workload, seed, job)
            if workload.startswith("verify"):
                want = {tuple(item[:3]): item[3] for item in expected}
                have = {tuple(item[:3]): item[3] for item in got}
                failed += sum(want.get(key) != have.get(key)
                              for key in want.keys() | have.keys())
            else:
                failed += per_job * (got != expected)
        elif hashes != reference:
            failed += per_job
    controls = negative_controls()
    return {"attempted": attempted, "failed": failed, "controls": controls,
            "correct": failed == 0 and all(controls.values())}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "job":
        workload, seed, out_dir, tag, traced = argv[1:6]
        run_job(workload, int(seed), Path(out_dir), tag, traced == "1")
    elif mode == "micro":
        run_micro(int(argv[1]), Path(argv[2]))
    elif mode == "gate":
        workload, seed, out_dir = argv[1:4]
        result = run_gate(workload, int(seed), Path(out_dir), argv[4:])
        (Path(out_dir) / "gate.json").write_text(json.dumps(result), encoding="utf-8")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
