"""gfharmonic benchmark: fresh-process jobs, a correctness gate, one JSON line.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every job is a fresh interpreter
(``bench/worker.py``) with ``src`` on ``PYTHONPATH``: the program caches its
fields, rings and operators in-process, and a CLI user always starts cold.
Load is a closed loop: one job at a time, the next starting when the last
has exited.

``--trace 0`` runs jobs back to back for about ``--seconds`` (a job starts
only if at least half of it fits) and reports the median ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over them.
``--trace 1`` runs one untraced and one traced job plus the kernel
micro-runs, and reports the per-layer metrics.  Either way a gate process
then checks every output against ``bench/golden.json`` and runs the
negative controls, outside every timed interval.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a readable table
goes to standard error, and the full record (host, versions, every job,
every layer) to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import JOBS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A run must exit within 180 s.  Jobs and micro-runs are killed JOB_LIMIT_S
# after the run starts, the gate GATE_LIMIT_S after; see bench/README.md.
JOB_LIMIT_S = 150.0
GATE_LIMIT_S = 175.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
COUNTS = (("cyclo.scalar.calls", "count"), ("cyclo.mul.calls", "count"),
          ("cyclo.acc.terms", "count"), ("linalg.matmul.calls", "count"),
          ("linalg.monomial.calls", "count"),
          ("symplectic.synthesize.calls", "count"), ("cli.emit_bytes", "bytes"))
MICRO = tuple(
    [("gf.build_s.q2401", "s"), ("gf.build_rss_mb.q2401", "MB")]
    + [(f"cyclo.{k}_us.d{d}", "us") for k in ("mul", "scalar", "times_root",
                                            "acc_add", "acc_add_product")
     for d in (4, 8, 12, 24)]
    + [("cyclo.sum_of_roots_us.d24", "us")]
    + [(f"linalg.matmul_s.q{q}", "s") for q in (9, 25, 27, 49)]
    + [(f"heisenberg.{k}_s.q{q}", "s") for k in ("weyl_expand", "weyl_reconstruct")
       for q in (25, 27)])
PER_LAYER = ((("gf.build_s", "s"), ("gf.build_rss_mb", "MB")) + COUNTS + MICRO
             + (("host.calib_s", "s"), ("trace.overhead_s", "s"),
                ("trace.unattributed_s", "s")))


class Child:
    """One finished worker process: its wall interval and peak RSS.

    A watchdog kills the process at ``deadline``; ``timed_out`` says so.
    """

    def __init__(self, argv, env, deadline):
        self.start = time.monotonic()
        self.timed_out = False
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                                cwd=ROOT, env=env, stdout=sys.stderr)

        def kill():
            self.timed_out = True
            proc.kill()

        watchdog = threading.Timer(max(1.0, deadline - self.start), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        self.end = time.monotonic()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def host_calibration() -> float:
    """Median time of a fixed pure-Python loop, a reference for host drift."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the benchmark may run from an exported tree
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def run_job(args, env, out_dir, tag, traced, deadline):
    child = Child(["job", args.workload, str(args.seed), str(out_dir), tag,
                   "1" if traced else "0"], env, deadline)
    path = out_dir / f"{tag}.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    record["tag"] = tag
    return child, record


def layer_metrics(jobs, micro, calib) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the report-only layer table.

    Job walls here end when the job's work ends, before the traced job
    writes its spans out.
    """
    (untraced, untraced_record), (traced, record) = jobs
    trace = record["trace"]
    busy, calls, counts = trace["busy_s"], trace["calls"], trace["counts"]
    traced_wall = record["job_end"] - traced.start
    metrics = {
        "gf.build_s": busy.get("gf.build", 0.0),
        "gf.build_rss_mb": record["gf_build_rss_mb"],
        "cyclo.scalar.calls": counts.get("cyclo.scalar.calls", 0),
        "cyclo.mul.calls": counts.get("cyclo.mul.calls", 0),
        "cyclo.acc.terms": counts.get("cyclo.acc.terms", 0),
        "linalg.matmul.calls": calls.get("linalg.matmul", 0),
        "linalg.monomial.calls": calls.get("linalg.monomial", 0),
        "symplectic.synthesize.calls": calls.get("symplectic.synthesize", 0),
        "cli.emit_bytes": record["emit_bytes"],
        "host.calib_s": calib,
        "trace.overhead_s": traced_wall - (untraced_record["job_end"] - untraced.start),
        "trace.unattributed_s": traced_wall - trace["layer_s"],
    }
    for name, _ in MICRO:
        metrics[name] = micro[name]["value"]
    layers = {f"{name}.busy_s": value for name, value in sorted(busy.items())
              if not name.startswith(("verify.", "setup", "cli.main"))}
    layers.update({f"{name}.wall_s": value
                   for name, value in sorted(trace["top_level_s"].items())
                   if name.startswith("verify.") and name != "verify.report"})
    layers.update({f"{name}.calls": value for name, value in sorted(calls.items())
                   if not name.startswith(("verify.", "setup", "cli.main"))})
    layers.update({f"{name}.samples": micro[name]["samples"] for name, _ in MICRO})
    # the two parts of trace.unattributed_s
    outside = traced_wall - sum(trace["top_level_s"].values())
    layers["trace.outside_spans_s"] = outside
    layers["trace.harness_self_s"] = metrics["trace.unattributed_s"] - outside
    return metrics, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gfharmonic" / "__init__.py").is_file():
        print(f"error: no gfharmonic sources under {SRC}", file=sys.stderr)
        return 2
    began = time.monotonic()
    deadline = began + JOB_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = OUT / run_name
    out_dir.mkdir(parents=True, exist_ok=True)
    calib = host_calibration()
    env_info = environment()

    jobs = []
    if args.trace:
        jobs.append(run_job(args, env, out_dir, "untraced", False, deadline))
        jobs.append(run_job(args, env, out_dir, "traced", True, deadline))
        micro_file = out_dir / "micro.json"
        micro_child = Child(["micro", str(args.seed), str(micro_file)], env, deadline)
    else:
        start = time.monotonic()
        while True:
            jobs.append(run_job(args, env, out_dir, f"job{len(jobs)}", False, deadline))
            last = jobs[-1][0]
            # start another job only if at least half of it fits the window
            if last.rc != 0 or last.end - start + last.wall / 2 > args.seconds:
                break

    # A killed job has no output to check: it is reported as timed out, not
    # as wrong, and its wall (a lower bound) still counts in wall_s.
    timed_out = [record["tag"] for c, record in jobs if c.timed_out]
    tags = [record["tag"] for c, record in jobs if not c.timed_out]
    gate_child = Child(["gate", args.workload, str(args.seed), str(out_dir)] + tags,
                       env, began + GATE_LIMIT_S)
    gate_file = out_dir / "gate.json"
    if tags and gate_child.rc == 0 and gate_file.is_file():
        gate = json.loads(gate_file.read_text(encoding="utf-8"))
    else:
        # nothing was checked: no job finished, or the gate did not
        gate = {"attempted": max(1, len(jobs)), "failed": max(1, len(jobs)),
                "controls": {}, "correct": False}
    if gate_child.timed_out:
        timed_out.append("gate")

    if args.trace and micro_child.timed_out:
        timed_out.append("micro")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env_info, "gate": gate,
              "timed_out": timed_out,
              "jobs": [{"rc": c.rc, "timed_out": c.timed_out, "wall_s": c.wall,
                        "peak_rss_mb": c.peak_rss_mb,
                        "setup_s": r.get("setup_end", c.end) - c.start}
                       for c, r in jobs]}
    correct = gate["correct"] and all(c.rc == 0 for c, _ in jobs if not c.timed_out)
    if args.trace:
        # crashed micro-runs or a traced job without a trace are failures;
        # timed-out ones only leave the layer metrics at 0
        complete = (not timed_out and micro_child.rc == 0
                    and "trace" in jobs[1][1])
        if correct and complete:
            micro = json.loads(micro_file.read_text(encoding="utf-8"))
            values, layers = layer_metrics(jobs, micro, calib)
        else:
            values, layers = {name: 0.0 for name, _ in PER_LAYER}, {}
        correct = correct and (complete or bool(timed_out))
        record["layers"] = layers
        units = dict(PER_LAYER)
    else:
        values = {
            "wall_s": statistics.median(j["wall_s"] for j in record["jobs"]),
            "setup_s": statistics.median(j["setup_s"] for j in record["jobs"]),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in record["jobs"]),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    failed_share = gate["failed"] / max(1, gate["attempted"])
    record.update(metrics=metrics, failed_share=failed_share, host_calib_s=calib,
                  total_s=time.monotonic() - began)

    for c, r in jobs:
        for path in r.get("outputs", []):
            Path(path).unlink(missing_ok=True)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)} "
          f"correct={correct} failed_share={failed_share:.4g} "
          f"({gate['failed']}/{gate['attempted']}) host.calib_s={calib:.4f} "
          f"controls={gate['controls']} timed_out={timed_out}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for name, value in record.get("layers", {}).items():
        print(f"  {name:40s} {value:>14.6g}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": gate["attempted"],
                      "failed": gate["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
