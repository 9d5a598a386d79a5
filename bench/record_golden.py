"""Write bench/golden.json: the outputs every benchmark job must reproduce.

    PYTHONPATH=src python3 bench/record_golden.py

Run once, on the commit whose outputs are the reference.  The verify item
sets are recorded under two seeds and must agree, because the gate compares
every seed's run against one set.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import worker

TRIPLES = 16
SCRATCH = worker.HERE.parent / ".bench_out"


def verify_items(workload: str, seed: int) -> list:
    from gfharmonic import gf, verify

    spec = worker.JOBS[workload]
    reports = []
    for p, ell in spec["fields"]:
        field = gf.make_field(p, ell)
        config = verify.VerifyConfig(seed=seed)
        reports += [verify.run_suite(field, s, config).to_json() for s in spec["suites"]]
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(reports), encoding="utf-8")
        return worker.verify_items(path)


def generic_triples(count: int) -> list:
    """(r, s, t) index triples over GF(169) with r != 0 and st + 1 != 0."""
    from gfharmonic import gf

    field = gf.make_field(13, 2)
    rng = random.Random(169)
    out = []
    while len(out) < count:
        r, s, t = (rng.randrange(field.order) for _ in range(3))
        if r and not (field.element(s) * field.element(t) + field.one).is_zero:
            out.append([r, s, t])
    return out


def main() -> int:
    from gfharmonic import cli, gf, hilbert

    SCRATCH.mkdir(exist_ok=True)
    golden = {}
    for workload in ("verify-grid", "verify-dense"):
        items = verify_items(workload, 1)
        if items != verify_items(workload, 2):
            raise SystemExit(f"{workload}: item set depends on the seed")
        if any(item[3] == "fail" for item in items):
            raise SystemExit(f"{workload}: a check fails on this commit")
        keys = [tuple(item[:3]) for item in items]
        if len(set(keys)) != len(keys):
            raise SystemExit(f"{workload}: duplicate item names")
        golden[workload] = items

    ring = hilbert.ring_for(gf.make_field(13, 2))
    digests = []
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        out = Path(tmp) / "out.json"
        for triple in generic_triples(TRIPLES):
            r, s, t = map(str, triple)
            if cli.main(["op", "symplectic", "--p", "13", "--ell", "2", "--r", r,
                         "--s", s, "--t", t, "--json", str(out)]) != 0:
                raise SystemExit(f"op symplectic failed on {triple}")
            digests.append({"triple": triple, "digest": worker.entry_digest(out, ring)})
        golden["emit-op"] = digests

        hashes = []
        for p, ell in worker.JOBS["field-tables"]["fields"]:
            if cli.main(["field", "--p", str(p), "--ell", str(ell), "--max-order",
                         worker.FIELD_MAX_ORDER, "--json", str(out)]) != 0:
                raise SystemExit(f"field GF({p}^{ell}) failed")
            hashes.append(worker.sha256_file(out))
        golden["field-tables"] = hashes

    worker.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
