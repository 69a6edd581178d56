"""Write pool.json: the coefficient draws of every pool and their classes.

    python3 perfbench/classify.py [POOL ...]

Run from the root of a source checkout, with the environment run.py pins
(OMP_NUM_THREADS=1 and so on); takes a few minutes.  Each draw is run once
through cmvsubshift.cli.main and checked with oracle.py.  Its class is
("ok" or "missed", grid points the band scan evaluated, log2 of the number
of reported arcs rounded to a quarter): draws of one class fail alike and
cost about the same, so jobs.py can swap one for another from seed to seed.
A draw whose job exits non-zero, or fails a check other than the band
checks, has class null and is left out: such a failure is another fault
than the one the workloads keep, and a seed that drew it would change the
failed share.  Rerun this after a change to the program's band scan, or to
the pools in jobs.py; run.py refuses a stale pool.json.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


def classify(spec, workdir, cli, tracer):
    files = jobs.outputs(spec, workdir, 0)
    tracer.reset()
    tracer.install()
    try:
        code = cli.main(jobs.argv(spec, files))
    finally:
        tracer.uninstall()
    if code != 0:
        return None, f"exit {code}"
    with open(files["output"], encoding="utf-8") as fh:
        docs = {"output": json.load(fh)}
    if "curve" in files:
        with open(files["curve"], encoding="utf-8") as fh:
            docs["curve"] = fh.read()
    problems = oracle.check_job(spec, docs)
    if spec["command"] == "floquet-check":
        return (None, problems[0]) if problems else (("ok", 0, 0), "")
    band = oracle.band_problems(spec, docs["output"])
    if problems != band:
        return None, problems[0]
    arcs = round(4 * math.log2(max(1, len(docs["output"]["arcs"])))) / 4
    verdict = "missed" if band else "ok"
    return (verdict, tracer.counts["spectrum.scan_points"], arcs), (band[0] if band else "")


def main(argv) -> int:
    from cmvsubshift import cli

    table = {}
    if os.path.exists(jobs.POOL_FILE):
        with open(jobs.POOL_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE), prefix=".perfbench_classify-") as workdir:
        for pool in jobs.POOLS:
            if argv and pool.name not in argv:
                continue
            entries = []
            for pair in jobs.pool_draws(pool):
                cls, note = classify(jobs.pool_job(pool, pair), workdir, cli, tracer)
                entries.append({"pair": list(pair), "class": cls})
                print(pool.name, pair, cls, note[:100], flush=True)
            table[pool.name] = entries
            with open(jobs.POOL_FILE, "w", encoding="utf-8") as fh:
                json.dump({p.name: table[p.name] for p in jobs.POOLS if p.name in table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
