"""One workload in one fresh process: run its jobs and time them.

Run by run.py as
    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
with the environment run.py pins.  Every job is a cmvsubshift CLI argv list
(jobs.py) driven in-process through cmvsubshift.cli.main.  The first
(warm-up) pass keeps each job's output files in DIR/warm/ for run.py to check;
later passes are timed and must reproduce the warm-up outputs byte for byte.
This process holds no output in memory and runs no check, so its peak
resident memory (peak_rss_mb) is that of the CLI jobs.  The last line of
stdout is a JSON object with the per-job results and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import jobs as joblist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MIN_TIMED_PASSES = 3  # untimed runs: at least this many passes; traced runs: two of each kind

# Machine-speed reference.  The machine these figures come from changes speed
# by 10-20 % over minutes, and every job moves with it.  An untimed reference
# loop (numpy arithmetic on a small array, ~15 ms, no cmvsubshift code) runs
# right before and right after each timed job, and the batch time is scaled
# by REF_NOMINAL_S / (the median of all reference times of the run): batch_s
# is reported at the speed at which the loop takes REF_NOMINAL_S.  One median
# over the whole run follows the slow drift; scaling each job by its own two
# samples added their noise, and a pure-Python loop (Fraction sums) tracked
# pd-bands far worse than the numpy loop and gordon no better.
REF_NOMINAL_S = 0.015
_REF_ARRAY = np.linspace(0.0, 1.0, 1 << 13)


def reference_seconds() -> float:
    start = time.perf_counter()
    x = _REF_ARRAY
    for _ in range(600):
        x = np.sqrt(x * x + 1.0) - 1.0
    return time.perf_counter() - start


def digest(files: dict) -> tuple:
    """SHA-256 over a job's output files (read in blocks), and their size."""
    h = hashlib.sha256()
    size = 0
    for kind in sorted(files):
        h.update(kind.encode() + b"\0")
        with open(files[kind], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                size += len(block)
    return h.hexdigest(), size


def run_job(cli, args, files) -> tuple:
    """(exit code, seconds, reference seconds) for one job; the files stay."""
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    gc.collect()  # each job starts from a settled heap, as a fresh CLI process would
    before = reference_seconds()
    start = time.perf_counter()
    code = cli.main(args)
    elapsed = time.perf_counter() - start
    return code, elapsed, [before, reference_seconds()]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from cmvsubshift import cli

    specs = joblist.build_jobs(workload, seed)
    files = [joblist.outputs(spec, workdir, i) for i, spec in enumerate(specs)]
    argvs = [joblist.argv(spec, f) for spec, f in zip(specs, files)]
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)

    # warm-up pass: outputs kept for the checks, digests for the timed passes
    warm = []
    for spec, f, args in zip(specs, files, argvs):
        code, _, _ = run_job(cli, args, f)
        kept = {}
        if code == 0:
            for kind, path in f.items():
                kept[kind] = os.path.join(warm_dir, os.path.basename(path))
                os.replace(path, kept[kind])
        warm.append({"code": code, "files": kept, "digest": digest(kept)[0] if code == 0 else None})

    mismatches = [0] * len(specs)

    def timed_pass(tracer=None) -> list:
        """One pass over the job list; per job (seconds, reference seconds)."""
        if tracer is not None:
            tracer.reset()
            tracer.install()
        times = []
        try:
            for k, (f, args) in enumerate(zip(files, argvs)):
                if tracer is not None:
                    tracer.job = k
                code, elapsed, ref = run_job(cli, args, f)
                times.append((elapsed, ref))
                same = code == warm[k]["code"]
                if code == 0:
                    h, size = digest(f)
                    same &= h == warm[k]["digest"]
                    if tracer is not None:
                        tracer.counts["cli.output_bytes"] += size
                mismatches[k] += not same
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times

    def batch_seconds(passes, scaled=True) -> float:
        """Sum over jobs of each job's median time over the passes, scaled."""
        total = sum(statistics.median(t[0] for t in per_job) for per_job in zip(*passes))
        if not scaled:
            return total
        return total * REF_NOMINAL_S / statistics.median(r for p in passes for t in p for r in t[1])

    # Timed passes until the budget is spent (at least MIN_TIMED_PASSES).  A
    # traced run alternates untraced and traced passes, so that the tracing
    # overhead compares passes made at the same time.
    plain, traced, layer = [], [], []
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    started = time.perf_counter()
    while True:
        done = len(plain) + len(traced)
        if done >= (4 if trace else MIN_TIMED_PASSES) and (
            (time.perf_counter() - started) * (done + 1) / done > seconds
        ):
            break
        if trace and len(traced) < len(plain):
            traced.append(timed_pass(tracer))
            layer.append(tracer.metrics())
        else:
            plain.append(timed_pass())

    result = {
        "jobs": [dict(spec, argv=args, code=w["code"], files=w["files"]) for spec, args, w in zip(specs, argvs, warm)],
        "passes": len(plain) + len(traced),
        "mismatches": mismatches,
        "pass_s": [[t[0] for t in p] for p in plain + traced],
        "reference_s": [[t[1] for t in p] for p in plain + traced],
        "raw_batch_s": batch_seconds(plain, scaled=False),
    }
    if trace:
        metrics = {}
        for name, value in layer[0].items():
            metrics[name] = statistics.median(m[name] for m in layer) if name.endswith("_s") else value
        untraced_s = batch_seconds(plain)
        metrics["trace.overhead_frac"] = (batch_seconds(traced) - untraced_s) / untraced_s
        counts = [{k: v for k, v in m.items() if not k.endswith(("_s", "_frac"))} for m in layer]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["spans"] = tracer.spans
    else:
        metrics = {
            "batch_s": batch_seconds(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["job_median_s"] = [statistics.median(t[0] for t in per_job) for per_job in zip(*plain)]
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=joblist.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
