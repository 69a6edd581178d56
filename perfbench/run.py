"""Benchmark entry point for cmvsubshift: one workload per invocation.

    python3 perfbench/run.py --workload pd-bands|periodic|gordon --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The command times a fresh
interpreter importing cmvsubshift.cli (setup_s, median of several), runs the
workload in its own fresh process with a pinned environment (workload.py),
then checks every warm-up output of that process against the independent
computations in oracle.py, here and outside any timed section.  The last line
of stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The full result, with every job's verdict, is also
written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

UNITS = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    """One BLAS thread, a fixed hash seed, and the checkout's src on the path."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.path.join(ROOT, "src"),
    )
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing cmvsubshift.cli.

    One untimed import first writes the bytecode caches that every later
    invocation finds.
    """
    argv = [sys.executable, "-c", "import cmvsubshift.cli"]
    subprocess.run(argv, env=env, check=True, timeout=60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def check_outputs(result: dict) -> list:
    """Problems per job with its warm-up outputs (empty when they pass)."""
    import oracle

    verdicts = []
    for job in result["jobs"]:
        if job["code"] != 0:
            verdicts.append([f"exit code {job['code']}"])
            continue
        with open(job["files"]["output"], encoding="utf-8") as fh:
            docs = {"output": json.load(fh)}
        if "curve" in job["files"]:
            with open(job["files"]["curve"], encoding="utf-8") as fh:
                docs["curve"] = fh.read()
        verdicts.append(oracle.check_job(job, docs))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cmvsubshift benchmark")
    parser.add_argument("--workload", required=True, choices=("pd-bands", "periodic", "gordon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cmvsubshift", "cli.py")):
        print("error: no cmvsubshift sources under src/; run from a source checkout", file=sys.stderr)
        return 2
    env = pinned_env()
    setup_s = measure_setup(env) if not args.trace else None

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        child = [
            sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
        ]
        proc = subprocess.run(child, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
        if proc.returncode != 0:
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        verdicts = check_outputs(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass runs every job: a job whose warm-up output fails its checks
    # fails in every pass, any other job in each pass that does not reproduce
    # the warm-up output byte for byte.
    runs = 1 + result["passes"]
    attempted = runs * len(result["jobs"])
    failed = sum(runs if bad else miss for bad, miss in zip(verdicts, result["mismatches"]))
    reproducible = not any(result["mismatches"]) and result.get("counts_repeat", True)
    correct = reproducible and all(not bad or job["known_fault"] for job, bad in zip(result["jobs"], verdicts))

    metrics = dict(result["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    for job, problems in zip(result["jobs"], verdicts):
        job["problems"] = problems
        if problems:
            tag = "known fault" if job["known_fault"] else "FAILED"
            print(f"{tag}: {' '.join(job['argv'][:8])}: {problems[0]}", file=sys.stderr)
    spans = result.pop("spans", None)
    detail = dict(result, correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  workload=args.workload, seed=args.seed, trace=args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, fh)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
