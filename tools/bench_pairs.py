"""Run the benchmark in pairs on two revisions and compare them.

Run from the repository root:

    python3 tools/bench_pairs.py --workdir DIR [--base REV] [--head REV]
        [--workload NAME ...] [--pairs N] [--seed S] [--seconds T]
        [--trace] [--out FILE.json]

Both revisions are exported into DIR/base and DIR/head: new directories
whose paths have the same length, because the benchmark's machine-speed
reference loop runs 10-20 % apart with the checkout path alone.  A revision
is unpacked with ``git archive``; ``--head WORKTREE`` copies the working
tree instead (every file git tracks or does not ignore).  For every
workload, N pairs of ``perfbench/run.py --trace 0`` runs follow, one per
side, and the side that runs first alternates from pair to pair, so a slow
drift of the machine favours neither.  ``--trace`` adds one ``--trace 1``
run per side for the per-layer metrics.

For every workload and metric the script prints each side's median and
quartiles and in how many pairs the head was better (lower, or higher for a
metric whose name ends in ``_frac``).  Next to the end-to-end metrics it
prints ``raw_batch_s`` (the unscaled job time) and ``reference_median_s``
(the median of the reference loop that scales it), both read from each
run's ``.perfbench_out/result-*.json``, so a move of ``batch_s`` can be told
from a move of its scale.  Next to ``setup_s`` it prints ``import_s``, each
side's median cumulative import time of ``cmvsubshift.cli`` from N fresh
``python -X importtime`` runs after one warm-up run that writes the
bytecode: ``setup_s`` times whole interpreter runs through a wait that
polls in steps of up to 0.05 s, and ``import_s`` reads the interpreter's
own microsecond count.  ``--out`` writes every run and the summaries as
JSON; when the file exists and holds the same two revisions, the new runs
are added to it, so one file can hold the runs of several seeds.  Each side
also records ``src_sha256``, a digest of the paths and bytes of its
``src/`` files, so the file names the code it measured even when a side is
a working tree; runs are only added to a file whose digests match.  An
``--out`` named ``BENCH_<n>.json`` records ``"pr": n``, the number of the
change the file measures, since neither side's sha names that commit.
The script only reads the checkout it is run from; everything it
writes goes to DIR (each side's ``.perfbench_out/`` included) and to
``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pd-bands", "periodic", "gordon")
SIDES = ("base", "head")
WORKTREE = "WORKTREE"


def git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, path: str) -> str:
    """The files of rev in the new directory path, and rev's sha."""
    os.makedirs(path)
    if rev == WORKTREE:
        for name in git("ls-files", "-z", "-c", "-o", "--exclude-standard").split("\0"):
            source = os.path.join(ROOT, name)
            if name and os.path.isfile(source):
                os.makedirs(os.path.dirname(os.path.join(path, name)), exist_ok=True)
                shutil.copy2(source, os.path.join(path, name))
        return git("rev-parse", "HEAD") + "+worktree"
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha], check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(path, filter="data")
    return sha


def src_digest(checkout: str) -> str:
    """SHA-256 over the relative path and bytes of every file under src/,
    in path order; byte-code caches are left out."""
    digest = hashlib.sha256()
    root = os.path.join(checkout, "src")
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench/run.py invocation: its result line, with the raw batch
    time and the reference-loop median of its result file."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    if not trace:
        stem = f"{workload}-seed{seed}-trace0"
        with open(os.path.join(checkout, ".perfbench_out", f"result-{stem}.json"), encoding="utf-8") as fh:
            detail = json.load(fh)
        metrics["raw_batch_s"] = detail["raw_batch_s"]
        metrics["reference_median_s"] = statistics.median(
            r for p in detail["reference_s"] for job in p for r in job)
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "metrics": metrics}


def import_times(checkouts: dict, runs: int) -> dict:
    """Each side's median cumulative import time of cmvsubshift.cli, in
    seconds, over ``runs`` fresh interpreters started with -X importtime,
    after one warm-up run per side that writes the bytecode caches; the side
    that runs first alternates, as in the pairs."""
    argv = [sys.executable, "-X", "importtime", "-c", "import cmvsubshift.cli"]
    samples = {side: [] for side in SIDES}
    for k in range(runs + 1):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(checkouts[side], "src"), PYTHONHASHSEED="0")
            proc = subprocess.run(argv, cwd=checkouts[side], env=env, capture_output=True, text=True, check=True)
            # stderr lines read "import time: <self us> | <cumulative us> | <module>"
            rows = (line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:"))
            cumulative = next(int(row[1]) for row in rows if row[2].strip() == "cmvsubshift.cli")
            if k:
                samples[side].append(cumulative / 1e6)
    return {side: statistics.median(v) for side, v in samples.items()}


def summarize(pairs: list) -> dict:
    """Per metric: each side's median and quartiles, and the head's wins."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        higher = name.endswith("_frac")
        wins = sum((h > b) if higher else (h < b) for b, h in zip(values["base"], values["head"]))
        out[name] = {"head_wins": wins, "pairs": len(pairs)}
        for side in SIDES:
            v = values[side]
            q1, median, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
            out[name][side] = {"median": median, "q1": q1, "q3": q3}
    return out


def print_report(runs: list) -> None:
    for entry in runs:
        print(f"\n{entry['workload']} (seed {entry['seed']}, {len(entry['pairs'])} pairs): median [Q1, Q3]")
        for name, s in entry["summary"].items():
            cells = "  ".join(f"{side} {s[side]['median']:.6g} [{s[side]['q1']:.6g}, {s[side]['q3']:.6g}]"
                              for side in SIDES)
            print(f"  {name:20} {cells}  head better in {s['head_wins']}/{s['pairs']}")
            if name == "setup_s" and "import_s" in entry:
                cells = "  ".join(f"{side} {entry['import_s'][side]:.6g}" for side in SIDES)
                print(f"  {'import_s':20} {cells}  (median of {len(entry['pairs'])} -X importtime runs)")
        for side in SIDES:
            outcomes = sorted({(p[side]["failed"], p[side]["attempted"], p[side]["correct"]) for p in entry["pairs"]})
            print(f"  {side} (failed, attempted, correct): {outcomes}")
        if "trace" in entry:
            base, head = (entry["trace"][side]["metrics"] for side in SIDES)
            print("  per layer, one traced run each: base -> head")
            for name in sorted(set(base) | set(head)):
                print(f"    {name:44} {base.get(name, '-')!s:>24} -> {head.get(name, '-')!s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="a new directory for the two exports")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD", help=f"a revision, or {WORKTREE} for the working tree")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=["gordon"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="also one --trace 1 run per side")
    parser.add_argument("--out", help="write every run and the summaries to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if os.path.exists(args.workdir):
        parser.error(f"{args.workdir} exists; give a new directory")

    checkouts = {side: os.path.join(os.path.abspath(args.workdir), side) for side in SIDES}
    report = {}
    named = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(args.out or ""))
    if named:
        report["pr"] = int(named.group(1))
    for side, rev in zip(SIDES, (args.base, args.head)):
        report[side] = {"rev": rev, "sha": export(rev, checkouts[side]), "src_sha256": src_digest(checkouts[side])}
    report.update(python=sys.version.split()[0], cpus=os.cpu_count(), runs=[])
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if any(earlier[side].get(key) != report[side][key] for side in SIDES for key in ("sha", "src_sha256")):
            raise SystemExit(f"{args.out} compares other revisions; give a new file")
        report["runs"] = earlier["runs"]
    runs = []
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds, False)
            pairs.append(pair)
            print(f"{workload} pair {k + 1}/{args.pairs}: batch_s base {pair['base']['metrics']['batch_s']:.4f}"
                  f" head {pair['head']['metrics']['batch_s']:.4f}", file=sys.stderr, flush=True)
        entry = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                 "pairs": pairs, "summary": summarize(pairs),
                 "import_s": import_times(checkouts, args.pairs)}
        if args.trace:
            entry["trace"] = {side: run_once(checkouts[side], workload, args.seed, args.seconds, True)
                              for side in SIDES}
        runs.append(entry)

    print_report(runs)
    report["runs"] += runs
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
