"""Job lists of the three workloads: cmvsubshift CLI invocations made from a seed.

A job is a plain dict (its "spec") that names the subcommand and its inputs;
argv() turns it into the argument list the program sees, and oracle.check_job
checks its outputs.  Nothing here imports cmvsubshift.

Coefficient pairs are drawn with |alpha| uniform in [0.1, 0.6], half of them
real (random signs) and half complex (random phases).  Each (subcommand,
rule, level) has a pool of such draws, listed with their classes in
pool.json (written by classify.py).  A class is what the current program
does with the draw: whether its bands are right, how many grid points its
band scan evaluates and about how many arcs it reports.  A run takes `slots`
usable draws of each pool as its template, as many of them missing bands as
the pool's share says (template_classes), and for each template draw a draw
of the same class chosen by the seed.  So the inputs change with the seed
while the failed operations and the scan work per run stay the same: a seed
that drew pairs afresh would change how many jobs miss bands, and the failed
share has to be the same in every run.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "pool.json")
WORKLOADS = ("pd-bands", "periodic", "gordon")

# Known fault kept in the workloads: spectrum.band_arcs_from_function stops
# doubling its grid once the band count repeats (or at MAX_RESOLUTION) and
# returns exit 0 with bands missing or merged.
MISSED_BANDS = "band scan returns exit 0 with bands missing or merged"

ALPHA_RANGE = (0.1, 0.6)
POOL_SEED = 2026  # the pools were drawn once, from this seed
CURVE_RESOLUTION = 1 << 16  # curve rows (and the first scan grid) of curve jobs
PHI_COUNT = 4


@dataclass(frozen=True)
class Pool:
    name: str
    workload: str
    command: str  # "spectrum" or "floquet-check"
    rule: str
    level: int
    size: int  # draws in the pool
    slots: int  # jobs per run
    resolution: Optional[int] = None  # None: the program's default
    curve: bool = False


POOLS = [
    *(Pool(f"pd{n}", "pd-bands", "spectrum", "period-doubling", n, 16, s) for n, s in
      [(7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (13, 1), (14, 1)]),
    Pool("pd9-curve", "pd-bands", "spectrum", "period-doubling", 9, 8, 1, CURVE_RESOLUTION, True),
    Pool("pd10-curve", "pd-bands", "spectrum", "period-doubling", 10, 8, 1, CURVE_RESOLUTION, True),
    Pool("floquet-fib7", "periodic", "floquet-check", "fibonacci", 7, 8, 1),
    Pool("floquet-tm6", "periodic", "floquet-check", "thue-morse", 6, 8, 1),
    Pool("floquet-pd6", "periodic", "floquet-check", "period-doubling", 6, 8, 1),
    Pool("floquet-tm7", "periodic", "floquet-check", "thue-morse", 7, 8, 1),
    Pool("floquet-fib10", "periodic", "floquet-check", "fibonacci", 10, 8, 1),
    Pool("generic-fib7", "periodic", "spectrum", "fibonacci", 7, 12, 2),
    Pool("generic-tm6", "periodic", "spectrum", "thue-morse", 6, 12, 1),
    Pool("generic-tm7", "periodic", "spectrum", "thue-morse", 7, 12, 1),
    Pool("generic-fib10", "periodic", "spectrum", "fibonacci", 10, 12, 1),
]


def draw_pair(rng) -> tuple:
    """f_a, f_b as CLI strings: |alpha| uniform in ALPHA_RANGE, real or complex."""
    r = rng.uniform(*ALPHA_RANGE, 2)
    if rng.random() < 0.5:
        return tuple(f"{x:.6f}" for x in r * rng.choice((-1.0, 1.0), 2))
    return tuple(f"{z.real:.6f}{z.imag:+.6f}j" for z in r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2)))


def pool_draws(pool: Pool) -> list:
    rng = np.random.default_rng([POOL_SEED, *pool.name.encode()])
    return [draw_pair(rng) for _ in range(pool.size)]


def pool_job(pool: Pool, pair) -> dict:
    spec = {"command": pool.command, "rule": pool.rule, "level": pool.level, "f_a": pair[0], "f_b": pair[1]}
    if pool.command == "floquet-check":
        spec["phi_count"] = PHI_COUNT
    else:
        spec.update(resolution=pool.resolution, curve=pool.curve)
    spec["label"] = f"{pool.command} {pool.rule} {pool.level}" + (" curve" if pool.curve else "")
    return spec


def load_classes() -> dict:
    """pool name -> one class per draw (None: the draw is left out)."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        table = json.load(fh)
    for pool in POOLS:
        entries = table[pool.name]
        if [tuple(e["pair"]) for e in entries] != pool_draws(pool):
            raise SystemExit(f"pool.json is stale for {pool.name}: rerun perfbench/classify.py")
    return {name: [None if e["class"] is None else tuple(e["class"]) for e in entries]
            for name, entries in table.items()}


def template_classes(classes: list, slots: int) -> list:
    """Classes of the draws a run starts from: the share that misses bands is
    the pool's share, rounded to whole jobs, and each verdict takes its first
    draws in pool order (which is random)."""
    usable = [c for c in classes if c is not None]
    missed = [c for c in usable if c[0] == "missed"]
    n_missed = round(slots * len(missed) / len(usable))
    return missed[:n_missed] + [c for c in usable if c[0] != "missed"][: slots - n_missed]


def pooled_jobs(workload: str, rng, classes: dict) -> list:
    jobs = []
    for pool in (p for p in POOLS if p.workload == workload):
        draws = pool_draws(pool)
        by_class = defaultdict(list)
        for i, cls in enumerate(classes[pool.name]):
            if cls is not None:
                by_class[cls].append(i)
        template = template_classes(classes[pool.name], pool.slots)
        for cls in dict.fromkeys(template):
            picks = rng.choice(by_class[cls], size=template.count(cls), replace=False)
            for i in sorted(int(k) for k in picks):
                spec = pool_job(pool, draws[i])
                spec["known_fault"] = MISSED_BANDS if cls[0] == "missed" else None
                jobs.append(spec)
    return jobs


# Sturmian jobs have no free input.  Coding jobs take a base interval shifted
# by a seeded multiple of 1/1000: the bad-arc centres move rigidly, so the
# measure and the work stay the same while every endpoint changes.  Base
# endpoints are thousandths too, so the exact arithmetic meets numbers of the
# same size whatever the shift.
GORDON_STURMIAN = [("golden", 12), ("golden", 16), ("sqrt2-1", 7), ("sqrt2-1", 8), ("sqrt2-1", 10)]
GORDON_CODING = [("golden", 13, (143, 556)), ("sqrt2-1", 8, (400, 750))]
MC_SAMPLES = 100_000


def gordon_job(theta, n, mode, interval, mc_samples, mc_seed) -> dict:
    return {"command": "gordon", "theta": theta, "n": n, "mode": mode, "interval": interval,
            "mc_samples": mc_samples, "mc_seed": mc_seed, "label": f"gordon {mode} {theta} {n}",
            "known_fault": None}


def gordon_jobs(rng) -> list:
    jobs = []
    for k, (theta, n) in enumerate(GORDON_STURMIAN):
        mc = MC_SAMPLES if k % 2 == 0 else 0
        jobs.append(gordon_job(theta, n, "sturmian", None, mc, int(rng.integers(1 << 31))))
    for k, (theta, n, base) in enumerate(GORDON_CODING):
        shift = int(rng.integers(0, 1000))
        interval = [str(Fraction((x + shift) % 1000, 1000)) for x in base]
        mc = MC_SAMPLES if k % 2 == 0 else 0
        jobs.append(gordon_job(theta, n, "coding", interval, mc, int(rng.integers(1 << 31))))
    return jobs


def build_jobs(workload: str, seed: int) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "gordon":
        return gordon_jobs(rng)
    return pooled_jobs(workload, rng, load_classes())


def outputs(spec: dict, workdir: str, index: int) -> dict:
    """Files a job writes: kind -> path."""
    out = {"output": os.path.join(workdir, f"{index:03d}.json")}
    if spec.get("curve"):
        out["curve"] = os.path.join(workdir, f"{index:03d}.csv")
    return out


def argv(spec: dict, files: dict) -> list:
    """The CLI argument list of a job, writing to the given files."""
    if spec["command"] == "gordon":
        args = ["gordon", "--theta", spec["theta"], "--mode", spec["mode"], "--n", str(spec["n"])]
        if spec["interval"]:
            args += ["--interval", *spec["interval"]]
        if spec["mc_samples"]:
            args += ["--mc-samples", str(spec["mc_samples"]), "--seed", str(spec["mc_seed"])]
    else:
        args = [spec["command"], "--rule", spec["rule"], "--level", str(spec["level"]),
                f"--f-a={spec['f_a']}", f"--f-b={spec['f_b']}"]
        if spec["command"] == "floquet-check":
            args += ["--phi-count", str(spec["phi_count"])]
        elif spec["resolution"]:
            args += ["--resolution", str(spec["resolution"])]
    for kind, path in files.items():
        args += [f"--{kind}", path]
    return args
