"""Show that every output check is live: it passes the program's real output
and rejects the same output with one planted error.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Prints one line per case and exits
non-zero if a genuine output is rejected or a planted error slips through.
The spectrum cases use pool draws that classify.py found resolved.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import oracle  # noqa: E402


def run_job(spec, workdir):
    from cmvsubshift import cli

    files = jobs.outputs(spec, workdir, 0)
    code = cli.main(jobs.argv(spec, files))
    if code != 0:
        raise SystemExit(f"{spec['label']}: exit code {code}")
    with open(files["output"], encoding="utf-8") as fh:
        docs = {"output": json.load(fh)}
    if "curve" in files:
        with open(files["curve"], encoding="utf-8") as fh:
            docs["curve"] = fh.read()
    return docs


def resolved_job(pool_name):
    """The first pool draw whose bands the program gets right."""
    pool = next(p for p in jobs.POOLS if p.name == pool_name)
    classes = jobs.load_classes()[pool_name]
    for pair, cls in zip(jobs.pool_draws(pool), classes):
        if cls is not None and cls[0] == "ok":
            return jobs.pool_job(pool, pair)
    raise SystemExit(f"no resolved draw in pool {pool_name}")


def _set_arcs(docs, arcs):
    doc = docs["output"]
    doc["arcs"] = arcs
    doc["measure"] = sum(a["hi"] - a["lo"] for a in arcs)
    doc["count"] = len(arcs)


def drop_band(docs):
    """One arc from the middle of the list removed."""
    arcs = docs["output"]["arcs"]
    _set_arcs(docs, arcs[: len(arcs) // 2] + arcs[len(arcs) // 2 + 1 :])


def merge_bands(docs):
    """Two neighbouring arcs from the middle half joined across their gap.

    Of those pairs, the one whose gap is the largest share of the joined arc.
    """
    arcs = docs["output"]["arcs"]
    middle = range(len(arcs) // 4, 3 * len(arcs) // 4)
    k = max(middle, key=lambda i: (arcs[i + 1]["lo"] - arcs[i]["hi"]) / (arcs[i + 1]["hi"] - arcs[i]["lo"]))
    joined = {"lo": arcs[k]["lo"], "hi": arcs[k + 1]["hi"]}
    _set_arcs(docs, arcs[:k] + [joined] + arcs[k + 2 :])


def shift_edge(docs):
    arcs = copy.deepcopy(docs["output"]["arcs"])
    arcs[len(arcs) // 2]["hi"] += 1e-7
    _set_arcs(docs, arcs)


def _edit_curve(docs, edit):
    lines = docs["curve"].splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    docs["curve"] = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def flip_curve_flag(docs):
    def edit(rows):
        rows[len(rows) // 3][3] = "0" if rows[len(rows) // 3][3] == "1" else "1"

    _edit_curve(docs, edit)


def perturb_curve_value(docs):
    """One moderate disc_real value, in the middle of the curve, times 1.001."""
    def edit(rows):
        k = next(i for i in range(len(rows) // 2, len(rows)) if 0.5 < abs(float(rows[i][1])) < 1.5)
        rows[k][1] = repr(float(rows[k][1]) * 1.001)

    _edit_curve(docs, edit)


def inflate_residual(docs):
    doc = docs["output"]
    doc["phis"][0]["worst_residual"] *= 1e6
    doc["max_residual"] = max(r["worst_residual"] for r in doc["phis"])


def perturb_measure(docs):
    docs["output"]["measure"] += 1e-9


def shift_monte_carlo(docs):
    mc = docs["output"]["monte_carlo"]
    mc["estimate"] += 6 * mc["sigma"]


def curve_job():
    """The first draw of the level-9 curve pool (its bands are wrong, its curve is not)."""
    pool = next(p for p in jobs.POOLS if p.name == "pd9-curve")
    return jobs.pool_job(pool, jobs.pool_draws(pool)[0])


def check_curve_only(spec, docs):
    """The curve checks alone."""
    approx = oracle.Approximant(spec["rule"], spec["level"], spec["f_a"], spec["f_b"])
    return oracle.check_curve(docs["curve"], approx, docs["output"]["resolution"])


def main() -> int:
    cases = [
        (resolved_job("generic-tm6"), oracle.check_job, [drop_band, merge_bands]),  # Floquet edges, q = 64
        (resolved_job("pd8"), oracle.check_job, [drop_band, merge_bands, shift_edge]),  # Floquet edges, q = 256
        (resolved_job("pd10"), oracle.check_job, [drop_band, merge_bands]),  # pointwise only, q = 1024
        (curve_job(), check_curve_only, [flip_curve_flag, perturb_curve_value]),
        (resolved_job("floquet-fib7"), oracle.check_job, [inflate_residual]),
        (jobs.gordon_job("sqrt2-1", 7, "sturmian", None, 20_000, 5), oracle.check_job,
         [perturb_measure, shift_monte_carlo]),
    ]
    ok = True
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE), prefix=".perfbench_selftest-") as workdir:
        for spec, check, plants in cases:
            docs = run_job(spec, workdir)
            genuine = check(spec, docs)
            print(f"{spec['label']}: genuine output {'passes' if not genuine else 'REJECTED: ' + genuine[0]}")
            ok &= not genuine
            for plant in plants:
                bad = copy.deepcopy(docs)
                plant(bad)
                found = check(spec, bad)
                print(f"  planted {plant.__name__}: {'rejected: ' + found[0] if found else 'NOT CAUGHT'}")
                ok &= bool(found)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
