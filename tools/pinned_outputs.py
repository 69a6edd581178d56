"""Hash the output of a fixed list of CLI configs, one SHA-256 line per config.

Run from the repository root:

    PYTHONPATH=src python3 tools/pinned_outputs.py [--check] [--dump DIR] [NAME ...]

Each config runs in-process through ``cmvsubshift.cli.main``.  The hash
covers the exit code, stdout, stderr and the ``--curve`` file when the
config writes one, so two revisions print the same line exactly when they
produce the same bytes.  Warnings in stderr name their source file and line;
the checkout's own location and the line number are cut out, so checkouts in
different directories, and edits that only move the warning's call site,
compare equal.  ``--dump DIR`` also writes every output to
``DIR/NAME.out`` (and ``DIR/NAME.csv`` for curves) for a closer diff.
Names given on the command line restrict the run to those configs.
``--check`` also compares every line with the committed list in
``tools/pinned_outputs.txt``, reports each config whose hash differs (or
that either side lacks) on stderr, and exits 1 if there is one.  To pin a
deliberate change of output, write the new list over that file:

    PYTHONPATH=src python3 tools/pinned_outputs.py > tools/pinned_outputs.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from unittest import mock

PD = ["--rule", "period-doubling", "--f-a", "0.3", "--f-b=-0.3"]
COMPLEX_F = ["--f-a", "0.25+0.1j", "--f-b=-0.2j"]
GOLDEN_55 = "0.6180339887498948482045868343656381177203091798057628621"  # 55 digits

CONFIGS = [
    ("spectrum-pd7", ["spectrum", *PD, "--level", "7"]),
    ("spectrum-pd10", ["spectrum", *PD, "--level", "10"]),
    ("spectrum-pd12", ["spectrum", *PD, "--level", "12"]),
    ("spectrum-pd9-curve", ["spectrum", *PD, "--level", "9", "--resolution", "4096", "--curve"]),
    ("spectrum-pd10-curve", ["spectrum", *PD, "--level", "10", "--resolution", "65536", "--curve"]),
    ("spectrum-tm6", ["spectrum", "--rule", "thue-morse", "--level", "6", *COMPLEX_F]),
    ("spectrum-tm7", ["spectrum", "--rule", "thue-morse", "--level", "7", "--f-a", "0.2", "--f-b=-0.2"]),
    ("spectrum-fib8", ["spectrum", "--rule", "fibonacci", "--level", "8", "--f-a", "0.3", "--f-b=-0.3"]),
    ("spectrum-fib10", ["spectrum", "--rule", "fibonacci", "--level", "10", *COMPLEX_F]),
    ("spectrum-tm5-curve", ["spectrum", "--rule", "thue-morse", "--level", "5", *COMPLEX_F,
                            "--resolution", "2048", "--curve"]),
    ("spectrum-free", ["spectrum", "--free", "--period", "6", "--resolution", "1024", "--curve"]),
    ("spectrum-tm8-real", ["spectrum", "--rule", "thue-morse", "--level", "8", "--f-a", "0.3", "--f-b=-0.3"]),
    # odd resolutions: angle k of the half-circle scan shares its sample with res - k
    ("spectrum-pd8-odd-curve", ["spectrum", *PD, "--level", "8", "--resolution", "1001", "--curve"]),
    ("spectrum-pd14", ["spectrum", *PD, "--level", "14"]),
    ("spectrum-tm7-real-odd", ["spectrum", "--rule", "thue-morse", "--level", "7", "--f-a", "0.2",
                               "--f-b=-0.2", "--resolution", "1001"]),
    # a first grid in no band: the scan doubles until it finds them
    ("spectrum-pd3-res8", ["spectrum", *PD, "--level", "3", "--resolution", "8"]),
    # grids and curves past CHUNK angles, at resolutions that are not a multiple of it:
    # the trace route, and the pair-product route with its rescale per array
    ("spectrum-pd9-curve-40001", ["spectrum", *PD, "--level", "9", "--resolution", "40001", "--curve"]),
    ("spectrum-tm6-complex-20001", ["spectrum", "--rule", "thue-morse", "--level", "6", *COMPLEX_F,
                                    "--resolution", "20001", "--curve"]),
    # escaped samples: 382 inf rows, and values with three-digit exponents
    ("spectrum-pd12-escape-curve", ["spectrum", "--rule", "period-doubling", "--level", "12", "--f-a", "0.5",
                                    "--f-b=-0.5", "--resolution", "1024", "--curve"]),
    ("trace-escape", ["trace", "--z", "1", "--f-a", "0.5", "--f-b=-0.5", "--levels", "14"]),
    ("trace-band", ["trace", "--z", "0.6+0.8j", *COMPLEX_F, "--levels", "10"]),
    ("trace-near-circle", ["trace", "--z", "1.000000009j", "--f-a", "0.5", "--f-b=-0.5"]),
    ("floquet-pd4", ["floquet-check", *PD, "--level", "4", "--phi-count", "8"]),
    ("floquet-fib7", ["floquet-check", "--rule", "fibonacci", "--level", "7", *COMPLEX_F]),
    # a closed-gap eigenvalue whose product drifts past the bound: exit 3
    ("floquet-tm8-drift-exit3", ["floquet-check", "--rule", "thue-morse", "--level", "8",
                                 "--f-a=-0.29023768532166183", "--f-b", "0.5705004876213009"]),
    ("floquet-tm6-complex-phi7", ["floquet-check", "--rule", "thue-morse", "--level", "6", *COMPLEX_F,
                                  "--phi-count", "7"]),
    ("gordon-sturmian", ["gordon", "--theta", "golden", "--n", "9", "--mc-samples", "2000", "--seed", "3"]),
    ("gordon-coding", ["gordon", "--theta", "sqrt2-1", "--n", "6", "--mode", "coding",
                       "--interval", "1/10", "2/5"]),
    ("gordon-sqrt2-10", ["gordon", "--theta", "sqrt2-1", "--n", "10"]),
    ("gordon-golden-16-mc", ["gordon", "--theta", "golden", "--n", "16", "--mc-samples", "100000",
                             "--seed", "5"]),
    ("gordon-coding-sqrt2-8-mc", ["gordon", "--theta", "sqrt2-1", "--n", "8", "--mode", "coding",
                                  "--interval", "2/5", "3/4", "--mc-samples", "100000", "--seed", "5"]),
    ("word-pd", ["word", "--rule", "period-doubling", "--level", "6"]),
    ("word-sturmian", ["word", "--sturmian", "--theta", "golden", "--beta", "1/7", "--range=-20..40"]),
    ("cf", ["cf", "--theta", "sqrt2-1", "--depth", "12"]),
    ("gordon-decimal-golden-20", ["gordon", "--theta", GOLDEN_55, "--n", "20"]),
    ("word-sturmian-decimal", ["word", "--sturmian", "--theta", GOLDEN_55, "--beta", "1/7",
                               "--range=-20..40"]),
    ("gordon-decimal-coding", ["gordon", "--theta", GOLDEN_55, "--n", "13", "--mode", "coding",
                               "--interval", "143/1000", "556/1000"]),
    ("gordon-coding-wrap", ["gordon", "--theta", "sqrt2-1", "--n", "6", "--mode", "coding",
                            "--interval", "37/250", "31/125"]),
    ("gordon-golden-24", ["gordon", "--theta", "golden", "--n", "24"]),
    ("gordon-decimal-golden-24", ["gordon", "--theta", GOLDEN_55, "--n", "24"]),
    ("gordon-coding-golden-20", ["gordon", "--theta", "golden", "--n", "20", "--mode", "coding",
                                 "--interval", "0.8372", "0.2291"]),
    # bad arcs 8e-20 wide: the float endpoints run 0.0 ... 1.0, and only the
    # exact ones tell that no arc crosses 0
    ("gordon-subfloat-wrap", ["gordon", "--theta", "0.25000000000000000001", "--n", "3"]),
    # no good arc survives: the payload's arc list is empty
    ("gordon-empty", ["gordon", "--theta", "golden", "--n", "3", "--mode", "coding", "--interval", "1/10", "9/10"]),
    # help and usage errors: argparse prints them and raises SystemExit
    ("help", ["--help"]),
    *((f"help-{command}", [command, "--help"])
      for command in ("word", "cf", "spectrum", "trace", "gordon", "floquet-check")),
    ("usage-unknown-command", ["bogus"]),
    ("usage-no-command", []),
    ("usage-unknown-flag", ["spectrum", "--bogus"]),
    ("usage-bad-choice", ["gordon", "--mode", "x"]),
]
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_outputs.txt")


def run_config(cli, argv, workdir):
    """Exit code, stdout, stderr and curve text of one in-process CLI run.
    Help and usage errors leave argparse by SystemExit, whose code is the
    exit code; COLUMNS is fixed meanwhile, so that help wraps the same on
    every terminal."""
    argv = list(argv)
    curve_path = None
    if argv and argv[-1] == "--curve":
        curve_path = os.path.join(workdir, "curve.csv")
        argv.append(curve_path)
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    # warnings name the source file; drop the checkout's location from them
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    err_text = err.getvalue().replace(package_root + os.sep, "")
    err_text = re.sub(r"^(\S+\.py):\d+:", r"\1:", err_text, flags=re.MULTILINE)
    curve = ""
    if curve_path is not None and os.path.exists(curve_path):
        with open(curve_path, encoding="utf-8") as fh:
            curve = fh.read()
        os.remove(curve_path)
    return code, out.getvalue(), err_text, curve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tools/pinned_outputs.txt; exit 1 on any difference")
    parser.add_argument("--dump", help="also write each output under this directory")
    parser.add_argument("names", nargs="*", help="run only these configs")
    args = parser.parse_args(argv)
    from cmvsubshift import cli

    known = {name for name, _ in CONFIGS}
    unknown = set(args.names) - known
    if unknown:
        parser.error(f"unknown configs: {sorted(unknown)}")
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    hashes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, config in CONFIGS:
            if args.names and name not in args.names:
                continue
            code, out, err, curve = run_config(cli, config, workdir)
            blob = f"exit {code}\n--stdout\n{out}--stderr\n{err}--curve\n{curve}"
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            hashes[name] = digest
            print(f"{digest}  {name}", flush=True)
            if args.dump:
                with open(os.path.join(args.dump, name + ".out"), "w", encoding="utf-8") as fh:
                    fh.write(f"exit {code}\n{out}{err}")
                if curve:
                    with open(os.path.join(args.dump, name + ".csv"), "w", encoding="utf-8") as fh:
                        fh.write(curve)
    return check(hashes, args.names) if args.check else 0


def check(hashes: dict, names: list) -> int:
    """Report each config whose hash is not the pinned one; 1 if any."""
    with open(PINNED, encoding="utf-8") as fh:
        pinned = dict(reversed(line.split()) for line in fh if line.strip())
    wanted = names or sorted(set(pinned) | set(hashes))
    bad = [name for name in wanted if pinned.get(name) != hashes.get(name)]
    for name in bad:
        print(f"differs: {name} (pinned {pinned.get(name)}, now {hashes.get(name)})", file=sys.stderr)
    print(f"{len(wanted) - len(bad)} of {len(wanted)} configs match the pinned hashes", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
