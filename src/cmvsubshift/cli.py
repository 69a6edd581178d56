"""Batch command-line front end.

Subcommands cover each pipeline: substitution / coding words, continued
fractions, band spectra of periodic approximants, trace-map orbits, Gordon
phase sets, and the Floquet cross-check.  A JSON config file supplies
defaults; explicit flags win.  One invocation builds only its own
subcommand's flags (``build_parser``).  Outputs are UTF-8 text (words), CSV
(curves, orbits), or versioned JSON, all written by ``_json_text``, and
identical config + seed reproduces them byte for byte.

Exit codes: 0 success, 2 usage or validation (an --output, --curve or
--config path that cannot be opened included), 3 numeric assertion,
4 resource cap or out of memory.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import floatfmt
from .arcs import ArcSet
from .errors import NumericAssertionError, ResourceCapError, ValidationError
from .gordon import gordon_set, monte_carlo_measure
from .quadratic import parse_theta
from .spectrum import (
    CHUNK,
    DEFAULT_RESOLUTION,
    TAU,
    PeriodicAlphas,
    approximant_discriminant,
    band_arcs,
    floquet_discriminant_residual,
    periodic_approximant,
    periodic_discriminant,
)
from .tracemap import trace_orbit
from .transfer import VerblunskyMap
from .words import DEFAULT_WORD_CAP, NAMED_RULES, continued_fraction, sturmian_coding, substitution_word

SCHEMA = "v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

_COMPLEX_KEYS = ("f_a", "f_b", "z")
# stands where a payload's arc list goes; no payload string holds a NUL:
# argv cannot carry one, and a config file's theta, rule and mode are checked first
_ARC_LIST = "\0arc list"


# ---------------------------------------------------------------------------
# merged run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One invocation after merging explicit flags over config-file values."""

    command: str
    rule: Optional[str] = None
    letter: str = "a"
    level: Optional[int] = None
    cap: int = DEFAULT_WORD_CAP
    sturmian: bool = False
    free: bool = False
    theta: Optional[str] = None
    beta: Optional[str] = None
    positions: Optional[str] = None
    depth: Optional[int] = None
    mode: str = "sturmian"
    index: Optional[int] = None
    interval: Optional[Tuple] = None
    mc_samples: int = 0
    f_a: Optional[complex] = None
    f_b: Optional[complex] = None
    z: Optional[complex] = None
    levels: int = 10
    period: Optional[int] = None
    resolution: int = DEFAULT_RESOLUTION
    phi_count: int = 16
    curve: Optional[str] = None
    output: Optional[str] = None
    seed: int = 0

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{self.command} needs {flag} (flag or config key)")
        return value

    def verblunsky(self) -> VerblunskyMap:
        return VerblunskyMap(self.require("f_a"), self.require("f_b"))


_FIELD_NAMES = {f.name for f in fields(RunConfig)} - {"command"}

# the JSON type a config-file value must have, for each int, str or bool field
_FILE_TYPES = {
    f.name: kind
    for f in fields(RunConfig)
    for kind in (bool, int, str)
    if f.type in (kind, Optional[kind])
}


def _coerce_complex(value) -> complex:
    """Accept 0.5, "0.3+0.1j", or a [re, im] pair from a config file."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(type(x) in (int, float) for x in value):
            raise ValidationError(f"complex values as pairs need exactly [re, im], got {value!r}")
        return complex(*value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"cannot parse {value!r} as a complex number") from exc
    if type(value) in (int, float, complex):
        return complex(value)
    raise ValidationError(f"cannot parse {value!r} as a complex number")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a single JSON object")
    out = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _FIELD_NAMES:
            raise ValidationError(f"unknown config key {key!r}")
        kind = _FILE_TYPES.get(name)
        if kind is not None and type(value) is not kind:
            spelled = {bool: "true or false", int: "an integer", str: "a string"}[kind]
            raise ValidationError(f"config key {key!r} needs {spelled}, got {value!r}")
        out[name] = value
    return out


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Explicit flags win; config-file values fill the gaps; then defaults."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for name in _FIELD_NAMES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in file_values:
            merged[name] = file_values[name]
    for key in _COMPLEX_KEYS:
        if merged.get(key) is not None:
            merged[key] = _coerce_complex(merged[key])
    if merged.get("interval") is not None:
        pair = merged["interval"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("interval needs exactly two endpoints")
        merged["interval"] = tuple(str(x) for x in pair)
    cfg = RunConfig(command=args.command, **merged)
    if cfg.seed < 0:
        raise ValidationError("seed must be >= 0")
    if cfg.resolution < 8:
        raise ValidationError("resolution must be >= 8")
    if cfg.mc_samples < 0:
        raise ValidationError("mc-samples must be >= 0")
    return cfg


# ---------------------------------------------------------------------------
# small parsing / output helpers
# ---------------------------------------------------------------------------


def _parse_phase(text) -> Fraction:
    """A circle coordinate: a fraction, or a decimal read as the exact
    rational it spells."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse phase {text!r}") from exc


def _parse_positions(text: str) -> Tuple[int, int]:
    lo, sep, hi = str(text).partition("..")
    if not sep:
        raise ValidationError(f"position range must look like LO..HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValidationError(f"position range must be integers, got {text!r}") from exc
    if hi_i < lo_i:
        raise ValidationError("position range is empty")
    return lo_i, hi_i


def _named_rule(name: str):
    if name not in NAMED_RULES:
        known = ", ".join(sorted(NAMED_RULES))
        raise ValidationError(f"unknown rule {name!r}; known rules: {known}")
    return NAMED_RULES[name]


def _json_text(payload: dict, arcs: Optional[ArcSet] = None) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline.  Where the
    payload holds ``_ARC_LIST``, the arc list of ``arcs`` is spliced in at
    that line's indentation: one ``floatfmt.rows`` call formats its float64
    endpoints, byte for byte as json.dumps writes a float
    (``float.__repr__``), without json's pure-Python indenting encoder."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if arcs is None:
        return text
    head, _, tail = text.partition(json.dumps(_ARC_LIST))
    los, his = arcs._float_endpoints()
    if not len(los):
        return head + "[]" + tail
    line = head[head.rfind("\n") + 1 :]
    pad = line[: len(line) - len(line.lstrip(" "))]
    inner = pad + "  "
    body = floatfmt.rows([f'{inner}{{\n{inner}  "hi": ', his, f',\n{inner}  "lo": ', los, f"\n{inner}}},\n"])
    return f"{head}[\n{body[:-2]}\n{pad}]{tail}"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the text to emit)
# ---------------------------------------------------------------------------


def cmd_word(cfg: RunConfig) -> str:
    if cfg.sturmian:
        theta = parse_theta(cfg.require("theta"))
        beta = _parse_phase(cfg.require("beta"))
        lo, hi = _parse_positions(cfg.require("positions"))
        coding = sturmian_coding(theta, beta)
        return coding.window(lo, hi, cap=cfg.cap).text() + "\n"
    rule = _named_rule(cfg.require("rule"))
    word = substitution_word(rule, cfg.letter, cfg.require("level"), cap=cfg.cap)
    return word.text + "\n"


def cmd_cf(cfg: RunConfig) -> str:
    theta = parse_theta(cfg.require("theta"))
    cf = continued_fraction(theta, cfg.require("depth"))
    payload = {
        "schema": SCHEMA,
        "theta": str(cfg.theta),
        "depth": cf.depth,
        "a": list(cf.a),
        "p": list(cf.p),
        "q": list(cf.q),
    }
    return _json_text(payload)


def _resolve_periodic(cfg: RunConfig):
    """Periodic coefficient block for spectrum / floquet-check, plus metadata."""
    if cfg.free:
        q = cfg.require("period")
        if q < 4 or q % 2:
            raise ValidationError("free mode needs an even period >= 4")
        if q > DEFAULT_WORD_CAP:
            raise ResourceCapError(f"free period {q} exceeds cap of {DEFAULT_WORD_CAP} sites")
        return PeriodicAlphas((0j,) * q), {"rule": "free", "q": q}
    rule_name = cfg.require("rule")
    rule = _named_rule(rule_name)
    level = cfg.require("level")
    alphas = periodic_approximant(rule, level, cfg.verblunsky())
    return alphas, {"rule": rule_name, "level": level, "q": alphas.period}


def _write_curve(cfg: RunConfig, sample) -> None:
    """Discriminant samples as CSV: angle, value, imaginary part (0.0: the
    discriminant is real by construction), band flag.  Rows are sampled and
    written ``CHUNK`` at a time; ``floatfmt.rows`` formats a block's four
    columns as one buffer, every float byte for byte as ``float.__repr__``
    writes it.  The angles k * (TAU / n) are
    ``np.linspace(0, TAU, n, endpoint=False)``'s bits.  A run that fails
    part way leaves no curve file."""
    n = cfg.resolution
    with open(cfg.curve, "w", encoding="utf-8") as fh:
        try:
            fh.write("angle,disc_real,disc_imag,in_band\n")
            for k in range(0, n, CHUNK):
                omegas = np.arange(k, min(k + CHUNK, n)) * (TAU / n)
                disc = sample(omegas)
                flags = np.where(np.abs(disc) <= 2.0, b",0.0,1\n", b",0.0,0\n")
                fh.write(floatfmt.rows([omegas, ",", disc, flags]))
        except BaseException:
            os.remove(cfg.curve)
            raise


def cmd_spectrum(cfg: RunConfig) -> str:
    if cfg.free:
        alphas, meta = _resolve_periodic(cfg)
        disc = periodic_discriminant(alphas)
    else:
        rule, level = _named_rule(cfg.require("rule")), cfg.require("level")
        disc = approximant_discriminant(rule, level, cfg.verblunsky())
        meta = {"rule": cfg.rule, "level": level}
    arcs = band_arcs(disc, cfg.resolution)
    if cfg.curve is not None:
        _write_curve(cfg, disc.sample)
    payload = {"schema": SCHEMA, "resolution": cfg.resolution, **meta, "q": disc.period}
    return _json_text({**payload, **arcs.as_dict(_ARC_LIST)}, arcs)


def cmd_trace(cfg: RunConfig) -> str:
    orbit = trace_orbit(cfg.require("z"), cfg.verblunsky(), cfg.levels)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "trace_a", "trace_b", "escaped", "coupling"])
    coupling = repr(float(orbit.coupling))
    for level, trace_a, trace_b, escaped in orbit.rows():
        writer.writerow([level, repr(trace_a), repr(trace_b), int(escaped), coupling])
    return buf.getvalue()


def cmd_gordon(cfg: RunConfig) -> str:
    theta = parse_theta(cfg.require("theta"))
    interval = None
    if cfg.interval is not None:
        interval = tuple(_parse_phase(x) for x in cfg.interval)
    report = gordon_set(theta, cfg.require("index"), mode=cfg.mode, interval=interval)
    payload = {"schema": SCHEMA, "theta": str(cfg.theta), **report.as_dict(_ARC_LIST)}
    if cfg.mc_samples:
        rng = np.random.default_rng(cfg.seed)
        payload["monte_carlo"] = monte_carlo_measure(report.arcs, cfg.mc_samples, rng)
    return _json_text(payload, report.arcs)


def cmd_floquet_check(cfg: RunConfig) -> str:
    alphas, meta = _resolve_periodic(cfg)
    if cfg.phi_count < 1:
        raise ValidationError("phi-count must be >= 1")
    angles = [TAU * k / cfg.phi_count for k in range(cfg.phi_count)]
    reports = floquet_discriminant_residual(alphas, [complex(np.exp(1j * angle)) for angle in angles])
    rows = [
        {
            "phi_angle": angle,
            "unitarity_defect": res["unitarity_defect"],
            "worst_residual": res["worst_residual"],
        }
        for angle, res in zip(angles, reports)
    ]
    payload = {
        "schema": SCHEMA,
        **meta,
        "phi_count": cfg.phi_count,
        "max_unitarity_defect": max(r["unitarity_defect"] for r in rows),
        "max_residual": max(r["worst_residual"] for r in rows),
        "phis": rows,
    }
    return _json_text(payload)


_HANDLERS = {
    "word": cmd_word,
    "cf": cmd_cf,
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "gordon": cmd_gordon,
    "floquet-check": cmd_floquet_check,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_COMMON = (
    ("--config", {"help": "JSON file with default values for any flag"}),
    ("--output", {"help": "write the result here instead of stdout"}),
    ("--seed", {"type": int, "help": "seed for any sampling (default 0)"}),
)
_SOURCE = (  # the coefficients of spectrum and floquet-check
    ("--rule", {"help": "named substitution rule"}),
    ("--level", {"type": int, "help": "approximant level"}),
    ("--f-a", {"help": "coefficient at letter a"}),
    ("--f-b", {"help": "coefficient at letter b"}),
    ("--free", {"action": "store_const", "const": True, "help": "all-zero coefficients"}),
    ("--period", {"type": int, "help": "period for --free (even, >= 4)"}),
)
_TRACE_HELP = (
    "trace-map orbit as CSV; rows stop at the last level where both traces are "
    "finite (an orbit that overflows has escaped before it does)"
)

# each subcommand's help line, its description, and its flags in --help order
_SUBCOMMANDS = {
    "word": ("substitution or coding words", None, _COMMON + (
        ("--rule", {"help": "named substitution rule"}),
        ("--letter", {"choices": ("a", "b"), "help": "seed letter (default a)"}),
        ("--level", {"type": int, "help": "number of substitution steps"}),
        ("--cap", {"type": int, "help": "refuse words longer than this"}),
        ("--sturmian", {"action": "store_const", "const": True, "help": "rotation coding instead"}),
        ("--theta", {"help": "rotation number (golden, sqrt2-1, or a decimal)"}),
        ("--beta", {"help": "phase of the coding"}),
        ("--range", {"dest": "positions", "metavar": "LO..HI", "help": "positions to print"}),
    )),
    "cf": ("continued-fraction data", None, _COMMON + (
        ("--theta", {"help": "rotation number"}),
        ("--depth", {"type": int, "help": "number of quotients to produce"}),
    )),
    "spectrum": ("band arcs of a periodic approximant", None, _COMMON + _SOURCE + (
        ("--resolution", {"type": int, "help": "angles in the initial scan grid"}),
        ("--curve", {"help": "also write discriminant samples (CSV) here"}),
    )),
    "trace": (_TRACE_HELP, _TRACE_HELP, _COMMON + (
        ("--f-a", {"help": "coefficient at letter a"}),
        ("--f-b", {"help": "coefficient at letter b"}),
        ("--z", {"help": "spectral parameter on the unit circle"}),
        ("--levels", {"type": int, "help": "orbit length (default 10)"}),
    )),
    "gordon": ("admissible phase arcs and bound", None, _COMMON + (
        ("--theta", {"help": "rotation number"}),
        ("--n", {"dest": "index", "type": int, "help": "continued-fraction index"}),
        ("--mode", {"choices": ("sturmian", "coding"), "help": "coding arc family"}),
        ("--interval", {"nargs": 2, "metavar": ("LO", "HI"), "help": "arc for coding mode"}),
        ("--mc-samples", {"type": int, "help": "Monte-Carlo membership samples"}),
    )),
    "floquet-check": ("Floquet vs discriminant residuals", None, _COMMON + _SOURCE + (
        ("--phi-count", {"type": int, "help": "evenly spaced skew angles (default 16)"}),
    )),
}


def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser of one invocation of ``command``.  Every subcommand is
    registered with its help line, for the top-level help and errors, but
    only ``command`` gets its flags, ``-h`` included: each flag costs
    argparse a help formatter, and no other subcommand's parser is invoked."""
    parser = argparse.ArgumentParser(
        prog="cmvsubshift",
        description="Spectral experiments for CMV operators over subshifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, description, flags) in _SUBCOMMANDS.items():
        p_sub = sub.add_parser(name, help=help_line, description=description, add_help=name == command)
        if name == command:
            for flag, options in flags:
                p_sub.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no top-level flag takes a value: argparse dispatches to the first command named
    command = next((arg for arg in argv if arg in _SUBCOMMANDS), None)
    args = build_parser(command).parse_args(argv)
    try:
        cfg = merge_config(args)
        text = _HANDLERS[cfg.command](cfg)
        _emit(text, cfg.output)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericAssertionError as exc:
        print(f"numeric assertion failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceCapError as exc:
        print(f"resource cap hit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
