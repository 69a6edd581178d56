"""Batch command-line front end.

Subcommands cover each pipeline: substitution / coding words, continued
fractions, band spectra of periodic approximants, trace-map orbits, Gordon
phase sets, and the Floquet cross-check.  A JSON config file supplies
defaults; explicit flags win.  Outputs are UTF-8 text (words), CSV (curves,
orbits), or versioned JSON, and identical config + seed reproduces them
byte for byte.

Exit codes: 0 success, 2 usage or validation, 3 numeric assertion,
4 resource cap.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .errors import NumericAssertionError, ResourceCapError, ValidationError
from .gordon import gordon_set, monte_carlo_measure
from .quadratic import parse_theta
from .spectrum import (
    DEFAULT_RESOLUTION,
    TAU,
    PeriodicAlphas,
    approximant_lengths,
    band_arcs_from_function,
    discriminant_grid,
    discriminant_sampler,
    floquet_discriminant_residual,
    periodic_approximant,
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


def _coerce_complex(value) -> complex:
    """Accept 0.5, "0.3+0.1j", or a [re, im] pair from a config file."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValidationError(f"complex values as pairs need exactly [re, im], got {value!r}")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"cannot parse {value!r} as a complex number") from exc
    if isinstance(value, (int, float, complex)):
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
        if len(pair) != 2:
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


def _json_value(value, pad: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) writes it at
    indentation ``pad``.  Dicts with string keys are walked here, so that
    every "arcs" list of {"lo", "hi"} floats is rendered directly; any other
    value is left to json.dumps."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = []
        for key in sorted(value):
            item = value[key]
            text = _arc_list_text(item, inner) if key == "arcs" else None
            items.append(f"{inner}{json.dumps(key)}: {text or _json_value(item, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)  # a scalar: indentation and key order do not apply
    # nested levels of json's own output shift by the outer indentation
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _arc_list_text(arcs, pad: str) -> Optional[str]:
    """A non-empty list of {"lo", "hi"} dicts of finite floats as json.dumps
    writes it at indentation ``pad``; None for anything else."""
    if type(arcs) is not list or not arcs or {type(arc) for arc in arcs} != {dict}:
        return None
    if any(len(arc) != 2 or "lo" not in arc or "hi" not in arc for arc in arcs):
        return None
    ends = [x for arc in arcs for x in (arc["hi"], arc["lo"])]
    if {type(x) for x in ends} != {float} or not np.isfinite(ends).all():
        return None  # json.dumps spells nan and inf, and float subclasses, its own way
    inner = pad + "  "
    item = inner + "{\n" + inner + '  "hi": %r,\n' + inner + '  "lo": %r\n' + inner + "}"
    body = ",\n".join([item] * len(arcs)) % tuple(ends)
    return "[\n" + body + "\n" + pad + "]"


def _json_text(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + newline,
    with the arc lists (the bulk of a band or Gordon payload) written
    directly instead of through json's pure-Python indenting encoder."""
    return _json_value(payload, "") + "\n"


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
        return coding.window(lo, hi).text() + "\n"
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
        return PeriodicAlphas((0j,) * q), {"rule": "free", "q": q}
    rule_name = cfg.require("rule")
    rule = _named_rule(rule_name)
    level = cfg.require("level")
    alphas = periodic_approximant(rule, level, cfg.verblunsky())
    return alphas, {"rule": rule_name, "level": level, "q": alphas.period}


def _write_curve(cfg: RunConfig, sample) -> None:
    """Discriminant samples as CSV: angle, value, imaginary part (0.0: the
    discriminant is real by construction), band flag."""
    omegas = np.linspace(0.0, TAU, cfg.resolution, endpoint=False)
    disc = sample(omegas)
    in_band = np.abs(disc) <= 2.0
    rows = zip(omegas.tolist(), disc.tolist(), in_band.tolist())
    lines = [f"{omega!r},{value!r},0.0,{int(flag)}\n" for omega, value, flag in rows]
    _emit("angle,disc_real,disc_imag,in_band\n" + "".join(lines), cfg.curve)


def cmd_spectrum(cfg: RunConfig) -> str:
    if cfg.free:
        alphas, meta = _resolve_periodic(cfg)

        def sample(omegas):
            return discriminant_grid(np.exp(1j * omegas), alphas)
    else:
        rule, level = _named_rule(cfg.require("rule")), cfg.require("level")
        sample = discriminant_sampler(rule, level, cfg.verblunsky())
        meta = {"rule": cfg.rule, "level": level, "q": approximant_lengths(rule, level)[0]}
    arcs = band_arcs_from_function(sample, cfg.resolution)
    if cfg.curve is not None:
        _write_curve(cfg, sample)
    return _json_text({"schema": SCHEMA, "resolution": cfg.resolution, **meta, **arcs.as_dict()})


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
    payload = {"schema": SCHEMA, "theta": str(cfg.theta), **report.as_dict()}
    if cfg.mc_samples:
        rng = np.random.default_rng(cfg.seed)
        payload["monte_carlo"] = monte_carlo_measure(report.arcs, cfg.mc_samples, rng)
    return _json_text(payload)


def cmd_floquet_check(cfg: RunConfig) -> str:
    alphas, meta = _resolve_periodic(cfg)
    if cfg.phi_count < 1:
        raise ValidationError("phi-count must be >= 1")
    rows = []
    for k in range(cfg.phi_count):
        angle = TAU * k / cfg.phi_count
        res = floquet_discriminant_residual(alphas, complex(np.exp(1j * angle)))
        rows.append(
            {
                "phi_angle": angle,
                "unitarity_defect": res["unitarity_defect"],
                "worst_residual": res["worst_residual"],
            }
        )
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default values for any flag")
    common.add_argument("--output", help="write the result here instead of stdout")
    common.add_argument("--seed", type=int, help="seed for any sampling (default 0)")

    parser = argparse.ArgumentParser(
        prog="cmvsubshift",
        description="Spectral experiments for CMV operators over subshifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", parents=[common], help="substitution or coding words")
    p_word.add_argument("--rule", help="named substitution rule")
    p_word.add_argument("--letter", choices=("a", "b"), help="seed letter (default a)")
    p_word.add_argument("--level", type=int, help="number of substitution steps")
    p_word.add_argument("--cap", type=int, help="refuse words longer than this")
    p_word.add_argument("--sturmian", action="store_const", const=True, help="rotation coding instead")
    p_word.add_argument("--theta", help="rotation number (golden, sqrt2-1, or a decimal)")
    p_word.add_argument("--beta", help="phase of the coding")
    p_word.add_argument("--range", dest="positions", metavar="LO..HI", help="positions to print")

    p_cf = sub.add_parser("cf", parents=[common], help="continued-fraction data")
    p_cf.add_argument("--theta", help="rotation number")
    p_cf.add_argument("--depth", type=int, help="number of quotients to produce")

    p_spec = sub.add_parser("spectrum", parents=[common], help="band arcs of a periodic approximant")
    p_spec.add_argument("--rule", help="named substitution rule")
    p_spec.add_argument("--level", type=int, help="approximant level")
    p_spec.add_argument("--f-a", help="coefficient at letter a")
    p_spec.add_argument("--f-b", help="coefficient at letter b")
    p_spec.add_argument("--free", action="store_const", const=True, help="all-zero coefficients")
    p_spec.add_argument("--period", type=int, help="period for --free (even, >= 4)")
    p_spec.add_argument("--resolution", type=int, help="angles in the initial scan grid")
    p_spec.add_argument("--curve", help="also write discriminant samples (CSV) here")

    trace_help = (
        "trace-map orbit as CSV; rows stop at the last level where both traces are "
        "finite (an orbit that overflows has escaped before it does)"
    )
    p_trace = sub.add_parser("trace", parents=[common], help=trace_help, description=trace_help)
    p_trace.add_argument("--f-a", help="coefficient at letter a")
    p_trace.add_argument("--f-b", help="coefficient at letter b")
    p_trace.add_argument("--z", help="spectral parameter on the unit circle")
    p_trace.add_argument("--levels", type=int, help="orbit length (default 10)")

    p_gordon = sub.add_parser("gordon", parents=[common], help="admissible phase arcs and bound")
    p_gordon.add_argument("--theta", help="rotation number")
    p_gordon.add_argument("--n", dest="index", type=int, help="continued-fraction index")
    p_gordon.add_argument("--mode", choices=("sturmian", "coding"), help="coding arc family")
    p_gordon.add_argument("--interval", nargs=2, metavar=("LO", "HI"), help="arc for coding mode")
    p_gordon.add_argument("--mc-samples", type=int, help="Monte-Carlo membership samples")

    p_flo = sub.add_parser("floquet-check", parents=[common], help="Floquet vs discriminant residuals")
    p_flo.add_argument("--rule", help="named substitution rule")
    p_flo.add_argument("--level", type=int, help="approximant level")
    p_flo.add_argument("--f-a", help="coefficient at letter a")
    p_flo.add_argument("--f-b", help="coefficient at letter b")
    p_flo.add_argument("--free", action="store_const", const=True, help="all-zero coefficients")
    p_flo.add_argument("--period", type=int, help="period for --free (even, >= 4)")
    p_flo.add_argument("--phi-count", type=int, help="evenly spaced skew angles (default 16)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        text = _HANDLERS[cfg.command](cfg)
        _emit(text, cfg.output)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericAssertionError as exc:
        print(f"numeric assertion failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceCapError as exc:
        print(f"resource cap hit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
