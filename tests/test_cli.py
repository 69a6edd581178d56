"""CLI behavior: outputs, config merging, determinism, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cmvsubshift import cli
from cmvsubshift.arcs import ArcSet
from cmvsubshift.gordon import gordon_set, monte_carlo_measure
from cmvsubshift.quadratic import GOLDEN_MEAN
from cmvsubshift.spectrum import build_floquet, periodic_approximant
from cmvsubshift.tracemap import trace_a_grid
from cmvsubshift.transfer import VerblunskyMap
from cmvsubshift.words import FIBONACCI, sturmian_coding


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_substitution_levels(capsys):
    code, out, _ = run_cli(capsys, "word", "--rule", "period-doubling", "--level", "3")
    assert code == 0 and out == "abaaabab\n"
    code, out, _ = run_cli(capsys, "word", "--rule", "period-doubling", "--level", "0")
    assert code == 0 and out == "a\n"


def test_word_sturmian_window(capsys):
    code, out, _ = run_cli(
        capsys, "word", "--sturmian", "--theta", "golden", "--beta", "0", "--range", "1..8"
    )
    assert code == 0
    assert out.strip() == sturmian_coding(GOLDEN_MEAN, 0).window(1, 8).text()


def test_cf_json(capsys):
    code, out, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["q"] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert doc["p"] == [1, 0, 1, 1, 2, 3, 5, 8]
    assert doc["a"] == [0] + [1] * 7


def test_spectrum_free_full_circle(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--free", "--period", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1" and doc["q"] == 4
    assert abs(doc["measure"] - 2 * math.pi) < 1e-6


def test_spectrum_odd_period_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--free", "--period", "5")
    assert code == 2 and "even" in err


def test_spectrum_period_doubling_with_curve(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--rule", "period-doubling", "--level", "4",
        "--f-a", "0.3", "--f-b", "-0.3",
        "--resolution", "4096", "--curve", str(curve),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 2
    assert doc["measure"] < 2 * math.pi
    rows = list(csv.DictReader(curve.open()))
    assert len(rows) == 4096
    assert set(rows[0]) == {"angle", "disc_real", "disc_imag", "in_band"}
    for row in rows[:100]:
        assert (abs(float(row["disc_real"])) <= 2.0) == bool(int(row["in_band"]))
        assert float(row["disc_imag"]) == 0.0  # recursion route is real arithmetic


def test_trace_csv_coupling_column(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--f-a", "0.5", "--f-b", "-0.5", "--z", "1", "--levels", "10"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert [r["level"] for r in rows] == [str(k) for k in range(1, 11)]
    for row in rows:
        assert abs(float(row["coupling"]) - 10 / 3) < 1e-10


def test_trace_stops_at_last_finite_level(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--z", "1", "--f-a", "0.5", "--f-b=-0.5", "--levels", "14"
    )
    assert code == 0
    assert "inf" not in out and "nan" not in out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert rows[-1]["escaped"] == "1"


def test_spectrum_odd_approximant_runs_as_double_period(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--rule", "fibonacci", "--level", "6", "--f-a", "0.3", "--f-b=-0.3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 42  # the level-6 prefix has odd length 21
    # band edges are the eigenvalues of the Floquet operator at phi = +1, -1
    alphas = periodic_approximant(FIBONACCI, 6, VerblunskyMap(0.3, -0.3))
    edges = np.concatenate([np.angle(build_floquet(alphas, phi).eigenvalues()) for phi in (1, -1)])
    for arc in doc["arcs"]:
        for end in (arc["lo"], arc["hi"]):
            gap = np.abs(np.angle(np.exp(1j * (edges - end))))
            assert gap.min() < 1e-9


def test_thue_morse_discriminant_is_real_by_construction(capsys, tmp_path):
    # exited 3 under a fixed bound on the imaginary part of the product trace
    curve = tmp_path / "curve.csv"
    code, out, err = run_cli(
        capsys, "spectrum", "--rule", "thue-morse", "--level", "8", "--f-a", "0.3", "--f-b=-0.3",
        "--curve", str(curve),
    )
    assert code == 0, err
    assert json.loads(out)["q"] == 256
    rows = list(csv.DictReader(curve.open()))
    assert {row["disc_imag"] for row in rows} == {"0.0"}


def test_curve_bytes_match_csv_writer_rendering(capsys, tmp_path):
    # 32768 rows span two sampling chunks; the reference seeds the trace map
    # from exp(i omega) over the whole grid at once and renders with csv.writer
    curve = tmp_path / "curve.csv"
    code, _, err = run_cli(
        capsys, "spectrum", "--rule", "period-doubling", "--level", "9", "--f-a", "0.3", "--f-b=-0.3",
        "--resolution", "32768", "--curve", str(curve),
    )
    assert code == 0, err
    omegas = np.linspace(0.0, 2 * math.pi, 32768, endpoint=False)
    disc = trace_a_grid(np.exp(1j * omegas), VerblunskyMap(0.3, -0.3), 9)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["angle", "disc_real", "disc_imag", "in_band"])
    for omega, value in zip(omegas, disc):
        writer.writerow([repr(float(omega)), repr(float(value)), "0.0", int(abs(value) <= 2.0)])
    assert curve.read_bytes() == buf.getvalue().encode("utf-8")


def test_spectrum_reads_q_from_letter_lengths(capsys):
    # no level-n word is built: no word cap applies, and a q past float range
    # fails the drift check (the blocks overflow long before) instead of crashing
    code, out, err = run_cli(
        capsys, "spectrum", "--rule", "period-doubling", "--level", "23", "--f-a", "0.3", "--f-b=-0.3"
    )
    assert code == 0, err
    assert json.loads(out)["q"] == 1 << 23
    code, _, err = run_cli(
        capsys, "spectrum", "--rule", "thue-morse", "--level", "1100", "--f-a", "0.3", "--f-b=-0.3"
    )
    assert code == 3 and "drift" in err


@pytest.mark.parametrize("rule", ["thue-morse", "fibonacci"])
def test_planted_wrong_rho_fires_drift_check(capsys, monkeypatch, rule):
    from cmvsubshift import transfer

    true_rho = transfer.rho_of
    monkeypatch.setattr(transfer, "rho_of", lambda alpha: 1.001 * true_rho(alpha))
    code, _, err = run_cli(capsys, "spectrum", "--rule", rule, "--level", "6", "--f-a", "0.3", "--f-b=-0.3")
    assert code == 3 and "determinant drift" in err


def test_gordon_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "gordon", "--theta", "golden", "--n", "9")
    assert code == 0
    doc = json.loads(out)
    rep = gordon_set(GOLDEN_MEAN, 9)
    assert doc["schema"] == "v1"
    assert doc["q"] == rep.q and doc["applicable"]
    assert doc["bound"] == pytest.approx(rep.bound, abs=1e-15)
    assert doc["measure"] == pytest.approx(rep.measure, abs=1e-15)
    assert doc["arcs"]["count"] == rep.arcs.count


def test_gordon_monte_carlo_is_seeded(capsys):
    args = ("gordon", "--theta", "golden", "--n", "9", "--mc-samples", "4000", "--seed", "7")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    mc = doc["monte_carlo"]
    assert mc["samples"] == 4000
    assert abs(mc["estimate"] - doc["measure"]) < 4 * mc["sigma"]


def test_gordon_sturmian_rejects_interval(capsys):
    code, _, err = run_cli(
        capsys, "gordon", "--theta", "golden", "--n", "9", "--interval", "0.1", "0.4"
    )
    assert code == 2 and "interval" in err


GOLDEN_55 = "0.6180339887498948482045868343656381177203091798057628621"


@pytest.mark.filterwarnings("ignore:q_.* is odd")
def test_gordon_decimal_theta_coding_matches_golden(capsys):
    # a decimal theta and fraction endpoints meet in one exact arithmetic
    args = ("--n", "13", "--mode", "coding", "--interval", "143/1000", "556/1000")
    code, out, _ = run_cli(capsys, "gordon", "--theta", GOLDEN_55, *args)
    assert code == 0
    code, golden_out, _ = run_cli(capsys, "gordon", "--theta", "golden", *args)
    assert code == 0
    doc, golden = json.loads(out), json.loads(golden_out)
    assert doc.pop("theta") == GOLDEN_55 and golden.pop("theta") == "golden"
    assert doc == golden


@pytest.mark.parametrize(
    "argv",
    [
        ("gordon", "--theta", "golden", "--n", "9", "--mode", "coding", "--interval", "nan", "0.4"),
        ("word", "--sturmian", "--theta", "0.618", "--beta", "nan", "--range", "1..5"),
    ],
    ids=["gordon-interval", "word-beta"],
)
def test_nan_phase_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "nan" in err


def test_spectrum_count_joins_the_band_across_zero(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--rule", "thue-morse", "--level", "4", "--f-a", "0.3", "--f-b=-0.3"
    )
    assert code == 0
    doc = json.loads(out)
    arcs = doc["arcs"]
    assert arcs[0]["lo"] == 0.0 and arcs[-1]["hi"] == 2 * math.pi and len(arcs) == 9
    assert doc["count"] == 8


def test_gordon_count_joins_the_arc_across_zero(capsys):
    code, out, _ = run_cli(
        capsys, "gordon", "--theta", "sqrt2-1", "--n", "6", "--mode", "coding",
        "--interval", "37/250", "31/125",
    )
    assert code == 0
    arcs = json.loads(out)["arcs"]
    pieces = arcs["arcs"]
    assert pieces[0]["lo"] == 0.0 and pieces[-1]["hi"] == 1.0 and len(pieces) == 71
    assert arcs["count"] == 70


@pytest.mark.parametrize(
    "interval", [("0.3", "0.3"), ("0.3", "1.3")], ids=["equal", "equal-mod-1"]
)
def test_gordon_coding_arc_of_zero_length_is_usage_error(capsys, interval):
    code, out, err = run_cli(
        capsys, "gordon", "--theta", "golden", "--n", "9", "--mode", "coding", "--interval", *interval
    )
    assert code == 2 and out == ""
    assert "positive length" in err


def _gordon_payload():
    report = gordon_set(GOLDEN_MEAN, 12)
    payload = {"schema": "v1", "theta": "golden", **report.as_dict()}
    payload["monte_carlo"] = monte_carlo_measure(report.arcs, 5000, np.random.default_rng(3))
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        {"schema": "v1", **ArcSet.empty(2 * math.pi).as_dict()},
        {"schema": "v1", **ArcSet.full(2 * math.pi).as_dict()},
        {"schema": "v1", "resolution": 64, **ArcSet([(6.0, 7.0), (1.0, 2.5)], 2 * math.pi).as_dict()},
        {
            "nested": {"arcs": ArcSet([(0.75, 1.25)], 1).as_dict(), "rows": [[1, 2], {"b": None}]},
            "pair": (1.5, "x"),
            "flags": {"on": True, "off": False, "none": None, "text": "é"},
        },
        {"arcs": [{"lo": float("nan"), "hi": 1.0}], "other": {"arcs": [{"lo": 0.5}]}},
        _gordon_payload(),
    ],
    ids=["empty", "full", "across-0", "nested", "not-plain-arcs", "gordon-mc"],
)
def test_json_text_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_floquet_check_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "floquet-check", "--rule", "period-doubling", "--level", "3",
        "--f-a", "0.3", "--f-b", "-0.3", "--phi-count", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 8 and len(doc["phis"]) == 8
    assert doc["max_unitarity_defect"] < 1e-12
    assert doc["max_residual"] < 1e-8


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {"rule": "period-doubling", "level": 4, "f_a": [0.3, 0.0],
             "f_b": [-0.3, 0.0], "resolution": 2048}
        )
    )
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(config), "--level", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 2  # explicit flag wins
    assert doc["resolution"] == 2048  # config fills the rest
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}')
    code, _, err = run_cli(capsys, "cf", "--theta", "golden", "--depth", "5", "--config", str(bad))
    assert code == 2 and "no_such_key" in err
    # each file value must have its flag's type: an int flag takes a JSON
    # integer (not a bool), a string flag a string, a switch a bool
    for values, argv in (
        ({"resolution": "2048"}, ("spectrum", "--rule", "period-doubling", "--level", "2")),
        ({"level": "7"}, ("spectrum", "--rule", "period-doubling", "--f-a", "0.3", "--f-b", "-0.3")),
        ({"mc_samples": 10.5}, ("gordon", "--theta", "golden", "--n", "6")),
        ({"index": True}, ("gordon", "--theta", "golden")),
        ({"theta": 0.5}, ("cf", "--depth", "5")),
        ({"free": 1}, ("spectrum", "--period", "4")),
    ):
        bad.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, *argv, "--config", str(bad))
        (key,) = values
        assert (code, out) == (2, "") and repr(key) in err and err.count("\n") == 1, values
    for values in ({"interval": 5}, {"f_a": ["x", 0]}, {"f_a": True}):
        bad.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "gordon", "--theta", "golden", "--n", "6", "--config", str(bad))
        assert (code, out) == (2, "") and err.count("\n") == 1, values


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "cf.json"
    code, out, _ = run_cli(
        capsys, "cf", "--theta", "sqrt2-1", "--depth", "7", "--output", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["q"] == [0, 1, 2, 5, 12, 29, 70]


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "word", "--rule", "period-doubling", "--level", "30")
    assert code == 4 and "cap" in err
    # |z| - 1 = 9e-9 is inside the unit-circle tolerance; 2e-8 is not
    code, out, _ = run_cli(
        capsys, "trace", "--f-a", "0.5", "--f-b", "-0.5", "--z", "1.000000009j"
    )
    assert code == 0
    _, on_circle, _ = run_cli(capsys, "trace", "--f-a", "0.5", "--f-b", "-0.5", "--z", "1j")
    assert out == on_circle
    code, _, err = run_cli(
        capsys, "trace", "--f-a", "0.5", "--f-b", "-0.5", "--z", "1.00000002j"
    )
    assert code == 2 and "unit circle" in err
    code, _, err = run_cli(capsys, "trace", "--f-a", "0.5", "--f-b", "-0.5")
    assert code == 2  # missing z
    code, _, err = run_cli(capsys, "word", "--rule", "no-such-rule", "--level", "2")
    assert code == 2 and "known rules" in err


def test_out_of_memory_is_resource_exit(capsys, monkeypatch):
    # a level-16 period-doubling operator would need 64 GiB; the builder
    # raises at once here instead of allocating
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(cli, "periodic_approximant", too_large)
    code, out, err = run_cli(
        capsys, "floquet-check", "--rule", "period-doubling", "--level", "16",
        "--f-a", "0.3", "--f-b", "-0.3",
    )
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and "64.0 GiB" in err


def test_gordon_convergent_past_int64_is_resource_exit(capsys):
    # q_3 = 24,999,999,999,999,999,997 centres per orbit: no array holds them
    code, out, err = run_cli(capsys, "gordon", "--theta", "0.24999999999999999999", "--n", "3")
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and "q_n = 24999999999999999997" in err


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cmvsubshift.cli", "cf", "--theta", "golden", "--depth", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == [0, 1, 1, 2, 3, 5]


def test_cli_import_leaves_mpmath_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cmvsubshift.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
