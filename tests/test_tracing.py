"""The benchmark's layer tracer (perfbench/tracing.py) still finds every
function, method and Quadratic operator it wraps in the package."""

import importlib.util
import os

import cmvsubshift.cli  # loads every module the tracer wraps
from cmvsubshift import gordon
from cmvsubshift.quadratic import GOLDEN_MEAN, Quadratic

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    wrapped = {name: Quadratic.__dict__[name] for name in tracing.QUADRATIC_COMPARE + tracing.QUADRATIC_ARITH}
    original = gordon.gordon_set
    tracer = tracing.Tracer()
    tracer.install()  # a renamed span target or dunder raises here
    try:
        assert gordon.gordon_set.__wrapped__ is original
        for name, fn in wrapped.items():
            assert Quadratic.__dict__[name].__wrapped__ is fn
        gordon.gordon_set(GOLDEN_MEAN, 12)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert gordon.gordon_set is original
    assert all(Quadratic.__dict__[name] is fn for name, fn in wrapped.items())
    # the Gordon set is built in gordon_set itself, in normal form, without
    # the bad arcs: no ArcSet.__init__ pieces, no complement, and a few exact
    # comparisons per gap class
    assert metrics["gordon.gordon_set_self_s"] > 0
    assert metrics["gordon.bad_arcs_s"] == 0
    assert metrics["arcs.complement_s"] == 0
    assert metrics["arcs.init.pieces"] == 0
    assert 0 < metrics["quadratic.compare.calls"] < 100


def test_tracer_sees_the_period_doubling_band_scan(capsys):
    # pd-bands' per-layer figures read these two spans; a CLI path that
    # bypassed the wrapped scan or trace recursion would zero them silently
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cmvsubshift.cli.main([
            "spectrum", "--rule", "period-doubling", "--level", "7", "--f-a", "0.3", "--f-b=-0.3",
            "--resolution", "1024",
        ])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert code == 0 and '"q": 128' in capsys.readouterr().out
    assert metrics["spectrum.band_scan_self_s"] > 0
    assert metrics["tracemap.trace_a_grid.point_levels"] > 0


def test_tracer_sees_the_floquet_check(capsys):
    # periodic's per-layer figures read these spans and the fold's count: the
    # operator and its eigensolve run once per phase, the cross-check once per
    # call, and every phase folds q eigenvalues over q sites
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cmvsubshift.cli.main([
            "floquet-check", "--rule", "thue-morse", "--level", "5", "--f-a", "0.3", "--f-b=-0.2j",
            "--phi-count", "3",
        ])
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert code == 0 and '"q": 32' in capsys.readouterr().out
    assert metrics["spectrum.build_floquet_s"] > 0
    assert metrics["spectrum.eigenvalues_s"] > 0
    assert metrics["spectrum.floquet_residual_self_s"] > 0
    assert metrics["transfer.transfer_product_grid.point_sites"] == 3 * 32**2
