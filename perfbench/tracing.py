"""Per-layer spans and counts, recorded from outside the library.

Tracer.install() replaces public functions and methods of the cmvsubshift
modules with wrappers that time each call, subtract the time of wrapped
calls made inside it (self time), and count the work it was handed.  Nothing
under src/ changes: a function imported by name into several modules is
replaced wherever that name is bound.  Tracer.uninstall() restores the
originals, so a process can time passes with and without tracing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Hooks see each call's positional arguments before it runs, add to the
# tracer's counts, and return the arguments to call with.


def _count_sites(tracer, args):
    tracer.counts["transfer.transfer_product.sites"] += args[3] - args[2] + 1
    return args


def _count_point_sites(tracer, args):
    tracer.counts["transfer.transfer_product_grid.point_sites"] += len(args[1]) * (args[3] - args[2] + 1)
    return args


def _count_point_levels(tracer, args):
    tracer.counts["tracemap.trace_a_grid.point_levels"] += len(args[0]) * args[2]
    return args


def _count_pieces(tracer, args):
    pieces = list(args[1])
    tracer.counts["arcs.init.pieces"] += len(pieces)
    return (args[0], pieces) + args[2:]


def _count_grid(tracer, args):
    """Count scan-grid points, telling grid evaluations from bisection.

    The scan evaluates grids of resolution * 2^k points, k = 0, 1, ...,
    before it bisects edges with arrays of at most half that size.
    """
    from cmvsubshift.spectrum import DEFAULT_RESOLUTION

    disc_fn = args[0]
    state = {"next": int(args[1] if len(args) > 1 else DEFAULT_RESOLUTION), "last": 0}

    def counted(omegas):
        if len(omegas) == state["next"]:
            tracer.counts["spectrum.scan_points"] += len(omegas)
            tracer.scan_final_points += len(omegas) - state["last"]
            state["last"] = len(omegas)
            state["next"] *= 2
        return disc_fn(omegas)

    return (counted,) + args[1:]


# (metric stem, module, attribute, hook or None).  A dotted attribute names a
# method.
SPANS = [
    ("cli.self", "cli", "main", None),
    ("words.fixed_point_prefix", "words", "fixed_point_prefix", None),
    ("words.continued_fraction", "words", "continued_fraction", None),
    ("transfer.transfer_product", "transfer", "transfer_product", _count_sites),
    ("transfer.transfer_product_grid", "transfer", "transfer_product_grid", _count_point_sites),
    ("tracemap.trace_a_grid", "tracemap", "trace_a_grid", _count_point_levels),
    ("spectrum.band_scan_self", "spectrum", "band_arcs_from_function", _count_grid),
    ("spectrum.build_floquet", "spectrum", "build_floquet", None),
    ("spectrum.eigenvalues", "spectrum", "FloquetOperator.eigenvalues", None),
    ("spectrum.floquet_residual_self", "spectrum", "floquet_discriminant_residual", None),
    ("arcs.init", "arcs", "ArcSet.__init__", _count_pieces),
    ("arcs.complement", "arcs", "ArcSet.complement", None),
    ("arcs.contains_many", "arcs", "ArcSet.contains_many", None),
    ("gordon.bad_arcs", "gordon", "bad_arcs", None),
    ("gordon.gordon_set_self", "gordon", "gordon_set", None),
    ("gordon.monte_carlo_measure", "gordon", "monte_carlo_measure", None),
]

QUADRATIC_COMPARE = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")
QUADRATIC_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
)

COUNTS = [
    "cli.output_bytes",
    "quadratic.compare.calls",
    "quadratic.arith.calls",
    "transfer.transfer_product.sites",
    "transfer.transfer_product_grid.point_sites",
    "tracemap.trace_a_grid.point_levels",
    "spectrum.scan_points",
    "arcs.init.pieces",
]


class Tracer:
    """Self times, counts and a span log for the calls made while installed."""

    def __init__(self):
        self._saved = []
        self._stack = []  # child time accumulated under each open span
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.scan_final_points = 0
        self.spans = []  # (name, job index, parent span index or -1, start, end)
        self.job = -1
        self._open = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, stem, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(tracer, args)
            parent = tracer._open[-1] if tracer._open else -1
            start = time.perf_counter()
            tracer.spans.append([stem, tracer.job, parent, start, None])
            tracer._open.append(len(tracer.spans) - 1)
            tracer._stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.spans[tracer._open.pop()][4] = end
                child = tracer._stack.pop()
                tracer.self_s[stem] += (end - start) - child
                if tracer._stack:
                    tracer._stack[-1] += end - start

        traced.__wrapped__ = fn
        return traced

    def _counting(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced callable wherever the package binds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("cmvsubshift") and m]
        for stem, mod, attr, hook in SPANS:
            module = sys.modules["cmvsubshift." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(stem, cls.__dict__[meth], hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(stem, original, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, name, wrapped)
        from cmvsubshift.quadratic import Quadratic

        for kind, names in (("compare", QUADRATIC_COMPARE), ("arith", QUADRATIC_ARITH)):
            for name in names:
                fn = Quadratic.__dict__[name]
                self._replace(Quadratic, name, self._counting(f"quadratic.{kind}.calls", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Self time of every span stem (0 where no call was made) and counts."""
        out = {stem + "_s": self.self_s.get(stem, 0.0) for stem, _, _, _ in SPANS}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        scanned = self.counts.get("spectrum.scan_points", 0)
        out["spectrum.scan_useful_frac"] = self.scan_final_points / scanned if scanned else 0.0
        return out
