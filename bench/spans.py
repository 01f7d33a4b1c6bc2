"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of the listed schemeres
modules, and ``AssociationScheme.relation_connected``, in every module
attribute and module-level dict that binds them, so calls through
``from .x import f`` and through preset tables are seen too.  Nothing under
``src/`` changes.

Each span adds its duration to its layer key.  ``.s`` is busy time: a call
nested in a call with the same key is not counted twice.  ``.self_s`` is
busy time minus the time spent in spans of other keys.  Spans are kept as
totals per phase ("setup" and "timed"), in memory, and read when the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("builders", "scheme", "spectra", "exact", "resistance", "lattice", "cli")

# functions whose key is not "<module>.<function>"
_KEYS = {
    "resistance.resistance_oracle": "resistance.oracle",
    "resistance.oracle_resistance_matrix": "resistance.oracle",
    "resistance.resistance_polynomial": "resistance.polynomial",
    "resistance.resistance_spectral": "resistance.spectral",
    "resistance.resistance_drg_closed": "resistance.drg_closed",
    "resistance.drg_closed_table": "resistance.drg_closed",
    "lattice.infinite_lattice_resistance": "lattice.infinite_lattice",
    "lattice.infinite_line_resistance": "lattice.infinite_line",
}

#: (metric, unit) printed by the traced run, in BENCHMARK.json order
PER_LAYER = (
    ("builders.build.self_s", "s"),
    ("scheme.verify_scheme.s", "s"),
    ("scheme.verify_scheme.calls", "count"),
    ("scheme.verify_scheme.nxn_products_computed", "count"),
    ("scheme.stored_bytes", "B"),
    ("scheme.spectral_data.self_s", "s"),
    ("spectra.simultaneous_eigenbasis.s", "s"),
    ("spectra.eig_sym.s", "s"),
    ("scheme.check_distance_regular.s", "s"),
    ("scheme.spectral_stored_bytes", "B"),
    ("exact.integer_matrix_powers.s", "s"),
    ("exact.integer_matrix_powers.object_powers", "count"),
    ("exact.rational_solve.s", "s"),
    ("resistance.polynomial_coefficients.self_s", "s"),
    ("resistance.polynomial.self_s", "s"),
    ("resistance.drg_closed.s", "s"),
    ("resistance.pseudo_inverse.s", "s"),
    ("resistance.pseudo_inverse.calls", "count"),
    ("resistance.oracle.self_s", "s"),
    ("scheme.relation_connected.s", "s"),
    ("scheme.relation_connected.calls", "count"),
    ("resistance.spectral.s", "s"),
    ("resistance.foster_sum.s", "s"),
    ("lattice.infinite_lattice.s", "s"),
    ("lattice.infinite_line.s", "s"),
    ("cli.run_resist.self_s", "s"),
)


def _observe_scheme(counts, scheme):
    counts["scheme.stored_bytes"] += (
        sum(r.nbytes for r in scheme.relations) + scheme.classmap.nbytes)
    counts["scheme.verify_scheme.nxn_products_computed"] += (
        (scheme.d + 1) * (scheme.d + 2) // 2)


def _observe_spectral(counts, data):
    counts["scheme.spectral_stored_bytes"] += sum(e.nbytes for e in data.idempotents)


def _observe_powers(counts, powers):
    counts["exact.integer_matrix_powers.object_powers"] += sum(
        p.dtype == object for p in powers)


_OBSERVERS = {
    "scheme.verify_scheme": _observe_scheme,
    "scheme.spectral_data": _observe_spectral,
    "exact.integer_matrix_powers": _observe_powers,
}


_FIELDS = ("s", "self_s", "calls")


class Tracer:
    """Span totals per phase and layer key."""

    def __init__(self):
        self.phase = "setup"
        self._stack = []  # [key, start, time in child spans]
        # phase -> key -> [busy, self, calls]
        self.spans = {"setup": defaultdict(lambda: [0.0, 0.0, 0]),
                      "timed": defaultdict(lambda: [0.0, 0.0, 0])}
        self.counts = {"setup": defaultdict(int), "timed": defaultdict(int)}

    def _wrap(self, key, fn):
        observe = _OBSERVERS.get(key)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                totals = self.spans[self.phase][key]
                if not any(f[0] == key for f in stack):
                    totals[0] += dur
                totals[1] += dur - frame[2]
                totals[2] += 1
                if stack:
                    stack[-1][2] += dur
            if observe is not None:
                observe(self.counts[self.phase], result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of ``MODULES`` wherever it is bound."""
        replace = {}
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if short == "builders":
                    if not name.startswith("build_"):
                        continue
                    key = "builders.build"
                else:
                    key = _KEYS.get(f"{short}.{name}", f"{short}.{name}")
                replace[obj] = self._wrap(key, obj)

        def swap(value):
            if inspect.isfunction(value) and value in replace:
                return replace[value]
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                if any(a is not b for a, b in zip(new, value)):
                    return new
            return value

        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, dict) and not name.startswith("__"):
                    for k, v in list(value.items()):
                        value[k] = swap(v)
                else:
                    new = swap(value)
                    if new is not value:
                        setattr(module, name, new)

        cls = package.AssociationScheme
        cls.relation_connected = self._wrap("scheme.relation_connected",
                                            cls.relation_connected)

    def per_pass(self, passes: int) -> dict:
        """key -> [busy s, self s, calls] of set-up plus one timed pass."""
        setup, timed = self.spans["setup"], self.spans["timed"]
        return {key: [a + b / passes for a, b in zip(setup.get(key, (0.0, 0.0, 0)),
                                                     timed.get(key, (0.0, 0.0, 0)))]
                for key in sorted(set(setup) | set(timed))}

    def layer_metrics(self, passes: int) -> dict:
        """The ``PER_LAYER`` metrics, each as set-up plus one timed pass."""
        layers = self.per_pass(passes)
        out = {}
        for metric, unit in PER_LAYER:
            key, _, field = metric.rpartition(".")
            if field in _FIELDS:
                value = layers.get(key, (0.0, 0.0, 0))[_FIELDS.index(field)]
            else:
                value = self.counts["setup"][metric] + self.counts["timed"][metric] / passes
            out[metric] = {"value": value, "unit": unit}
        return out
