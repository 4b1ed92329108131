"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps public functions of the delaybsde modules at the names their
callers look them up, and accumulates per layer the self time (the span of a
call minus the spans of the wrapped calls made inside it), the number of
calls and, for delay windows, the bytes they copy.  Nothing is patched until
``install`` runs, so an untraced run executes the package unmodified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module or "module.Class", attribute, layer).  A name imported into another
# module is a separate binding, so every module that looks it up is listed.
PATCHES = [
    ("stochastic_engine", "simulate_brownian", "stochastic_engine.simulate_brownian"),
    ("stability_lab", "simulate_brownian", "stochastic_engine.simulate_brownian"),
    ("stochastic_engine", "realize_increasing_process",
     "stochastic_engine.realize_increasing_process"),
    ("picard_solver", "realize_increasing_process",
     "stochastic_engine.realize_increasing_process"),
    ("stability_lab", "realize_increasing_process",
     "stochastic_engine.realize_increasing_process"),
    ("picard_solver", "conditional_expectation",
     "stochastic_engine.conditional_expectation"),
    ("stochastic_engine", "fit_least_squares", "stochastic_engine.fit_least_squares"),
    ("stochastic_engine.RegressionBasis", "design", "stochastic_engine.design"),
    ("picard_solver", "node_segment", "picard_solver.node_segment"),
    ("model.ProblemSpec", "context", "model.context"),
    ("picard_solver", "gamma_step", "picard_solver.gamma_step"),
    ("picard_solver", "build_B", "picard_solver.build_B"),
    ("picard_solver", "solve", "picard_solver.solve"),
    ("stability_lab", "solve", "picard_solver.solve"),
    ("picard_solver", "equivalent_norm", "model.equivalent_norm"),
    ("stability_lab", "equivalent_norm", "model.equivalent_norm"),
    ("model", "check_H1", "model.check_conditions"),
    ("model", "check_H2", "model.check_conditions"),
    ("model", "select_lambda", "model.check_conditions"),
    ("picard_solver", "check_H1", "model.check_conditions"),
    ("picard_solver", "check_H2", "model.check_conditions"),
    ("picard_solver", "select_lambda", "model.check_conditions"),
    ("stability_lab", "check_H1", "model.check_conditions"),
    ("stability_lab", "check_H2", "model.check_conditions"),
    ("model", "probe_lipschitz", "model.probe_lipschitz"),
    ("model", "check_integrability", "model.check_integrability"),
    ("stability_lab", "run_stability", "stability_lab.run_stability"),
    ("stability_lab", "generator_gap", "stability_lab.generator_gap"),
    ("stability_lab", "helly_bray_stochastic_check", "stability_lab.helly_bray_check"),
    ("stability_lab", "bv_tail_curve", "stability_lab.bv_tail_curve"),
    ("path_calculus", "cumulative_stieltjes", "path_calculus.cumulative_stieltjes"),
    ("stability_lab", "cumulative_stieltjes", "path_calculus.cumulative_stieltjes"),
]

# Builders whose returned callables (F, G, xi) are traced as one layer.
DRIVER_BUILDERS = ("build_F", "build_G", "build_terminal")
DRIVER_LAYER = "registry.driver"

# Layers whose recorded bytes are the nbytes of the returned array.
BYTE_LAYERS = {"picard_solver.node_segment"}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes = defaultdict(int)
        self._child_s = []          # one accumulator per open span
        self._originals = []        # (owner, attribute, unpatched value)

    def wrap(self, layer, fn):
        count_bytes = layer in BYTE_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.self_s[layer] += span - self._child_s.pop()
                self.calls[layer] += 1
                if self._child_s:
                    self._child_s[-1] += span
            if count_bytes:
                self.bytes[layer] += out.nbytes
            return out
        return traced

    def install(self, package):
        """Patch every PATCHES entry and the driver builders of ``package``."""
        for owner_name, attr, layer in PATCHES:
            owner = package
            for part in owner_name.split("."):
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(layer, getattr(owner, attr)))
        for name in DRIVER_BUILDERS:
            self._patch(package.registry, name,
                        self._traced_builder(getattr(package.registry, name)))

    def uninstall(self):
        """Restore every patched name, leaving the package unmodified."""
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced_builder(self, builder):
        @functools.wraps(builder)
        def build(entry):
            fn = builder(entry)
            return None if fn is None else self.wrap(DRIVER_LAYER, fn)
        return build
