"""Outside-in tracing of sympspin: spans around calls into each layer.

A traced pass rebinds every public function listed in LAYERS to a wrapper
that records a span (function, parent span, start, end).  A module that did
`from .forms import project` holds its own reference, so the wrapper is
installed in every `sympspin.*` namespace that holds the original, not only
in the home module.  `Tracer.uninstall` puts every original back.

Spans stay in memory during the pass; self time is computed afterwards as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# layer -> functions, as "module:attribute" or "module:Class.attribute".
LAYERS = {
    "cli.run": ["sympspin.cli:run_suite"],
    "verify.suite": [
        f"sympspin.verify:{name}_suite"
        for name in ("lemma1", "lemma4", "lemma5", "lemma6", "lemma7", "theorem9",
                     "theorem10", "corollary11", "symbol_complex", "fedosov")
    ],
    "verify.instance": [
        "sympspin.verify:verify_theorem9",
        "sympspin.verify:verify_theorem10",
        "sympspin.verify:verify_corollary11",
        "sympspin.verify:lemma5_idempotency_instance",
        "sympspin.verify:lemma5_orthogonality_instance",
        "sympspin.verify:lemma5_partition_instance",
        "sympspin.verify:lemma6_instance",
        "sympspin.verify:lemma7_weyl_instance",
        "sympspin.verify:lemma7_section_instance",
        "sympspin.verify:symbol_complex_instance",
        "sympspin.verify:symbol_negative_control",
    ],
    "verify.action": ["sympspin.verify:spinor_curvature_action"],
    "verify.display": [
        "sympspin.verify:literal_p20_ricci",
        "sympspin.verify:literal_p21_ricci",
        "sympspin.verify:literal_p21_weyl",
    ],
    "forms.project": ["sympspin.forms:project"],
    "forms.op_X": ["sympspin.forms:op_X"],
    "forms.op_Y": ["sympspin.forms:op_Y"],
    "forms.wedge": ["sympspin.forms:wedge_covector"],
    "spinors.clifford": ["sympspin.spinors:clifford_basis"],
    "curvature.basis": [
        "sympspin.curvature:curvature_space_basis",
        "sympspin.curvature:weyl_space_basis",
    ],
    "curvature.sample": [
        "sympspin.curvature:random_curvature",
        "sympspin.curvature:random_weyl",
        "sympspin.curvature:RicciTensor.random",
    ],
    "curvature.tensor_ops": [
        "sympspin.curvature:ricci_of",
        "sympspin.curvature:sigma_tilde_of",
        "sympspin.curvature:weyl_of",
        "sympspin.curvature:check_symmetries",
        "sympspin.curvature:raise_all",
        "sympspin.curvature:omega_traces",
        "sympspin.curvature:_ricci_entries",
    ],
    "symplectic.raise_lower": ["sympspin.symplectic:raise_lower_index"],
    "connections.sample": ["sympspin.connections:random_connection"],
    "connections.axioms": ["sympspin.connections:check_connection_axioms"],
    "connections.field": ["sympspin.connections:curvature_field_of"],
    "connections.poly_mul": ["sympspin.connections:Poly.__mul__"],
    "connections.eval": ["sympspin.connections:evaluate_curvature_at"],
}

# Layers whose results are spinors or forms; the share of calls returning
# zero is work that produced nothing.
ZERO_CHECKED = frozenset({"spinors.clifford"})


def _resolve(spec: str):
    """(owner, attribute, stored object, plain function) for one spec."""
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    stored = vars(owner)[attr]
    fn = stored.__func__ if isinstance(stored, classmethod) else stored
    return owner, attr, stored, fn


class Tracer:
    """Records spans around calls into the layers of LAYERS while installed."""

    def __init__(self):
        self.functions: list[str] = []       # function key, indexed by span fn id
        self.layer_of: list[str] = []        # layer, indexed by fn id
        self.spans: list[list] = []          # [fn id, parent index, start, end]
        self.zero_results: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, fn_id: int, zero_key: str | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        zeros = self.zero_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fn_id, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if zero_key is not None and out.is_zero():
                zeros[zero_key] = zeros.get(zero_key, 0) + 1
            return out

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "sympspin" or name.startswith("sympspin."))]
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, attr, stored, fn = _resolve(spec)
                fn_id = len(self.functions)
                self.functions.append(spec)
                self.layer_of.append(layer)
                wrapper = self._wrap(fn, fn_id, layer if layer in ZERO_CHECKED else None)
                replacement = classmethod(wrapper) if isinstance(stored, classmethod) else wrapper
                targets = [(owner, attr)]
                if isinstance(owner, types.ModuleType):
                    targets = [(m, a) for m in namespaces
                               for a, v in list(vars(m).items()) if v is fn]
                for target, name in targets:
                    self._installed.append((target, name, vars(target)[name]))
                    setattr(target, name, replacement)

    def uninstall(self) -> None:
        while self._installed:
            target, name, original = self._installed.pop()
            setattr(target, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_records(self) -> list[tuple[str, int, float, float]]:
        """Spans as (layer, parent index, start, end)."""
        return [(self.layer_of[f], p, t0, t1) for f, p, t0, t1 in self.spans]

    def durations(self, spec: str) -> list[float]:
        """Durations in seconds of every span of one function."""
        fn_id = self.functions.index(spec)
        return [t1 - t0 for f, _, t0, t1 in self.spans if f == fn_id]

    def write(self, path) -> None:
        """Spans as JSON: a function table and [fn id, parent, start, end] rows."""
        with open(path, "w") as fh:
            json.dump({"functions": self.functions, "layers": self.layer_of,
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds) from (layer, parent, start, end) spans.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, tuple[int, float]] = {}
    for idx, (layer, _, t0, t1) in enumerate(spans):
        calls, total = out.get(layer, (0, 0.0))
        out[layer] = (calls + 1, total + (t1 - t0) - child_time[idx])
    return out
