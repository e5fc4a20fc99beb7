"""Layer tracing for the benchmark's traced run.

The wrappers replace layer entry points on clinterp's modules from outside
the package: every module of clinterp that holds the original function
under some name (``couple.eval_phi_unchecked``, ``operators.cl_norm``, the
package namespace, ...) gets the wrapper instead. Each call records its
count, its total time and its self time (total minus wrapped children).
Coarse layers also keep one span (name, start, end, parent, operation) in
memory; hot layers called millions of times per round keep only their sums.
Private entry points are looked up by name, so a renamed or deleted one is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# (layer, module, attribute, hot): hot layers keep sums but no spans
LAYERS = (
    ("optim.multistart", "clinterp._optim", "multistart_minimize", False),
    ("lattice.norm", "clinterp.lattice", "norm", True),
    ("pathology.lp_norm_simple", "clinterp.pathology", "lp_norm_simple", False),
    ("quasiconcave.eval_phi_unchecked", "clinterp.quasiconcave", "eval_phi_unchecked", True),
    ("quasiconcave.eval_phi", "clinterp.quasiconcave", "eval_phi", True),
    ("couple.cl_norm", "clinterp.couple", "cl_norm", False),
    ("couple.certificate", "clinterp.couple", "_grid_lower", False),
    ("couple.invert_second_arg", "clinterp.couple", "_invert_second_arg", True),
    ("couple.inner_inversion", "clinterp.couple", "_lambda_for_u", True),
    ("couple.sum_norm", "clinterp.couple", "sum_norm", False),
    ("couple.factorize", "clinterp.couple", "factorize", False),
    ("couple.phi_space_equivalence", "clinterp.couple", "phi_space_equivalence", False),
    ("operators.verify_interpolation", "clinterp.operators", "verify_interpolation", False),
    ("operators.verify_sum_regular", "clinterp.operators", "verify_sum_regular", False),
    ("operators.k_constant", "clinterp.operators", "k_constant", False),
    ("operators.l_convexity_probe", "clinterp.operators", "l_convexity_probe", False),
)

# layers whose call count is a per-layer metric; the rest report times only
COUNTED = ("optim.multistart", "lattice.norm", "pathology.lp_norm_simple",
           "quasiconcave.eval_phi_unchecked", "quasiconcave.eval_phi", "couple.cl_norm",
           "couple.certificate", "couple.invert_second_arg", "couple.inner_inversion",
           "couple.sum_norm")


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [("setup.import_s", "s", "lower")]
    for layer, *_ in LAYERS:
        if layer in COUNTED:
            out.append((f"{layer}.calls", "count", "lower"))
        out += [(f"{layer}.s", "s", "lower"), (f"{layer}.self_s", "s", "lower")]
        if layer == "optim.multistart":
            out.append(("optim.multistart.nfev", "count", "lower"))
        if layer == "lattice.norm":
            out += [("lattice.norm.sub.calls", "count", "lower"),
                    ("lattice.norm.sub.s", "s", "lower")]
        if layer == "couple.cl_norm":
            out.append(("couple.search.s", "s", "lower"))
        if layer == "couple.certificate":
            out += [("couple.certificate.boxes", "count", "lower"),
                    ("couple.certificate.converged", "count", "higher")]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    active: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # [name, start, end, parent, operation]
    stack: list = field(default_factory=list)  # [child seconds, span index or -1]
    counts: dict = field(default_factory=lambda: {"nfev": 0, "boxes": 0, "converged": 0,
                                                  "sub.calls": 0, "sub.s": 0.0})
    operation: int = -1
    origin: float = field(default_factory=time.perf_counter)

    def _parent_span(self) -> int:
        for _, span in reversed(self.stack):
            if span >= 0:
                return span
        return -1

    def _open(self, name: str, spanned: bool) -> list:
        span = -1
        if spanned:
            span = len(self.spans)
            self.spans.append([name, time.perf_counter() - self.origin, None,
                               self._parent_span(), self.operation])
        frame = [0.0, span]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> float:
        self.stack.pop()
        dur = end - start
        if frame[1] >= 0:
            self.spans[frame[1]][2] = end - self.origin
        if self.stack:
            self.stack[-1][0] += dur
        return dur

    @contextmanager
    def operation_span(self, index: int, label: str):
        """Root span of one benchmark operation; its children share its index."""
        self.operation = index
        frame = self._open(f"op {label}", True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())
            self.operation = -1

    def wrap(self, layer: str, fn: Callable, hot: bool) -> Callable:
        st = self.stats.setdefault(layer, LayerStats())
        on_result = _RESULT_HOOKS.get(layer)
        is_norm = layer == "lattice.norm"
        counts = self.counts

        def traced(*args: Any, **kwargs: Any):
            frame = self._open(layer, not hot)
            st.active += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = self._close(frame, start, end)
                st.active -= 1
                st.calls += 1
                st.self_s += dur - frame[0]
                if st.active == 0:
                    st.total_s += dur
                if is_norm and getattr(args[0] if args else kwargs.get("space"), "family", "") == "sub":
                    counts["sub.calls"] += 1
                    counts["sub.s"] += dur
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to each layer entry point inside clinterp."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "clinterp" or name.startswith("clinterp."))]
        for layer, module, attr, hot in LAYERS:
            orig = getattr(sys.modules.get(module), attr, None)
            if orig is None:
                self.absent.append(layer)
                continue
            wrapped = self.wrap(layer, orig, hot)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)

    def metrics(self, import_s: float, overhead_s: float) -> dict:
        def stat(layer: str) -> LayerStats:
            return self.stats.get(layer, LayerStats())

        values: dict[str, float] = {"setup.import_s": import_s, "trace.overhead_s": overhead_s}
        for layer, *_ in LAYERS:
            st = stat(layer)
            values[f"{layer}.calls"] = st.calls
            values[f"{layer}.s"] = st.total_s
            values[f"{layer}.self_s"] = st.self_s
        values["optim.multistart.nfev"] = self.counts["nfev"]
        values["lattice.norm.sub.calls"] = self.counts["sub.calls"]
        values["lattice.norm.sub.s"] = self.counts["sub.s"]
        values["couple.search.s"] = stat("couple.cl_norm").total_s - stat("couple.certificate").total_s
        values["couple.certificate.boxes"] = self.counts["boxes"]
        values["couple.certificate.converged"] = self.counts["converged"]
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_names()}

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({**header, "absent_layers": self.absent,
                       "hot_layers_without_spans": [name for name, _, _, hot in LAYERS if hot],
                       "span_fields": ["name", "start_s", "end_s", "parent", "operation"],
                       "spans": self.spans}, fh)


def _count_nfev(counts: dict, result) -> None:
    counts["nfev"] += int(result.n_evals)


def _count_boxes(counts: dict, est) -> None:
    grid = (est.witness or {}).get("grid")
    if grid:
        counts["boxes"] += int(grid["boxes"])
        counts["converged"] += int(bool(grid["converged"]))


_RESULT_HOOKS = {"optim.multistart": _count_nfev, "couple.cl_norm": _count_boxes}
