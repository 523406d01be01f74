"""Per-layer spans and counts, recorded from outside the library.

The tracer replaces the public functions of each layer module with wrappers
that record a span, and it does so at every place the function is bound:
``split`` and ``bounds`` import ``check_feasible`` by name, so wrapping
``feasibility.check_feasible`` alone would record none of their calls.
Each wrapper knows its binding module (the "site"), which is how LP calls
are attributed to the splitter or to the oracle.  Public methods and
constructors of the classes a layer defines are wrapped on the class.

A span is recorded only where a call crosses into a layer from another
layer or from the benchmark; a layer calling its own public functions adds
to the call counts but not to the spans.  Spans stay in memory until
``write_spans``.  A layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("serialize", "protocols", "split", "feasibility", "bounds", "model", "verifier")
PACKAGE = "entitled_cuts"
REQUEST = "request"


class Tracer:
    """Install with ``install()``, run requests inside ``request(label)``,
    then ``uninstall()`` and read ``metrics()``."""

    def __init__(self):
        # span: (request id, parent span id, layer, name, site, start, end)
        self.spans: list = []
        self.calls: Counter = Counter()  # (site, layer, name) -> every call
        self.feasible_checks = 0
        self.systems_examined = 0
        self.protocol_cuts = 0
        self._stack: list = []  # (span id, layer)
        self._request_id = -1
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        originals = {}  # function -> (layer, name)
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = (layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for site_name, mod in modules.items():
            site = site_name.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    layer, name = originals[obj]
                    self._patch(mod, attr, self._wrap(obj, layer, name, site))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (
                not attr.startswith("_") or attr in ("__init__", "__post_init__")
            ):
                name = f"{cls.__name__}.{attr}"
                self._patch(cls, attr, self._wrap(obj, layer, name, layer))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, site: str):
        key = (site, layer, name)
        calls = self.calls
        stack = self._stack
        spans = self.spans
        on_result = self._result_hook(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                boundary = False
            else:
                span_id = len(spans)
                spans.append(None)
                parent = stack[-1][0] if stack else -1
                stack.append((span_id, layer))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[span_id] = (self._request_id, parent, layer, name, site, start, end)
                boundary = True
            if on_result is not None:
                on_result(result, boundary)
            return result

        return wrapper

    def _result_hook(self, layer: str, name: str):
        if (layer, name) == ("feasibility", "check_feasible"):
            def hook(result, boundary):
                self.feasible_checks += bool(result)
            return hook
        if (layer, name) == ("bounds", "feasible_with_k_cuts"):
            def hook(result, boundary):
                self.systems_examined += result.systems_examined
            return hook
        if layer == "protocols":
            def hook(result, boundary):
                # only reports leaving the layer: auto_solve's discarded
                # candidates are not cuts the caller receives
                if boundary and hasattr(result, "cuts"):
                    self.protocol_cuts += len(result.cuts)
            return hook
        return None

    @contextlib.contextmanager
    def request(self, label: str):
        """The root span of one request."""
        self._request_id += 1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append((span_id, REQUEST))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self._request_id, -1, REQUEST, label, "perfbench", start, end)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for span, child_time in zip(self.spans, covered):
            out[span[2]] += (span[6] - span[5]) - child_time
        return out

    def metrics(self) -> dict:
        """Every per-layer metric but the tracing overhead, as
        {name: (value, unit)}."""
        self_s = self.self_times()
        layer_calls = Counter(span[2] for span in self.spans)

        def count(layer=None, name=None, site=None):
            return sum(
                n for (s, l, f), n in self.calls.items()
                if (layer is None or l == layer) and (name is None or f == name)
                and (site is None or s == site)
            )

        checks = count("feasibility", "check_feasible")
        bound_lp = count("feasibility", "check_feasible", site="bounds")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (float(self_s[layer]), "s")
        out["protocols.cuts"] = (self.protocol_cuts, "count")
        out["split.lp_calls"] = (count("feasibility", site="split"), "count")
        out["feasibility.check_calls"] = (checks, "count")
        out["feasibility.solve_calls"] = (count("feasibility", "solve_feasibility"), "count")
        out["feasibility.feasible_ratio"] = (
            self.feasible_checks / checks if checks else 0.0, "ratio",
        )
        out["bounds.systems_examined"] = (self.systems_examined, "count")
        out["bounds.lp_ratio"] = (
            bound_lp / self.systems_examined if self.systems_examined else 0.0, "ratio",
        )
        out["bounds.systems_per_s"] = (
            self.systems_examined / self_s["bounds"] if self_s["bounds"] > 0 else 0.0, "1/s",
        )
        return out

    def write_spans(self, path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,layer,name,site,start_s,end_s\n")
            for span_id, (req, parent, layer, name, site, start, end) in enumerate(self.spans):
                fh.write(f"{req},{span_id},{parent},{layer},{name},{site},{start:.9f},{end:.9f}\n")
