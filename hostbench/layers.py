"""Per-layer tracing for the traced benchmark run.

Everything here lives outside the simulator: the traced run patches
wrappers around the public functions listed in :data:`TARGETS` and
attaches a :class:`LayerTracer` to each world's kernel through the public
``Environment.set_monitor`` hook.  Wrappers and kernel callback batches
are spans on one stack, so every span knows its parent and a layer's self
time is its spans' durations minus the part their child spans cover.
Spans are aggregated per (parent, name) edge rather than kept one by one:
a traced steady run opens millions of them.

:func:`self_test` resolves every target and layer module before a run, so
a refactor that renames or deletes one fails the benchmark loudly instead
of reporting a silent 0.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: the ``repro/<layer>/`` packages the benchmark attributes time to
LAYERS = ("sim", "net", "press", "workload", "hardware", "ha", "obs",
          "core", "faults", "experiments")

#: (module, qualname, layer, counter) of every wrapped public function.
#: ``counter`` names the call count; wrappers on predicates also count
#: their True results as ``<counter>_true``.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # "dispatch": the kernel loop itself, outside every callback batch
    ("repro.sim.kernel", "Environment.run", "dispatch", "run_calls"),
    ("repro.sim.kernel", "Environment.process", "sim", "spawns"),
    ("repro.net.transport", "Endpoint.send", "net", "sends"),
    ("repro.net.network", "ClusterNetwork.reachable", "net", "reachable"),
    ("repro.press.server", "PressServer.try_accept", "press", "accepts"),
    ("repro.press.indep", "IndepServer.try_accept", "press", "accepts"),
    ("repro.press.cache", "LruCache.lookup", "press", "lookups"),
    ("repro.press.fabric", "ClusterFabric.control_broadcast", "press",
     "control_msgs"),
    ("repro.press.fabric", "ClusterFabric.control_send", "press",
     "control_msgs"),
    ("repro.hardware.disk", "Disk.submit", "hardware", "disk_ops"),
    ("repro.ha.frontend", "FrontEnd.pick", "ha", "fe_picks"),
    ("repro.ha.membership", "MembershipNetwork.send", "ha",
     "membership_msgs"),
    ("repro.ha.membership", "MembershipNetwork.multicast", "ha",
     "membership_msgs"),
    ("repro.faults.injector", "FaultInjector.inject", "faults",
     "inject_repair"),
    ("repro.faults.injector", "FaultInjector.repair", "faults",
     "inject_repair"),
    ("repro.obs.recorder", "FlightRecord.from_experiment", "obs", "record"),
    ("repro.obs.recorder", "FlightRecord.to_dict", "obs", "record"),
    ("repro.obs.recorder", "FlightRecord.from_dict", "obs", "merge"),
    ("repro.obs.recorder", "merge_records", "obs", "merge"),
    ("repro.core.template", "TemplateFitter.fit", "core", "fit"),
    ("repro.core.model", "AvailabilityModel.evaluate", "core", "model"),
    ("repro.experiments.runner", "build_world", "experiments", "build_world"),
)

#: predicates whose True results are counted separately
_PREDICATES = {"reachable", "accepts", "lookups"}

#: public entry points and hooks the benchmark drives but does not wrap
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.configs", "version"),
    ("repro.experiments.profiles", "SMALL"),
    ("repro.core.quantify", "QuantifyConfig.quick"),
    ("repro.core.quantify", "campaign_cells"),
    ("repro.core.quantify", "run_cell"),
    ("repro.core.quantify", "run_single_fault"),
    ("repro.core.quantify", "quantify_from_cell_docs"),
    ("repro.obs.telemetry", "Telemetry.disabled"),
    ("repro.sim.kernel", "Environment.set_monitor"),
    ("repro.sim.process", "Process.code_ref"),
)


def _resolve(module: str, qualname: str):
    """(owner, attribute name, raw attribute) for ``module:qualname``."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def self_test(src_root: Path) -> List[str]:
    """Names of missing layer packages, wrap targets and entry points."""
    missing = [f"layer package repro/{layer}/" for layer in LAYERS
               if not (src_root / "repro" / layer / "__init__.py").is_file()]
    for module, qualname, *_ in TARGETS:
        try:
            _resolve(module, qualname)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"wrapped function {module}:{qualname}")
    for module, qualname in ENTRY_POINTS:
        try:
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            missing.append(f"entry point {module}:{qualname}")
    return missing


def layer_of_path(filename: str) -> str:
    """``.../repro/press/server.py`` -> ``press``; outside a layer -> other."""
    norm = filename.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx < 0:
        return "other"
    pkg = norm[idx + len("/repro/"):].split("/", 1)[0]
    return pkg if pkg in LAYERS else "other"


class LayerTracer:
    """Span stack, per-layer self time, call counts and kernel counters.

    :meth:`install` patches the wrappers; every world built afterwards
    gets the tracer as its kernel monitor (``env.set_monitor``), so it
    receives the kernel's ``on_schedule``/``on_event``/``on_event_done``
    calls.  :meth:`uninstall` restores the original functions.
    """

    def __init__(self) -> None:
        #: open spans: [name, layer, child seconds]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: (parent span, span) -> [count, inclusive seconds]
        self.edges: Dict[Tuple[str, str], list] = {}
        self.events_by_kind: Dict[str, int] = {}
        self.heap_peak = 0
        #: host seconds the monitor's own bookkeeping took (charged to
        #: the kernel loop's span; subtract it to estimate dispatch)
        self.monitor_s = 0.0
        self._layer_by_file: Dict[str, str] = {}
        self._batch_t0 = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _close(self, t0: float, t1: float) -> float:
        dt = t1 - t0
        name, layer, child = self._stack.pop()
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dt - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dt
        edge = self.edges.setdefault((parent[0] if parent else "-", name), [0, 0.0])
        edge[0] += 1
        edge[1] += dt
        return dt

    def _wrap(self, fn: Callable, span: str, layer: str, counter: str) -> Callable:
        stack = self._stack
        calls = self.calls
        incl = self.incl_s
        close = self._close
        perf = time.perf_counter
        true_key = counter + "_true" if counter in _PREDICATES else None

        def wrapper(*args, **kwargs):
            stack.append([span, layer, 0.0])
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                incl[counter] = incl.get(counter, 0.0) + close(t0, perf())
                calls[counter] = calls.get(counter, 0) + 1
            if true_key is not None and result:
                calls[true_key] = calls.get(true_key, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every target; each world built afterwards is monitored."""
        for module, qualname, layer, counter in TARGETS:
            owner, attr, raw = _resolve(module, qualname)
            span = f"{layer}.{qualname}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, layer, counter))
            else:
                new = self._wrap(raw, span, layer, counter)
            if counter == "build_world":
                new = self._monitored(new)
                # repro.core.quantify imported the name; patch that binding too.
                quantify = importlib.import_module("repro.core.quantify")
                self._patches.append((quantify, attr, quantify.build_world))
                setattr(quantify, attr, new)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)

    def _monitored(self, build: Callable) -> Callable:
        def build_world(*args, **kwargs):
            world = build(*args, **kwargs)
            world.env.set_monitor(self)
            return world
        return build_world

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- kernel monitor protocol ---------------------------------------------
    def on_schedule(self, depth: int) -> None:
        if depth > self.heap_peak:
            self.heap_peak = depth

    def on_event(self, event, callbacks) -> None:
        t = time.perf_counter()
        kind = type(event).__name__
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        layer = self._callback_layer(callbacks[0]) if callbacks else "sim"
        self._stack.append([f"{layer}.callbacks", layer, 0.0])
        self._batch_t0 = time.perf_counter()
        self.monitor_s += self._batch_t0 - t

    def on_event_done(self, event) -> None:
        t = time.perf_counter()
        self._close(self._batch_t0, t)
        self.monitor_s += time.perf_counter() - t

    def _callback_layer(self, cb) -> str:
        """Layer owning the code a callback runs: a resumed process's
        generator body, else the function itself."""
        from repro.sim.process import Process

        owner = getattr(cb, "__self__", None)
        if isinstance(owner, Process):
            filename = owner.code_ref()[0]
        else:
            code = getattr(getattr(cb, "__func__", cb), "__code__", None)
            filename = code.co_filename if code is not None else ""
        layer = self._layer_by_file.get(filename)
        if layer is None:
            layer = self._layer_by_file[filename] = layer_of_path(filename)
        return layer

    # -- report ------------------------------------------------------------------
    def top_edges(self, n: int = 12) -> List[Tuple[str, str, int, float]]:
        """The ``n`` most expensive (parent, span) edges by inclusive time."""
        ranked = sorted(self.edges.items(), key=lambda kv: -kv[1][1])[:n]
        return [(p, s, c, t) for (p, s), (c, t) in ranked]
