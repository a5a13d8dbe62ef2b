"""Hot-path cost analysis: the engine behind ``repro lint --perf``.

The determinism rules keep the numbers *right*; this pass keeps them
*cheap to produce*.  Built on the same call graph as the flow pass, it
computes the **hot set** — every function reachable from the kernel
event loop (``sim/kernel.py``) and from process-generator roots (the
generators handed to ``env.process(...)``) — and checks only that set
with the cost rules REP017–REP021:

* **REP017** — per-event allocation (closures, comprehensions,
  container constructors) inside hot loop bodies;
* **REP018** — classes with hot methods but no ``__slots__``;
* **REP019** — telemetry/metric emission whose *arguments* are formatted
  eagerly (f-string/.format()/%%) on paths where ``Telemetry.disabled()``
  should be free, and per-event metric-registry lookups that should be
  pre-bound instruments;
* **REP020** — the same attribute chain dereferenced repeatedly inside
  one hot loop body (hoist to a local);
* **REP021** — O(n) work inside hot loops: membership tests against
  list-typed attributes, per-event ``sorted()``, ``list.pop(0)`` /
  ``insert(0, ...)``.

The analysis is **profile-guided**: :func:`validate_against_profile`
cross-checks the static hot set against the dynamic ``KernelProfiler``
attribution (the tables ``repro profile`` prints), reporting how
much of the measured top-N wall time the static model covers (recall)
and how much of the static hot set the profile confirms (precision),
and ranks the rules by the measured wall-time weight of the code they
fired in.

Findings respect the same ``# reprolint: disable=REPxxx`` suppressions
and per-rule path allowlists as the single-file engine and the flow
pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.flow import (
    _apply_dynamic_dispatch,
    _filter,
    _own_nodes,
)
from repro.analysis.lint import Finding, _dotted_name
from repro.analysis.rules import RULES

#: functions defined in a module with this basename seed the hot set —
#: the kernel event loop itself (Environment.run/step/schedule and the
#: Event/heap machinery all live there).
KERNEL_BASENAME = "kernel.py"

#: container constructors whose call inside a hot loop allocates per event
_ALLOC_CTORS = frozenset({"list", "dict", "set", "tuple", "frozenset",
                          "bytearray", "deque", "OrderedDict"})

#: telemetry/trace emitters whose eagerly formatted arguments defeat the
#: null-object fast path
_EMITTERS = frozenset({"emit", "annotate", "event",
                       "start", "root", "probe_root"})

#: metric-registry factories; calling one per event is a dict lookup +
#: instrument construction that a pre-bound attribute avoids
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: repeated-dereference threshold for REP020 (per loop body)
_RELOAD_THRESHOLD = 3


@dataclass
class PerfResult:
    """Everything the perf pass learned, for reporters and the CLI."""

    findings: List[Finding]
    suppressed: int
    files_scanned: int
    graph: CallGraph
    #: qualnames seeding the hot set (kernel functions + generator roots)
    seeds: Set[str]
    #: qualnames of kernel-event-loop seeds specifically
    kernel_seeds: Set[str]
    #: generator functions spawned via ``env.process(...)``
    spawn_roots: Set[str]
    #: the hot set: reachable_from(seeds), dynamic dispatch included
    hot: Set[str]
    #: path -> line -> ids whose suppressions dropped a perf finding
    used_suppressions: Dict[str, Dict[int, Set[str]]] = field(
        default_factory=dict)
    #: filled by validate_against_profile (None when --validate not given)
    validation: Optional[Dict[str, Any]] = None

    def hot_by_subsystem(self) -> Dict[str, int]:
        from repro.obs.kernelprof import subsystem_of_path

        out: Dict[str, int] = {}
        for qual in self.hot:
            sub = subsystem_of_path(self.graph.functions[qual].path)
            out[sub] = out.get(sub, 0) + 1
        return out

    def to_dict(self) -> dict:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        doc: Dict[str, Any] = {
            "hot_functions": len(self.hot),
            "seeds": len(self.seeds),
            "kernel_seeds": len(self.kernel_seeds),
            "spawn_roots": sorted(self.spawn_roots),
            "hot_by_subsystem": self.hot_by_subsystem(),
            "counts": counts,
            "suppressed": self.suppressed,
        }
        if self.validation is not None:
            doc["validation"] = self.validation
        return doc


# ---------------------------------------------------------------------------
# hot-set construction


def _is_kernel_path(path: str) -> bool:
    return path.replace("\\", "/").rsplit("/", 1)[-1] == KERNEL_BASENAME


def _spawn_rooted_generators(graph: CallGraph) -> Set[str]:
    """Generator functions whose call is the argument of ``*.process(...)``.

    ``env.process(self._main_loop())`` drives the generator from the
    scheduler, not through any static call edge — so these roots must be
    seeded explicitly for the hot set to contain the process bodies.
    """
    roots: Set[str] = set()
    for site in graph.call_sites:
        callee = graph.functions.get(site.callee)
        if callee is None or not callee.is_generator:
            continue
        parent = getattr(site.node, "_cg_parent", None)
        if isinstance(parent, ast.Call) \
                and isinstance(parent.func, ast.Attribute) \
                and parent.func.attr == "process" \
                and site.node in parent.args:
            roots.add(site.callee)
    return roots


def compute_hot_set(graph: CallGraph) -> Tuple[Set[str], Set[str], Set[str]]:
    """(hot, kernel_seeds, spawn_roots) over an already-built graph.

    The caller must have applied dynamic-dispatch edges first (the
    ``getattr(self, f"_on_{kind}")`` handlers are hot precisely because
    the event loop reaches them that way).
    """
    kernel_seeds = {
        qual for qual, fn in graph.functions.items()
        if _is_kernel_path(fn.path)
    }
    spawn_roots = _spawn_rooted_generators(graph)
    hot = graph.reachable_from(kernel_seeds | spawn_roots)
    return hot, kernel_seeds, spawn_roots


# ---------------------------------------------------------------------------
# shared AST helpers


def _loop_bodies(fn: FunctionInfo) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Each (loop node, own nodes of its body) in ``fn``, nested defs cut."""
    for node in _own_nodes(fn.node):
        if isinstance(node, (ast.For, ast.While)):
            body: List[ast.AST] = []
            stack = list(node.body)
            if isinstance(node, ast.While):
                # the test re-evaluates on every iteration too
                stack.append(node.test)
            while stack:
                sub = stack.pop()
                body.append(sub)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(sub, ast.For):
                    # the inner body is reported on its own visit, but the
                    # iterable expression evaluates once per OUTER iteration
                    stack.append(sub.iter)
                    continue
                if isinstance(sub, ast.While):
                    # inner loops are reported on their own visit
                    continue
                stack.extend(ast.iter_child_nodes(sub))
            yield node, body


def _enclosed_by_guard(node: ast.AST, stop: ast.AST) -> bool:
    """True if an enclosing ``if`` up to ``stop`` tests an enabled/disabled
    telemetry switch — the emission is already pay-for-use."""
    cur = getattr(node, "_cg_parent", None)
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.If):
            test = ast.unparse(cur.test)
            if "enabled" in test or "disabled" in test:
                return True
        cur = getattr(cur, "_cg_parent", None)
    return False


def _eager_format(expr: ast.AST) -> Optional[str]:
    """'f-string' / '.format()' / '%-format' if ``expr`` formats eagerly."""
    for node in ast.walk(expr):
        if isinstance(node, ast.JoinedStr):
            return "f-string"
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format":
            return ".format()"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and isinstance(node.left, (ast.Constant, ast.JoinedStr)) \
                and isinstance(getattr(node.left, "value", None), str):
            return "%-format"
    return None


def _list_attrs_of_class(graph: CallGraph, cls_qual: str) -> Set[str]:
    """self attributes assigned a list anywhere in the class's methods."""
    cls = graph.classes.get(cls_qual)
    if cls is None:
        return set()
    out: Set[str] = set()
    for method_qual in cls.methods.values():
        fn = graph.functions.get(method_qual)
        if fn is None:
            continue
        for node in _own_nodes(fn.node):
            value = None
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list")
            if not is_list:
                continue
            for t in targets:
                if isinstance(t, ast.Attribute) \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id == "self":
                    out.add(t.attr)
    return out


def _class_qual_of(fn: FunctionInfo) -> Optional[str]:
    if fn.class_name is None:
        return None
    return fn.qualname.rsplit(".", 1)[0]


def _finding(rule: str, fn: FunctionInfo, node: ast.AST,
             message: str) -> Finding:
    return Finding(
        rule=rule, severity=RULES[rule].severity, path=fn.path,
        line=getattr(node, "lineno", fn.lineno),
        col=getattr(node, "col_offset", 0), message=message,
    )


# ---------------------------------------------------------------------------
# REP017 — per-event allocation in hot loop bodies


def _allocation_findings(fn: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for _loop, body in _loop_bodies(fn):
        for node in body:
            if isinstance(node, ast.Lambda) or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                what = "lambda" if isinstance(node, ast.Lambda) else \
                    f"nested def {node.name}()"
                findings.append(_finding(
                    "REP017", fn, node,
                    f"{what} allocates a closure on every iteration of "
                    f"this hot loop; define it once outside the loop"))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                findings.append(_finding(
                    "REP017", fn, node,
                    "comprehension allocates a fresh container on every "
                    "iteration of this hot loop; hoist or restructure"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in _ALLOC_CTORS:
                findings.append(_finding(
                    "REP017", fn, node,
                    f"{node.func.id}() constructs a container on every "
                    "iteration of this hot loop; allocate once outside "
                    "and reuse"))
    return findings


# ---------------------------------------------------------------------------
# REP018 — hot classes without __slots__


def _has_slots(cls_node: ast.AST) -> bool:
    for stmt in getattr(cls_node, "body", []):
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == "__slots__":
            return True
    # @dataclass(slots=True) generates __slots__ at class-creation time
    for deco in getattr(cls_node, "decorator_list", []):
        if isinstance(deco, ast.Call) \
                and _dotted_name(deco.func) in ("dataclass",
                                                "dataclasses.dataclass") \
                and any(kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords):
            return True
    return False


def _slots_findings(graph: CallGraph, hot: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    hot_classes: Dict[str, str] = {}
    for qual in hot:
        fn = graph.functions[qual]
        cls_qual = _class_qual_of(fn)
        if cls_qual is not None and cls_qual in graph.classes:
            hot_classes.setdefault(cls_qual, qual)
    project_names = {cls.name for cls in graph.classes.values()}
    for cls_qual in sorted(hot_classes):
        cls = graph.classes[cls_qual]
        if _has_slots(cls.node):
            continue
        # A base outside the project (Exception, Enum, NamedTuple, ...)
        # brings its own __dict__ or layout; slots on the subclass would
        # be useless or wrong, so only flag pure project/object chains.
        foreign = [b for b in cls.bases if b != "object"
                   and b.rsplit(".", 1)[-1] not in project_names]
        if foreign:
            continue
        findings.append(Finding(
            rule="REP018", severity=RULES["REP018"].severity,
            path=graph.functions[hot_classes[cls_qual]].path,
            line=cls.lineno, col=0,
            message=(f"class {cls.name} has methods on the kernel hot path "
                     "but no __slots__; every attribute access pays a "
                     "__dict__ lookup — declare __slots__"),
        ))
    return findings


# ---------------------------------------------------------------------------
# REP019 — eager telemetry formatting / per-event registry lookups


def _telemetry_findings(fn: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for node in _own_nodes(fn.node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        args = list(node.args) + [kw.value for kw in node.keywords]
        if attr in _EMITTERS:
            if _enclosed_by_guard(node, fn.node):
                continue
            for arg in args:
                how = _eager_format(arg)
                if how is not None:
                    findings.append(_finding(
                        "REP019", fn, node,
                        f"{how} argument to .{attr}() is built even when "
                        "telemetry is off; guard the call or pass raw "
                        "fields so Telemetry.disabled() stays free"))
                    break
        elif attr in _METRIC_FACTORIES:
            receiver = _dotted_name(node.func.value) or ""
            if "metric" not in receiver.lower():
                continue
            if _enclosed_by_guard(node, fn.node):
                continue
            findings.append(_finding(
                "REP019", fn, node,
                f".{attr}(...) resolves the instrument through the "
                "registry on a hot path; pre-bind it to an attribute at "
                "construction time"))
    return findings


# ---------------------------------------------------------------------------
# REP020 — repeated attribute-chain loads in hot loops


def _reload_findings(fn: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for _loop, body in _loop_bodies(fn):
        chains: Dict[str, List[ast.Attribute]] = {}
        stored_prefixes: Set[str] = set()
        for node in body:
            if isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is None:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    stored_prefixes.add(dotted)
                    continue
                # only maximal chains: skip `self.a` inside `self.a.b`
                parent = getattr(node, "_cg_parent", None)
                if isinstance(parent, ast.Attribute):
                    continue
                if dotted.count(".") >= 1:
                    chains.setdefault(dotted, []).append(node)
        for dotted, nodes in sorted(chains.items()):
            if len(nodes) < _RELOAD_THRESHOLD:
                continue
            # a chain (or its prefix) assigned inside the loop cannot be
            # hoisted — the reload is deliberate
            prefixes = {dotted.rsplit(".", i)[0]
                        for i in range(dotted.count(".") + 1)}
            if prefixes & stored_prefixes:
                continue
            first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
            findings.append(_finding(
                "REP020", fn, first,
                f"'{dotted}' dereferenced {len(nodes)}x per iteration of "
                "this hot loop; hoist it into a local before the loop"))
    return findings


# ---------------------------------------------------------------------------
# REP021 — linear scans in hot loops


def _scan_findings(graph: CallGraph, fn: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    cls_qual = _class_qual_of(fn)
    list_attrs = _list_attrs_of_class(graph, cls_qual) if cls_qual else set()
    for _loop, body in _loop_bodies(fn):
        for node in body:
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    findings.append(_finding(
                        "REP021", fn, node,
                        "sorted() runs on every iteration of this hot "
                        "loop; keep the structure ordered or sort once "
                        "outside"))
                elif isinstance(func, ast.Attribute) \
                        and func.attr in ("pop", "insert") \
                        and node.args \
                        and isinstance(node.args[0], ast.Constant) \
                        and node.args[0].value == 0:
                    findings.append(_finding(
                        "REP021", fn, node,
                        f".{func.attr}(0{', ...' if func.attr == 'insert' else ''}) "
                        "shifts the whole list on every call; use "
                        "collections.deque for FIFO access"))
            elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                    and isinstance(node.ops[0], (ast.In, ast.NotIn)):
                right = node.comparators[0]
                if isinstance(right, ast.Attribute) \
                        and isinstance(right.value, ast.Name) \
                        and right.value.id == "self" \
                        and right.attr in list_attrs:
                    findings.append(_finding(
                        "REP021", fn, node,
                        f"membership test against list 'self.{right.attr}' "
                        "is O(n) per event; keep a parallel set or use a "
                        "dict"))
    return findings


# ---------------------------------------------------------------------------
# profile-guided validation


def validate_against_profile(result: "PerfResult",
                             top_n: int = 10) -> Dict[str, Any]:
    """Cross-check the static hot set against dynamic wall-time attribution.

    Runs steady COOP (SMALL profile, seed 0, 120 sim-s) once with a
    :class:`~repro.obs.kernelprof.KernelProfiler` as the world's kernel
    monitor (the same tables ``repro profile`` prints) and compares
    per-subsystem wall time against the subsystems the static hot set
    predicts:

    * **recall** — share of the dynamic top-``top_n`` wall time whose
      subsystem contains at least one statically-hot function (the
      acceptance bar: the static model must see where the time goes);
    * **precision** — share of statically-hot subsystems the profile
      confirms with nonzero wall time;
    * **rule_weights** — each perf rule ranked by the measured wall-time
      share of the subsystems its findings landed in, so "fix REP020
      first" is a measured statement, not a lexical one.

    The result is stored on ``result.validation`` and returned.
    """
    from repro.experiments.configs import version
    from repro.experiments.profiles import SMALL
    from repro.experiments.runner import build_world
    from repro.obs.kernelprof import KernelProfiler, subsystem_of_path

    profiler = KernelProfiler()
    world = build_world(version("COOP"), SMALL, seed=0, monitor=profiler)
    world.env.run(until=120.0)
    top = profiler.top_times("subsystem", top_n)

    static_subsystems: Set[str] = {
        subsystem_of_path(result.graph.functions[qual].path)
        for qual in result.hot
    }
    total = sum(t for _, t in top)
    covered = [(s, t) for s, t in top if s in static_subsystems]
    missed = [s for s, _ in top if s not in static_subsystems]
    recall = (sum(t for _, t in covered) / total) if total > 0 else 1.0

    dynamic_nonzero = {s for s, t in profiler.time_by_subsystem.items()
                       if t > 0}
    precision = (len(static_subsystems & dynamic_nonzero)
                 / len(static_subsystems)) if static_subsystems else 1.0

    weight_of = {s: (t / total if total > 0 else 0.0) for s, t in top}
    rule_weights: Dict[str, float] = {}
    for f in result.findings:
        sub = subsystem_of_path(f.path)
        rule_weights[f.rule] = max(rule_weights.get(f.rule, 0.0),
                                   weight_of.get(sub, 0.0))

    doc: Dict[str, Any] = {
        "scenario": "steady",
        "top_n": top_n,
        "dynamic_top": [{"subsystem": s, "seconds": t} for s, t in top],
        "static_subsystems": sorted(static_subsystems),
        "covered_seconds": sum(t for _, t in covered),
        "total_seconds": total,
        "recall": recall,
        "precision": precision,
        "missed_subsystems": missed,
        "rule_weights": dict(sorted(rule_weights.items(),
                                    key=lambda kv: (-kv[1], kv[0]))),
    }
    result.validation = doc
    return doc


# ---------------------------------------------------------------------------
# entry point


def analyze_perf(paths: Sequence[str]) -> PerfResult:
    """Run the hot-path cost analysis over every module under ``paths``."""
    graph = build_callgraph(paths)
    # dynamic dispatch adds the getattr(self, f"_on_{kind}") call edges;
    # it must run before reachability so the handlers land in the hot set
    _apply_dynamic_dispatch(graph, {}, {})
    hot, kernel_seeds, spawn_roots = compute_hot_set(graph)

    findings: List[Finding] = []
    findings.extend(_slots_findings(graph, hot))
    for qual in sorted(hot):
        fn = graph.functions[qual]
        findings.extend(_allocation_findings(fn))
        findings.extend(_telemetry_findings(fn))
        findings.extend(_reload_findings(fn))
        findings.extend(_scan_findings(graph, fn))

    kept, suppressed, used = _filter(findings, graph)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return PerfResult(
        findings=kept,
        suppressed=suppressed,
        files_scanned=len(graph.modules),
        graph=graph,
        seeds=kernel_seeds | spawn_roots,
        kernel_seeds=kernel_seeds,
        spawn_roots=spawn_roots,
        hot=hot,
        used_suppressions=used,
    )
