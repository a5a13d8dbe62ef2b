"""Two-tier simulation race detector: ``repro racecheck``.

The kernel's FIFO tie-break among same-``(time, priority)`` events is a
*convention*: nothing in the happens-before relation orders two events
scheduled for the same instant by different processes.  Code whose
results depend on that accidental order is racy — it will silently
change behaviour under any scheduler refactor (calendar queues, lazy
heaps, batched emission) and under the overlapping-fault campaigns that
pile concurrent writers onto membership and cache state.

**Static tier** — extends the PR 4 call graph with a read/write *effect
analysis*: for every function, the set of ``(class, attribute)`` keys it
lexically reads and mutates; effects propagate interprocedurally over
*synchronous* call edges (spawn edges — a generator handed to
``env.process(...)`` — are concurrency edges and cut propagation).
Process roots are the spawn targets.  Two rules fire:

* **REP014** — the same attribute is written lexically inside two or
  more *distinct* process-generator bodies.  Writes inside a generator
  body are interleaving-exposed relative to that generator's own yields;
  with no ordering edge between distinct processes, the final value is
  schedule-dependent.
* **REP015** — a read-modify-write torn across a ``yield``: a local is
  bound from a shared attribute, the generator yields (another
  same-instant process can interleave), then the attribute is written
  back from that stale local.  The classic lost-update race.

**Dynamic tier** — a schedule-perturbation sanitizer.  The same campaign
runs once with the production FIFO tie-break and again with seeded
pseudo-random tie-break orders (``Environment(tiebreak_seed=...)``).
A kernel monitor (:class:`ScheduleRecorder`) records the per-timestamp
*multiset* of executed (event, callback-target) pairs, canonicalised so
that a pure same-instant permutation compares equal.  Chained digests
over the canonical schedule, the canonical trace stream, the metrics
snapshot, and the stage timeline are diffed to the first diverging
timestamp; the statically-computed effect sets then name the conflicting
access pair and both process "stacks" (call paths from each generator to
the shared write).  Clean runs certify that heap refactors preserving
happens-before are digest-safe.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    _annotation_name,
)
from repro.analysis.lint import Finding
from repro.analysis.rules import RULES

RACECHECK_SCHEMA = 1

#: ``(class qualname, attribute name)`` — one piece of shared state
AttrKey = Tuple[str, str]

#: container methods whose call on an attribute mutates it in place
_MUTATORS = frozenset(
    {"add", "discard", "remove", "pop", "popleft", "update", "clear",
     "append", "extend", "insert", "setdefault", "appendleft"}
)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# static tier: effect analysis


@dataclass(frozen=True)
class AccessSite:
    """One lexical read or write of a shared attribute."""

    key: AttrKey
    kind: str  # "read" | "write"
    func: str
    path: str
    line: int


@dataclass
class EffectAnalysis:
    """Per-function lexical and transitive read/write sets."""

    #: function qualname -> keys it lexically reads / writes
    own_reads: Dict[str, Set[AttrKey]] = field(default_factory=dict)
    own_writes: Dict[str, Set[AttrKey]] = field(default_factory=dict)
    #: per-function access sites, source order
    sites: Dict[str, List[AccessSite]] = field(default_factory=dict)
    #: synchronous call edges (spawn + ``__init__`` edges removed)
    sync_edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: process roots: generator qualnames handed to env.process()/Process()
    roots: Set[str] = field(default_factory=set)
    #: functions reachable from any root over sync edges (roots included)
    process_connected: Set[str] = field(default_factory=set)
    #: transitive closures over sync edges
    closure_reads: Dict[str, Set[AttrKey]] = field(default_factory=dict)
    closure_writes: Dict[str, Set[AttrKey]] = field(default_factory=dict)


def _param_types(fn: FunctionInfo, graph: CallGraph) -> Dict[str, str]:
    """Parameter name -> class qualname, via unique-name annotation match."""
    out: Dict[str, str] = {}
    args = getattr(fn.node, "args", None)
    if args is None:
        return out
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        name = _annotation_name(arg.annotation)
        if name is None:
            continue
        quals = graph.class_by_name.get(name, [])
        if len(quals) == 1:
            out[arg.arg] = quals[0]
    return out


def _own_class(fn: FunctionInfo, graph: CallGraph) -> Optional[str]:
    if fn.class_name is None:
        return None
    qual = fn.qualname.rsplit(".", 1)[0]
    return qual if qual in graph.classes else None


def _attr_key(expr: ast.Attribute, fn: FunctionInfo, graph: CallGraph,
              ptypes: Dict[str, str]) -> Optional[AttrKey]:
    """Resolve ``<base>.<attr>`` to a ``(class, attr)`` key, or None.

    Handles ``self.x`` (the enclosing class), annotated-parameter bases
    (``shared.x`` where ``shared: Shared``), and one typed hop through a
    ``self`` attribute (``self.cache.x`` via the inferred attr types).
    """
    base = expr.value
    cls: Optional[str] = None
    if isinstance(base, ast.Name):
        if base.id == "self":
            cls = _own_class(fn, graph)
        else:
            cls = ptypes.get(base.id)
    elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
            and base.value.id == "self":
        own = _own_class(fn, graph)
        if own is not None:
            cls = graph.classes[own].attr_types.get(base.attr)
    if cls is None or cls not in graph.classes:
        return None
    return (cls, expr.attr)


def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    stack = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_accesses(fn: FunctionInfo, graph: CallGraph) -> List[AccessSite]:
    """All lexical shared-attribute reads and writes in one function."""
    ptypes = _param_types(fn, graph)
    sites: List[AccessSite] = []

    def add(key: Optional[AttrKey], kind: str, node: ast.AST) -> None:
        if key is None:
            return
        sites.append(AccessSite(key=key, kind=kind, func=fn.qualname,
                                path=fn.path, line=getattr(node, "lineno", 0)))

    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                add(_attr_key(node, fn, graph, ptypes), "write", node)
            elif isinstance(node.ctx, ast.Load):
                parent = getattr(node, "_cg_parent", None)
                # ``self.s.add(x)`` / ``self.d[k] = v``: the Load of the
                # attribute is really an in-place mutation of its value.
                if isinstance(parent, ast.Attribute) \
                        and parent.value is node \
                        and isinstance(getattr(parent, "_cg_parent", None),
                                       ast.Call) \
                        and parent._cg_parent.func is parent \
                        and parent.attr in _MUTATORS:  # type: ignore[attr-defined]
                    add(_attr_key(node, fn, graph, ptypes), "write", node)
                    continue
                if isinstance(parent, ast.Subscript) \
                        and parent.value is node \
                        and isinstance(parent.ctx, (ast.Store, ast.Del)):
                    add(_attr_key(node, fn, graph, ptypes), "write", node)
                    continue
                add(_attr_key(node, fn, graph, ptypes), "read", node)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            # ``self.x += 1``: read and write, atomic within one callback
            key = _attr_key(node.target, fn, graph, ptypes)
            add(key, "read", node)
            add(key, "write", node)
    sites.sort(key=lambda s: s.line)
    return sites


def _spawn_parent(node: ast.AST) -> Optional[ast.Call]:
    """The ``.process(...)``/``Process(...)`` call this node is an
    argument of, if any (climbing through keyword/starred wrappers)."""
    parent = getattr(node, "_cg_parent", None)
    while isinstance(parent, (ast.keyword, ast.Starred)):
        parent = getattr(parent, "_cg_parent", None)
    if not isinstance(parent, ast.Call) or parent.func is node:
        return None
    func = parent.func
    if isinstance(func, ast.Attribute) and func.attr == "process":
        return parent
    if isinstance(func, ast.Name) and func.id == "Process":
        return parent
    return None


def compute_effects(graph: CallGraph) -> EffectAnalysis:
    """Lexical effects, spawn/sync edge split, roots, and closures."""
    eff = EffectAnalysis()
    for qual, fn in graph.functions.items():
        sites = _collect_accesses(fn, graph)
        eff.sites[qual] = sites
        eff.own_reads[qual] = {s.key for s in sites if s.kind == "read"}
        eff.own_writes[qual] = {s.key for s in sites if s.kind == "write"}

    for site in graph.call_sites:
        callee = graph.functions.get(site.callee)
        if callee is None:
            continue
        if callee.is_generator and _spawn_parent(site.node) is not None:
            eff.roots.add(site.callee)
            continue  # concurrency edge: no synchronous propagation
        if site.callee.endswith(".__init__"):
            # constructor writes initialise a *fresh* object; they are not
            # mutations of state shared with other processes
            continue
        eff.sync_edges.setdefault(site.caller, set()).add(site.callee)

    # reachability from roots over sync edges
    seen: Set[str] = set(eff.roots)
    frontier = list(eff.roots)
    while frontier:
        nxt: List[str] = []
        for qual in frontier:
            for callee in eff.sync_edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    eff.process_connected = seen

    # transitive effect closures (fixpoint; sets only grow)
    eff.closure_reads = {q: set(r) for q, r in eff.own_reads.items()}
    eff.closure_writes = {q: set(w) for q, w in eff.own_writes.items()}
    changed = True
    while changed:
        changed = False
        for caller, callees in eff.sync_edges.items():
            reads = eff.closure_reads.setdefault(caller, set())
            writes = eff.closure_writes.setdefault(caller, set())
            for callee in callees:
                for src, dst in (
                    (eff.closure_reads.get(callee), reads),
                    (eff.closure_writes.get(callee), writes),
                ):
                    if src and not src <= dst:
                        dst |= src
                        changed = True
    return eff


# ---------------------------------------------------------------------------
# static tier: rules


def _key_label(key: AttrKey) -> str:
    cls, attr = key
    return f"{cls.rsplit('.', 1)[-1]}.{attr}"


def _writer_generators(eff: EffectAnalysis, graph: CallGraph
                       ) -> Dict[AttrKey, List[Tuple[str, AccessSite]]]:
    """key -> [(generator qualname, first write site)] for every
    process-connected generator that writes the key *lexically*."""
    out: Dict[AttrKey, List[Tuple[str, AccessSite]]] = {}
    for qual in sorted(eff.process_connected):
        fn = graph.functions.get(qual)
        if fn is None or not fn.is_generator:
            continue
        first: Dict[AttrKey, AccessSite] = {}
        for site in eff.sites.get(qual, []):
            if site.kind == "write" and site.key not in first:
                first[site.key] = site
        for key, site in first.items():
            out.setdefault(key, []).append((qual, site))
    return out


def _rep014_findings(eff: EffectAnalysis, graph: CallGraph,
                     writers: Dict[AttrKey, List[Tuple[str, AccessSite]]]
                     ) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(writers):
        entries = writers[key]
        if len({q for q, _ in entries}) < 2:
            continue
        entries = sorted(entries, key=lambda e: (e[1].path, e[1].line))
        head = entries[0][1]
        others = ", ".join(
            f"{q.rsplit('.', 1)[-1]}() at {os.path.basename(s.path)}:{s.line}"
            for q, s in entries)
        findings.append(Finding(
            rule="REP014", severity=RULES["REP014"].severity,
            path=head.path, line=head.line, col=0,
            message=(f"attribute '{_key_label(key)}' is written by "
                     f"{len(entries)} distinct process generators with no "
                     f"ordering edge ({others}): the final value depends on "
                     "same-instant tie-break order"),
        ))
    return findings


@dataclass(frozen=True)
class _TornRMW:
    key: AttrKey
    read_line: int
    yield_line: int
    write_line: int
    local: str


def _torn_rmws(fn: FunctionInfo, graph: CallGraph) -> List[_TornRMW]:
    """``v = <shared>; ... yield ...; <shared> = f(v)`` patterns."""
    ptypes = _param_types(fn, graph)
    binds: List[Tuple[str, AttrKey, int]] = []  # (local, key, line)
    yields: List[int] = []
    writes: List[Tuple[AttrKey, int, Set[str]]] = []  # (key, line, names read)
    for node in _own_nodes(fn.node):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yields.append(getattr(node, "lineno", 0))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name):
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Load):
                        key = _attr_key(sub, fn, graph, ptypes)
                        if key is not None:
                            binds.append((target.id, key, node.lineno))
            elif isinstance(target, ast.Attribute):
                key = _attr_key(target, fn, graph, ptypes)
                if key is not None:
                    names = {n.id for n in ast.walk(value)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Load)}
                    writes.append((key, node.lineno, names))
    out: List[_TornRMW] = []
    for key, wline, names in writes:
        for local, bkey, bline in binds:
            if bkey != key or local not in names or bline >= wline:
                continue
            torn = next((y for y in yields if bline < y <= wline), None)
            if torn is not None:
                out.append(_TornRMW(key=key, read_line=bline,
                                    yield_line=torn, write_line=wline,
                                    local=local))
                break
    return out


def _rep015_findings(eff: EffectAnalysis, graph: CallGraph,
                     writers: Dict[AttrKey, List[Tuple[str, AccessSite]]]
                     ) -> List[Finding]:
    findings: List[Finding] = []
    for qual in sorted(eff.process_connected):
        fn = graph.functions.get(qual)
        if fn is None or not fn.is_generator:
            continue
        for rmw in _torn_rmws(fn, graph):
            # only *shared* state can be interleaved: some other generator
            # must touch the key lexically, or another root's closure
            # must write it
            shared = any(
                q != qual and (rmw.key in eff.own_reads.get(q, set())
                               or rmw.key in eff.own_writes.get(q, set()))
                for q in eff.process_connected
                if graph.functions.get(q) is not None
                and graph.functions[q].is_generator
            ) or any(
                rmw.key in eff.closure_writes.get(root, set())
                for root in eff.roots
                if qual not in ({root} | eff.sync_edges.get(root, set()))
                and qual not in _closure_funcs(eff, root)
            )
            if not shared:
                continue
            findings.append(Finding(
                rule="REP015", severity=RULES["REP015"].severity,
                path=fn.path, line=rmw.write_line, col=0,
                message=(f"read-modify-write of '{_key_label(rmw.key)}' is "
                         f"torn across the yield at line {rmw.yield_line}: "
                         f"'{rmw.local}' read at line {rmw.read_line} is "
                         "stale when written back — another same-instant "
                         "process can interleave and its update is lost"),
            ))
    return findings


def _closure_funcs(eff: EffectAnalysis, start: str) -> Set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[str] = []
        for qual in frontier:
            for callee in eff.sync_edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    return seen


@dataclass
class RaceAnalysis:
    """Static-tier output: effects, findings, and a JSON summary."""

    effects: EffectAnalysis
    graph: CallGraph
    findings: List[Finding]
    #: key -> writer generator qualnames (the REP014 evidence)
    shared_writes: Dict[AttrKey, Tuple[str, ...]]

    def to_dict(self) -> dict:
        return {
            "roots": len(self.effects.roots),
            "process_connected": len(self.effects.process_connected),
            "shared_writes": {
                _key_label(k): list(v)
                for k, v in sorted(self.shared_writes.items())
            },
            "rep014": sum(1 for f in self.findings if f.rule == "REP014"),
            "rep015": sum(1 for f in self.findings if f.rule == "REP015"),
        }


def analyze_races(graph: CallGraph) -> RaceAnalysis:
    """The static tier: effect analysis + REP014/REP015 findings."""
    eff = compute_effects(graph)
    writers = _writer_generators(eff, graph)
    findings = _rep014_findings(eff, graph, writers)
    findings.extend(_rep015_findings(eff, graph, writers))
    shared = {
        key: tuple(sorted({q for q, _ in entries}))
        for key, entries in writers.items()
        if len({q for q, _ in entries}) >= 2
    }
    return RaceAnalysis(effects=eff, graph=graph, findings=findings,
                        shared_writes=shared)


def access_path(analysis: RaceAnalysis, start: str, key: AttrKey,
                kinds: Tuple[str, ...] = ("write",)) -> List[str]:
    """BFS call path from ``start`` to the first function that lexically
    accesses ``key`` — the "process stack" of a conflicting access."""
    eff = analysis.effects
    prev: Dict[str, Optional[str]] = {start: None}
    frontier = [start]
    hit: Optional[str] = None
    while frontier and hit is None:
        nxt: List[str] = []
        for qual in frontier:
            if any(s.key == key and s.kind in kinds
                   for s in eff.sites.get(qual, [])):
                hit = qual
                break
            for callee in sorted(eff.sync_edges.get(qual, ())):
                if callee not in prev:
                    prev[callee] = qual
                    nxt.append(callee)
        frontier = nxt
    if hit is None:
        return [start]
    path: List[str] = []
    cur: Optional[str] = hit
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()
    site = next((s for s in eff.sites.get(hit, [])
                 if s.key == key and s.kind in kinds), None)
    if site is not None:
        path[-1] = f"{hit} ({os.path.basename(site.path)}:{site.line})"
    return path


# ---------------------------------------------------------------------------
# dynamic tier: schedule recording


#: (file, qualname, firstlineno) of a process generator observed at runtime
ProcRef = Tuple[str, str, int]


def _describe_callback(cb: Any) -> Tuple[str, Optional[ProcRef]]:
    """Stable identity string for an event callback, plus the process
    code reference when the callback resumes a Process."""
    bound_self = getattr(cb, "__self__", None)
    code_ref = getattr(bound_self, "code_ref", None)
    if code_ref is not None:
        fname, qualname, lineno = code_ref()
        return (f"proc:{qualname}:{os.path.basename(fname)}:{lineno}",
                (fname, qualname, lineno))
    code = getattr(cb, "__code__", None)
    if code is None:
        func = getattr(cb, "__func__", None)
        code = getattr(func, "__code__", None)
    if code is not None:
        qual = getattr(code, "co_qualname", code.co_name)
        return (f"fn:{qual}:{os.path.basename(code.co_filename)}:"
                f"{code.co_firstlineno}", None)
    return (f"cb:{type(cb).__name__}", None)


class ScheduleRecorder:
    """Kernel monitor recording the per-timestamp execution multiset.

    Entries are canonicalised (sorted within each timestamp) so two runs
    that execute the same events at each instant — in any order —
    compare equal; only a genuine divergence (different events, or
    events migrating across timestamps) shows up.
    """

    def __init__(self) -> None:
        self._env: Any = None
        #: [(time, [entry str, ...])] in execution order
        self._buckets: List[Tuple[float, List[str]]] = []
        #: process code refs observed per bucket (for attribution)
        self._procs: List[Set[ProcRef]] = []

    def bind(self, env: Any) -> None:
        self._env = env

    # -- monitor protocol (see Environment.set_monitor) ------------------
    def on_schedule(self, depth: int) -> None:  # pragma: no cover - no-op
        pass

    def on_event(self, event: Any, callbacks: Sequence[Any]) -> None:
        t = float(self._env.now)
        if not self._buckets or self._buckets[-1][0] != t:
            self._buckets.append((t, []))
            self._procs.append(set())
        descs: List[str] = []
        for cb in callbacks:
            desc, ref = _describe_callback(cb)
            descs.append(desc)
            if ref is not None:
                self._procs[-1].add(ref)
        entry = f"{type(event).__name__}[{','.join(sorted(descs))}]"
        self._buckets[-1][1].append(entry)

    def on_event_done(self, event: Any) -> None:  # pragma: no cover - no-op
        pass

    # -- results ---------------------------------------------------------
    def schedule(self) -> List[Tuple[float, Tuple[str, ...]]]:
        """Canonical per-timestamp multisets, execution order preserved
        across timestamps, sorted within each."""
        return [(t, tuple(sorted(entries))) for t, entries in self._buckets]

    def ordered(self) -> List[Tuple[float, Tuple[str, ...]]]:
        """The raw execution order, same shape as :meth:`schedule`.  Two
        runs whose canonical schedules match can still differ here — the
        ordered stream locates *where* a same-instant reorder happened
        when only the outcome (not the event multiset) diverged."""
        return [(t, tuple(entries)) for t, entries in self._buckets]

    def proc_refs(self) -> List[FrozenSet[ProcRef]]:
        return [frozenset(s) for s in self._procs]


def schedule_digest(schedule: Sequence[Tuple[float, Tuple[str, ...]]]) -> str:
    chain = hashlib.sha256()
    for t, entries in schedule:
        chain.update(_canonical([t, list(entries)]))
    return chain.hexdigest()


def canonical_trace_chain(events: Sequence[Any]) -> List[Tuple[float, str]]:
    """Chained digests over trace events, order-insensitive *within* a
    timestamp: [(time, chain hex12)] with one entry per instant."""
    from repro.obs.export import event_to_dict

    chain = hashlib.sha256()
    out: List[Tuple[float, str]] = []
    i = 0
    n = len(events)
    while i < n:
        t = events[i].time
        group: List[bytes] = []
        while i < n and events[i].time == t:
            group.append(_canonical(event_to_dict(events[i])))
            i += 1
        for blob in sorted(group):
            chain.update(blob)
        out.append((t, chain.hexdigest()[:12]))
    return out


# ---------------------------------------------------------------------------
# dynamic tier: captures and comparison


@dataclass
class RunCapture:
    """Everything observable about one (possibly perturbed) run."""

    tiebreak_seed: Optional[int]
    schedule: List[Tuple[float, Tuple[str, ...]]]
    proc_refs: List[FrozenSet[ProcRef]]
    #: caller-defined scalar outcomes (stage timeline, final counters)
    observables: Dict[str, Any]
    trace_chain: List[Tuple[float, str]] = field(default_factory=list)
    metrics_digest: Optional[str] = None
    #: raw metrics snapshot (JSON-safe), kept for tolerant comparison
    metrics: Any = None
    #: raw execution order (ScheduleRecorder.ordered()) for localization
    ordered_schedule: List[Tuple[float, Tuple[str, ...]]] = \
        field(default_factory=list)
    processed: int = 0

    @property
    def schedule_digest(self) -> str:
        return schedule_digest(self.schedule)

    @property
    def trace_digest(self) -> Optional[str]:
        return self.trace_chain[-1][1] if self.trace_chain else None

    def summary(self) -> Dict[str, Any]:
        return {
            "tiebreak_seed": self.tiebreak_seed,
            "processed": self.processed,
            "timestamps": len(self.schedule),
            "schedule_digest": self.schedule_digest[:16],
            "trace_digest": self.trace_digest,
            "metrics_digest": (self.metrics_digest or "")[:16] or None,
            "observables": self.observables,
        }


@dataclass
class ScheduleDivergence:
    """First timestamp where two runs' canonical streams split."""

    source: str  # "schedule" | "trace" | "length"
    index: int
    time: float
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)
    procs: List[ProcRef] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "index": self.index,
            "time": self.time,
            "only_a": self.only_a,
            "only_b": self.only_b,
            "procs": [list(p) for p in self.procs],
        }

    def describe(self) -> str:
        lines = [f"first divergence ({self.source}) at t={self.time:.6f} "
                 f"(timestamp #{self.index})"]
        for label, entries in (("only in FIFO run", self.only_a),
                               ("only in perturbed run", self.only_b)):
            for e in entries[:4]:
                lines.append(f"  {label}: {e}")
        for fname, qual, lineno in self.procs:
            lines.append(f"  process here: {qual} "
                         f"({os.path.basename(fname)}:{lineno})")
        return "\n".join(lines)


def _procs_at_time(cap: RunCapture, t: float) -> Set[ProcRef]:
    out: Set[ProcRef] = set()
    for (bt, _), refs in zip(cap.schedule, cap.proc_refs):
        if bt == t:
            out |= set(refs)
    return out


def find_divergence(a: RunCapture, b: RunCapture) -> Optional[ScheduleDivergence]:
    """Walk the canonical streams to the first diverging timestamp."""
    n = min(len(a.schedule), len(b.schedule))
    for i in range(n):
        (ta, ea), (tb, eb) = a.schedule[i], b.schedule[i]
        if ta != tb or ea != eb:
            t = min(ta, tb)
            ca, cb = Counter(ea), Counter(eb)
            div = ScheduleDivergence(
                source="schedule", index=i, time=t,
                only_a=sorted((ca - cb).elements()),
                only_b=sorted((cb - ca).elements()),
            )
            div.procs = sorted(_procs_at_time(a, t) | _procs_at_time(b, t))
            return div
    if len(a.schedule) != len(b.schedule):
        longer = a.schedule if len(a.schedule) > n else b.schedule
        t = longer[n][0]
        div = ScheduleDivergence(source="length", index=n, time=t)
        div.procs = sorted(_procs_at_time(a, t) | _procs_at_time(b, t))
        return div
    # schedules identical; the trace chain may still locate a divergence
    # (e.g. same events, different same-instant RNG interleaving)
    m = min(len(a.trace_chain), len(b.trace_chain))
    for i in range(m):
        if a.trace_chain[i] != b.trace_chain[i]:
            t = min(a.trace_chain[i][0], b.trace_chain[i][0])
            div = ScheduleDivergence(source="trace", index=i, time=t)
            div.procs = sorted(_procs_at_time(a, t) | _procs_at_time(b, t))
            return div
    # canonical streams identical: the runs executed the same event
    # multiset at every instant, so only a same-instant *reorder* can
    # explain a differing outcome — locate the first one
    k = min(len(a.ordered_schedule), len(b.ordered_schedule))
    for i in range(k):
        (ta, ea), (tb, eb) = a.ordered_schedule[i], b.ordered_schedule[i]
        if ta != tb or ea != eb:
            t = min(ta, tb)
            ca, cb = Counter(ea), Counter(eb)
            div = ScheduleDivergence(
                source="order", index=i, time=t,
                only_a=sorted((ca - cb).elements()),
                only_b=sorted((cb - ca).elements()),
            )
            div.procs = sorted(_procs_at_time(a, t) | _procs_at_time(b, t))
            return div
    return None


@dataclass
class Conflict:
    """A statically-conflicting access pair at the divergence point."""

    key: AttrKey
    kind: str  # "write-write" | "read-write"
    proc_a: str
    proc_b: str
    stack_a: List[str]
    stack_b: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attr": _key_label(self.key),
            "class": self.key[0],
            "kind": self.kind,
            "a": {"proc": self.proc_a, "stack": self.stack_a},
            "b": {"proc": self.proc_b, "stack": self.stack_b},
        }


def _match_static(analysis: RaceAnalysis, ref: ProcRef) -> Optional[str]:
    """Map a runtime process code ref onto its call-graph function."""
    fname, qualname, lineno = ref
    real = os.path.realpath(fname)
    for qual, fn in analysis.graph.functions.items():
        if fn.lineno == lineno and os.path.realpath(fn.path) == real:
            return qual
    for qual in analysis.graph.functions:
        if qual == qualname or qual.endswith("." + qualname):
            return qual
    return None


def attribute_divergence(div: ScheduleDivergence,
                         analysis: RaceAnalysis) -> List[Conflict]:
    """Name the conflicting shared-state access pairs behind a divergence
    using the static effect closures, with both process call paths."""
    eff = analysis.effects
    mapped = sorted({q for q in (_match_static(analysis, r) for r in div.procs)
                     if q is not None})
    conflicts: List[Conflict] = []
    for i, qa in enumerate(mapped):
        for qb in mapped[i + 1:]:
            if qa == qb:
                continue
            wa = eff.closure_writes.get(qa, set())
            wb = eff.closure_writes.get(qb, set())
            ra = eff.closure_reads.get(qa, set())
            rb = eff.closure_reads.get(qb, set())
            pairs = [(k, "write-write") for k in sorted(wa & wb)]
            pairs += [(k, "read-write") for k in sorted((ra & wb) | (wa & rb))
                      if k not in (wa & wb)]
            for key, kind in pairs:
                akinds: Tuple[str, ...] = ("write",) if key in wa \
                    else ("read", "write")
                bkinds: Tuple[str, ...] = ("write",) if key in wb \
                    else ("read", "write")
                conflicts.append(Conflict(
                    key=key, kind=kind, proc_a=qa, proc_b=qb,
                    stack_a=access_path(analysis, qa, key, akinds),
                    stack_b=access_path(analysis, qb, key, bkinds),
                ))
    return conflicts


#: relative tolerance for float metric fields under perturbation.  A
#: same-instant permutation legitimately shifts a few completions by
#: sub-millisecond amounts (queue service order within one timestamp),
#: which perturbs floating-point accumulators (histogram sums/means) at
#: the 1e-7 level while every count, bucket, and outcome stays identical.
METRICS_RTOL = 1e-5


def _values_close(a: Any, b: Any, rtol: float = METRICS_RTOL) -> bool:
    """Structural equality with a float tolerance (exact for everything
    else: ints, strings, dict keys, list lengths)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-9)
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_values_close(a[k], b[k], rtol) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_values_close(x, y, rtol) for x, y in zip(a, b)))
    return bool(a == b)


@dataclass
class Comparison:
    """Baseline vs one perturbed run.

    Verdict semantics: permuting causally-unordered same-instant events
    is *allowed* to churn the micro-schedule (``schedule_match`` is a
    diagnostic, not a gate) and to shift float metric accumulators
    below :data:`METRICS_RTOL`.  What must survive the permutation is
    everything the experiments report: the canonical trace stream, the
    metrics within tolerance, and the stage-timeline observables.
    """

    tiebreak_seed: int
    schedule_match: bool
    trace_match: bool
    metrics_match: bool  # exact digest equality (diagnostic)
    observables_match: bool
    metrics_close: bool = True  # within METRICS_RTOL (gates the verdict)
    divergence: Optional[ScheduleDivergence] = None
    conflicts: List[Conflict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.trace_match and self.metrics_close
                and self.observables_match)

    @property
    def exact(self) -> bool:
        """Bit-identical across every stream, micro-schedule included."""
        return (self.schedule_match and self.trace_match
                and self.metrics_match and self.observables_match)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "tiebreak_seed": self.tiebreak_seed,
            "ok": self.ok,
            "exact": self.exact,
            "schedule_match": self.schedule_match,
            "trace_match": self.trace_match,
            "metrics_match": self.metrics_match,
            "metrics_close": self.metrics_close,
            "observables_match": self.observables_match,
        }
        if self.divergence is not None:
            out["divergence"] = self.divergence.to_dict()
        if self.conflicts:
            out["conflicts"] = [c.to_dict() for c in self.conflicts]
        return out


def compare_captures(base: RunCapture, perturbed: RunCapture,
                     analysis: Optional[RaceAnalysis] = None) -> Comparison:
    metrics_match = base.metrics_digest == perturbed.metrics_digest
    if metrics_match:
        metrics_close = True
    elif base.metrics is not None and perturbed.metrics is not None:
        metrics_close = _values_close(base.metrics, perturbed.metrics)
    else:
        metrics_close = False
    cmp = Comparison(
        tiebreak_seed=int(perturbed.tiebreak_seed or 0),
        schedule_match=base.schedule_digest == perturbed.schedule_digest,
        trace_match=base.trace_digest == perturbed.trace_digest,
        metrics_match=metrics_match,
        metrics_close=metrics_close,
        observables_match=base.observables == perturbed.observables,
    )
    if not cmp.exact:
        cmp.divergence = find_divergence(base, perturbed)
        if not cmp.ok and cmp.divergence is not None and analysis is not None:
            cmp.conflicts = attribute_divergence(cmp.divergence, analysis)
    return cmp


# ---------------------------------------------------------------------------
# dynamic tier: campaign orchestration


def capture_campaign(version_name: str, fault: str, seed: int,
                     tiebreak_seed: Optional[int], quick: bool = True,
                     smoke: bool = False) -> RunCapture:
    """Run one campaign (or the smoke scenario) under a tie-break mode
    and capture every observable stream."""
    from repro.analysis.sanitize import run_scenario
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    recorder = ScheduleRecorder()
    world, observables = run_scenario(version_name, fault, seed, telemetry,
                                      quick=quick, smoke=smoke,
                                      tiebreak_seed=tiebreak_seed,
                                      monitor=recorder)
    metrics = telemetry.metrics.snapshot()
    return RunCapture(
        tiebreak_seed=tiebreak_seed,
        schedule=recorder.schedule(),
        ordered_schedule=recorder.ordered(),
        proc_refs=recorder.proc_refs(),
        observables=observables,
        trace_chain=canonical_trace_chain(telemetry.tracer.entries),
        metrics_digest=hashlib.sha256(_canonical(metrics)).hexdigest(),
        metrics=metrics,
        processed=world.env.processed_count,
    )


@dataclass
class RaceCheckResult:
    """Full two-tier report: static findings + perturbation comparisons."""

    version: str
    fault: str
    seed: int
    mode: str
    baseline: Optional[RunCapture] = None
    perturbed: List[RunCapture] = field(default_factory=list)
    comparisons: List[Comparison] = field(default_factory=list)
    static_findings: List[Finding] = field(default_factory=list)
    static_summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def dynamic_ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    @property
    def static_ok(self) -> bool:
        from repro.analysis.rules import Severity

        return not any(f.severity is Severity.ERROR
                       for f in self.static_findings)

    @property
    def ok(self) -> bool:
        return self.dynamic_ok and self.static_ok

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RACECHECK_SCHEMA,
            "version": self.version,
            "fault": self.fault,
            "seed": self.seed,
            "mode": self.mode,
            "ok": self.ok,
            "static": {
                "ok": self.static_ok,
                "findings": [f.to_dict() for f in self.static_findings],
                "summary": self.static_summary,
            },
            "dynamic": {
                "ok": self.dynamic_ok,
                "baseline": self.baseline.summary() if self.baseline else None,
                "perturbed": [c.summary() for c in self.perturbed],
                "comparisons": [c.to_dict() for c in self.comparisons],
            },
        }


def run_racecheck(version_name: str = "coop", fault: str = "node_crash",
                  seed: int = 0, tiebreak_seeds: Sequence[int] = (1, 2),
                  quick: bool = True, smoke: bool = False,
                  paths: Sequence[str] = ("src/repro",),
                  static: bool = True, dynamic: bool = True
                  ) -> RaceCheckResult:
    """The full two-tier check behind ``repro racecheck``."""
    result = RaceCheckResult(version=version_name, fault=fault, seed=seed,
                             mode="smoke" if smoke else "campaign")
    analysis: Optional[RaceAnalysis] = None
    if static:
        from repro.analysis.flow import analyze_flow

        flow = analyze_flow(list(paths))
        analysis = flow.races
        result.static_findings = [f for f in flow.findings
                                  if f.rule in ("REP014", "REP015")]
        if analysis is not None:
            result.static_summary = analysis.to_dict()
    if dynamic:
        result.baseline = capture_campaign(version_name, fault, seed,
                                           tiebreak_seed=None, quick=quick,
                                           smoke=smoke)
        for ts in tiebreak_seeds:
            cap = capture_campaign(version_name, fault, seed,
                                   tiebreak_seed=int(ts), quick=quick,
                                   smoke=smoke)
            result.perturbed.append(cap)
            result.comparisons.append(
                compare_captures(result.baseline, cap, analysis))
    return result


def format_racecheck(result: RaceCheckResult) -> str:
    lines = [f"racecheck: {result.version}/{result.fault} "
             f"seed={result.seed} mode={result.mode}"]
    if result.static_summary:
        s = result.static_summary
        lines.append(f"  static: {s.get('roots', 0)} process roots, "
                     f"{len(s.get('shared_writes', {}))} multi-writer "
                     f"attribute(s); REP014={s.get('rep014', 0)} "
                     f"REP015={s.get('rep015', 0)}; "
                     f"{len(result.static_findings)} unsuppressed finding(s)")
    for f in result.static_findings:
        lines.append(f"  {f}")
    if result.baseline is not None:
        lines.append(f"  baseline (FIFO): {result.baseline.processed} events "
                     f"over {len(result.baseline.schedule)} timestamps, "
                     f"schedule {result.baseline.schedule_digest[:16]}…")
    for cmp in result.comparisons:
        if cmp.exact:
            verdict = "MATCH"
        elif cmp.ok:
            verdict = "MATCH (micro-schedule churn only)"
        else:
            verdict = "DIVERGE"
        metrics_flag = ("ok" if cmp.metrics_match
                        else "~" if cmp.metrics_close else "X")
        lines.append(f"  tiebreak_seed={cmp.tiebreak_seed}: {verdict} "
                     f"(schedule={'ok' if cmp.schedule_match else 'X'} "
                     f"trace={'ok' if cmp.trace_match else 'X'} "
                     f"metrics={metrics_flag} "
                     f"results={'ok' if cmp.observables_match else 'X'})")
        if cmp.divergence is not None and not cmp.ok:
            lines.append("  " + cmp.divergence.describe()
                         .replace("\n", "\n  "))
        for c in cmp.conflicts:
            lines.append(f"    conflict [{c.kind}] on {_key_label(c.key)}:")
            lines.append(f"      A {c.proc_a}: {' -> '.join(c.stack_a)}")
            lines.append(f"      B {c.proc_b}: {' -> '.join(c.stack_b)}")
    if result.ok:
        lines.append("OK: no schedule-order dependence detected — "
                     "happens-before-preserving scheduler refactors are "
                     "digest-safe")
    else:
        lines.append("FAIL: results depend on same-instant tie-break order")
    return "\n".join(lines)
