"""Lazy, demand-driven evaluation of boxes-and-arrows programs.

"The semantics of Tioga-2 programs is similar to the semantics of programs in
dataflow languages.  When data is present on all of a box's inputs, the box
can 'fire', producing results on one or more outputs.  Execution is lazy,
evaluating only what is required to produce the demanded visualization."
(Section 2)

The engine pulls: demanding any output walks upstream, firing only the boxes
on the demanded path, each at most once per change.  Results are memoized per
box and keyed by a structural signature — the box's serial (unique per box
object) and version (bumped on parameter edits), its extra signature (e.g.
the source table's version), and the signatures of its inputs — so an
incremental program edit recomputes only the affected suffix of the graph.
This memoization is what makes "no distinction between constructing,
modifying, and using a program" (§1.2) affordable; the ablation benchmarks
measure it directly.

Each memo entry also carries the *demand stamp* it was last validated
under: the program's edit stamp, the process storage epoch, and the
database's catalog version.  Nothing a signature reads can change while
all three stand still, so a demand whose stamp matches the entry's is
answered from the memo without walking the signature — the common case of
a viewer re-demanding its input while nothing was edited.  The entry also
names the output ports a demand has forced; a repeat demand of such a
port under the entry's stamp is a lookup: it returns the stored value
without re-walking it, and opens no span.

A box that re-fires after a Section-8 update links each lazy row set it
emits to the one its previous firing emitted (``LazyRowSet.predecessor``),
and forcing tries to patch that predecessor's result at the changed rows
before running the plan (:func:`repro.dbms.delta.carry`); EXPLAIN then
reads ``patched`` for it.
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.box import Box
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.delta import carry
from repro.dbms.plan import LazyRowSet
from repro.dbms.plan_rewrite import optimize_plan
from repro.dbms.relation import storage_epoch
from repro.dbms.result_cache import cache_enabled, execute_cached
from repro.display.displayable import Composite, DisplayableRelation, Group
from repro.errors import GraphError, StaticAnalysisError, TiogaError
from repro.obs.lineage import (
    LineageConfig,
    lineage_capture,
    resolve_lineage_config,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_tracer

__all__ = ["FireContext", "EngineStats", "Engine"]


def _force_value(value: Any, cache: bool) -> int:
    """Materialize any lazily-streamed row sets inside a demanded value;
    returns the number of rows patched rather than computed.

    Boxes emit plan fragments wrapped in :class:`LazyRowSet`; demand is the
    materialization boundary, so data-dependent evaluation errors surface
    here — from ``output_of``/``evaluate_all`` — exactly where they surfaced
    when boxes materialized eagerly.  The walk descends displayable
    relations, composites, and groups; each lazy set is optimized and
    forced, through the result cache when ``cache`` is set
    (:func:`_force_lazy`).
    """
    if isinstance(value, LazyRowSet):
        return _force_lazy(value, cache)
    if isinstance(value, DisplayableRelation):
        return _force_value(value.rows, cache)
    if isinstance(value, Composite):
        return sum(_force_value(entry.relation, cache)
                   for entry in value.entries)
    if isinstance(value, Group):
        return sum(_force_value(member, cache)
                   for __, member in value.members)
    return 0


def _force_lazy(lazy: LazyRowSet, cache: bool) -> int:
    """Optimize and materialize one lazy row set, cache-aware.

    An unstarted plan goes through :func:`optimize_plan` first — the
    per-subtree choice of the columnar backend, then verification — so
    the plan decides the backend, not a knob.  A cache hit installs the
    shared rows (``lazy.adopt``) and slaved viewers and repeated renders
    share one materialization this way; ``lazy.cache_status`` records
    "hit"/"miss" for EXPLAIN.  Fingerprints are taken on the *pre-optimization* plan,
    so a hit skips the optimizer, and backend selection preserves rows and
    order, so one entry serves any backend choice.  Plans that have
    already started streaming (a downstream consumer pulled through a
    CacheNode first) are left untouched: rewriting or adopting into a
    half-filled shared buffer would corrupt other consumers.

    A set with a predecessor (its box re-fired after an update) is
    patched from it when :func:`~repro.dbms.delta.carry` can map the
    change; it reads ``cache_status`` "patched" and is published to the
    result cache like a computed result.  Returns the patched row count.
    """
    if lazy.is_materialized:
        return 0
    patched: list[int] = []

    def execute():
        if not lazy.has_started:
            root, __ = optimize_plan(lazy.plan)
            if root is not lazy.plan:
                lazy.replace_plan(root)
            count = carry(lazy)
            if count is not None:
                patched.append(count)
        return lazy.force()

    if not cache or lazy.has_started:
        execute()
    else:
        rows, status = execute_cached(lazy.plan, execute)
        if status == "hit":
            lazy.adopt(rows)
            lazy.predecessor = None
        lazy.cache_status = status
    if not patched:
        return 0
    lazy.cache_status = "patched"
    return patched[0]


class FireContext:
    """Services available to a firing box."""

    def __init__(self, engine: "Engine", box: Box):
        self.engine = engine
        self.box = box

    @property
    def database(self) -> Database:
        return self.engine.database

    def describe(self) -> str:
        return self.box.describe()


class EngineStats:
    """Firing counters: a thin view over a :class:`MetricsRegistry`.

    All three counter families are attributable per box id: ``fires``,
    ``hits``, and ``misses`` map box id → count.  They are the label dicts
    of the registry counters ``engine.box.fires`` / ``engine.cache.hits`` /
    ``engine.cache.misses`` — same storage, no copying — so anything
    recorded here shows up in registry snapshots and run summaries, and
    ``reset()`` genuinely clears the per-box dicts.  The aggregate
    ``cache_hits``/``cache_misses`` views are kept for callers that predate
    the per-box breakdown.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._fires = self.registry.counter(
            "engine.box.fires", "box firings, labeled by box id"
        )
        self._hits = self.registry.counter(
            "engine.cache.hits", "memo hits, labeled by box id"
        )
        self._misses = self.registry.counter(
            "engine.cache.misses", "memo misses, labeled by box id"
        )

    @property
    def fires(self) -> dict[int, int]:
        return self._fires.values

    @property
    def hits(self) -> dict[int, int]:
        return self._hits.values

    @property
    def misses(self) -> dict[int, int]:
        return self._misses.values

    @property
    def cache_hits(self) -> int:
        return self._hits.total()

    @property
    def cache_misses(self) -> int:
        return self._misses.total()

    def record_fire(self, box_id: int) -> None:
        self._fires.inc(label=box_id)

    def record_hit(self, box_id: int) -> None:
        self._hits.inc(label=box_id)

    def record_miss(self, box_id: int) -> None:
        self._misses.inc(label=box_id)

    def total_fires(self) -> int:
        return self._fires.total()

    def reset(self) -> None:
        self._fires.reset()
        self._hits.reset()
        self._misses.reset()

    def to_dict(self) -> dict[str, Any]:
        """Stable machine-readable form (sorted per-box breakdown)."""
        return {
            "total_fires": self.total_fires(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "boxes": {
                box_id: {
                    "fires": self.fires.get(box_id, 0),
                    "hits": self.hits.get(box_id, 0),
                    "misses": self.misses.get(box_id, 0),
                }
                for box_id in sorted(
                    set(self.fires) | set(self.hits) | set(self.misses)
                )
            },
        }

    def summary(self) -> str:
        """Multi-line, per-box account of firing and cache behaviour (used
        by ``explain`` and the CLI stats output)."""
        lines = [
            f"EngineStats: {self.total_fires()} fires, "
            f"{self.cache_hits} cache hits, {self.cache_misses} misses"
        ]
        for box_id in sorted(set(self.fires) | set(self.hits) | set(self.misses)):
            lines.append(
                f"  box #{box_id}: fires={self.fires.get(box_id, 0)} "
                f"hits={self.hits.get(box_id, 0)} "
                f"misses={self.misses.get(box_id, 0)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EngineStats(fires={self.total_fires()}, hits={self.cache_hits}, "
            f"misses={self.cache_misses})"
        )


class Engine:
    """Evaluates one program against one database.

    With ``preflight=True`` the static checker
    (:func:`repro.analyze.check_program`) runs before the first demand and
    again after any program edit (tracked by the program version), raising
    :class:`StaticAnalysisError` instead of letting a provably broken
    program fail halfway through a firing chain.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        preflight: bool = False,
        registry: MetricsRegistry | None = None,
        *,
        cache: bool | None = None,
        lineage: bool | LineageConfig | None = None,
    ):
        self.program = program
        self.database = database
        self.stats = EngineStats(registry)
        self.preflight_enabled = preflight
        self._preflight_stamp: tuple | None = None
        # box_id -> (signature, outputs dict, demand stamp it was checked
        # at, names of the output ports forced since the box fired)
        self._cache: dict[
            int, tuple[tuple, dict[str, Any], tuple, set[str]]] = {}
        # box_id -> signature, for the demand in progress (see _evaluate)
        self._signatures: dict[int, tuple] | None = None
        # Result cache: None follows the process-wide default (on while a
        # TiogaServer runs), True/False pin it (docs/RESULT_CACHE.md).
        self.cache = cache_enabled() if cache is None else bool(cache)
        # Lineage capture: None inherits the process default
        # (REPRO_LINEAGE), False disables, True/a config records
        # output -> input mappings while this engine forces values
        # (docs/OBSERVABILITY.md, "Lineage & why-provenance").
        self.lineage = resolve_lineage_config(lineage)

    def _force(self, value: Any) -> int:
        """Materialize a demanded value, honoring the execution config;
        returns the number of rows patched rather than computed."""
        if self.lineage is not None:
            with lineage_capture(self.lineage):
                return _force_value(value, self.cache)
        return _force_value(value, self.cache)

    # ------------------------------------------------------------------

    def preflight(self, force: bool = False):
        """Statically check the program; raise on errors, return the report.

        Results are cached per program edit stamp (the program's structural
        version plus every box's parameter version), so demanding many
        outputs of an unchanged program lints once.  Returns ``None`` when
        the cached result is still valid and ``force`` is not set.
        """
        stamp = self.program.edit_stamp()
        if not force and self._preflight_stamp == stamp:
            return None
        from repro.analyze.checker import check_program

        tracer = current_tracer()
        with tracer.span("engine.preflight", program=self.program.name):
            report = check_program(self.program, self.database)
        if not report.ok:
            raise StaticAnalysisError(
                f"program {self.program.name!r} fails static checks:\n"
                + report.render(),
                report=report,
            )
        self._preflight_stamp = stamp
        return report

    def _demand_stamp(self) -> tuple:
        """Changes whenever any box signature could: a program edit, a
        stored-table mutation anywhere (the storage epoch), or a table
        created, added or dropped in this engine's database."""
        return (
            self.program.edit_stamp(),
            storage_epoch(),
            self.database.catalog_version,
        )

    # ------------------------------------------------------------------

    def invalidate(self, box_id: int | None = None) -> None:
        """Drop cached results for one box and everything downstream of it,
        or for the whole program."""
        if box_id is None:
            self._cache.clear()
        else:
            self._cache.pop(box_id, None)
            for downstream in self.program.downstream_of(box_id):
                self._cache.pop(downstream, None)

    def output_of(self, box_id: int, port_name: str | None = None) -> Any:
        """Demand one output of a box (the value flowing on that edge).

        With ``port_name`` omitted, the box's single output is demanded —
        this is how a viewer placed "on any edge in a diagram" inspects the
        data flowing along it (§1.1 problem 2, solved per §10).

        A port this box's memo entry has already forced, under the current
        demand stamp, is a lookup: it counts a cache hit for the box and
        returns the stored value, with no preflight, no re-walk of the
        value, and no ``engine.demand`` span or ``engine.cache.hit`` event.
        Any other demand evaluates, forces and then marks the port forced.
        """
        # Taken before any firing: a mutation during the demand leaves the
        # entries it wrote stamped stale, so the next demand re-checks them.
        stamp = self._demand_stamp()
        entry = self._cache.get(box_id)
        if entry is not None and entry[2] == stamp:
            name = port_name
            if name is None:
                ports = self.program.box(box_id).outputs
                name = ports[0].name if len(ports) == 1 else None
            if name in entry[3]:
                self.stats.record_hit(box_id)
                return entry[1][name]
        if self.preflight_enabled:
            self.preflight()
        box = self.program.box(box_id)
        if port_name is None:
            if len(box.outputs) != 1:
                raise GraphError(
                    f"{box.describe()} has {len(box.outputs)} outputs; "
                    "name the one to demand"
                )
            port_name = box.outputs[0].name
        else:
            box.output_port(port_name)  # validate
        tracer = current_tracer()
        try:
            if not tracer.enabled:
                outputs = self._evaluate(box_id, stamp)
                value = outputs[port_name]
                self._force(value)
            else:
                with tracer.span("engine.demand", box=box_id,
                                 type=box.type_name, port=port_name) as span:
                    outputs = self._evaluate(box_id, stamp)
                    value = outputs[port_name]
                    patched = self._force(value)
                    if patched:
                        span.set(patched=patched)
        except TiogaError as exc:
            # Black-box telemetry: when a flight recorder is installed, the
            # spans/events leading up to this failure are dumped to JSONL
            # before the error propagates (docs/OBSERVABILITY.md).
            from repro.obs.flightrec import note_engine_error

            note_engine_error(exc, box=box_id, type=box.type_name,
                              port=port_name, program=self.program.name)
            raise
        entry = self._cache.get(box_id)
        if entry is not None and entry[1] is outputs:
            entry[3].add(port_name)
        return value

    def inputs_of(self, box_id: int) -> dict[str, Any]:
        """Demand and return all inputs of a box (used by viewers/sinks)."""
        box = self.program.box(box_id)
        values: dict[str, Any] = {}
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                if port.optional:
                    continue
                raise GraphError(
                    f"input {box.describe()}.{port.name} is not connected; "
                    "its result is unavailable for visualization"
                )
            values[port.name] = self.output_of(edge.src_box, edge.src_port)
        return values

    def evaluate_all(self) -> int:
        """Eager evaluation: fire every box in topological order.

        This is the ablation arm for the lazy-vs-eager benchmark; it returns
        the number of boxes evaluated (cached or fired).
        """
        count = 0
        for box_id in self.program.topological_order():
            box = self.program.box(box_id)
            if not _all_required_inputs_connected(self.program, box):
                continue
            if box.outputs:
                outputs = self._evaluate(box_id, self._demand_stamp())
                for value in outputs.values():
                    self._force(value)
            else:
                self.inputs_of(box_id)
            count += 1
        return count

    # ------------------------------------------------------------------

    def _evaluate(self, box_id: int, stamp: tuple) -> dict[str, Any]:
        """One demand's memoized outputs of ``box_id`` (see
        :meth:`_evaluate_box`), computing each box signature at most once."""
        outer = self._signatures
        self._signatures = {}
        try:
            return self._evaluate_box(box_id, set(), stamp)
        finally:
            self._signatures = outer

    def _signature_of(self, box_id: int, visiting: set[int]) -> tuple:
        """Structural cache signature: own serial and version + extras +
        input sigs.  The serial tells apart two boxes of one type and
        version, e.g. a replaced box and its replacement, or the old and
        new source of a rewired input.  Within one demand each box's is
        computed once (``_signatures``), so a chain of misses walks each
        box once rather than once per box downstream of it."""
        signatures = self._signatures
        if signatures is not None and box_id in signatures:
            return signatures[box_id]
        box = self.program.box(box_id)
        parts: list[Any] = [box.type_name, box.serial, box.version,
                            box.signature(self.database)]
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                parts.append((port.name, None))
            else:
                parts.append(
                    (port.name, edge.src_port,
                     self._signature_of(edge.src_box, visiting))
                )
        signature = tuple(parts)
        if signatures is not None:
            signatures[box_id] = signature
        return signature

    def _evaluate_box(
        self, box_id: int, visiting: set[int], stamp: tuple
    ) -> dict[str, Any]:
        """Memoized outputs of one box, firing it (and what it needs) on a
        miss.  An entry stamped with the current demand stamp is a hit
        without a signature walk; an older entry is re-checked by signature
        and, when it still matches, re-stamped."""
        if box_id in visiting:  # pragma: no cover - connect() prevents cycles
            raise GraphError(f"cycle detected at box #{box_id}")
        box = self.program.box(box_id)
        tracer = current_tracer()
        cached = previous = self._cache.get(box_id)
        signature = None
        if cached is not None and cached[2] != stamp:
            signature = self._signature_of(box_id, visiting)
            if cached[0] == signature:
                cached = self._cache[box_id] = (signature, cached[1], stamp,
                                                cached[3])
            else:
                cached = None
        if cached is not None:
            self.stats.record_hit(box_id)
            if tracer.enabled:
                tracer.event("engine.cache.hit", box=box_id,
                             type=box.type_name)
            return cached[1]
        if signature is None:
            signature = self._signature_of(box_id, visiting)
        self.stats.record_miss(box_id)
        old = previous[1] if previous is not None else None
        if not tracer.enabled:
            return self._fire_box(box, box_id, signature, visiting, stamp,
                                  old)
        with tracer.span("engine.fire", box=box_id, type=box.type_name):
            return self._fire_box(box, box_id, signature, visiting, stamp,
                                  old)

    def _fire_box(
        self, box: Box, box_id: int, signature: tuple, visiting: set[int],
        stamp: tuple, previous: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Evaluate inputs and fire one box (the cache-miss path).

        Under tracing this whole evaluation — upstream demands included —
        runs inside the box's ``engine.fire`` span, so the span tree mirrors
        the demand-driven firing chain.  ``previous`` holds the outputs of
        the box's last firing, which the new outputs' lazy row sets are
        linked to as predecessors (:func:`_link_predecessors`).
        """
        visiting = visiting | {box_id}
        inputs: dict[str, Any] = {}
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                if port.optional:
                    continue
                raise GraphError(
                    f"cannot fire {box.describe()}: input {port.name!r} is "
                    "not connected"
                )
            upstream = self._evaluate_box(edge.src_box, visiting, stamp)
            inputs[port.name] = upstream[edge.src_port]

        outputs = box.fire(inputs, FireContext(self, box))
        missing = [port.name for port in box.outputs if port.name not in outputs]
        if missing:
            raise GraphError(
                f"{box.describe()} fired without producing outputs: {missing}"
            )
        self.stats.record_fire(box_id)
        if previous is not None:
            for name, value in outputs.items():
                _link_predecessors(value, previous.get(name))
        self._cache[box_id] = (signature, outputs, stamp, set())
        return outputs


def _link_predecessors(new: Any, old: Any) -> None:
    """Link each lazy row set in a box's new output value to the one in
    the same place of its previous value, when that one's rows are all
    known (what :func:`repro.dbms.delta.carry` patches from).  The old set
    drops its own link, so no predecessor keeps another alive."""
    if isinstance(new, LazyRowSet):
        if (isinstance(old, LazyRowSet) and old is not new
                and old.is_complete and not new.has_started):
            old.predecessor = None
            new.predecessor = old
    elif isinstance(new, DisplayableRelation):
        if isinstance(old, DisplayableRelation):
            _link_predecessors(new.rows, old.rows)
    elif isinstance(new, Composite):
        if isinstance(old, Composite) and len(old.entries) == len(new.entries):
            for entry, old_entry in zip(new.entries, old.entries):
                _link_predecessors(entry.relation, old_entry.relation)
    elif isinstance(new, Group):
        if isinstance(old, Group):
            members = dict(old.members)
            for name, member in new.members:
                _link_predecessors(member, members.get(name))


def _all_required_inputs_connected(program: Program, box: Box) -> bool:
    return all(
        port.optional or program.edge_into_port(box.box_id, port.name) is not None
        for port in box.inputs
    )
