"""The boxes-and-arrows program graph.

A :class:`Program` owns boxes and the edges between their ports, enforces
static type checking on connection (Section 2), and implements the legality
rules for program edits (Section 4.1) — notably the restricted Delete Box:

    "A box may be deleted if (1) it has no outputs connected to other boxes
    (in which case no box inputs are left dangling), or (2) it has a single
    input and output of the same type (in which case the system connects the
    deleted box's predecessor to its successor)."

Every structural edit bumps the program's version, which the UI uses for
undo snapshots and the engine for cache bookkeeping.  An input port takes at
most one arrow, so the edges are also indexed by destination port; every
edit goes through :meth:`Program._add_edge`/:meth:`Program._remove_edge`,
which keep the list and the index together.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable, Iterator, NamedTuple

from repro.dataflow.box import Box
from repro.dataflow.ports import PortType, can_connect
from repro.errors import GraphError, TypeCheckError

__all__ = ["Edge", "Program"]

_box_version = attrgetter("version")


class Edge(NamedTuple):
    """A directed arrow from an output port to an input port."""

    src_box: int
    src_port: str
    dst_box: int
    dst_port: str

    def __str__(self) -> str:
        return f"{self.src_box}.{self.src_port} -> {self.dst_box}.{self.dst_port}"


class Program:
    """A mutable dataflow graph of boxes and arrows."""

    def __init__(self, name: str = "untitled"):
        self.name = name
        self._boxes: dict[int, Box] = {}
        self._edges: list[Edge] = []
        self._edge_into: dict[tuple[int, str], Edge] = {}
        self._next_id = 1
        self.version = 0
        #: ``(fingerprint stamp, fingerprint)`` of the last
        #: :func:`repro.dataflow.serialize.program_fingerprint`; None until
        #: first asked for.
        self.fingerprint_memo: tuple[tuple, int] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def boxes(self) -> list[Box]:
        return list(self._boxes.values())

    def box_ids(self) -> list[int]:
        return list(self._boxes)

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def box(self, box_id: int) -> Box:
        try:
            return self._boxes[box_id]
        except KeyError as exc:
            raise GraphError(f"no box #{box_id} in program {self.name!r}") from exc

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, box_id: object) -> bool:
        return box_id in self._boxes

    def boxes_of_type(self, type_name: str) -> list[Box]:
        return [box for box in self._boxes.values() if box.type_name == type_name]

    def edges_into(self, box_id: int) -> list[Edge]:
        return [edge for edge in self._edges if edge.dst_box == box_id]

    def edges_from(self, box_id: int) -> list[Edge]:
        return [edge for edge in self._edges if edge.src_box == box_id]

    def edge_into_port(self, box_id: int, port_name: str) -> Edge | None:
        return self._edge_into.get((box_id, port_name))

    def edit_stamp(self) -> tuple:
        """Changes whenever the program's structure or any parameter does:
        the structural version plus every box's parameter version.

        Adding, removing or replacing a box bumps the structural version,
        so under one version the versions line up box for box and the ids
        need not be repeated.
        """
        return (self.version, tuple(map(_box_version, self._boxes.values())))

    def sinks(self) -> list[Box]:
        """Boxes with no outputs connected onward (typically viewers)."""
        driven = {edge.src_box for edge in self._edges}
        return [
            box
            for box_id, box in self._boxes.items()
            if box_id not in driven or not box.outputs
        ]

    # ------------------------------------------------------------------
    # Structural edits
    # ------------------------------------------------------------------

    def _bump(self) -> None:
        self.version += 1

    def _add_edge(self, edge: Edge) -> None:
        """Append an arrow, unchecked; callers validate and bump.

        ``connect`` admits one arrow per input; a hand-edited graph may
        carry more, and the index then keeps the first, as a scan of the
        edge list in order would.
        """
        self._edges.append(edge)
        self._edge_into.setdefault((edge.dst_box, edge.dst_port), edge)

    def _remove_edge(self, edge: Edge) -> None:
        """Remove an arrow (ValueError if absent); callers bump."""
        self._edges.remove(edge)
        key = (edge.dst_box, edge.dst_port)
        if self._edge_into.get(key) == edge:
            del self._edge_into[key]
            for other in self._edges:
                if (other.dst_box, other.dst_port) == key:
                    self._edge_into[key] = other
                    break

    def add_box(
        self, box: Box, label: str | None = None, box_id: int | None = None
    ) -> int:
        """Add a detached box to the program; returns its id.

        An explicit ``box_id`` (used by deserialization and encapsulation to
        keep ids stable) must not collide with an existing box.
        """
        if box.box_id is not None:
            raise GraphError(
                f"box {box.describe()} already belongs to a program"
            )
        if box_id is None:
            box_id = self._next_id
        elif box_id in self._boxes:
            raise GraphError(f"box id #{box_id} is already in use")
        self._next_id = max(self._next_id, box_id + 1)
        box.box_id = box_id
        if label is not None:
            box.label = label
        self._boxes[box_id] = box
        self._bump()
        return box_id

    def connect(
        self, src_box: int, src_port: str, dst_box: int, dst_port: str
    ) -> Edge:
        """Add a type-checked arrow; an input accepts at most one arrow.

        Port-name and port-kind failures carry a structured
        :class:`repro.analyze.Diagnostic` (``T2-E101``/``T2-E102``) on the
        raised error's ``diagnostic`` attribute, matching what the static
        checker reports for the same edge.
        """
        from repro.analyze.diagnostics import Diagnostic

        src = self.box(src_box)
        dst = self.box(dst_box)
        try:
            out_port = src.output_port(src_port)
        except GraphError as exc:
            exc.diagnostic = Diagnostic(
                "T2-E101", str(exc),
                box_id=src_box, box=src.describe(), port=src_port,
            )
            raise
        try:
            in_port = dst.input_port(dst_port)
        except GraphError as exc:
            exc.diagnostic = Diagnostic(
                "T2-E101", str(exc),
                box_id=dst_box, box=dst.describe(), port=dst_port,
            )
            raise
        if not can_connect(out_port.type, in_port.type, dst.overloadable):
            message = (
                f"type error: cannot connect {src.describe()}.{src_port} "
                f"({out_port.type}) to {dst.describe()}.{dst_port} ({in_port.type})"
            )
            raise TypeCheckError(
                message,
                diagnostic=Diagnostic(
                    "T2-E102", message,
                    box_id=dst_box, box=dst.describe(), port=dst_port,
                    hint="route through a box producing the expected kind",
                ),
            )
        if self.edge_into_port(dst_box, dst_port) is not None:
            raise GraphError(
                f"input {dst.describe()}.{dst_port} is already connected; "
                "disconnect it first (or insert a T on the driving edge)"
            )
        edge = Edge(src_box, src_port, dst_box, dst_port)
        if self._would_cycle(edge):
            raise GraphError(f"edge {edge} would create a cycle")
        self._add_edge(edge)
        self._bump()
        return edge

    def disconnect(self, edge: Edge) -> None:
        try:
            self._remove_edge(edge)
        except ValueError as exc:
            raise GraphError(f"no such edge {edge}") from exc
        self._bump()

    def _would_cycle(self, new_edge: Edge) -> bool:
        # DFS from the new edge's destination looking for its source.
        target = new_edge.src_box
        stack = [new_edge.dst_box]
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if current == target:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edge.dst_box for edge in self.edges_from(current))
        return False

    def can_delete_box(self, box_id: int) -> tuple[bool, str]:
        """Check the Section-4.1 deletion rules; returns (legal, reason)."""
        box = self.box(box_id)
        outgoing = self.edges_from(box_id)
        if not outgoing:
            return True, "no outputs connected; nothing is left dangling"
        if len(box.inputs) == 1 and len(box.outputs) == 1:
            if box.inputs[0].type == box.outputs[0].type:
                return True, "single input/output of the same type; will splice"
            return False, (
                f"single input ({box.inputs[0].type}) and output "
                f"({box.outputs[0].type}) have different types"
            )
        return False, (
            "box has connected outputs and is not a 1-in/1-out pass-through; "
            "deleting it would leave successor inputs dangling"
        )

    def delete_box(self, box_id: int) -> None:
        """Delete a box under the Section-4.1 rules (splicing when legal)."""
        legal, reason = self.can_delete_box(box_id)
        box = self.box(box_id)
        if not legal:
            raise GraphError(f"cannot delete {box.describe()}: {reason}")
        outgoing = self.edges_from(box_id)
        incoming = self.edges_into(box_id)
        if outgoing:
            # 1-in/1-out same-type box: splice predecessor to successors.
            if incoming:
                pred = incoming[0]
                for succ in outgoing:
                    self._remove_edge(succ)
                    self._add_edge(
                        Edge(pred.src_box, pred.src_port, succ.dst_box, succ.dst_port)
                    )
            else:
                # No predecessor: successors become dangling-free by removal
                # of the edges themselves (their inputs are simply unset).
                for succ in outgoing:
                    self._remove_edge(succ)
        for edge in self.edges_into(box_id):
            self._remove_edge(edge)
        del self._boxes[box_id]
        box.box_id = None
        self._bump()

    def replace_box(self, box_id: int, replacement: Box) -> int:
        """Replace a box by another with compatible ports (Fig 2).

        The replacement must offer at least the connected input ports and
        connected output ports with identical names and types, so every
        existing arrow remains type-correct.
        """
        old = self.box(box_id)
        for edge in self.edges_into(box_id):
            new_in = replacement.input_port(edge.dst_port)  # raises if missing
            old_in = old.input_port(edge.dst_port)
            if new_in.type != old_in.type:
                raise TypeCheckError(
                    f"replacement input {edge.dst_port!r} has type {new_in.type}, "
                    f"existing edge expects {old_in.type}"
                )
        for edge in self.edges_from(box_id):
            new_out = replacement.output_port(edge.src_port)
            old_out = old.output_port(edge.src_port)
            if new_out.type != old_out.type:
                raise TypeCheckError(
                    f"replacement output {edge.src_port!r} has type {new_out.type}, "
                    f"existing edge expects {old_out.type}"
                )
        replacement.box_id = box_id
        if replacement.label is None:
            replacement.label = old.label
        self._boxes[box_id] = replacement
        old.box_id = None
        self._bump()
        return box_id

    def insert_on_edge(self, edge: Edge, box: Box, in_port: str, out_port: str) -> int:
        """Splice a box into an existing edge (used by T insertion)."""
        if edge not in self._edges:
            raise GraphError(f"no such edge {edge}")
        box_id = self.add_box(box)
        try:
            self.disconnect(edge)
            self.connect(edge.src_box, edge.src_port, box_id, in_port)
            self.connect(box_id, out_port, edge.dst_box, edge.dst_port)
        except (GraphError, TypeCheckError):
            # Roll back to a consistent state before propagating.
            for stale in list(self._edges):
                if stale.src_box == box_id or stale.dst_box == box_id:
                    self._remove_edge(stale)
            del self._boxes[box_id]
            box.box_id = None
            if edge not in self._edges:
                self._add_edge(edge)
            self._bump()
            raise
        return box_id

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------

    def upstream_of(self, box_id: int) -> set[int]:
        """All boxes reachable backwards from ``box_id`` (exclusive)."""
        result: set[int] = set()
        stack = [edge.src_box for edge in self.edges_into(box_id)]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(edge.src_box for edge in self.edges_into(current))
        return result

    def downstream_of(self, box_id: int) -> set[int]:
        """All boxes reachable forwards from ``box_id`` (exclusive)."""
        result: set[int] = set()
        stack = [edge.dst_box for edge in self.edges_from(box_id)]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(edge.dst_box for edge in self.edges_from(current))
        return result

    def topological_order(self) -> list[int]:
        """Box ids in dependency order (sources first)."""
        indegree = {box_id: 0 for box_id in self._boxes}
        for edge in self._edges:
            indegree[edge.dst_box] += 1
        ready = sorted(box_id for box_id, deg in indegree.items() if deg == 0)
        order: list[int] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for edge in self.edges_from(current):
                indegree[edge.dst_box] -= 1
                if indegree[edge.dst_box] == 0:
                    ready.append(edge.dst_box)
        if len(order) != len(self._boxes):  # pragma: no cover - connect() prevents
            raise GraphError("program graph contains a cycle")
        return order

    def merge(self, other: "Program") -> dict[int, int]:
        """Add Program (Fig 2): copy another program's boxes and edges into
        this one; returns the old-id → new-id mapping."""
        mapping: dict[int, int] = {}
        for box_id, box in other._boxes.items():
            clone = type(box)(**_constructor_kwargs(box))
            clone.label = box.label
            mapping[box_id] = self.add_box(clone)
        for edge in other._edges:
            self.connect(
                mapping[edge.src_box], edge.src_port,
                mapping[edge.dst_box], edge.dst_port,
            )
        return mapping

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self._boxes)} boxes, "
            f"{len(self._edges)} edges)"
        )


def _constructor_kwargs(box: Box) -> dict[str, Any]:
    """Reconstruct constructor kwargs from a box's params (for merge/copy).

    Box subclasses take their parameters via ``params``-backed keyword
    arguments; re-instantiating from ``params`` is the supported copy path
    (the same path serialization uses).
    """
    return dict(box.params)
