"""Encapsulation: user-defined boxes with optional holes (Section 4.1).

"**Encapsulate** permits the user to define new boxes.  The user specifies a
portion of the program to be encapsulated by drawing a closed curve around a
region of the program.  Edges cut by the curve are the inputs and outputs of
the new box. ... The user draws additional closed areas within the program
region to be encapsulated.  These areas become 'holes' — they are not
included in the encapsulated box, and edges cut by a hole are unconnected.
To use an encapsulated box with holes, the user must specify a box — with
compatible types — that can be plugged into each hole."

Holes make encapsulated boxes higher-order: graphical macros/procedures
(§1.2 principle 5).  The closed curve is represented by the set of box ids it
encloses.
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.box import Box
from repro.dataflow.graph import Edge, Program
from repro.dataflow.ports import Port, PortType
from repro.dataflow.registry import instantiate, register_box_class
from repro.dataflow.serialize import program_from_dict, program_to_dict
from repro.errors import GraphError, TypeCheckError

__all__ = ["ConstBox", "HoleBox", "EncapsulatedBox", "encapsulate", "collapse"]


class ConstBox(Box):
    """Internal source box carrying a runtime value into a nested program.

    Used only while firing an encapsulated box; never part of a saved
    program (its value is not serializable by design).
    """

    type_name = "_Const"

    def __init__(self, kind: str = "R"):
        super().__init__({"kind": kind})
        self.outputs = [Port("out", PortType.parse(kind))]
        self._value: Any = None
        self._has_value = False

    def set_value(self, value: Any) -> None:
        self._value = value
        self._has_value = True
        self.version += 1

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        if not self._has_value:
            raise GraphError("internal constant box fired without a value")
        return {"out": self._value}


class HoleBox(Box):
    """A placeholder with a declared interface; firing one is an error.

    ``input_ports`` / ``output_ports`` are lists of ``[name, type_text]``
    pairs mirroring the interface of whatever box will be plugged in.
    """

    type_name = "Hole"

    def __init__(
        self,
        hole_name: str | None = None,
        input_ports: list[list[str]] | None = None,
        output_ports: list[list[str]] | None = None,
    ):
        super().__init__(
            {
                "hole_name": hole_name,
                "input_ports": input_ports or [],
                "output_ports": output_ports or [],
            }
        )
        self.inputs = [Port(name, PortType.parse(t)) for name, t in (input_ports or [])]
        self.outputs = [
            Port(name, PortType.parse(t)) for name, t in (output_ports or [])
        ]

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        raise GraphError(
            f"hole {self.param('hole_name')!r} has not been plugged; "
            "plug a compatible box before using this encapsulated box"
        )


register_box_class(ConstBox)
register_box_class(HoleBox)


class EncapsulatedBox(Box):
    """A user-defined box wrapping an inner boxes-and-arrows program.

    Fires by instantiating the inner program, feeding the boundary inputs
    through constant boxes, and demanding the boundary outputs with a nested
    lazy engine.  Serializable: the inner program rides along as a dict.
    """

    type_name = "Encapsulated"

    def __init__(
        self,
        name: str | None = None,
        program: dict[str, Any] | None = None,
        boundary_inputs: list[list[Any]] | None = None,
        boundary_outputs: list[list[Any]] | None = None,
    ):
        super().__init__(
            {
                "name": name,
                "program": program,
                "boundary_inputs": boundary_inputs or [],
                "boundary_outputs": boundary_outputs or [],
            }
        )
        self.inputs = [
            Port(f"in{i + 1}", PortType.parse(type_text))
            for i, (__, __port, type_text) in enumerate(boundary_inputs or [])
        ]
        self.outputs = [
            Port(f"out{i + 1}", PortType.parse(type_text))
            for i, (__, __port, type_text) in enumerate(boundary_outputs or [])
        ]

    # ------------------------------------------------------------------

    def hole_names(self) -> list[str]:
        """Names of unplugged holes in the inner program."""
        inner = program_from_dict(self.require_param("program"))
        return [
            box.param("hole_name")
            for box in inner.boxes()
            if isinstance(box, HoleBox)
        ]

    def plug(self, hole_name: str, replacement: Box) -> "EncapsulatedBox":
        """A new encapsulated box with one hole replaced by ``replacement``.

        The replacement's ports must be compatible with the hole's connected
        edges (checked by :meth:`Program.replace_box`).
        """
        inner = program_from_dict(self.require_param("program"))
        hole_id = None
        for box in inner.boxes():
            if isinstance(box, HoleBox) and box.param("hole_name") == hole_name:
                hole_id = box.box_id
                break
        if hole_id is None:
            raise GraphError(
                f"encapsulated box {self.param('name')!r} has no hole "
                f"{hole_name!r}; holes: {self.hole_names()}"
            )
        inner.replace_box(hole_id, replacement)
        return EncapsulatedBox(
            name=self.param("name"),
            program=program_to_dict(inner),
            boundary_inputs=self.param("boundary_inputs"),
            boundary_outputs=self.param("boundary_outputs"),
        )

    def signature(self, database: Any) -> tuple:
        """The inner boxes' signatures: a change to a table the inner
        program reads (through a nested encapsulated box too) reaches
        this box's memo entry."""
        inner = program_from_dict(self.require_param("program"))
        return tuple(
            (box.box_id, box.signature(database)) for box in inner.boxes()
        )

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        from repro.dataflow.engine import Engine

        runtime = program_from_dict(self.require_param("program"))
        unplugged = [
            box.param("hole_name")
            for box in runtime.boxes()
            if isinstance(box, HoleBox)
        ]
        if unplugged:
            raise GraphError(
                f"encapsulated box {self.param('name')!r} has unplugged holes: "
                f"{', '.join(map(str, unplugged))}"
            )
        for i, (box_id, port_name, type_text) in enumerate(
            self.require_param("boundary_inputs")
        ):
            const = ConstBox(type_text)
            const_id = runtime.add_box(const)
            const.set_value(inputs[f"in{i + 1}"])
            runtime.connect(const_id, "out", box_id, port_name)
        engine = Engine(runtime, context.database)
        outputs: dict[str, Any] = {}
        for i, (box_id, port_name, __) in enumerate(
            self.require_param("boundary_outputs")
        ):
            outputs[f"out{i + 1}"] = engine.output_of(box_id, port_name)
        return outputs


register_box_class(EncapsulatedBox)


def _region_subprogram(
    program: Program, region: set[int], holes: list[set[int]]
) -> tuple[Program, list[list[Any]], list[list[Any]]]:
    """Build the inner program plus boundary input/output descriptors."""
    hole_ids = {box_id for hole in holes for box_id in hole}
    body = region - hole_ids
    if not body:
        raise GraphError("encapsulation region contains no boxes outside holes")
    for box_id in region:
        program.box(box_id)  # validate existence

    inner = Program("encapsulated")
    for box_id in sorted(body):
        original = program.box(box_id)
        clone = instantiate(original.type_name, original.params)
        inner.add_box(clone, label=original.label, box_id=box_id)

    boundary_inputs: list[list[Any]] = []
    boundary_outputs: list[list[Any]] = []
    seen_outputs: set[tuple[int, str]] = set()

    # Hole boxes: one per closed hole area, with ports for each cut edge.
    # Ports take the names of the carved-out boxes' own ports (deduped), so
    # a box with the same interface plugs in directly.  Edges that cross both
    # the hole and the outer curve (outside ↔ hole) become boundary ports of
    # the encapsulated box, wired to the hole.
    for pos, hole in enumerate(holes):
        hole_name = f"hole{pos + 1}"
        input_ports: list[list[str]] = []
        output_ports: list[list[str]] = []
        # (edge, port name, into_hole, crosses_outer_curve)
        rewires: list[tuple[Edge, str, bool, bool]] = []

        def unique(name: str, taken: list[list[str]]) -> str:
            existing = {entry[0] for entry in taken}
            if name not in existing:
                return name
            suffix = 2
            while f"{name}_{suffix}" in existing:
                suffix += 1
            return f"{name}_{suffix}"

        for edge in program.edges():
            src_in = edge.src_box in hole
            dst_in = edge.dst_box in hole
            if src_in and dst_in:
                continue
            if dst_in:
                port_type = program.box(edge.dst_box).input_port(edge.dst_port).type
                name = unique(edge.dst_port, input_ports)
                input_ports.append([name, str(port_type)])
                rewires.append((edge, name, True, edge.src_box not in body))
            elif src_in:
                port_type = program.box(edge.src_box).output_port(edge.src_port).type
                name = unique(edge.src_port, output_ports)
                output_ports.append([name, str(port_type)])
                rewires.append((edge, name, False, edge.dst_box not in body))
        hole_box = HoleBox(hole_name, input_ports, output_ports)
        hole_box_id = inner.add_box(hole_box)
        for edge, port_name, into_hole, crosses in rewires:
            if into_hole:
                if crosses:
                    port_type = program.box(edge.dst_box).input_port(edge.dst_port).type
                    boundary_inputs.append([hole_box_id, port_name, str(port_type)])
                else:
                    inner.connect(edge.src_box, edge.src_port, hole_box_id, port_name)
            else:
                if crosses:
                    port_type = program.box(edge.src_box).output_port(edge.src_port).type
                    boundary_outputs.append([hole_box_id, port_name, str(port_type)])
                    seen_outputs.add((hole_box_id, port_name))
                else:
                    inner.connect(hole_box_id, port_name, edge.dst_box, edge.dst_port)

    for edge in program.edges():
        src_in = edge.src_box in body
        dst_in = edge.dst_box in body
        if src_in and dst_in:
            inner.connect(edge.src_box, edge.src_port, edge.dst_box, edge.dst_port)
        elif dst_in and edge.src_box not in hole_ids:
            port_type = program.box(edge.dst_box).input_port(edge.dst_port).type
            boundary_inputs.append([edge.dst_box, edge.dst_port, str(port_type)])
        elif src_in and edge.dst_box not in hole_ids:
            key = (edge.src_box, edge.src_port)
            if key not in seen_outputs:
                seen_outputs.add(key)
                port_type = program.box(edge.src_box).output_port(edge.src_port).type
                boundary_outputs.append([edge.src_box, edge.src_port, str(port_type)])

    # Outputs of region boxes that are connected to nothing at all also
    # become boundary outputs: the paper's "everything is always
    # visualizable" applies to the new box's results just as it did to the
    # dangling edge before encapsulation.
    connected_outputs = {
        (edge.src_box, edge.src_port) for edge in program.edges()
    }
    for box_id in sorted(body):
        for port in program.box(box_id).outputs:
            key = (box_id, port.name)
            if key not in connected_outputs and key not in seen_outputs:
                seen_outputs.add(key)
                boundary_outputs.append([box_id, port.name, str(port.type)])
    return inner, boundary_inputs, boundary_outputs


def encapsulate(
    program: Program,
    region: set[int] | list[int],
    name: str,
    holes: list[set[int] | list[int]] | None = None,
) -> EncapsulatedBox:
    """Build a new box from the program region enclosed by the user's curve.

    ``region`` is the set of box ids inside the closed curve; each entry of
    ``holes`` is the set of box ids inside one inner closed area.  The new
    box can be registered in the catalog and "used like any other primitive
    box."
    """
    region_set = set(region)
    hole_sets = [set(h) for h in (holes or [])]
    for hole in hole_sets:
        if not hole <= region_set:
            raise GraphError("holes must lie inside the encapsulation region")
    inner, boundary_inputs, boundary_outputs = _region_subprogram(
        program, region_set, hole_sets
    )
    inner.name = name
    return EncapsulatedBox(
        name=name,
        program=program_to_dict(inner),
        boundary_inputs=boundary_inputs,
        boundary_outputs=boundary_outputs,
    )


def collapse(
    program: Program, region: set[int] | list[int], name: str
) -> tuple[int, EncapsulatedBox]:
    """Encapsulate a region *and* replace it in the program by the new box.

    Cut edges are reconnected to the new box's boundary ports.  Returns the
    new box's id and the box itself.
    """
    region_set = set(region)
    box = encapsulate(program, region_set, name)
    incoming = [
        edge
        for edge in program.edges()
        if edge.dst_box in region_set and edge.src_box not in region_set
    ]
    outgoing = [
        edge
        for edge in program.edges()
        if edge.src_box in region_set and edge.dst_box not in region_set
    ]
    for edge in incoming + outgoing:
        program.disconnect(edge)
    for edge in [e for e in program.edges() if e.src_box in region_set]:
        program.disconnect(edge)
    for box_id in region_set:
        inner_box = program.box(box_id)
        for edge in program.edges_into(box_id) + program.edges_from(box_id):
            program.disconnect(edge)
        del program._boxes[box_id]
        inner_box.box_id = None
    new_id = program.add_box(box, label=name)
    for i, (dst_box, dst_port, __) in enumerate(box.param("boundary_inputs")):
        for edge in incoming:
            if edge.dst_box == dst_box and edge.dst_port == dst_port:
                program.connect(edge.src_box, edge.src_port, new_id, f"in{i + 1}")
    for i, (src_box, src_port, __) in enumerate(box.param("boundary_outputs")):
        for edge in outgoing:
            if edge.src_box == src_box and edge.src_port == src_port:
                program.connect(new_id, f"out{i + 1}", edge.dst_box, edge.dst_port)
    program.version += 1
    return new_id, box
