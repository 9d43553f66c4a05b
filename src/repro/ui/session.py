"""The Tioga-2 user interface session (Section 3), headless.

"The Tioga-2 user interface contains several main windows ... a program
window, containing a boxes-and-arrows representation of a Tioga-2 program, a
canvas window for each viewer in the current program, [and] a menu bar."
"There is a single user interface both for building and for using programs."

:class:`Session` is that interface as an object model: the program window is
the :class:`~repro.dataflow.graph.Program`, each canvas window is a
:class:`CanvasWindow` (viewer + rear view mirror + sliders + elevation map +
magnifying glasses), and the menu bar is :class:`~repro.ui.menus.MenuBar`.
Direct-manipulation gestures are methods carrying the parameters the gesture
would supply.  Every program-editing operation snapshots the program first,
so the undo button works; "at any stage in the construction of a program the
current result is displayed on all non-iconified canvases" — here, rendering
any window always reflects the current program and database (the lazy engine
recomputes exactly the changed suffix).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.dataflow.box import Box
from repro.dataflow.encapsulate import EncapsulatedBox, encapsulate
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Edge, Program
from repro.dataflow.program_ops import (
    apply_box,
    apply_box_candidates,
    insert_t,
    register_encapsulated,
)
from repro.dataflow.registry import instantiate
from repro.dataflow.serialize import program_from_dict, program_to_dict
from repro.dbms.catalog import Database
from repro.dbms.update import ScriptedDialog, UpdateDialog, UpdateResult, generic_update
from repro.display.displayable import (
    Composite,
    Displayable,
    DisplayableRelation,
    Group,
)
from repro.display.elevation import ElevationMap
from repro.errors import UIError, UpdateError, ViewerError
from repro.protocol.dispatch import CommandExecutor
from repro.protocol.messages import (
    AddViewer,
    Command,
    FrameReply,
    OpenProgram,
    Pan,
    PanTo,
    Pick,
    Render,
    Response,
    SetElevation,
    SetSlider,
    Why,
    Zoom,
)
from repro.render.canvas import Canvas
from repro.render.scene import RenderedItem
from repro.ui.menus import MenuBar
from repro.ui.undo import UndoStack
from repro.viewer.magnifier import MagnifyingGlass
from repro.viewer.rearview import RearViewMirror
from repro.viewer.slaving import SlavingManager
from repro.viewer.viewer import Viewer, ViewerBox
from repro.viewer.wormhole import CanvasRegistry, WormholeNavigator

__all__ = ["CanvasWindow", "Session"]


class CanvasWindow:
    """One canvas window: a viewer plus its mirror, magnifiers, and state.

    "each canvas window includes a rear view mirror, zero or more slider
    bars, an elevation map, and an elevation control." (§3)
    """

    def __init__(self, name: str, viewer_box_id: int, viewer: Viewer,
                 mirror: RearViewMirror):
        self.name = name
        self.viewer_box_id = viewer_box_id
        self.viewer = viewer
        self.mirror = mirror
        self.magnifiers: list[MagnifyingGlass] = []
        self.iconified = False
        self._elevation_map_member = 0

    # -- window operations -------------------------------------------------

    def iconify(self) -> None:
        self.iconified = True

    def deiconify(self) -> None:
        self.iconified = False

    # -- rendering ----------------------------------------------------------

    def render(self, cull: bool = True,
               displayable: Displayable | None = None) -> Canvas:
        """Render the viewer and composite any live magnifying glasses;
        ``displayable`` is the viewer's input when the caller already
        demanded it (see :meth:`Viewer.render`)."""
        result = self.viewer.render(cull=cull, displayable=displayable)
        canvas = result.canvas
        for glass in self.magnifiers:
            if not glass.deleted:
                glass.render_onto(canvas, cull=cull)
        return canvas

    def render_window(self, cull: bool = True) -> Canvas:
        """Render the full window with its furniture: canvas, elevation map,
        and slider bars (§3)."""
        from repro.render.widgets import render_window_frame

        return render_window_frame(self, cull=cull)

    # -- canvas furniture -----------------------------------------------------

    def add_magnifier(
        self,
        rect: tuple[float, float, float, float],
        magnification: float = 4.0,
        member: str | None = None,
        source: Callable[[], Composite | DisplayableRelation] | None = None,
        slaved: bool = True,
    ) -> MagnifyingGlass:
        """Place a viewer inside this viewer (§7.2)."""
        glass = MagnifyingGlass(
            self.viewer, rect, magnification, member, source, slaved
        )
        self.magnifiers.append(glass)
        return glass

    def remove_magnifier(self, glass: MagnifyingGlass) -> None:
        glass.delete()
        self.magnifiers = [g for g in self.magnifiers if g is not glass]

    def elevation_map(self, member: str | None = None) -> ElevationMap:
        """The current elevation map (§6.1).

        "a viewer shows an elevation map for only one member of the group at
        a time" — with no explicit member, a group shows the map the user
        has cycled to.
        """
        if member is None and self.viewer.is_group():
            names = self.viewer.member_names()
            member = names[self._elevation_map_member % len(names)]
        return self.viewer.elevation_map(member)

    def cycle_elevation_map(self) -> str:
        """Advance to the next group member's elevation map; returns its
        member name ("the user can explicitly cycle", §6.1)."""
        names = self.viewer.member_names()
        self._elevation_map_member = (self._elevation_map_member + 1) % len(names)
        return names[self._elevation_map_member]

    def __repr__(self) -> str:
        state = " (iconified)" if self.iconified else ""
        return f"CanvasWindow({self.name!r}{state})"


class Session:
    """One user's Tioga-2 session: program + canvases + menus + undo."""

    def __init__(self, database: Database, program_name: str = "untitled"):
        self.database = database
        self.program = Program(program_name)
        self.engine = Engine(self.program, database)
        self.menu = MenuBar(database)
        self.undo_stack = UndoStack()
        self.registry = CanvasRegistry()
        self.navigator = WormholeNavigator(self.registry)
        self.slaving = SlavingManager()
        self.windows: dict[str, CanvasWindow] = {}
        #: The protocol dispatcher every demand below routes through — the
        #: same executor the network server drives, so local and remote
        #: interaction are one code path.
        self.protocol = CommandExecutor(self)

    # ------------------------------------------------------------------
    # Undo plumbing
    # ------------------------------------------------------------------

    def _record(self, description: str) -> None:
        self.undo_stack.push(description, program_to_dict(self.program))

    def undo(self) -> str:
        """The undo button: revert the last program-editing operation."""
        description, snapshot = self.undo_stack.pop()
        self.program = program_from_dict(snapshot)
        self.engine = Engine(self.program, self.database)
        self._sync_windows()
        return description

    # ------------------------------------------------------------------
    # Program-window operations (Fig 2)
    # ------------------------------------------------------------------

    def new_program(self, name: str = "untitled") -> None:
        """New Program: erase the program canvas (closes canvas windows)."""
        self._record("New Program")
        self.program = Program(name)
        self.engine = Engine(self.program, self.database)
        self._sync_windows()

    def save_program(self) -> None:
        self.database.save_program(self.program.name, program_to_dict(self.program))

    def add_program(self, name: str) -> dict[int, int]:
        """Add a named saved program to the current canvas."""
        self._record(f"Add Program {name!r}")
        saved = program_from_dict(self.database.load_program(name))
        mapping = self.program.merge(saved)
        self._sync_windows()
        return mapping

    def load_program(self, name: str) -> None:
        """Load Program = New Program + Add Program (Fig 2)."""
        self.protocol.run(OpenProgram(name=name))

    def _load_program_impl(self, name: str) -> None:
        self._record(f"Load Program {name!r}")
        self.program = program_from_dict(self.database.load_program(name))
        self.program.name = name
        self.engine = Engine(self.program, self.database)
        self._sync_windows()

    def add_box(
        self, type_name: str, params: dict[str, Any] | None = None,
        label: str | None = None,
    ) -> int:
        """Add a primitive or catalog box to the program."""
        self._record(f"Add {type_name} box")
        if self.database.has_box(type_name):
            spec = self.database.box(type_name)
            if not isinstance(spec, EncapsulatedBox):
                raise UIError(f"catalog entry {type_name!r} is not a usable box")
            box: Box = EncapsulatedBox(**spec.params)
        else:
            box = instantiate(type_name, params)
        return self.program.add_box(box, label=label)

    def add_table(self, table_name: str, label: str | None = None) -> int:
        """Add Table: the source box named for a table (§4.2)."""
        self.database.table(table_name)  # validate now, not at first render
        return self.add_box("AddTable", {"table": table_name}, label or table_name)

    def connect(self, src_box: int, src_port: str, dst_box: int, dst_port: str) -> Edge:
        self._record("Connect boxes")
        return self.program.connect(src_box, src_port, dst_box, dst_port)

    def apply_box_candidates(self, edges: list[Edge]) -> list[str]:
        """Apply Box, step 1: the menu of compatible boxes for the selection."""
        return apply_box_candidates(self.program, edges, self.database)

    def apply_box(
        self, edges: list[Edge], type_name: str, params: dict[str, Any] | None = None
    ) -> int:
        """Apply Box, step 2: instantiate the chosen box on the selection."""
        self._record(f"Apply Box {type_name}")
        return apply_box(self.program, edges, type_name, params, self.database)

    def delete_box(self, box_id: int) -> None:
        """Delete Box under the Section-4.1 legality rules."""
        self._record("Delete box")
        try:
            self.program.delete_box(box_id)
        except Exception:
            self.undo_stack.pop()
            raise
        self._sync_windows()

    def replace_box(
        self, box_id: int, type_name: str, params: dict[str, Any] | None = None
    ) -> int:
        """Replace Box: a different box with compatible types (Fig 2)."""
        self._record(f"Replace box with {type_name}")
        return self.program.replace_box(box_id, instantiate(type_name, params))

    def insert_t(self, edge: Edge) -> int:
        """T: add a T-node to a designated edge (Fig 2)."""
        self._record("Insert T")
        return insert_t(self.program, edge)

    def set_param(self, box_id: int, name: str, value: Any) -> None:
        """Edit a box parameter (e.g. refine a Restrict predicate)."""
        self._record(f"Set parameter {name}")
        self.program.box(box_id).set_param(name, value)

    def encapsulate(
        self,
        region: list[int] | set[int],
        name: str,
        holes: list[list[int] | set[int]] | None = None,
        register: bool = True,
    ) -> EncapsulatedBox:
        """Encapsulate the region enclosed by the user's closed curve (§4.1)."""
        box = encapsulate(self.program, region, name, holes)
        if register:
            register_encapsulated(self.database, box)
        return box

    # ------------------------------------------------------------------
    # Inspection ("place a viewer on any edge", §10)
    # ------------------------------------------------------------------

    def inspect(self, box_id: int, port: str | None = None) -> Any:
        """The value flowing on an output edge, demanded lazily."""
        return self.engine.output_of(box_id, port)

    def viewer_on_edge(
        self,
        edge: Edge,
        name: str | None = None,
        width: int = 480,
        height: int = 360,
    ) -> CanvasWindow:
        """Install a viewer on an existing arc (§10's debugging story).

        Inserts a T on the edge — so the original dataflow continues — and
        opens a canvas window on the T's free output: "It is easy to
        instrument a program to understand how it is working and to see
        visually where it fails."
        """
        t_id = self.insert_t(edge)
        return self.add_viewer(t_id, "out2", name=name, width=width,
                               height=height)

    def program_window(self) -> Canvas:
        """Render the boxes-and-arrows diagram (the program window, §3)."""
        from repro.render.program_view import render_program

        return render_program(self.program)

    def program_text(self) -> str:
        """A textual listing of the program window for terminals."""
        from repro.render.program_view import program_listing

        return program_listing(self.program)

    def optimize(self, apply: bool = True) -> list[str]:
        """Run the browsing-query optimizer (Restrict merge/pushdown).

        Returns the rewrite log; with ``apply`` the session adopts the
        rewritten program (an undoable operation).  Viewer boxes and canvas
        windows survive — only relational plumbing moves.
        """
        from repro.dataflow.optimize import optimize

        optimized, log = optimize(self.program, self.database)
        if apply and log:
            self._record("Optimize program")
            self.program = optimized
            self.engine = Engine(self.program, self.database)
            self._sync_windows()
        return log

    # ------------------------------------------------------------------
    # Canvas windows
    # ------------------------------------------------------------------

    def add_viewer(
        self,
        src_box: int,
        src_port: str | None = None,
        name: str | None = None,
        width: int = 640,
        height: int = 480,
        world_per_elevation: float = 1.0,
    ) -> CanvasWindow:
        """Connect a viewer box to an output and open its canvas window."""
        return self.protocol.run(AddViewer(
            src_box=src_box,
            src_port=src_port,
            name=name,
            width=width,
            height=height,
            world_per_elevation=world_per_elevation,
        ))

    def _add_viewer_impl(
        self,
        src_box: int,
        src_port: str | None = None,
        name: str | None = None,
        width: int = 640,
        height: int = 480,
        world_per_elevation: float = 1.0,
    ) -> CanvasWindow:
        source_box = self.program.box(src_box)
        if src_port is None:
            if len(source_box.outputs) != 1:
                raise UIError(
                    f"{source_box.describe()} has several outputs; name one"
                )
            src_port = source_box.outputs[0].name
        if name is None:
            name = f"canvas{len(self.windows) + 1}"
        if name in self.windows:
            raise UIError(f"a canvas named {name!r} already exists")
        self._record(f"Add viewer {name!r}")
        viewer_box = ViewerBox(
            name=name, width=width, height=height,
            world_per_elevation=world_per_elevation,
        )
        box_id = self.program.add_box(viewer_box, label=name)
        self.program.connect(src_box, src_port, box_id, "in")
        window = self._open_window(box_id)
        if self.navigator.current_canvas is None:
            self.navigator.set_current(name)
        return window

    def _open_window(self, viewer_box_id: int) -> CanvasWindow:
        box = self.program.box(viewer_box_id)
        name = box.param("name")
        viewer = Viewer(
            name,
            self._source_for(viewer_box_id),
            width=box.param("width", 640),
            height=box.param("height", 480),
            world_per_elevation=box.param("world_per_elevation", 1.0),
        )
        self.registry.register(viewer)
        mirror = RearViewMirror(self.navigator)
        window = CanvasWindow(name, viewer_box_id, viewer, mirror)
        self.windows[name] = window
        return window

    def _source_for(self, viewer_box_id: int) -> Callable[[], Any]:
        def source() -> Any:
            return self.engine.inputs_of(viewer_box_id)["in"]

        return source

    def window(self, name: str) -> CanvasWindow:
        try:
            return self.windows[name]
        except KeyError as exc:
            known = ", ".join(sorted(self.windows)) or "(none)"
            raise UIError(f"no canvas window {name!r}; windows: {known}") from exc

    def clone_viewer(self, name: str, new_name: str | None = None) -> CanvasWindow:
        """Clone a viewer: a second canvas onto the same program edge.

        Cloning was specified for the original Tioga (§1.1) and is the
        natural way to compare two positions over the same data; the clone
        starts at the original's position and moves independently (slave it
        via ``session.slaving`` to keep them locked together).
        """
        original = self.window(name)
        edge = self.program.edge_into_port(original.viewer_box_id, "in")
        if edge is None:
            raise UIError(f"viewer {name!r} has no input to clone from")
        if new_name is None:
            suffix = 2
            while f"{name}_{suffix}" in self.windows:
                suffix += 1
            new_name = f"{name}_{suffix}"
        clone = self.add_viewer(
            edge.src_box,
            edge.src_port,
            name=new_name,
            width=original.viewer.width,
            height=original.viewer.height,
            world_per_elevation=original.viewer.world_per_elevation,
        )
        # Start at the original's position(s).
        original.viewer._sync_views()
        for member, view in original.viewer.views.items():
            clone.viewer.views[member] = view.copy()
        return clone

    def delete_viewer(self, name: str) -> None:
        """Delete a viewer: closes the window and drops its slaving links."""
        window = self.window(name)
        self._record(f"Delete viewer {name!r}")
        self.slaving.remove_viewer(window.viewer)
        self.registry.unregister(name)
        del self.windows[name]
        if window.viewer_box_id in self.program:
            self.program.delete_box(window.viewer_box_id)
        if self.navigator.current_canvas == name:
            remaining = sorted(self.windows)
            self.navigator.current_canvas = remaining[0] if remaining else None

    def _sync_windows(self) -> None:
        """Reconcile canvas windows with the viewer boxes in the program.

        Called after program replacement (undo, load, new): windows whose
        boxes vanished are closed; viewer boxes without windows get fresh
        ones; surviving windows keep their view states.
        """
        live: dict[str, int] = {}
        for box in self.program.boxes_of_type("Viewer"):
            live[box.param("name")] = box.box_id
        for name in [n for n in self.windows if n not in live]:
            window = self.windows.pop(name)
            self.slaving.remove_viewer(window.viewer)
            if name in self.registry:
                self.registry.unregister(name)
            if self.navigator.current_canvas == name:
                self.navigator.current_canvas = None
        for name, box_id in live.items():
            if name in self.windows:
                self.windows[name].viewer_box_id = box_id
                self.windows[name].viewer.source = self._source_for(box_id)
            else:
                self._open_window(box_id)
        if self.navigator.current_canvas is None and self.windows:
            self.navigator.set_current(sorted(self.windows)[0])

    # ------------------------------------------------------------------
    # Updates from the screen (Section 8)
    # ------------------------------------------------------------------

    def pick(self, canvas_name: str, px: float, py: float) -> RenderedItem | None:
        """Click on a canvas: the topmost screen object under the point."""
        return self.protocol.run(Pick(window=canvas_name, px=px, py=py))

    # ------------------------------------------------------------------
    # Demand wrappers (the protocol command layer)
    #
    # Each gesture below builds the same Command dataclass a remote client
    # would send and runs it through self.protocol — Session is just the
    # in-process transport.  All return the rich result (view-state dict,
    # FrameReply, lineage doc); errors raise the original TiogaError.
    # ------------------------------------------------------------------

    def execute(self, command: "Command") -> "Response":
        """Execute any protocol command, returning a wire-safe Response
        (failures become :class:`~repro.protocol.ErrorReply`, not raises)."""
        return self.protocol.execute(command)

    def pan(self, window: str, dx: float, dy: float,
            member: str | None = None) -> dict[str, Any]:
        """Pan a canvas window by world-unit deltas; returns the view state."""
        return self.protocol.run(Pan(window=window, dx=dx, dy=dy, member=member))

    def pan_to(self, window: str, cx: float, cy: float,
               member: str | None = None) -> dict[str, Any]:
        """Center a canvas window on absolute world coordinates."""
        return self.protocol.run(PanTo(window=window, cx=cx, cy=cy, member=member))

    def zoom(self, window: str, factor: float,
             member: str | None = None) -> dict[str, Any]:
        """Zoom a canvas window (factor > 1 descends)."""
        return self.protocol.run(Zoom(window=window, factor=factor, member=member))

    def set_elevation(self, window: str, elevation: float,
                      member: str | None = None) -> dict[str, Any]:
        """Set a canvas window's elevation directly."""
        return self.protocol.run(
            SetElevation(window=window, elevation=elevation, member=member))

    def set_slider(self, window: str, dim: str, low: float, high: float,
                   member: str | None = None) -> dict[str, Any]:
        """Set one slider dimension's visible range on a canvas window."""
        return self.protocol.run(SetSlider(
            window=window, dim=dim, low=low, high=high, member=member))

    def render_frame(self, window: str, format: str = "ppm",
                     cull: bool = True) -> "FrameReply":
        """Render a window to a wire-ready frame (ppm/png bytes or ops delta)."""
        return self.protocol.run(Render(window=window, format=format, cull=cull))

    def why(self, window: str, px: float, py: float) -> dict[str, Any]:
        """Why-provenance for the mark under a pixel (lineage drill-down)."""
        return self.protocol.run(Why(window=window, px=px, py=py))

    def update_at(
        self,
        canvas_name: str,
        px: float,
        py: float,
        dialog: UpdateDialog | dict[str, str],
    ) -> UpdateResult:
        """Click a screen object and update its tuple in the database (§8).

        The per-visualization custom update command is used when the
        relation installs one; otherwise the generic procedure runs with the
        per-type update functions.
        """
        item = self.pick(canvas_name, px, py)
        if item is None:
            raise UpdateError(
                f"nothing under ({px}, {py}) on canvas {canvas_name!r}"
            )
        return self.update_item(canvas_name, item, dialog)

    def update_item(
        self,
        canvas_name: str,
        item: RenderedItem,
        dialog: UpdateDialog | dict[str, str],
    ) -> UpdateResult:
        if isinstance(dialog, dict):
            dialog = ScriptedDialog(dialog)
        if item.source_table is None:
            raise UpdateError(
                f"the visualization of {item.relation_name!r} is not backed "
                "by a stored table (derived relations are not updatable)"
            )
        table = self.database.table(item.source_table)
        relation = self._find_relation(canvas_name, item.relation_name)
        command = generic_update
        if relation is not None and relation.update_command is not None:
            command = relation.update_command
        return command(table, item.row, dialog)

    def _find_relation(
        self, canvas_name: str, relation_name: str
    ) -> DisplayableRelation | None:
        displayable = self.window(canvas_name).viewer.displayable()
        composites: list[Composite]
        if isinstance(displayable, Group):
            composites = [composite for __, composite in displayable]
        elif isinstance(displayable, Composite):
            composites = [displayable]
        else:
            composites = [Composite([displayable])]
        for composite in composites:
            for entry in composite:
                if entry.relation.name == relation_name:
                    return entry.relation
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Session(program={self.program.name!r}, boxes={len(self.program)}, "
            f"windows={sorted(self.windows)})"
        )
