"""The Box base class: a primitive procedure with typed inputs and outputs.

"A box is a primitive procedure with some number of inputs and outputs. ...
When data is present on all of a box's inputs, the box can 'fire', producing
results on one or more outputs." (Section 2)

Boxes carry their parameters (a predicate source string, a field list, a
sampling probability, …) as a JSON-serializable ``params`` dict, so programs
round-trip through the database (Save Program / Load Program).  Changing a
parameter bumps the box's version stamp, which invalidates downstream caches
in the lazy engine — the mechanism behind incremental programming.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.dataflow.ports import Port
from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.engine import FireContext

__all__ = ["Box"]

# Process-unique box serials: a box's id names a slot in one program, and a
# replacement box (Replace Box) takes over its predecessor's id and starts
# again at version 0, so only the serial tells the two apart.
_BOX_SERIALS = itertools.count(1)


class Box:
    """Base class for all primitive procedures in a boxes-and-arrows program.

    Subclasses set ``type_name`` (the registry key used by Apply Box and
    serialization), build their port lists in ``__init__``, and implement
    :meth:`fire`.  ``overloadable`` marks R-level (or C-level) boxes that
    accept higher displayable types via component selection (§2).
    """

    type_name: str = "box"
    overloadable: bool = False

    def __init__(self, params: dict[str, Any] | None = None):
        self.params: dict[str, Any] = dict(params or {})
        self.inputs: list[Port] = []
        self.outputs: list[Port] = []
        self.version = 0
        self.serial = next(_BOX_SERIALS)
        self.box_id: int | None = None  # assigned when added to a Program
        self.label: str | None = None

    # -- ports ------------------------------------------------------------

    def input_port(self, name: str) -> Port:
        for port in self.inputs:
            if port.name == name:
                return port
        raise GraphError(
            f"box {self.describe()} has no input {name!r}; "
            f"inputs: {[p.name for p in self.inputs]}"
        )

    def output_port(self, name: str) -> Port:
        for port in self.outputs:
            if port.name == name:
                return port
        raise GraphError(
            f"box {self.describe()} has no output {name!r}; "
            f"outputs: {[p.name for p in self.outputs]}"
        )

    # -- parameters --------------------------------------------------------

    def set_param(self, name: str, value: Any) -> None:
        """Change a parameter; bumps the version so caches invalidate."""
        self.params[name] = value
        self.version += 1

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require_param(self, name: str) -> Any:
        value = self.params.get(name)
        if value is None:
            raise GraphError(
                f"box {self.describe()} is missing required parameter {name!r}"
            )
        return value

    # -- firing -------------------------------------------------------------

    def fire(self, inputs: dict[str, Any], context: "FireContext") -> dict[str, Any]:
        """Compute all outputs from all inputs.

        ``inputs`` maps input port names to values; the result maps output
        port names to values.  ``context`` gives access to the database and
        engine services (e.g. nested evaluation for encapsulated boxes).
        """
        raise NotImplementedError

    # -- description ---------------------------------------------------------

    def describe(self) -> str:
        ident = f"#{self.box_id}" if self.box_id is not None else "(detached)"
        label = f" {self.label!r}" if self.label else ""
        return f"{self.type_name}{label} {ident}"

    def signature(self, database: Any) -> tuple:
        """Extra cache-key material beyond version and input signatures.

        Source boxes override this to include e.g. the source table's
        version, so a database update invalidates everything downstream.
        """
        del database
        return ()

    def __repr__(self) -> str:
        ins = ", ".join(f"{p.name}:{p.type}" for p in self.inputs)
        outs = ", ".join(f"{p.name}:{p.type}" for p in self.outputs)
        return f"<{self.describe()} [{ins}] -> [{outs}]>"
