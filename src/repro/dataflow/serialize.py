"""Program serialization: boxes-and-arrows ↔ JSON-compatible dicts.

Programs are saved "in the database" (Fig 2).  A serialized program records
each box's registered type name, its parameter dict, and its label, plus the
edge list.  Box parameters are JSON-safe by convention (predicate *source
strings*, field-name lists, numbers) — the same convention that lets boxes be
re-instantiated from their params.

Each box also records its port signature (``ports``): name, port type, and
optionality for every input and output.  On load the signature is checked
against the re-instantiated box, so a program saved under one version of a
box catalog fails loudly — not with a confusing downstream type error — when
the catalog's port layout has changed.  Payloads without ``ports`` (saved by
older versions) still load.
"""

from __future__ import annotations

import json
from typing import Any

from repro.dataflow.graph import Edge, Program
from repro.dataflow.registry import instantiate
from repro.errors import CatalogError

__all__ = [
    "program_to_dict",
    "program_from_dict",
    "clone_program",
    "program_fingerprint",
]

_FORMAT = "tioga2-program-v1"


def program_to_dict(program: Program) -> dict[str, Any]:
    """Serialize a program to a JSON-compatible dict."""
    boxes = {}
    for box in program.boxes():
        boxes[str(box.box_id)] = {
            "type": box.type_name,
            "params": _jsonable_params(box.params),
            "label": box.label,
            "ports": _port_signature(box),
        }
    edges = [
        [edge.src_box, edge.src_port, edge.dst_box, edge.dst_port]
        for edge in program.edges()
    ]
    return {
        "format": _FORMAT,
        "name": program.name,
        "boxes": boxes,
        "edges": edges,
    }


def program_fingerprint(program: Program) -> int:
    """A content hash of the serialized program, computed once per edit.

    The hash is of the canonical JSON form, so two sessions holding equal
    programs (say, two clients of one hosted program) get equal
    fingerprints.  It is memoized on the program object against its name
    and edit stamp (:meth:`Program.edit_stamp`): every edit that can change
    the serialized form bumps the program's version or a box's version, so
    repeated calls on an unchanged program are a stamp comparison.
    """
    stamp = (program.name, program.edit_stamp())
    memo = program.fingerprint_memo
    if memo is not None and memo[0] == stamp:
        return memo[1]
    fingerprint = hash(json.dumps(
        program_to_dict(program), sort_keys=True, default=str))
    program.fingerprint_memo = (stamp, fingerprint)
    return fingerprint


def _jsonable_params(params: dict[str, Any]) -> dict[str, Any]:
    cleaned = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            value = list(value)
        cleaned[key] = value
    return cleaned


def _port_signature(box: Any) -> dict[str, list[list[Any]]]:
    """The box's port layout as JSON: ``[name, type, optional]`` triples."""
    return {
        "inputs": [[p.name, str(p.type), p.optional] for p in box.inputs],
        "outputs": [[p.name, str(p.type), p.optional] for p in box.outputs],
    }


def _check_port_signature(box: Any, recorded: dict[str, Any]) -> None:
    """Fail loudly when a loaded box's ports differ from the saved layout."""
    current = _port_signature(box)
    for side in ("inputs", "outputs"):
        saved = [tuple(entry) for entry in recorded.get(side, [])]
        have = [tuple(entry) for entry in current[side]]
        if saved != have:
            raise CatalogError(
                f"box {box.describe()} was saved with {side} "
                f"{saved!r} but the current catalog builds {have!r}; "
                "the box catalog has changed since this program was saved"
            )


def program_from_dict(payload: dict[str, Any]) -> Program:
    """Reconstruct a program, preserving the original box ids."""
    if payload.get("format") != _FORMAT:
        raise CatalogError(
            f"unrecognized program format {payload.get('format')!r}; "
            f"expected {_FORMAT!r}"
        )
    program = Program(payload.get("name", "untitled"))
    for box_id_text, spec in sorted(
        payload.get("boxes", {}).items(), key=lambda item: int(item[0])
    ):
        box = instantiate(spec["type"], spec.get("params"))
        recorded_ports = spec.get("ports")
        if recorded_ports is not None:
            _check_port_signature(box, recorded_ports)
        program.add_box(box, label=spec.get("label"), box_id=int(box_id_text))
    for src_box, src_port, dst_box, dst_port in payload.get("edges", []):
        program.connect(src_box, src_port, dst_box, dst_port)
    return program


def clone_program(program: Program) -> Program:
    """A deep, independent copy via serialization round-trip."""
    return program_from_dict(program_to_dict(program))
