"""The program fingerprint behind the shared frame cache's key.

``program_fingerprint`` hashes the serialized program once per edit and
answers later calls from a memo on the program.  After any sequence of
session edits the memo must equal a hash taken from scratch, or the frame
cache would serve frames of a program that no longer exists.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.dataflow import serialize
from repro.dataflow.serialize import program_fingerprint, program_to_dict
from repro.errors import TiogaError
from repro.ui.session import Session


def from_scratch(program) -> int:
    return hash(json.dumps(program_to_dict(program), sort_keys=True,
                           default=str))


def _restricts(session):
    return [box.box_id for box in session.program.boxes_of_type("Restrict")]


def _add_box(session, rng, step):
    if rng.random() < 0.4:
        session.add_table("Stations")
    else:
        session.add_box("Restrict",
                        {"predicate": f"altitude > {rng.randint(0, 400)}"})


def _connect(session, rng, step):
    program = session.program
    sources = [box.box_id for box in program.boxes() if box.outputs]
    free = [box_id for box_id in _restricts(session)
            if program.edge_into_port(box_id, "in") is None]
    if sources and free:
        session.connect(rng.choice(sources), "out", rng.choice(free), "in")


def _disconnect(session, rng, step):
    edges = session.program.edges()
    if edges:
        session.program.disconnect(rng.choice(edges))


def _set_param(session, rng, step):
    restricts = _restricts(session)
    if restricts:
        session.set_param(rng.choice(restricts), "predicate",
                          f"altitude < {rng.randint(0, 400)}")


def _delete(session, rng, step):
    ids = session.program.box_ids()
    if ids:
        session.delete_box(rng.choice(ids))


def _save_as(session, rng, step):
    session.program.name = f"saved-{step}"
    session.save_program()


def _undo(session, rng, step):
    if len(session.undo_stack):
        session.undo()


EDITS = [_add_box, _connect, _disconnect, _set_param, _delete, _save_as,
         _undo]
#: Growth edits weigh more, so programs grow past a handful of boxes.
WEIGHTS = [4, 4, 1, 2, 1, 1, 1]


@pytest.mark.parametrize("seed", range(8))
def test_memoized_fingerprint_tracks_every_session_edit(stations_db, seed):
    rng = random.Random(seed)
    session = Session(stations_db, f"fingerprint-{seed}")
    assert program_fingerprint(session.program) == from_scratch(
        session.program)
    for step in range(60):
        (edit,) = rng.choices(EDITS, WEIGHTS)
        try:
            edit(session, rng, step)
        except TiogaError:
            pass  # an illegal edit (a cycle, an undeletable box) changes nothing
        program = session.program
        assert program_fingerprint(program) == from_scratch(program), (
            f"seed {seed} step {step}: {edit.__name__}")
        # The second call is answered from the memo.
        assert program_fingerprint(program) == from_scratch(program)


def test_unchanged_program_is_serialized_once(stations_session, monkeypatch):
    stations_session.add_table("Stations")
    calls = [0]
    original = serialize.program_to_dict

    def counted(program):
        calls[0] += 1
        return original(program)

    monkeypatch.setattr(serialize, "program_to_dict", counted)
    program = stations_session.program
    first = program_fingerprint(program)
    for __ in range(5):
        assert program_fingerprint(program) == first
    assert calls[0] == 1
    stations_session.add_box("Restrict", {"predicate": "altitude > 1"})
    assert program_fingerprint(program) != first
    assert calls[0] == 2


def test_equal_programs_share_a_fingerprint(stations_db):
    a = Session(stations_db, "shared")
    b = Session(stations_db, "shared")
    for session in (a, b):
        source = session.add_table("Stations")
        keep = session.add_box("Restrict", {"predicate": "altitude > 50"})
        session.connect(source, "out", keep, "in")
    b.set_param(keep, "predicate", "altitude > 50")  # b's box is at version 1
    assert program_fingerprint(a.program) == program_fingerprint(b.program)
