"""The protocol layer: codecs, error codes, and local/remote parity.

Covers the PR-9 satellite guarantees: every command survives an
encode→decode round trip unchanged (seeded property over random field
values), every ``TiogaError`` subclass maps to a stable ``T2-E5xx`` code
disjoint from the static-analysis catalog, and the ``set_slider``
validation path produces character-identical ``ViewerError`` diagnostics
whether the demand arrives as an imperative ``Session`` call or a
protocol-dispatched command.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.data.weather import build_weather_database
from repro.errors import (
    CatalogError,
    DisplayError,
    EvaluationError,
    ExpressionError,
    GraphError,
    ObservabilityError,
    SchemaError,
    TiogaError,
    TypeCheckError,
    UIError,
    UpdateError,
    ViewerError,
)
from repro.obs.trace import TraceContext, Tracer, push_tracer
from repro.protocol import (
    COMMAND_KINDS,
    PROTOCOL_CODES,
    PROTOCOL_VERSION,
    RESPONSE_KINDS,
    ErrorReply,
    FrameReply,
    Pan,
    ProtocolError,
    Render,
    Reply,
    SetSlider,
    Stats,
    Welcome,
    decode_command,
    decode_response,
    encode_command,
    encode_response,
    error_code_for,
)


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------


def _random_value(rng: random.Random, field: dataclasses.Field):
    """A random wire-legal value for a dataclass field, by annotation."""
    annotation = str(field.type)
    if "tuple" in annotation:
        return tuple(f"p{rng.randint(0, 9)}" for _ in range(rng.randint(0, 3)))
    if "dict" in annotation:
        return {"mode": "full", "items": [rng.randint(0, 5)]}
    if "bool" in annotation:
        return rng.random() < 0.5
    if "int" in annotation:
        value = rng.randint(-1000, 1000)
        return None if ("None" in annotation and rng.random() < 0.3) else value
    if "float" in annotation:
        return round(rng.uniform(-1e6, 1e6), 6)
    # str-ish
    value = "".join(rng.choice("abwxyz_ 0123") for _ in range(rng.randint(0, 8)))
    return None if ("None" in annotation and rng.random() < 0.3) else value


def _random_instance(rng: random.Random, cls):
    kwargs = {f.name: _random_value(rng, f) for f in dataclasses.fields(cls)}
    return cls(**kwargs)


def test_every_command_round_trips_over_seeded_values():
    rng = random.Random(90)
    for kind, cls in sorted(COMMAND_KINDS.items()):
        for _ in range(25):
            command = _random_instance(rng, cls)
            encoded = encode_command(command)
            decoded = decode_command(encoded)
            assert decoded == command, kind
            assert type(decoded) is cls
            # And the envelope is versioned JSON.
            payload = json.loads(encoded)
            assert payload["v"] == PROTOCOL_VERSION
            assert payload["kind"] == kind


def test_every_response_round_trips_over_seeded_values():
    rng = random.Random(91)
    for kind, cls in sorted(RESPONSE_KINDS.items()):
        for _ in range(25):
            response = _random_instance(rng, cls)
            assert decode_response(encode_response(response)) == response, kind


def test_defaults_round_trip():
    for cls in COMMAND_KINDS.values():
        assert decode_command(encode_command(cls())) == cls()


# ---------------------------------------------------------------------------
# Decoder rejection (stable codes, no guessing)
# ---------------------------------------------------------------------------


def test_decode_rejects_wrong_version():
    with pytest.raises(ProtocolError) as info:
        decode_command('{"v": 99, "kind": "pan"}')
    assert info.value.code == "T2-E510"
    assert "version" in str(info.value)


def test_decode_rejects_unknown_kind():
    with pytest.raises(ProtocolError) as info:
        decode_command('{"v": 1, "kind": "teleport"}')
    assert info.value.code == "T2-E511"


def test_decode_rejects_unknown_fields():
    with pytest.raises(ProtocolError) as info:
        decode_command('{"v": 1, "kind": "pan", "window": "w", "dz": 3}')
    assert info.value.code == "T2-E510"
    assert "dz" in str(info.value)


def test_decode_rejects_non_json_and_non_objects():
    for bad in ("not json", "[1, 2]", '"pan"'):
        with pytest.raises(ProtocolError):
            decode_command(bad)


def test_encode_rejects_foreign_types():
    with pytest.raises(ProtocolError):
        encode_command(object())  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Error-code mapping
# ---------------------------------------------------------------------------


EXPECTED_CODES = [
    (ViewerError, "T2-E501"),
    (UIError, "T2-E502"),
    (CatalogError, "T2-E503"),
    (UpdateError, "T2-E504"),
    (ExpressionError, "T2-E505"),
    (GraphError, "T2-E506"),
    (EvaluationError, "T2-E508"),
    (SchemaError, "T2-E509"),
    (TypeCheckError, "T2-E509"),
    (DisplayError, "T2-E515"),
    (ObservabilityError, "T2-E516"),
    (TiogaError, "T2-E500"),
]


@pytest.mark.parametrize("exc_cls,code", EXPECTED_CODES,
                         ids=[c.__name__ for c, _ in EXPECTED_CODES])
def test_tioga_errors_map_to_stable_codes(exc_cls, code):
    assert error_code_for(exc_cls("boom")) == code
    assert code in PROTOCOL_CODES


def test_subclasses_inherit_their_nearest_ancestor_code():
    class CustomViewerError(ViewerError):
        pass

    assert error_code_for(CustomViewerError("x")) == "T2-E501"


def test_non_tioga_exceptions_are_internal_server_errors():
    assert error_code_for(ValueError("x")) == "T2-E514"
    assert error_code_for(RuntimeError("x")) == "T2-E514"


def test_protocol_error_carries_its_own_code():
    assert error_code_for(ProtocolError("x", code="T2-E512")) == "T2-E512"


def test_protocol_codes_disjoint_from_analysis_catalog():
    from repro.analyze.diagnostics import CODES

    assert not set(PROTOCOL_CODES) & set(CODES)


# ---------------------------------------------------------------------------
# Local vs protocol parity (the set_slider validation-drift fix)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig4_session():
    from repro.core.scenarios import build_fig4_station_map

    return build_fig4_station_map(build_weather_database()).session


def _wire_error(session, command) -> ErrorReply:
    response = session.execute(
        decode_command(encode_command(command)))
    assert isinstance(response, ErrorReply)
    return response


def test_set_slider_unknown_dim_parity(fig4_session):
    with pytest.raises(ViewerError) as local:
        fig4_session.set_slider("stations", "Depth", 0.0, 10.0)
    remote = _wire_error(
        fig4_session,
        SetSlider(window="stations", dim="Depth", low=0.0, high=10.0))
    assert remote.code == "T2-E501"
    assert remote.error_type == "ViewerError"
    assert remote.message == str(local.value)
    assert "no slider dimension 'Depth'" in remote.message


def test_set_slider_empty_range_parity(fig4_session):
    with pytest.raises(ViewerError) as local:
        fig4_session.set_slider("stations", "Altitude", 10.0, 2.0)
    remote = _wire_error(
        fig4_session,
        SetSlider(window="stations", dim="Altitude", low=10.0, high=2.0))
    assert remote.message == str(local.value)
    assert remote.message == "slider range [10.0, 2.0] is empty"
    assert remote.code == "T2-E501"


def test_deprecated_viewer_set_slider_matches_protocol_diagnostics(
        fig4_session):
    viewer = fig4_session.window("stations").viewer
    with pytest.warns(DeprecationWarning):
        with pytest.raises(ViewerError) as direct:
            viewer.set_slider("Depth", 0.0, 10.0)
    remote = _wire_error(
        fig4_session,
        SetSlider(window="stations", dim="Depth", low=0.0, high=10.0))
    assert remote.message == str(direct.value)


def test_unknown_window_parity(fig4_session):
    with pytest.raises(UIError) as local:
        fig4_session.pan("nowhere", 1.0, 0.0)
    remote = _wire_error(
        fig4_session,
        decode_command('{"v": 1, "kind": "pan", "window": "nowhere"}'))
    assert remote.code == "T2-E502"
    assert remote.message == str(local.value)


def test_error_reply_echoes_seq(fig4_session):
    remote = fig4_session.execute(
        SetSlider(window="stations", dim="Depth", low=0.0, high=1.0, seq=42))
    assert isinstance(remote, ErrorReply)
    assert remote.reply_to == 42


def test_render_format_validation(fig4_session):
    response = fig4_session.execute(Render(window="stations", format="webp"))
    assert isinstance(response, ErrorReply)
    assert response.code == "T2-E510"


# ---------------------------------------------------------------------------
# Trace propagation: the PR-10 append-only wire extension
# ---------------------------------------------------------------------------


def test_trace_context_rides_the_command_wire():
    ctx = TraceContext.new(session="s-1", command="pan")
    command = Pan(window="w", dx=1.0, dy=2.0, trace=ctx.to_wire())
    decoded = decode_command(encode_command(command))
    assert decoded == command
    joined = TraceContext.from_wire(decoded.trace)
    assert joined.trace_id == ctx.trace_id
    assert joined.session == "s-1"


def test_old_wire_without_trace_still_decodes():
    # Backward compatibility: pre-PR-10 peers never send the field; the
    # command decodes with trace=None and responses with trace_id=None.
    command = decode_command('{"v": 1, "kind": "pan", "window": "w"}')
    assert command.trace is None
    envelope = json.loads(encode_response(Reply(command="pan")))
    del envelope["trace_id"]
    response = decode_response(json.dumps(envelope))
    assert response.trace_id is None


def test_executor_stamps_reply_trace_id_under_tracing(fig4_session):
    with push_tracer(Tracer(enabled=True)):
        response = fig4_session.execute(Stats())
        assert isinstance(response, Reply)
        assert response.trace_id
        # A caller-minted context is joined, not replaced: the reply
        # echoes the wire trace id (the distributed-join contract).
        ctx = TraceContext.new(command="stats")
        echoed = fig4_session.execute(Stats(trace=ctx.to_wire()))
        assert echoed.trace_id == ctx.trace_id
        # Error replies carry the id too — slow/failed requests are
        # exactly the ones worth looking up in /debug/trace.
        error = fig4_session.execute(Render(window="nowhere"))
        assert isinstance(error, ErrorReply)
        assert error.trace_id


def test_executor_leaves_trace_id_none_when_tracing_off(fig4_session):
    with push_tracer(Tracer(enabled=False)):
        response = fig4_session.execute(Stats())
    assert response.trace_id is None


# ---------------------------------------------------------------------------
# Frame and welcome details
# ---------------------------------------------------------------------------


def test_frame_reply_data_bytes_round_trip(fig4_session):
    frame = fig4_session.render_frame("stations")
    assert isinstance(frame, FrameReply)
    data = frame.data_bytes()
    assert data.startswith(b"P6\n640 480\n255\n")
    again = decode_response(encode_response(frame))
    assert again.data_bytes() == data


def test_welcome_programs_survive_as_tuple():
    welcome = Welcome(session="s1", database="db", programs=("fig4", "fig1"))
    decoded = decode_response(encode_response(welcome))
    assert decoded.programs == ("fig4", "fig1")
    assert isinstance(decoded.programs, tuple)


def test_reply_ok_and_error_not_ok():
    assert Reply(command="pan").ok
    assert not ErrorReply().ok


# ---------------------------------------------------------------------------
# Frame-cache hits keep pick/why provenance on the displayed frame
# ---------------------------------------------------------------------------


@pytest.fixture()
def cached_map_session(stations_db):
    """A stations map session with the server's FrameCache attached."""
    from repro.protocol import FrameCache
    from repro.ui.session import Session

    session = Session(stations_db, "cache-map")
    stations = session.add_table("Stations")
    sx = session.add_box(
        "SetAttribute", {"name": "x", "definition": "longitude"})
    session.connect(stations, "out", sx, "in")
    sy = session.add_box(
        "SetAttribute", {"name": "y", "definition": "latitude"})
    session.connect(sx, "out", sy, "in")
    disp = session.add_box(
        "SetAttribute",
        {"name": "display", "definition": "filled_circle(3, 'blue')"},
    )
    session.connect(sy, "out", disp, "in")
    session.add_viewer(disp, name="map", width=200, height=160)
    session.pan_to("map", -91.8, 31.0)
    session.set_elevation("map", 8.0)
    session.protocol.frame_cache = FrameCache()
    return session


def test_frame_cache_hit_restores_pick_provenance(cached_map_session):
    # Review regression: render view A, pan to B, render, pan back to A,
    # render (FrameCache hit — no rasterization), then pick.  The pick
    # must resolve against view A's display list (the frame on screen),
    # not view B's stale one from the last actual render.
    session = cached_map_session
    frame_a = session.render_frame("map")
    item = session.window("map").viewer.last_result.all_items()[0]
    cx = (item.bbox[0] + item.bbox[2]) / 2
    cy = (item.bbox[1] + item.bbox[3]) / 2
    first = session.pick("map", cx, cy)
    assert first is not None

    # View B is empty ocean: a fresh render there hits nothing.
    session.pan_to("map", -40.0, 31.0)
    session.render_frame("map")
    assert session.pick("map", cx, cy) is None

    session.pan_to("map", -91.8, 31.0)
    served = session.render_frame("map")
    assert served.data_bytes() == frame_a.data_bytes()
    assert served.render_ms == 0.0  # served whole from the frame cache

    picked = session.pick("map", cx, cy)
    assert picked is not None
    assert picked.row == first.row

    why_doc = session.why("map", cx, cy)
    assert why_doc["picked"] is True
    assert why_doc["mark"]["relation"] == first.relation_name
    assert why_doc["mark"]["tuple_index"] == first.tuple_index


def test_frame_cache_keeps_only_current_epoch_frames(cached_map_session):
    # A §8 update bumps the storage epoch every frame key holds: frames
    # rendered before it can never hit again, so the next stored frame
    # drops them instead of leaving them to LRU eviction.
    from repro.dbms.relation import storage_epoch
    from repro.dbms.update import ScriptedDialog, generic_update

    session = cached_map_session
    cache = session.protocol.frame_cache
    for lon in (-91.8, -92.4, -91.0):
        session.pan_to("map", lon, 31.0)
        session.render_frame("map", format="png")
    assert len(cache) == 3
    stations = session.database.table("Stations")
    row = stations.snapshot()[0]
    assert generic_update(stations, row, ScriptedDialog(
        {"altitude": "123.0"})).applied
    session.render_frame("map", format="png")
    assert len(cache) == 1
    assert all(key[-1] == storage_epoch() for key in cache._entries)


def test_frame_cache_keeps_display_lists_not_pixels(cached_map_session):
    # Cached entries must not pin the rasterized canvas (0.9 MB at
    # 640x480): once the viewer moves on, the frame's canvas is garbage,
    # and a later hit still resolves pick/why from the display list alone.
    import gc
    import weakref

    session = cached_map_session
    viewer = session.window("map").viewer
    session.render_frame("map")
    canvas_a = weakref.ref(viewer.last_result.canvas)
    item = viewer.last_result.all_items()[0]
    cx = (item.bbox[0] + item.bbox[2]) / 2
    cy = (item.bbox[1] + item.bbox[3]) / 2

    session.pan_to("map", -40.0, 31.0)
    session.render_frame("map")
    gc.collect()
    assert canvas_a() is None

    session.pan_to("map", -91.8, 31.0)
    served = session.render_frame("map")
    assert served.render_ms == 0.0
    assert viewer.last_result.canvas is None
    picked = session.pick("map", cx, cy)
    assert picked is not None
    assert (picked.relation_name, picked.tuple_index) == (
        item.relation_name, item.tuple_index)
    why_doc = session.why("map", cx, cy)
    assert why_doc["picked"] is True
    assert why_doc["mark"]["tuple_index"] == item.tuple_index


@pytest.mark.parametrize("fmt", ["png", "ppm"])
def test_frame_encode_span_only_on_cache_misses(cached_map_session, fmt):
    # A miss encodes once, under one frame.encode span sized in encoded
    # bytes; a FrameCache hit serves the stored bytes and encodes nothing.
    session = cached_map_session
    tracer = Tracer(enabled=True)
    with push_tracer(tracer):
        miss = session.render_frame("map", format=fmt)
        encodes = tracer.finished("frame.encode")
        assert len(encodes) == 1
        assert encodes[0].attrs == {"format": fmt,
                                    "bytes": len(miss.data_bytes())}
        request = tracer.finished("request.render")[0]
        assert encodes[0].parent_id == request.span_id
        tracer.clear()
        hit = session.render_frame("map", format=fmt)
        assert hit.render_ms == 0.0
        assert hit.data_bytes() == miss.data_bytes()
        assert tracer.finished("frame.encode") == []
    # ops frames are display-list deltas: nothing to encode.
    with push_tracer(tracer):
        tracer.clear()
        session.render_frame("map", format="ops")
        assert tracer.finished("frame.encode") == []


def test_frames_with_live_magnifiers_are_not_cached(cached_map_session):
    # Magnifier overlays are composited into the encoded frame but are
    # session-local furniture outside the cache key — such frames must
    # bypass the cache entirely rather than be served to other views.
    session = cached_map_session
    session.render_frame("map")
    assert len(session.protocol.frame_cache) == 1
    window = session.window("map")
    glass = window.add_magnifier((40.0, 30.0, 120.0, 90.0))
    frame = session.render_frame("map")
    assert frame.render_ms > 0.0  # not served from the pre-magnifier entry
    assert len(session.protocol.frame_cache) == 1  # and not re-cached
    glass.delete()
    session.render_frame("map")  # deleted glass: cacheable again
    assert len(session.protocol.frame_cache) == 1
