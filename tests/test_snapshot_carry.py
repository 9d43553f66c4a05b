"""A table snapshot carries its column batch across ``replace_row``.

A Section-8 update replaces one stored row.  The next ``Table.snapshot()``
starts its column batch from a patched copy of the previous snapshot's
batch instead of re-converting every row; these tests pin that the patched
batch is exactly what ``ColumnBatch.from_rows`` would build (values,
dtypes, row identity), that every other mutation drops the carry, that
the table never keeps an old snapshot alive, and that frames after an
update equal a cold rebuild's pixels.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np

from repro.core.scenarios import build_fig8_wormholes
from repro.data.weather import build_weather_database
from repro.dbms import plan as P
from repro.dbms.columnar import ColumnBatch
from repro.dbms.relation import RowSet, Table
from repro.dbms.tuples import Schema
from repro.dbms.update import ScriptedDialog, generic_update

SCHEMA = Schema([("k", "int"), ("x", "float"), ("label", "text"),
                 ("ok", "bool"), ("day", "date")])


def make_table(count=50):
    table = Table("T", SCHEMA)
    table.insert_many(
        (n, n * 0.5, f"row{n}", n % 2 == 0, f"2000-01-{n % 28 + 1:02d}")
        for n in range(count))
    return table


def convert(table):
    """Snapshot the table and convert it to columns as a columnar scan
    does, memoizing the batch on the snapshot."""
    snapshot = table.snapshot()
    list(P.ToColumnsNode(P.ScanNode(snapshot, name=table.name))
         .column_batches())
    assert snapshot.column_batch is not None
    return snapshot


def replace(table, position, **changes):
    row = table.snapshot()[position]
    assert table.replace_row(row, row.replace(**changes))


def assert_batch_is_from_rows(snapshot):
    batch = snapshot.column_batch
    expected = ColumnBatch.from_rows(snapshot.schema, snapshot.rows)
    assert len(batch) == len(expected)
    for name in snapshot.schema.names:
        got, want = batch.column(name), expected.column(name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    assert batch.mask.all() and len(batch.mask) == len(expected)
    assert all(a is b for a, b in zip(batch.rows, snapshot.rows))


def test_several_replacements_patch_the_batch():
    table = make_table()
    first = convert(table)
    replace(table, 3, x=-1.25, label="three")
    replace(table, 17, k=10 ** 12, ok=True)
    replace(table, 3, day="1988-02-29")
    replace(table, 49, k=-(2 ** 63))
    second = table.snapshot()
    assert second.column_batch is not None
    assert second.column_batch is not first.column_batch
    assert_batch_is_from_rows(second)
    # The previous snapshot's batch is untouched.
    assert_batch_is_from_rows(first)


def test_carry_chains_across_snapshots():
    table = make_table()
    convert(table)
    for step in range(5):
        replace(table, step * 7, x=float(step), label=f"step{step}")
        assert_batch_is_from_rows(convert(table))


def test_the_patched_batch_serves_the_next_scan():
    table = make_table()
    convert(table)
    replace(table, 8, x=99.0)
    snapshot = table.snapshot()
    batch = snapshot.column_batch
    node = P.ToColumnsNode(P.ScanNode(snapshot, name="T"))
    assert list(node.column_batches()) == [batch]


def test_insert_after_replace_drops_the_carry():
    table = make_table()
    convert(table)
    replace(table, 4, x=7.0)
    table.insert((100, 1.0, "new", False, "2001-01-01"))
    assert table.snapshot().column_batch is None
    assert_batch_is_from_rows(convert(table))


def test_other_mutations_drop_the_carry():
    for mutate in (
        lambda t: t.delete_where(lambda row: row["k"] == 5),
        lambda t: t.update_where(lambda row: row["k"] == 5, {"x": 2.0}),
        lambda t: t.insert_many([(200, 2.0, "more", True, "2002-02-02")]),
        lambda t: t.clear(),
    ):
        table = make_table()
        convert(table)
        mutate(table)
        assert table.snapshot().column_batch is None


def test_no_batch_no_carry():
    table = make_table()
    table.snapshot()    # never converted to columns
    replace(table, 2, x=3.0)
    assert table.snapshot().column_batch is None


def test_int_beyond_int64_drops_the_carry():
    table = make_table()
    convert(table)
    replace(table, 6, k=2 ** 63)
    assert table.snapshot().column_batch is None
    snapshot = convert(table)
    assert snapshot.column_batch.column("k").dtype == object
    assert_batch_is_from_rows(snapshot)
    # Back in range: from_rows would choose int64 again, so an object
    # column is never carried.
    replace(table, 6, k=6)
    assert table.snapshot().column_batch is None
    snapshot = convert(table)
    assert snapshot.column_batch.column("k").dtype == np.int64
    assert_batch_is_from_rows(snapshot)


def test_previous_snapshot_dies():
    table = make_table()
    old = weakref.ref(convert(table))
    replace(table, 1, x=-3.0)
    assert table.snapshot().column_batch is not None
    gc.collect()
    assert old() is None


def test_unchanged_table_keeps_one_snapshot():
    table = make_table()
    snapshot = convert(table)
    assert table.snapshot() is snapshot
    assert not table.replace_row(snapshot[0].replace(k=-1),
                                 snapshot[1])    # no match: no mutation
    assert table.snapshot() is snapshot


def test_a_write_waits_for_a_snapshot_build(monkeypatch):
    # Server sessions update and render one table from different threads.
    # A write that lands while a snapshot is being built must wait for it,
    # then invalidate it: otherwise the build memoizes rows that miss the
    # write.
    table = make_table()
    convert(table)
    replace(table, 3, x=1.0)    # a carry is pending
    writers = []
    build = RowSet.trusted.__func__

    def trusted(cls, schema, rows):
        built = build(cls, schema, rows)
        if not writers:
            row = built.rows[5]
            writer = threading.Thread(target=table.replace_row,
                                      args=(row, row.replace(x=-5.0)))
            writers.append(writer)
            writer.start()
            writer.join(timeout=0.2)    # blocked on the table's lock
        return built

    monkeypatch.setattr(RowSet, "trusted", classmethod(trusted))
    table.snapshot()
    writers[0].join(timeout=60)
    snapshot = table.snapshot()
    assert snapshot.rows == tuple(table)
    assert snapshot[5]["x"] == -5.0
    assert_batch_is_from_rows(snapshot)


def test_concurrent_updates_and_scans_stay_consistent():
    table = make_table(200)
    convert(table)
    errors: list[str] = []
    stop = threading.Event()

    def writer(seed):
        step = 0
        while not stop.is_set():
            step += 1
            row = table.snapshot()[(seed * 31 + step * 7) % 150]
            table.replace_row(row, row.replace(x=float(step)))
            if step % 25 == 0:
                table.insert((1000 + step, 0.0, "w", False, "2003-03-03"))

    def scanner():
        for __ in range(150):
            snapshot = convert(table)
            batch = snapshot.column_batch
            if len(batch) != len(snapshot.rows) or any(
                    a is not b for a, b in zip(batch.rows, snapshot.rows)):
                errors.append("batch out of step with its rows")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=writer, args=(seed,))
                   for seed in range(3)]
        scanners = [threading.Thread(target=scanner) for __ in range(2)]
        for thread in writers + scanners:
            thread.start()
        for thread in scanners:
            thread.join(timeout=60)
        stop.set()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + scanners)
    assert errors == []
    snapshot = convert(table)
    assert snapshot.rows == tuple(table)    # no write lost to a stale memo
    assert_batch_is_from_rows(snapshot)


def _series_pixels(db):
    scenario = build_fig8_wormholes(db)
    return scenario.session.windows["tempseries"].viewer.render() \
        .canvas.pixels.copy()


def test_updates_through_a_session_render_like_a_cold_rebuild():
    warm_db = build_weather_database(extra_stations=10, every_days=60)
    scenario = build_fig8_wormholes(warm_db)
    session = scenario.session
    series = session.windows["tempseries"].viewer
    before = series.render().canvas.pixels.copy()

    # §8 edits of plotted temperatures, a frame after each.
    observations = warm_db.table("Observations")
    la = [pos for pos, row in enumerate(observations)
          if row["station_id"] <= 18][::25]
    edits = []
    for step, position in enumerate(la):
        temperature = f"{40.0 + step % 50}"
        row = observations.snapshot()[position]
        assert generic_update(observations, row, ScriptedDialog(
            {"temperature": temperature})).applied
        edits.append((position, float(temperature)))
        # The frame's join scans a patched batch, not a fresh conversion.
        assert observations.snapshot().column_batch is not None
        series.render()

    # And one station clicked on the map: it leaves Louisiana.
    map_items = [item for item in
                 session.windows["map"].viewer.render().all_items()
                 if item.source_table == "Stations"]
    item = map_items[0]
    moved = item.row["station_id"]
    assert session.update_item("map", item, {"state": "TX"}).applied
    warm = series.render().canvas.pixels

    cold_db = build_weather_database(extra_stations=10, every_days=60)
    cold_obs = cold_db.table("Observations")
    for position, temperature in edits:
        row = list(cold_obs)[position]
        cold_obs.replace_row(row, row.replace(temperature=temperature))
    stations = cold_db.table("Stations")
    row = next(row for row in stations if row["station_id"] == moved)
    stations.replace_row(row, row.replace(state="TX"))

    assert not np.array_equal(before, warm)
    assert np.array_equal(warm, _series_pixels(cold_db))
