"""A domain beyond the paper's example: a sales dashboard.

Exercises the mechanisms the weather walkthrough doesn't foreground:

* the multi-output **Switch** box (the paper's `if cond then box i else
  box j` motivating example, §1.1/§1.2),
* **Encapsulate** with a **hole** — a reusable "normalize + position"
  macro whose filtering step is plugged per use (§4.1),
* **Replicate** on an enumerated field (one panel per region, §7.4),
* program **save/load** round-tripping through the database.

Run:  python examples/sales_dashboard.py
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.api import Database, Engine, Session, result_cache
from repro.dbms.tuples import Schema


def build_sales_db(seed: int = 17) -> Database:
    rng = random.Random(seed)
    db = Database("sales")
    table = db.create_table(
        "Sales",
        Schema(
            [
                ("sale_id", "int"),
                ("region", "text"),
                ("rep", "text"),
                ("week", "int"),
                ("amount", "float"),
            ]
        ),
    )
    regions = ("north", "south", "east", "west")
    reps = ("ada", "bob", "cat", "dan", "eve", "fin")
    table.insert_many(
        {
            "sale_id": i + 1,
            "region": rng.choice(regions),
            "rep": rng.choice(reps),
            "week": rng.randrange(1, 27),
            "amount": round(rng.uniform(50.0, 5000.0), 2),
        }
        for i in range(400)
    )
    return db


def main() -> None:
    db = build_sales_db()
    session = Session(db, "sales-dashboard")

    sales = session.add_table("Sales")

    # ------------------------------------------------------------------
    # Switch: route big-ticket sales one way, routine sales the other.
    # ------------------------------------------------------------------
    switch = session.add_box("Switch", {"predicate": "amount >= 2500"})
    session.connect(sales, "out", switch, "in")
    big = session.inspect(switch, "true")
    routine = session.inspect(switch, "false")
    print(f"Switch routed {len(big.rows)} big-ticket and "
          f"{len(routine.rows)} routine sales")

    # ------------------------------------------------------------------
    # A reusable macro: scatter-position sales by (week, amount), with a
    # HOLE for the filtering policy.  Build it once in a scratch program
    # region, encapsulate, then plug different filters per use.
    # ------------------------------------------------------------------
    filter_box = session.add_box("Restrict", {"predicate": "true"})
    session.connect(switch, "true", filter_box, "in")
    set_x = session.add_box("SetAttribute",
                            {"name": "x", "definition": "week * 10"})
    session.connect(filter_box, "out", set_x, "in")
    set_y = session.add_box("SetAttribute",
                            {"name": "y", "definition": "amount / 25"})
    session.connect(set_x, "out", set_y, "in")
    dots = session.add_box(
        "SetAttribute",
        {"name": "display", "definition": "filled_circle(2, 'purple')"},
    )
    session.connect(set_y, "out", dots, "in")

    macro = session.encapsulate(
        [filter_box, set_x, set_y, dots],
        "scatter_by_week",
        holes=[[filter_box]],
    )
    print(f"encapsulated {macro.param('name')!r} with holes: "
          f"{macro.hole_names()}")

    # Plug the hole two ways: the north region, and sales above $4000.
    north_scatter = macro.plug(
        "hole1", session_box(session, "Restrict", {"predicate": "region = 'north'"})
    )
    rich_scatter = macro.plug(
        "hole1", session_box(session, "Restrict", {"predicate": "amount > 4000"})
    )
    north_id = session.program.add_box(north_scatter)
    session.connect(sales, "out", north_id, "in1")
    rich_id = session.program.add_box(rich_scatter)
    session.connect(sales, "out", rich_id, "in1")
    print(f"north panel rows: {len(session.inspect(north_id, 'out1').rows)}; "
          f">$4000 panel rows: {len(session.inspect(rich_id, 'out1').rows)}")

    # ------------------------------------------------------------------
    # Replicate on the enumerated region field: one panel per region.
    # ------------------------------------------------------------------
    scatter_all = session.program.add_box(macro.plug(
        "hole1", session_box(session, "Restrict", {"predicate": "true"})))
    session.connect(sales, "out", scatter_all, "in1")
    replicate = session.add_box(
        "Replicate", {"enum_field": "region", "layout": "horizontal"}
    )
    session.connect(scatter_all, "out1", replicate, "in")
    window = session.add_viewer(replicate, name="regions",
                                width=800, height=240)
    for member in window.viewer.member_names():
        window.viewer.pan_to(130.0, 100.0, member=member)
        window.viewer.set_elevation(260.0, member=member)
    canvas = window.render()
    group = window.viewer.displayable()
    print("replicated panels:", group.member_names())
    out = Path(__file__).with_name("sales_regions.ppm")
    canvas.to_ppm(out)
    print(f"dashboard image -> {out.name}")

    # ------------------------------------------------------------------
    # Dashboards re-render constantly; let the shared result cache serve
    # the repeat demands (docs/RESULT_CACHE.md).
    # ------------------------------------------------------------------
    result_cache().clear()
    cached = Engine(session.program, db, cache=True)
    rows = cached.output_of(switch, "true").rows.force()
    mirror = Engine(session.program, db, cache=True)
    mirror.output_of(switch, "true").rows.force()
    stats = result_cache().stats()
    print(f"cached engine: {len(rows)} big-ticket rows; "
          f"result cache hits={stats['hits']} misses={stats['misses']}")

    # ------------------------------------------------------------------
    # Programs live in the database.
    # ------------------------------------------------------------------
    session.save_program()
    reloaded = Session(db, "scratch")
    reloaded.load_program("sales-dashboard")
    print(f"reloaded program has {len(reloaded.program)} boxes and "
          f"{len(reloaded.windows)} canvas window(s)")


def session_box(session: Session, type_name: str, params: dict):
    """Instantiate a detached box (not yet added to the program)."""
    from repro.dataflow.registry import instantiate

    return instantiate(type_name, params)


if __name__ == "__main__":
    main()
