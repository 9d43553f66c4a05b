"""Quickstart: build a visualization program by composing primitive boxes.

Builds the synthetic weather database, constructs the paper's Figure-4
station map with direct operations, and renders it headlessly — as ASCII art
to the terminal, and as a PPM image next to this script.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Engine, Session, build_weather_database, result_cache


def main() -> None:
    # 1. The database: Stations, Observations, and the Louisiana map.
    db = build_weather_database(extra_stations=40, every_days=30)
    print(f"database: {db!r}")

    # 2. A session is the paper's whole UI: program window + canvases + menus.
    session = Session(db, "quickstart")
    print("tables menu:", session.menu.tables_menu())

    # 3. Build the program incrementally (Figure 1 → Figure 4):
    stations = session.add_table("Stations")
    restrict = session.add_box("Restrict", {"predicate": "state = 'LA'"})
    session.connect(stations, "out", restrict, "in")

    # Every intermediate result is inspectable (lazy demand of any edge).
    print("stations total:", len(session.inspect(stations).rows))
    print("after Restrict:", len(session.inspect(restrict).rows))

    # Map (longitude, latitude) onto the canvas and draw circle + name.
    set_x = session.add_box("SetAttribute", {"name": "x", "definition": "longitude"})
    session.connect(restrict, "out", set_x, "in")
    set_y = session.add_box("SetAttribute", {"name": "y", "definition": "latitude"})
    session.connect(set_x, "out", set_y, "in")
    display = session.add_box(
        "SetAttribute",
        {
            "name": "display",
            "definition": "combine(filled_circle(3, 'blue'), "
                          "offset(text_of(name), 0, -9))",
        },
    )
    session.connect(set_y, "out", display, "in")

    # Altitude becomes a third visualization dimension (a slider).
    altitude = session.add_box(
        "AddAttribute",
        {"name": "Altitude", "definition": "altitude", "location": True},
    )
    session.connect(display, "out", altitude, "in")

    # 4. A viewer box opens a canvas window.
    window = session.add_viewer(altitude, name="stations", width=640, height=480)
    window.viewer.pan_to(-91.8, 31.0)   # center Louisiana
    window.viewer.set_elevation(6.0)    # frame ~6 degrees of longitude

    canvas = window.render()
    print(f"\nrendered {canvas.count_nonbackground()} pixels:")
    print(canvas.to_ascii(columns=78))

    out = Path(__file__).with_name("quickstart_stations.ppm")
    canvas.to_ppm(out)
    canvas.to_png(out.with_suffix(".png"))
    print(f"\nimages written to {out} and {out.with_suffix('.png').name}")

    # The same scene as scalable vectors, for browsers.
    from repro.render.svg import render_svg

    svg = render_svg(window.viewer)
    svg_path = svg.to_svg(out.with_suffix(".svg"))
    print(f"vector version -> {svg_path.name} ({len(svg.elements)} elements)")

    # 5. Direct manipulation: drag the Altitude slider to low-lying stations.
    window.viewer.set_slider("Altitude", 0.0, 60.0)
    low = window.viewer.render()
    print(
        "stations below 60 ft:",
        sorted({item.row["name"] for item in low.all_items()}),
    )

    # 6. The same program, executed with the result cache
    #    (docs/RESULT_CACHE.md): a second engine — a slaved viewer, say — is
    #    served the materialized rows without re-executing the plan.
    result_cache().clear()
    fast = Engine(session.program, db, cache=True)
    rows = fast.output_of(restrict).rows.force()
    slaved = Engine(session.program, db, cache=True)
    slaved.output_of(restrict).rows.force()
    stats = result_cache().stats()
    print(f"\ncached engine: {len(rows)} rows; result cache "
          f"hits={stats['hits']} misses={stats['misses']}")

    # 7. Everything is a program: save it in the database for next time.
    session.save_program()
    print("saved programs:", db.program_names())


if __name__ == "__main__":
    main()
