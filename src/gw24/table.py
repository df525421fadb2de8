"""Degree table: Q_d, the point-condition count 4d+1, and N_d = d^3 Q_d.

Rendering is a pure function of the solved store; identical stores give
byte-identical output in every format, and every number is printed as an
exact decimal string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Published reference values for the number of rational ruled surfaces in
# P^3 through 4d+1 general points (Q_2 counts each quadric twice, and the
# degree-3 value 504 is the classical ruled-cubic count).  Used by the
# verify command as golden rows; degrees past 9 have no external reference
# and are gated behind an explicit flag.
GOLDEN_Q = {
    1: 0,
    2: 2,
    3: 504,
    4: 1044120,
    5: 5335687360,
    6: 67992124121040,
    7: 1743784747544391896,
    8: 82475300124495938244352,
    9: 6608238869716397977928547520,
}
GOLDEN_MAX_DEGREE = max(GOLDEN_Q)

D2_NOTE = "Q_2 is twice the number of quadrics through 9 points (two rulings)"


@dataclass(frozen=True)
class DegreeTableRow:
    d: int
    q_d: int
    n_points: int
    n_d: int | None = None
    caveat: bool = False

    def note(self) -> str:
        return D2_NOTE if self.d == 2 else ""


def build_rows(engine, max_degree: int, with_nd: bool = False) -> list[DegreeTableRow]:
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rows = []
    for d in range(1, max_degree + 1):
        n_d = engine.ruled_surface_degree(d)
        rows.append(
            DegreeTableRow(
                d=d,
                q_d=engine.q_number(d),
                n_points=4 * d + 1,
                n_d=n_d.value if with_nd else None,
                caveat=n_d.caveat,
            )
        )
    return rows


def render_markdown(rows: list[DegreeTableRow]) -> str:
    with_nd = rows[0].n_d is not None
    header = ["d", "Q_d", "4d+1"] + (["N_d = d^3 Q_d"] if with_nd else []) + ["note"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---:" if h != "note" else ":---" for h in header) + "|",
    ]
    for r in rows:
        cells = [str(r.d), str(r.q_d), str(r.n_points)]
        if with_nd:
            cells.append(str(r.n_d))
        cells.append(r.note())
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_csv(rows: list[DegreeTableRow]) -> str:
    with_nd = rows[0].n_d is not None
    header = ["d", "q_d", "n_points"] + (["n_d"] if with_nd else []) + ["note"]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r.d), str(r.q_d), str(r.n_points)]
        if with_nd:
            cells.append(str(r.n_d))
        note = r.note()
        cells.append(f'"{note}"' if note else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(rows: list[DegreeTableRow]) -> str:
    payload = {"rows": []}
    for r in rows:
        entry = {
            "d": r.d,
            "q_d": str(r.q_d),
            "n_points": r.n_points,
            "caveat": r.caveat,
        }
        if r.n_d is not None:
            entry["n_d"] = str(r.n_d)
        if r.note():
            entry["note"] = r.note()
        payload["rows"].append(entry)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


RENDERERS = {"md": render_markdown, "csv": render_csv, "json": render_json}
