"""What the benchmark checks its outputs against.

* The pinned expected-verdict table (``expected_verdicts.json``): for every
  (workload, app, isolation, history seed) it covers, the number of
  predictions each operation must find — one digit per history, or per
  window on the watch workloads; histories are comma-separated in seed
  order. ``build_table.py`` regenerates it.
* Certificates: every SAT prediction must be valid under its isolation
  level and have a cyclic pco fixpoint. Both are graph checks in
  ``repro.isolation``, independent of the SMT encoding.
* Clause families: each public constraint generator's output compiled into
  a fresh ``Solver`` in ``IsoPredict._build``'s order, to say which family
  the end-to-end clause count is made of.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

TABLE_PATH = Path(__file__).with_name("expected_verdicts.json")

FAMILIES = (
    "feasibility", "unser", "isolation",
    "defs.hb", "defs.closure", "defs.ww_rw", "defs.other",
)


def load_table() -> dict:
    """``{workload: {"<app>/<isolation>": [digits per history seed]}}``."""
    with open(TABLE_PATH) as fh:
        table = json.load(fh)
    return {
        workload: {key: row.split(",") for key, row in rows.items()}
        for workload, rows in table.items() if workload != "crosscheck"
    }


def expected_predictions(table: dict, workload: str, key: str) -> Optional[int]:
    """The pinned prediction count of one operation; None when not pinned."""
    app, iso, seed, *window = key.split("/")
    rows = table.get(workload, {}).get(f"{app}/{iso}")
    index = int(seed) - 1
    if rows is None or not 0 <= index < len(rows):
        return None
    digits = rows[index]
    position = int(window[0]) if window else 0
    if position >= len(digits):
        return None
    return int(digits[position])


def certify(history, level) -> bool:
    """A SAT prediction's certificate: valid under ``level`` and unserializable."""
    from repro.isolation import pco_unserializable
    from repro.isolation.checkers import is_valid_under

    return is_valid_under(history, level) and pco_unserializable(history)


# Defined-variable names of ``Encoding.definitions()``, by stratum: hb is
# below everything; closure layer d of round r is (r, d); the round-r ww/rw
# derivations sit between round r-1's closure and round r's.
_STRATUM = re.compile(r"(hb)\[|p0\.c(\d+)\[|q(\d+)\.c(\d+)\[|(?:ww|rw)(\d+)\[")


def _rank(name: str):
    m = _STRATUM.match(name)
    if m is None:
        return None
    if m[1]:
        return (-1, 0, "defs.hb")
    if m[2]:
        return (0, int(m[2]), "defs.closure")
    if m[3]:
        return (int(m[3]), int(m[4]), "defs.closure")
    return (int(m[5]), 0, "defs.ww_rw")


def definition_family(expr) -> str:
    """The family of one definition: that of its highest-stratum variable.

    A definition only mentions its own variable and lower strata, so the
    highest-stratum variable it mentions is the one it defines.
    """
    best = None
    stack, seen = [expr], set()
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if e.kind == "var":
            rank = _rank(e.args[0])
            if rank is not None and (best is None or rank > best):
                best = rank
        elif e.kind in ("not", "and", "or"):
            stack.extend(e.args)
    return "defs.other" if best is None else best[2]


def clause_families(record: dict) -> dict:
    """Clauses per constraint family for one captured encoding."""
    from repro.predict.encoder import Encoding
    from repro.predict.unserializability import (
        approx_unserializability_constraints,
    )
    from repro.predict.weak_isolation import isolation_constraints
    from repro.smt import Solver

    enc = Encoding(*record["args"], **record["kwargs"])
    solver = Solver()
    counts = dict.fromkeys(FAMILIES, 0)

    def compile_into(family: str, exprs) -> None:
        before = solver.num_clauses
        for e in exprs:
            solver.add(e)
        counts[family] += solver.num_clauses - before

    compile_into("feasibility", enc.feasibility_constraints())
    if record["unser"]:
        compile_into("unser", approx_unserializability_constraints(enc))
    compile_into("isolation", isolation_constraints(enc, record["level"]))
    for definition in enc.definitions():
        compile_into(definition_family(definition), (definition,))
    return counts
