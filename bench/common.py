"""Helpers shared by the workloads: paths, bundled data, table-1 lookup."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "k3lat" / "data"
OUT = ROOT / ".bench_out"
# separates a traced CLI child's own stderr from the span record it appends
MARKER = "\n@@k3lat-bench-record@@"


class Mismatch(Exception):
    """An op gave a wrong answer: a wrong payload or a wrong exit code."""


class Crash(Exception):
    """An op raised, printed a traceback or timed out."""


@lru_cache(maxsize=None)
def load_data(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def table1_row(p: int, c: int, facts: str) -> int:
    """The number of the unique table-1 row for (p, c, facts), read off the
    bundled table itself, so expectations do not come from the classifier."""
    rows = [
        r["no"]
        for r in load_data("table1.json")["rows"]
        if (r["p"] == p or (r["p"] == "gt7" and p > 7))
        and r["c_min"] <= c <= r["c_max"]
        and r["condition"] == facts
    ]
    if len(rows) != 1:
        raise ValueError(f"table 1 has {len(rows)} rows for p={p}, c={c}, {facts}")
    return rows[0]


def k3_facts(p: int, c: int, subsets) -> str:
    """Classifier facts from the witness subsets of a c-chain configuration,
    as ``derive_k3_facts`` in the integration tests reads them."""
    if (p, c) == (2, 12):
        return "one_H" if sum(len(s) == 8 for s in subsets) == 1 else "two_H"
    if (p, c) == (3, 8):
        return "one_R" if sum(len(s) == 6 for s in subsets) == 1 else "two_R"
    return "nonprimitive" if subsets else "primitive"


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")
