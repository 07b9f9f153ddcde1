"""Decision procedures over the bundled classification tables.

The two tables (18 rows for the K3 case, 26 for the Enriques case) ship as
JSON and are the only source of the classification: the classifiers take the
divisibility facts as *inputs* - computed upstream when lattice data is
available - and pick the unique row whose p, range of c and conditions fit.
Every query selects rows by p and c through one matcher, ``_rows``, and the
admissible primes are worked out from the rank bound c (p - 1) <= 19.
Every classification, from typed-in facts here or from a model's witnesses in
``pipeline``, ends in one picker, ``pick_row``: any count of fitting rows other
than one is a ``FactsError`` that names the rows considered, the rows that fit
and what was found.  K3 facts are optional: a missing fact fits every row.
The Enriques classifier additionally re-derives its answer: it classifies
the double cover, then runs the group-extension filter with the row's
recorded facts and checks that exactly the stored group survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .data import data_dir, load_json
from .groups import (
    CATALOG_ORDER,
    ExtensionConstraint,
    abelianization_invariants,
    catalog_group,
    filter_extensions,
)
from .lattice_core import is_prime


class FactsError(ValueError):
    """The supplied facts are inconsistent with, or insufficient for, the tables."""


# c disjoint A_{p-1} chains span a negative-definite sublattice of rank
# c (p - 1) in the Picard lattice, of signature (1, rho - 1) with rho <= 20
_RANK_BOUND = 19
_K3_PRIMES = tuple(p for p in range(2, _RANK_BOUND + 2) if is_prime(p))

_W_TEXT = {
    "primitive": "the configuration on the quotient surface is primitive",
    "nonprimitive": "the configuration on the quotient surface is not primitive",
    "one_K": "the quotient configuration contains exactly one 2-divisible 4-point set",
    "two_K": "the quotient configuration is a union of two 2-divisible 4-point sets",
    "two_K_plus_A1": "the quotient configuration is a union of two 2-divisible "
    "4-point sets and one extra curve",
    "three_K": "the quotient configuration is a union of three 2-divisible 4-point sets",
    "one_T": "the quotient configuration contains exactly one 3-divisible chain triple",
}

_COVER_TEXT = {
    "primitive": "the doubled configuration on the cover is primitive",
    "nonprimitive": "the doubled configuration on the cover is not primitive",
    "one_H": "the cover carries exactly one 2-divisible 8-point subset",
    "two_H": "the cover configuration is a union of two 2-divisible 8-point subsets",
    "three_H": "the cover configuration is a union of three 2-divisible 8-point subsets",
    "one_R": "the cover carries exactly one 3-divisible 6-point subset",
    "two_R": "the cover configuration is a union of two 3-divisible 6-point subsets",
}


@dataclass(frozen=True)
class Pi1Descriptor:
    """A fundamental group: a catalog finite group or a symbolic infinite extension."""

    kind: str  # "finite" | "infinite_extension"
    name: Optional[str] = None
    kernel_printed: Optional[str] = None
    quotient: Optional[str] = None

    @staticmethod
    def from_json(obj: dict) -> "Pi1Descriptor":
        return Pi1Descriptor(
            kind=obj["kind"],
            name=obj.get("name"),
            kernel_printed=obj.get("kernel_printed"),
            quotient=obj.get("quotient"),
        )

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def order(self):
        if self.is_finite:
            return catalog_group(self.name).order
        return "infinite"

    def display(self) -> str:
        if self.is_finite:
            return self.name
        return f"extension of {self.quotient} by {self.kernel_printed}"


@dataclass(frozen=True)
class TableRow:
    table: int
    number: int
    p: int
    c: int
    condition_text: str
    pi1: Pi1Descriptor
    sing_y: Optional[str]
    realizable: object  # True or "unknown"


@dataclass(frozen=True)
class K3Input:
    p: int
    c: int
    facts: Optional[str] = None  # primitive | nonprimitive | one_H | two_H | one_R | two_R


@dataclass(frozen=True)
class EnriquesInput:
    p: int
    c: int
    w: Optional[str] = None
    cover: Optional[str] = None


@lru_cache(maxsize=None)
def _table_from(table_id: int, source: str) -> tuple[dict, ...]:
    data = load_json(f"table{table_id}.json")
    return tuple(data["rows"])


def _table(table_id: int) -> tuple[dict, ...]:
    return _table_from(table_id, str(data_dir()))


def _rows(table_id: int, p: Optional[int] = None, c: Optional[int] = None) -> list[dict]:
    """The rows of a table whose prime is p (a row's "gt7" stands for every
    p > 7) and whose range of c holds c; None matches every row."""
    return [
        r
        for r in _table(table_id)
        if (p is None or r["p"] == p or (r["p"] == "gt7" and p > 7))
        and (c is None or r["c_min"] <= c <= r["c_max"])
    ]


def _realizability(row: dict) -> object:
    return True if row["realizable"] is True else "unknown"


def _table_row(
    table_id: int, row: dict, p: int, c: int, condition_text: str, sing_y: Optional[str]
) -> TableRow:
    return TableRow(
        table=table_id,
        number=row["no"],
        p=p,
        c=c,
        condition_text=condition_text,
        pi1=Pi1Descriptor.from_json(row["pi1"]),
        sing_y=sing_y,
        realizable=_realizability(row),
    )


def pick_row(
    table_id: int, p: int, c: int, fits: Callable[[dict], bool], found: Callable[[], str]
) -> dict:
    """The one row of the table at (p, c) that ``fits``, as stored.  Any other count
    of fitting rows is a FactsError naming the rows considered, the rows that fit and
    ``found()``, the caller's account of its facts, which is built only on a miss."""
    rows = _rows(table_id, p, c)
    fit = [r for r in rows if fits(r)]
    if len(fit) != 1:
        raise FactsError(f"Table {table_id} rows {[r['no'] for r in rows]} at p = {p}, c = {c} "
                         f"considered, {[r['no'] for r in fit]} fit; {found()}")
    return fit[0]


# ---------------------------------------------------------------------------
# cover arithmetic


def cover_euler_solutions() -> list[tuple[int, int, str]]:
    """All (p, c) admitting a degree-p cyclic cover branched at every point.

    With c points of type A_{p-1} on a K3, the cover Z satisfies
    e(Z) - c = p (24 - c p) and a canonical-trivial smooth surface has
    e(Z) = 0 (abelian) or 24 (K3); the search space is bounded by the rank
    constraint c (p - 1) <= 19.
    """
    out = []
    for p in _K3_PRIMES:
        for c in range(1, _RANK_BOUND // (p - 1) + 1):
            euler = p * (24 - c * p) + c
            if euler == 0:
                out.append((p, c, "abelian"))
            elif euler == 24:
                out.append((p, c, "K3"))
    return sorted(out)


def admissible_pairs(surface: str) -> list[tuple[int, int]]:
    """(p, largest admissible c) for each prime, per surface kind, read off the table."""
    table_id = {"K3": 1, "Enriques": 2}.get(surface)
    if table_id is None:
        raise ValueError("surface must be 'K3' or 'Enriques'")
    out = []
    for p in _K3_PRIMES:
        cs = [r["c_max"] for r in _rows(table_id, p)]
        if cs:
            out.append((p, max(cs)))
    return out


def transport_singularities(count: int, ramified: int, p: int) -> int:
    """Point count downstairs -> upstairs along a degree-p cover branched at
    `ramified` of the points: branch points smooth out, the rest lift p-fold."""
    if not 0 <= ramified <= count:
        raise ValueError("ramification set is not a subset of the singular set")
    return (count - ramified) * p


def _render_sing_y(row: dict, p: int, c: int) -> str:
    kind = row["sing_y"]["kind"]
    if kind == "same_as_x":
        return f"{c}A{p - 1} (Y = X)"
    if kind == "plane":
        return "Y = C^2"
    count = c
    for ram in row["tower"]:
        count = transport_singularities(count, ram, p)
    return "smooth" if count == 0 else f"{count}A{p - 1}"


# ---------------------------------------------------------------------------
# the K3 classifier


def k3_classify(inp: K3Input) -> TableRow:
    p, c = inp.p, inp.c
    if p not in _K3_PRIMES:
        raise FactsError(f"p = {p} is not an admissible prime (needs p <= {_K3_PRIMES[-1]}, prime)")
    row = pick_row(1, p, c, lambda r: inp.facts in (None, r["condition"]),
                   lambda: f"facts = {inp.facts}")
    return _table_row(1, row, p, c, row["condition_text"], _render_sing_y(row, p, c))


# ---------------------------------------------------------------------------
# the Enriques classifier


def _enriques_condition_text(row: dict) -> str:
    parts = []
    if row.get("w"):
        parts.append(_W_TEXT[row["w"]])
    if row.get("cover"):
        parts.append(_COVER_TEXT[row["cover"]])
    return "; ".join(parts)


def _derive_enriques_group(row: dict, p: int, c: int) -> None:
    """Re-derive the stored group from the double cover plus extension facts."""
    kernel_name = row["kernel"]
    k3row = k3_classify(K3Input(p, 2 * c, row["k3_facts"]))
    if kernel_name == "infinite":
        if k3row.pi1.is_finite:
            raise FactsError("internal: expected an infinite cover group")
        return
    if not k3row.pi1.is_finite or k3row.pi1.name != kernel_name:
        raise FactsError(
            f"internal: cover classification gave {k3row.pi1.display()}, "
            f"table stores kernel {kernel_name}"
        )
    kernel = abelianization_invariants(catalog_group(kernel_name))
    constraint = ExtensionConstraint(kernel, 2, tuple(row["ext_facts"]))
    survivors = filter_extensions(constraint, [catalog_group(name) for name in CATALOG_ORDER])
    expected = catalog_group(row["pi1"]["name"]).name
    if [g.name for g in survivors] != [expected]:
        raise FactsError(
            f"facts underdetermine row: extension filter left "
            f"{[g.name for g in survivors]} instead of [{expected}]"
        )


def enriques_classify(inp: EnriquesInput) -> TableRow:
    p, c = inp.p, inp.c
    row = pick_row(2, p, c,
                   lambda r: r.get("w") in (None, inp.w) and r.get("cover") in (None, inp.cover),
                   lambda: f"w = {inp.w}, cover = {inp.cover}")
    _derive_enriques_group(row, p, c)
    return _table_row(2, row, p, c, _enriques_condition_text(row), None)


# ---------------------------------------------------------------------------
# table lookup


def table_lookup(
    table_id: int,
    row: Optional[int] = None,
    p: Optional[int] = None,
    c: Optional[int] = None,
    finite: Optional[bool] = None,
    realizable: Optional[object] = None,
) -> list[dict]:
    """Pure data query over the bundled tables; rows come back as stored."""
    if table_id not in (1, 2):
        raise ValueError("table must be 1 or 2")
    return [
        dict(r)
        for r in _rows(table_id, p, c)
        if row in (None, r["no"])
        and finite in (None, r["pi1"]["kind"] == "finite")
        and realizable in (None, _realizability(r))
    ]
