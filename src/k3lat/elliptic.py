"""Elliptic fibration models on K3 surfaces: fibre component graphs, the
height pairing on sections, and exact verification of divisibility relations.

Only chi = 2 is modelled.  A spec lists the torsion sections it uses, not the
Mordell-Weil order, and their intersection numbers form one table that is
checked when the spec is made.  Heights and relation checks both run over
exact rationals; a fibre's local height corrections are read off the inverse
of its own intersection matrix, the block it places in the formal pairing.  A
divisibility relation ``lhs = p * rhs`` between formal combinations of the
zero section, listed sections, a general fibre F and fibre components is
verified in the formal-radical model: the formal module surjects onto the
class group, the pairing descends, and the class pairing is nondegenerate, so
``lhs - p*rhs`` maps to zero exactly when it pairs to zero with every
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .lattice_core import (
    GramLattice, identity_matrix, mat_mul, solve_left, span_coordinates, transpose, typed,
)

FIBRE_SYMBOL = "F"
CHI = 2  # the Euler characteristic of the structure sheaf of a K3 surface

# multiplicities and bonds of the additive fibre graphs; components are kept
# in label order, the zero section meets component 0
_ADDITIVE = {
    "I0*": {"mults": (1, 1, 1, 1, 2), "bonds": ((0, 4), (1, 4), (2, 4), (3, 4))},
    "IV*": {
        "mults": (1, 2, 1, 2, 1, 2, 3),
        "bonds": ((0, 1), (2, 3), (4, 5), (1, 6), (3, 6), (5, 6)),
    },
    "III*": {
        "mults": (1, 2, 3, 4, 3, 2, 1, 2),
        "bonds": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)),
    },
    "II*": {
        "mults": (1, 2, 3, 4, 5, 6, 4, 2, 3),
        "bonds": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)),
    },
}


@dataclass(frozen=True)
class KodairaFibre:
    """One singular fibre with named components."""

    fibre_id: str
    kind: str  # "In", "I0*", "II*", "III*", "IV*"
    labels: tuple[str, ...]
    n: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind != "In" and self.kind not in _ADDITIVE:
            raise ValueError(f"fibre {self.fibre_id}: unknown fibre kind {self.kind!r}")
        if self.kind == "In" and self.n < 1:
            raise ValueError(f"fibre {self.fibre_id}: In fibres need n >= 1")
        want = len(self.multiplicities)
        if len(self.labels) != want:
            raise ValueError(f"fibre {self.fibre_id}: expected {want} component labels")

    @property
    def euler(self) -> int:
        """The number of components, plus one for an additive fibre."""
        return len(self.labels) + (self.kind != "In")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        if self.kind == "In":
            return (1,) * self.n
        return _ADDITIVE[self.kind]["mults"]

    def intersection_matrix(self) -> list[list[int]]:
        return _intersection_matrix(self.kind, len(self.labels))

    def simple_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.multiplicities) if m == 1]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"fibre {self.fibre_id} has no component {label!r}") from None


def _intersection_matrix(kind: str, size: int) -> list[list[int]]:
    """Intersection numbers of the ``size`` components of a fibre of this kind:
    -2 on the diagonal, plus one for each bond (so I1's component has
    self-intersection 0, and the two components of I2 meet twice)."""
    if kind != "In":
        bonds = _ADDITIVE[kind]["bonds"]
    elif size == 1:
        bonds = [(0, 0)]
    elif size == 2:
        bonds = [(0, 1), (0, 1)]
    else:
        bonds = [(i, (i + 1) % size) for i in range(size)]
    M = [[-2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j in bonds:
        M[i][j] += 1
        M[j][i] += 1
    return M


@dataclass(frozen=True)
class SectionIncidence:
    """Which simple component a section meets on each fibre, plus intersection numbers."""

    name: str
    meets: dict  # fibre_id -> component label; omitted fibres default to index 0
    dot_zero: int = 0
    dots: dict = field(default_factory=dict)  # other section name -> intersection number


@dataclass(frozen=True)
class FibrationSpec:
    """An elliptic K3 fibration: fibres, zero section, declared torsion sections."""

    fibres: tuple[KodairaFibre, ...]
    zero_section: str
    sections: tuple[SectionIncidence, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        ids = [f.fibre_id for f in self.fibres]
        twice = [i for k, i in enumerate(ids) if i in ids[:k]]
        if twice:
            raise ValueError(f"duplicate fibre ids: {twice[0]!r}")
        all_labels = [l for f in self.fibres for l in f.labels]
        twice = [l for k, l in enumerate(all_labels) if l in all_labels[:k]]
        if twice:
            raise ValueError(
                f"component labels must be globally unique: {twice[0]!r} is used twice"
            )
        names = [self.zero_section] + [s.name for s in self.sections]
        fibre_of = {l: f.fibre_id for f in self.fibres for l in f.labels}
        for symbol in (FIBRE_SYMBOL, *names):
            if symbol in fibre_of:
                raise ValueError(
                    f"component label {symbol!r} of fibre {fibre_of[symbol]} clashes "
                    "with a section or fibre symbol"
                )
        for s in self.sections:
            for fid, label in s.meets.items():
                fibre = self.fibre(fid)
                idx = fibre.index_of(label)
                if idx not in fibre.simple_indices():
                    raise ValueError(
                        f"section {s.name} meets non-simple component {label} of {fid}"
                    )
        # one symmetric table {frozenset({a, b}): a.b} of the numbers the sections
        # record (dot_zero, dots): integers, for distinct sections, equal if recorded twice
        twice = [n for i, n in enumerate(names) if n in names[:i]]
        if twice:
            raise ValueError(f"two sections are named {twice[0]!r}")
        table = {}
        for s in self.sections:
            for other, value in [(self.zero_section, s.dot_zero), *s.dots.items()]:
                if other not in names or other == s.name:
                    raise ValueError(f"section {s.name}: {other!r} is not another section")
                if type(value) is not int:
                    raise ValueError(f"section {s.name}: {value!r} for {other} is not an integer")
                key = frozenset((s.name, other))
                if table.setdefault(key, value) != value:
                    raise ValueError(
                        f"sections {s.name}, {other}: recorded as {table[key]} and {value}"
                    )
        object.__setattr__(self, "_dots", table)

    def fibre(self, fibre_id: str) -> KodairaFibre:
        for f in self.fibres:
            if f.fibre_id == fibre_id:
                return f
        raise ValueError(f"unknown fibre id {fibre_id!r}")

    def section(self, name: str) -> SectionIncidence:
        for s in self.sections:
            if s.name == name:
                return s
        raise ValueError(f"unknown section {name!r}")

    def meet_index(self, section: SectionIncidence, fibre: KodairaFibre) -> int:
        label = section.meets.get(fibre.fibre_id)
        if label is None:
            return 0
        return fibre.index_of(label)

    def section_dot(self, a: str, b: str) -> int:
        if a == b:
            return -CHI
        try:
            return self._dots[frozenset((a, b))]
        except KeyError:
            raise ValueError(f"no recorded intersection number for sections {a}, {b}") from None


def parse_fibration(obj: dict) -> FibrationSpec:
    """Parse the JSON fibration format; a field of the wrong JSON type is refused by its path."""
    typed(obj, dict, "the top level")
    fibres = []
    for i, f in enumerate(typed(obj["fibres"], list, "fibres")):
        at = f"fibres[{i}]"
        typed(f, dict, at)
        fibres.append(
            KodairaFibre(
                kind=typed(f["type"], str, f"{at}.type"),
                fibre_id=typed(f.get("id", f"fib{i}"), str, f"{at}.id"),
                labels=tuple(typed(f["labels"], [str], f"{at}.labels")),
                n=typed(f.get("n", 0), int, f"{at}.n"),
            )
        )
    sections = []
    for i, s in enumerate(typed(obj.get("sections", []), list, "sections")):
        at = f"sections[{i}]"
        typed(s, dict, at)
        sections.append(
            SectionIncidence(
                name=typed(s["name"], str, f"{at}.name"),
                meets={
                    fid: typed(label, str, f"{at}.meets[{fid!r}]")
                    for fid, label in typed(s.get("meets", {}), dict, f"{at}.meets").items()
                },
                dot_zero=typed(s.get("dot_zero", 0), int, f"{at}.dot_zero"),
                dots=dict(typed(s.get("dots", {}), dict, f"{at}.dots")),
            )
        )
    if typed(obj.get("chi", CHI), int, "chi") != CHI:
        raise ValueError("only chi = 2 surfaces are modelled")
    return FibrationSpec(
        fibres=tuple(fibres),
        zero_section=typed(obj["zero_section"], str, "zero_section"),
        sections=tuple(sections),
        name=obj.get("name"),
    )


# ---------------------------------------------------------------------------
# height pairing


def local_contribution(fibre: KodairaFibre, i: int, j: int) -> Fraction:
    """Local correction term of the height pairing for simple components i, j.

    The term vanishes when either index is 0; otherwise it is entry (i, j) of
    the inverse of N, the negated intersection matrix of the components other
    than 0 (a Cartan matrix), which is worked out once per fibre type.
    """
    mults = fibre.multiplicities
    for idx in (i, j):
        if not 0 <= idx < len(mults):
            raise ValueError(f"fibre {fibre.fibre_id} has no component index {idx}")
        if mults[idx] != 1:
            raise ValueError(f"component {idx} of {fibre.fibre_id} is not simple")
    if i == 0 or j == 0:
        return Fraction(0)
    return Fraction(_cartan_inverse(fibre.kind, len(mults))[i - 1][j - 1])


@cache
def _cartan_inverse(kind: str, size: int) -> tuple[tuple, ...]:
    """N^-1 for a fibre of this kind with ``size`` components: its rows solve
    x N = e_k, and all of them share one reduction of N."""
    N = [[-x for x in row[1:]] for row in _intersection_matrix(kind, size)[1:]]
    return tuple(tuple(solve_left(N, e)) for e in identity_matrix(len(N)))


def height_pair(P: str, Q: str, spec: FibrationSpec) -> Fraction:
    """Height pairing: chi + P.O + Q.O - P.Q - sum of local terms.

    For P = Q this is 2 chi + 2 (P.O) - sum, since a section has
    self-intersection -chi.
    """
    sp, sq = spec.section(P), spec.section(Q)
    total = Fraction(CHI + sp.dot_zero + sq.dot_zero - spec.section_dot(P, Q))
    for fibre in spec.fibres:
        i = spec.meet_index(sp, fibre)
        j = spec.meet_index(sq, fibre)
        total -= local_contribution(fibre, i, j)
    return total


def height(P: str, spec: FibrationSpec) -> Fraction:
    """Height of a section: 2 chi + 2 (P.O) - sum of local correction terms."""
    return height_pair(P, P, spec)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_fibration(spec: FibrationSpec) -> ValidationReport:
    """Euler number 24, rank-20 component count, zero height for torsion sections."""
    checks = []
    euler = sum(f.euler for f in spec.fibres)
    checks.append(
        ValidationCheck("euler_sum_24", euler == 24, f"sum of fibre Euler numbers = {euler}")
    )
    st = sum(len(f.labels) - 1 for f in spec.fibres) + 2
    checks.append(
        ValidationCheck(
            "shioda_tate_20", st == 20, f"components - fibres + 2 = {st} (finite Mordell-Weil)"
        )
    )
    for s in spec.sections:
        h = height(s.name, spec)
        checks.append(
            ValidationCheck(f"torsion_height_{s.name}", h == 0, f"h({s.name}) = {h}")
        )
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# the formal pairing and radical membership


def generators(spec: FibrationSpec) -> list[str]:
    out = [spec.zero_section] + [s.name for s in spec.sections] + [FIBRE_SYMBOL]
    for f in spec.fibres:
        out.extend(f.labels)
    return out


def formal_gram(spec: FibrationSpec) -> tuple[list[str], list[list[int]]]:
    """Integer intersection matrix on the formal generators."""
    gens = generators(spec)
    pos = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    G = [[0] * n for _ in range(n)]
    section_names = [spec.zero_section] + [s.name for s in spec.sections]

    for a in section_names:
        for b in section_names:
            G[pos[a]][pos[b]] = spec.section_dot(a, b)
        G[pos[a]][pos[FIBRE_SYMBOL]] = G[pos[FIBRE_SYMBOL]][pos[a]] = 1

    for fibre in spec.fibres:
        base = [pos[l] for l in fibre.labels]
        for a, row in zip(base, fibre.intersection_matrix()):
            for b, x in zip(base, row):
                G[a][b] = x
        # zero section meets component 0
        G[pos[spec.zero_section]][base[0]] = G[base[0]][pos[spec.zero_section]] = 1
        for s in spec.sections:
            idx = spec.meet_index(s, fibre)
            G[pos[s.name]][base[idx]] = G[base[idx]][pos[s.name]] = 1
    return gens, G


def class_lattice(spec: FibrationSpec) -> tuple[GramLattice, dict]:
    """The formal module modulo the radical of its pairing, as the row span of
    the formal Gram matrix G, with the image of every formal generator; since
    combos[i] G = basis[i], the Gram entry (i, j) is combos[i] . basis[j]."""
    gens, G = formal_gram(spec)
    basis, coords, combos = span_coordinates(G)
    return GramLattice(mat_mul(combos, transpose(basis))), dict(zip(gens, map(tuple, coords)))


def divisor_vector(spec: FibrationSpec, coeffs: dict) -> list[Fraction]:
    gens = generators(spec)
    pos = {g: i for i, g in enumerate(gens)}
    v = [Fraction(0)] * len(gens)
    for symbol, value in coeffs.items():
        if symbol not in pos:
            raise ValueError(f"unknown generator symbol {symbol!r}")
        v[pos[symbol]] = Fraction(value)
    return v


def in_radical(spec: FibrationSpec, v: Sequence[Fraction]) -> bool:
    """True when G v = 0 for the formal Gram matrix G.  The denominators of v
    are cleared once, so every product is taken over the integers."""
    _, G = formal_gram(spec)
    scale = lcm(*(Fraction(x).denominator for x in v))
    w = [int(x * scale) for x in v]
    return all(sum(map(mul, row, w)) == 0 for row in G)


def verify_divisibility_relation(spec: FibrationSpec, lhs: dict, p: int, rhs: dict) -> bool:
    """True when lhs - p * rhs pairs to zero with every formal generator."""
    vl = divisor_vector(spec, lhs)
    vr = divisor_vector(spec, rhs)
    v = [a - p * b for a, b in zip(vl, vr)]
    return in_radical(spec, v)


def fibre_relation(fibre: KodairaFibre) -> dict:
    """The kernel element sum(m_i C_i) - F attached to one fibre."""
    rel = {label: m for label, m in zip(fibre.labels, fibre.multiplicities)}
    rel[FIBRE_SYMBOL] = -1
    return rel


def parse_divisor(obj: dict, path: str = "divisor") -> dict:
    """Divisor JSON: symbol -> integer, or string in ``fractions.Fraction`` syntax
    (``"1/3"``; ``"1.5"`` is 3/2); another coefficient is refused by its path."""
    return {k: Fraction(v if isinstance(v, str) else typed(v, int, f"{path}[{k!r}]"))
            for k, v in typed(obj, dict, path).items()}
