"""Finite groups as explicit multiplication tables.

Groups are built from presentations by plain coset enumeration over the
trivial subgroup, with a hard coset bound; element 0 is the identity and the
numbering is breadth-first word order, so tables are reproducible.  Words
use one lowercase letter per generator, a capital letter for its inverse,
and a trailing integer for a power ("a4" = aaaa, "acBA3C" = a c b' a'a'a' c').

Subgroup enumeration is exhaustive closure of element subsets; everything
here targets orders <= 36, where brute force is exact and immediate.  The
invariants of G/[G,G] are read off the Smith form of one relation matrix.

Each table is built and checked (Light's test) once and keeps its derived
data.  A subgroup is a set of its parent's elements, read in the parent's
table.  Normality is checked by conjugating with the generators.  The
extension filter finds the abelian kernel K by its invariants: a subgroup of
order |K| with K's invariants is abelian, so it is isomorphic to K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from typing import Collection, Optional, Sequence

from .lattice_core import AbelianInvariants, invariant_factors


class EnumerationBound(RuntimeError):
    """Coset enumeration exceeded its bound: possibly infinite or bound too small."""


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, str) or len(g) != 1 or not g.islower():
                raise ValueError("generator names must be single lowercase letters")
        if not all(isinstance(r, str) for r in self.relators):
            raise ValueError("relators must be words, given as strings")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")


DEFAULT_COSET_BOUND = 10_000  # cosets one enumeration may define unless told otherwise
MAX_WORD_LENGTH = DEFAULT_COSET_BOUND  # letters in one expanded word
MAX_COSET_BOUND = 1_000_000  # cosets one enumeration may define, at about 140 B each


def parse_word(word: str, generators: Sequence[str]) -> list[int]:
    """Translate a word string into signed generator letters.

    Returns letter indices into [g0, g1, ..., g0^-1, g1^-1, ...].
    """
    k = len(generators)
    pos = {g: i for i, g in enumerate(generators)}
    letters: list[int] = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch.lower() not in pos:
            raise ValueError(f"unknown generator letter {ch!r} in word {word!r}")
        letter = pos[ch.lower()] + (k if ch.isupper() else 0)
        i += 1
        start, count = i, 0
        while i < len(word) and word[i].isdigit():
            count = 10 * count + int(word[i])
            i += 1
            if len(letters) + count > MAX_WORD_LENGTH:
                raise ValueError(f"word {word!r} expands past {MAX_WORD_LENGTH} letters")
        letters.extend([letter] * (count if i > start else 1))  # "a0" is the empty word
    return letters


# ---------------------------------------------------------------------------
# coset enumeration


class _CosetGraph:
    def __init__(self, nletters: int):
        self.nletters = nletters
        self.labels: list[int] = []
        self.neighbors: list[list[int]] = []

    def new_coset(self) -> int:
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([-1] * self.nletters)
        return c

    def find(self, c: int) -> int:
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def unify(self, c1: int, c2: int):
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            for d in range(self.nletters):
                n1 = self.neighbors[a][d]
                n2 = self.neighbors[b][d]
                if n1 == -1:
                    self.neighbors[a][d] = n2
                elif n2 != -1:
                    queue.append((n1, n2))

    def step(self, c: int, letter: int) -> int:
        c = self.find(c)
        if self.neighbors[c][letter] == -1:
            self.neighbors[c][letter] = self.new_coset()
        return self.find(self.neighbors[c][letter])

    def follow(self, c: int, word: Sequence[int]) -> int:
        for letter in word:
            c = self.step(c, letter)
        return c


def _enumerate_cosets(pres: GroupPresentation, bound: int) -> tuple[_CosetGraph, list[int]]:
    k = len(pres.generators)
    graph = _CosetGraph(2 * k)
    relators = [parse_word(w, pres.generators) for w in pres.relators]
    # edge-consistency relators g g^-1 and g^-1 g
    for g in range(k):
        relators.append([g, g + k])
        relators.append([g + k, g])
    graph.new_coset()
    to_visit = 0
    while to_visit < len(graph.labels):
        if len(graph.labels) > bound:
            raise EnumerationBound("possibly infinite or bound too small")
        c = graph.find(to_visit)
        if c == to_visit:
            for rel in relators:
                graph.unify(graph.follow(c, rel), c)
        to_visit += 1
    live = sorted({graph.find(c) for c in range(len(graph.labels))})
    return graph, live


# ---------------------------------------------------------------------------
# multiplication tables


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group: element 0 is the identity, table[i][j] = i * j.

    The derived data - a generating set, the subgroups and the abelian
    invariants - is computed on first read and kept on the instance.  Loops
    read ``table`` into a local: once a cached value has filled the instance
    ``__dict__``, every attribute read on the instance is slower.
    """

    table: tuple[tuple[int, ...], ...]
    generator_images: dict = field(default_factory=dict, hash=False)
    name: Optional[str] = None

    def __post_init__(self):
        n = self.order
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        for row in self.table:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("malformed multiplication table")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("element 0 is not an identity")
        for i, row in enumerate(self.table):
            if 0 not in row:
                raise ValueError(f"element {i} has no inverse")
        # Light's test: the g with (a b) g = a (b g) for all a, b are closed under
        # products, so checking a generating set checks every triple
        t = self.table
        for g in self.generators:
            for row in t:
                for b in range(n):
                    if t[row[b]][g] != row[t[b][g]]:
                        raise ValueError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def element_order(self, a: int) -> int:
        t, k, x = self.table, 1, a
        while x != 0:
            x = t[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return _generating_set(self.table, range(self.order))

    @cached_property
    def _subgroups(self) -> list[frozenset]:
        """Every subgroup, by exhaustive closure, sorted by size and then elements."""
        memo: dict = {}
        trivial = frozenset({0})
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for H in frontier:
                for g in range(1, self.order):
                    if g in H:
                        continue
                    K = _close(self.table, H | {g}, memo)
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
            frontier = nxt
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    @cached_property
    def _abelian_invariants(self) -> AbelianInvariants:
        return _abelianization(self.table, self.generators)


def _multiplication_table(pres: GroupPresentation, bound: int) -> tuple[tuple, dict]:
    graph, live = _enumerate_cosets(pres, bound)
    k = len(pres.generators)

    # breadth-first from the identity, parents in order and generators before
    # inverses, so discovery order is shortlex order of each coset's least word
    start = graph.find(0)
    ordering = [start]
    renum = {start: 0}
    parent: dict[int, tuple[int, int]] = {}  # d -> (c, letter): d's least word is c's + letter
    for c in ordering:  # the list grows while it is read: it is the BFS queue
        for letter in range(2 * k):
            d = graph.step(c, letter)
            if d not in renum:
                renum[d] = len(ordering)
                ordering.append(d)
                parent[d] = (c, letter)

    # c * d follows d's word from c: one step from c * (d's BFS parent),
    # which comes earlier in the ordering because its word is shorter
    assert len(ordering) == len(live)
    table = []
    for c in ordering:
        row = {start: c}
        for d in ordering[1:]:
            up, letter = parent[d]
            row[d] = graph.step(row[up], letter)
        table.append([renum[row[d]] for d in ordering])
    images = {g: renum[graph.step(start, i)] for i, g in enumerate(pres.generators)}
    return tuple(map(tuple, table)), images


def group_from_presentation(
    pres: GroupPresentation, bound: int = DEFAULT_COSET_BOUND
) -> FiniteGroupTable:
    """Coset enumeration over the trivial subgroup, returning the full table."""
    return FiniteGroupTable(*_multiplication_table(pres, bound))


# ---------------------------------------------------------------------------
# subgroup machinery


def _close(table: Sequence[Sequence[int]], seed: frozenset, memo: dict) -> frozenset:
    if seed in memo:
        return memo[seed]
    elems = set(seed) | {0}
    frontier = list(elems)
    while frontier:
        new = []
        for a in list(elems):
            for b in frontier:
                for x in (table[a][b], table[b][a]):
                    if x not in elems:
                        elems.add(x)
                        new.append(x)
        frontier = new
    out = frozenset(elems)
    memo[seed] = out
    return out


def _generating_set(table: Sequence[Sequence[int]], S: Collection[int]) -> tuple[int, ...]:
    """Each generator of S is the least element of S outside the span of those before it."""
    gens: list[int] = []
    span = frozenset({0})
    for x in sorted(S):
        if x not in span:
            gens.append(x)
            span = _close(table, span | {x}, {})  # every seed is new: nothing to memoize
    return tuple(gens)


def _abelianization(table: Sequence[Sequence[int]], gens: Sequence[int]) -> AbelianInvariants:
    """Invariant factors of S/[S,S] for the subgroup S that gens generate, from one Smith form.

    The abelian group on symbols e_g with relations e_s + e_b = e_{s b}, for
    s in gens and b in S, is S/[S,S]: every element is a positive word in the
    generators, so e_{g h} = e_g + e_h follows by induction on the length of g,
    and g -> e_g is the universal map to an abelian group.  The edges of a
    breadth-first tree from 0 set e_0 = 0 and write every other e_g as a sum of
    the e_s, so the remaining relations are rows over the e_s alone.
    """
    exponents = {0: [0] * len(gens)}  # e_g as a sum of the e_s, along the tree
    queue = [0]
    relations = set()
    for b in queue:  # the list grows while it is read
        for i, s in enumerate(gens):
            step = list(exponents[b])
            step[i] += 1
            g = table[s][b]
            if g not in exponents:
                exponents[g] = step
                queue.append(g)
            else:
                relations.add(tuple(x - y for x, y in zip(step, exponents[g])))
    return AbelianInvariants(tuple(d for d in invariant_factors(list(relations)) if d > 1))


def all_subgroups(G: FiniteGroupTable) -> list[frozenset]:
    """Every subgroup of G, found once and kept on G."""
    return G._subgroups


def is_normal(G: FiniteGroupTable, H: frozenset) -> bool:
    """Conjugation by each generator maps H into itself.

    The g with g H g^-1 in H are closed under products, and every element of a
    finite group is a product of generators, so this holds for every g.
    """
    table = G.table
    for s in G.generators:
        row, s_inv = table[s], table[s].index(0)
        if any(table[row[h]][s_inv] not in H for h in H):
            return False
    return True


def normal_subgroups(G: FiniteGroupTable, order: int) -> list[frozenset]:
    return [H for H in all_subgroups(G) if len(H) == order and is_normal(G, H)]


def count_normal_subgroups(G: FiniteGroupTable, index: int) -> int:
    if index < 1 or G.order % index != 0:
        return 0
    return len(normal_subgroups(G, G.order // index))


def _maps_onto(G: FiniteGroupTable, H: FiniteGroupTable, S: Collection[int]) -> bool:
    """Generator-image backtracking search for an isomorphism of G onto the subgroup S of H."""
    if G.order != len(S):
        return False
    g_orders = [G.element_order(g) for g in range(G.order)]
    h_orders = {h: H.element_order(h) for h in sorted(S)}
    if sorted(g_orders) != sorted(h_orders.values()):
        return False
    gens, g_table, h_table = G.generators, G.table, H.table
    candidates = [[h for h, o in h_orders.items() if o == g_orders[g]] for g in gens]

    def build(images) -> bool:
        mapping = {0: 0}
        queue = [0]
        for x in queue:  # the list grows while it is read
            for g, img in zip(gens, images):
                y, iy = g_table[x][g], h_table[mapping[x]][img]
                if y not in mapping:
                    mapping[y] = iy
                    queue.append(y)
                elif mapping[y] != iy:
                    return False
        # every edge x -> x g agrees, so by induction on the length of a word in
        # the generators the map is a homomorphism, defined on all of G; its
        # image lies in S, so an injective one is onto S
        return len(set(mapping.values())) == G.order

    return any(build(images) for images in product(*candidates))


def is_isomorphic(G: FiniteGroupTable, H: FiniteGroupTable) -> bool:
    """Generator-image backtracking search for an isomorphism."""
    return _maps_onto(G, H, range(H.order))


def count_normal_subgroups_isomorphic_to(
    G: FiniteGroupTable, pattern: FiniteGroupTable
) -> int:
    return sum(_maps_onto(pattern, G, N) for N in normal_subgroups(G, pattern.order))


def abelianization_invariants(G: FiniteGroupTable) -> AbelianInvariants:
    """Invariant factors of G/[G,G], computed once and kept on G."""
    return G._abelian_invariants


# ---------------------------------------------------------------------------
# catalog


_CATALOG_PRESENTATIONS: dict[str, GroupPresentation] = {}


def _cp(name: str, gens: str, *rels: str):
    _CATALOG_PRESENTATIONS[name] = GroupPresentation(tuple(gens), tuple(rels))


_cp("1", "a", "a")
for _n in range(2, 11):
    _cp(f"Z/{_n}", "a", f"a{_n}")
_cp("(Z/2)^2", "ab", "a2", "b2", "abAB")
_cp("(Z/2)^3", "abc", "a2", "b2", "c2", "abAB", "acAC", "bcBC")
_cp("(Z/2)^4", "abcd", "a2", "b2", "c2", "d2", "abAB", "acAC", "adAD", "bcBC", "bdBD", "cdCD")
_cp("Z/4xZ/2", "ab", "a4", "b2", "abAB")
_cp("Z/4x(Z/2)^2", "abc", "a4", "b2", "c2", "abAB", "acAC", "bcBC")
_cp("(Z/3)^2", "ab", "a3", "b3", "abAB")
_cp("Z/6xZ/3", "ab", "a6", "b3", "abAB")
_cp("S3", "ab", "a3", "b2", "abab")
_cp("D8", "ab", "a4", "b2", "abab")
_cp("D10", "ab", "a5", "b2", "abab")
_cp("S3xZ/3", "abc", "a3", "b2", "abab", "c3", "acAC", "bcBC")
_cp("D8xZ/2", "abc", "a4", "b2", "abab", "c2", "acAC", "bcBC")
_cp("Gamma2c1", "abc", "a4", "b2", "c2", "abAB", "acBA3C", "bcBC")
_cp("G18/5", "abc", "a3", "b3", "c2", "abAB", "acaC", "bcbC")

CATALOG_ORDER = list(_CATALOG_PRESENTATIONS)


@cache
def catalog_group(name: str) -> FiniteGroupTable:
    if name == "(Z/4xZ/2):Z/2":  # the split-extension name used by the tables
        return catalog_group("Gamma2c1")
    if name not in _CATALOG_PRESENTATIONS:
        raise ValueError(f"unknown catalog group {name!r}")
    pres = _CATALOG_PRESENTATIONS[name]
    return FiniteGroupTable(*_multiplication_table(pres, DEFAULT_COSET_BOUND), name)


# ---------------------------------------------------------------------------
# extension filtering


@dataclass(frozen=True)
class ExtensionConstraint:
    """An extension problem: abelian kernel, quotient order, and observed facts."""

    kernel_invariants: AbelianInvariants
    quotient_order: int
    facts: tuple = ()


def _check_fact(candidate: FiniteGroupTable, fact: dict) -> bool:
    kind = fact["kind"]
    if kind == "normal_count":
        count = count_normal_subgroups(candidate, fact["index"])
    elif kind == "normal_iso_count":
        count = count_normal_subgroups_isomorphic_to(candidate, catalog_group(fact["pattern"]))
    elif kind == "not_isomorphic":
        return not is_isomorphic(candidate, catalog_group(fact["pattern"]))
    else:
        raise ValueError(f"unknown fact kind {kind!r}")
    op = fact.get("op", "eq")
    if op == "eq":
        return count == fact["value"]
    if op == "ge":
        return count >= fact["value"]
    if op == "odd":
        return count % 2 == 1
    raise ValueError(f"unknown fact op {op!r}")


def filter_extensions(
    constraint: ExtensionConstraint, candidates: Sequence[FiniteGroupTable]
) -> list[FiniteGroupTable]:
    """Keep candidates that extend the abelian kernel by the stated quotient
    and satisfy every recorded fact; input order (catalog order) is kept."""
    kernel = constraint.kernel_invariants
    out = []
    for cand in candidates:
        if cand.order != kernel.order * constraint.quotient_order:
            continue
        # a subgroup of order |K| with K's invariants is abelian, so it is K
        if not any(
            _abelianization(cand.table, _generating_set(cand.table, H)) == kernel
            for H in normal_subgroups(cand, kernel.order)
        ):
            continue
        if all(_check_fact(cand, f) for f in constraint.facts):
            out.append(cand)
    return out
