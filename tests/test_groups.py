import hashlib
import json
import random
from itertools import permutations, product
from math import prod
from pathlib import Path

import pytest

from k3lat.classifier import EnriquesInput, _table, enriques_classify
from k3lat.data import load_json
from k3lat.groups import (
    CATALOG_ORDER,
    AbelianInvariants,
    EnumerationBound,
    ExtensionConstraint,
    FiniteGroupTable,
    GroupPresentation,
    _abelianization,
    _generating_set,
    _maps_onto,
    abelianization_invariants,
    all_subgroups,
    catalog_group,
    count_normal_subgroups,
    count_normal_subgroups_isomorphic_to,
    filter_extensions,
    group_from_presentation,
    is_isomorphic,
    is_normal,
    normal_subgroups,
    parse_word,
)


def abelian_group_table(invariants):
    """Direct-product table of cyclic groups, independent of coset enumeration."""
    factors = invariants.factors or (1,)
    elems = list(product(*(range(f) for f in factors)))
    elems.sort(key=lambda t: (sum(t), t))  # identity first
    idx = {e: i for i, e in enumerate(elems)}
    table = [
        [idx[tuple((a + b) % f for a, b, f in zip(x, y, factors))] for y in elems] for x in elems
    ]
    return FiniteGroupTable(tuple(map(tuple, table)), name=str(invariants))


def semidirect_z4xz2_by_z2():
    """The split extension of Z/4 x Z/2 by an involution sending x to x^-1 y.

    Written with its own presentation so identifying it with the catalog
    group of order 16 is a genuine check rather than a tautology.
    """
    pres = GroupPresentation(tuple("xyz"), ("x4", "y2", "z2", "xyXY", "zxzYx", "zyzY"))
    return group_from_presentation(pres)


def subgroup_table(G, H):
    """H as a group of its own, in G's element order, built and checked by the constructor."""
    elems = sorted(H)
    assert elems[0] == 0
    idx = {e: i for i, e in enumerate(elems)}
    table = [[idx[G.table[a][b]] for b in elems] for a in elems]
    return FiniteGroupTable(tuple(map(tuple, table)))


def test_parse_word():
    assert parse_word("a4", "ab") == [0, 0, 0, 0]
    assert parse_word("abAB", "ab") == [0, 1, 2, 3]
    assert parse_word("acBA3C", "abc") == [0, 2, 4, 3, 3, 3, 5]
    with pytest.raises(ValueError):
        parse_word("ax", "ab")
    # a zero power is the empty word; a letter without digits is a first power
    assert parse_word("a0", "a") == []
    assert parse_word("a0bA00", "ab") == [1]
    assert parse_word("a10", "a") == [0] * 10


def test_presentation_orders():
    assert group_from_presentation(GroupPresentation(("a",), ("a2",))).order == 2
    assert catalog_group("Gamma2c1").order == 16
    assert catalog_group("G18/5").order == 18
    assert not catalog_group("G18/5").is_abelian()
    assert catalog_group("S3").order == 6
    assert catalog_group("D8").order == 8
    assert catalog_group("D10").order == 10
    assert catalog_group("(Z/2)^4").order == 16
    assert catalog_group("S3xZ/3").order == 18


def test_presentation_orders_beyond_catalog():
    s4 = group_from_presentation(GroupPresentation(("a", "b"), ("a4", "b2", "ababab")))
    assert s4.order == 24 and not s4.is_abelian()
    a4 = group_from_presentation(GroupPresentation(("a", "b"), ("a3", "b3", "abab")))
    assert a4.order == 12
    q8 = group_from_presentation(GroupPresentation(("a", "b"), ("a4", "a2B2", "babA")))
    assert q8.order == 8
    assert count_normal_subgroups(q8, 2) == 3
    assert count_normal_subgroups_isomorphic_to(q8, catalog_group("(Z/2)^2")) == 0
    c500 = group_from_presentation(GroupPresentation(("a",), ("a500",)))
    assert c500.order == 500 and c500.element_order(c500.generator_images["a"]) == 500


def test_group_tables_and_invariants_are_pinned():
    """Element numbering, generator images and abelian invariants, as literals."""
    pins = json.loads((Path(__file__).parent / "data" / "group_pins.json").read_text())
    groups = {name: catalog_group(name) for name in pins["catalog"]}
    for name, pin in pins["presentations"].items():
        pres = GroupPresentation(tuple(pin["gens"]), tuple(pin["rels"]))
        groups[name] = group_from_presentation(pres)
    assert list(pins["catalog"]) == CATALOG_ORDER
    for name, pin in {**pins["catalog"], **pins["presentations"]}.items():
        G = groups[name]
        digest = hashlib.sha256(json.dumps([list(r) for r in G.table]).encode()).hexdigest()
        assert digest == pin["table_sha256"], name
        assert G.generator_images == pin["generator_images"], name
        assert list(abelianization_invariants(G).factors) == pin["invariants"], name


def test_normal_counts_iso_counts_and_filter_survivors_are_pinned():
    """Every catalog group and index, every pattern whose order divides, every table-2 row."""
    pins = json.loads((Path(__file__).parent / "data" / "group_pins.json").read_text())
    catalog = {name: catalog_group(name) for name in CATALOG_ORDER}
    for name, G in catalog.items():
        got = {str(i): count_normal_subgroups(G, i) for i in range(1, G.order + 1)
               if G.order % i == 0}
        assert got == pins["normal_counts"][name], name
        got = {m: count_normal_subgroups_isomorphic_to(G, P) for m, P in catalog.items()
               if G.order % P.order == 0}
        assert got == pins["normal_iso_counts"][name], name
    rows = [r for r in load_json("table2.json")["rows"] if r["kernel"] != "infinite"]
    assert len(rows) == len(pins["filter_survivors"]) == 25
    for row in rows:
        kernel = abelianization_invariants(catalog_group(row["kernel"]))
        constraint = ExtensionConstraint(kernel, 2, tuple(row["ext_facts"]))
        got = [G.name for G in filter_extensions(constraint, list(catalog.values()))]
        assert got == pins["filter_survivors"][str(row["no"])], row["no"]


def test_enumeration_bound():
    free = GroupPresentation(("a", "b"), ())
    with pytest.raises(EnumerationBound):
        group_from_presentation(free, bound=50)
    with pytest.raises(EnumerationBound):  # a zero power is the empty word
        group_from_presentation(GroupPresentation(("a",), ("a0",)), bound=50)


def test_catalog_abelian_groups_match_direct_construction():
    for name, inv in [
        ("Z/6", (6,)),
        ("(Z/2)^3", (2, 2, 2)),
        ("Z/4xZ/2", (2, 4)),
        ("Z/4x(Z/2)^2", (2, 2, 4)),
        ("(Z/3)^2", (3, 3)),
        ("Z/6xZ/3", (3, 6)),
    ]:
        assert is_isomorphic(catalog_group(name), abelian_group_table(AbelianInvariants(inv)))


def test_normal_subgroup_counts():
    assert count_normal_subgroups(catalog_group("(Z/2)^4"), 2) == 15
    assert count_normal_subgroups(catalog_group("Z/4x(Z/2)^2"), 2) == 7
    assert count_normal_subgroups(catalog_group("Gamma2c1"), 2) == 3
    assert count_normal_subgroups(catalog_group("D10"), 5) == 0
    assert count_normal_subgroups(catalog_group("D10"), 2) == 1
    assert count_normal_subgroups(catalog_group("S3"), 3) == 0
    assert count_normal_subgroups(catalog_group("Z/6"), 3) == 1


def test_normal_subgroups_isomorphic_to_pattern():
    v4 = catalog_group("(Z/2)^2")
    assert count_normal_subgroups_isomorphic_to(catalog_group("D8"), v4) == 2
    assert count_normal_subgroups_isomorphic_to(catalog_group("(Z/2)^3"), v4) == 7
    assert count_normal_subgroups_isomorphic_to(catalog_group("Z/8"), v4) == 0
    assert count_normal_subgroups_isomorphic_to(catalog_group("Z/4xZ/2"), v4) == 1


def test_is_isomorphic_basics():
    assert not is_isomorphic(catalog_group("D8"), catalog_group("(Z/2)^3"))
    assert not is_isomorphic(catalog_group("Z/10"), catalog_group("D10"))
    assert is_isomorphic(catalog_group("Z/6"), abelian_group_table(AbelianInvariants((6,))))


def reduced_latin_squares(n):
    """Every n x n Latin square over 0..n-1 whose first row and column are 0..n-1."""
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for perm in permutations(range(n)):
            if perm[0] == len(rows) and all(perm[j] != r[j] for r in rows for j in range(n)):
                extend(rows + [perm])

    extend([tuple(range(n))])
    return out


def test_associativity_check_matches_every_triple():
    """Each of the 56 order-5 loops passes the identity and inverse checks; exactly
    those whose n^3 triples all associate are accepted, the others are rejected."""
    squares = reduced_latin_squares(5)
    accepted = 0
    for t in squares:
        associative = all(t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(range(5), repeat=3))
        try:
            FiniteGroupTable(t)
        except ValueError as e:
            assert not associative and str(e) == "multiplication table is not associative"
        else:
            assert associative
            accepted += 1
    assert (len(squares), accepted) == (56, 6)  # the labellings of Z/5 with identity 0


@pytest.mark.parametrize(
    "table, message",
    [
        (((0, 1), (1,)), "malformed multiplication table"),  # a short row
        (((0, 1), (1, 2)), "malformed multiplication table"),  # an entry out of range
        (((1, 0), (0, 1)), "element 0 is not an identity"),
        (((0, 1, 2), (1, 1, 1), (2, 1, 0)), "element 1 has no inverse"),
    ],
)
def test_table_refusals(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteGroupTable(table)


def test_group_tables_are_hashable():
    d8 = catalog_group("D8")
    assert d8.generator_images
    copy = FiniteGroupTable(d8.table, dict(d8.generator_images), d8.name)
    assert hash(copy) == hash(d8)
    assert len({d8, copy, catalog_group("(Z/2)^3")}) == 2


def relabelled(g, rng):
    """The table of g with its non-identity elements renumbered at random."""
    perm = list(range(1, g.order))
    rng.shuffle(perm)
    perm = [0] + perm
    inv_perm = [perm.index(i) for i in range(g.order)]
    shuffled = [
        [inv_perm[g.table[perm[a]][perm[b]]] for b in range(g.order)] for a in range(g.order)
    ]
    return FiniteGroupTable(tuple(map(tuple, shuffled)))


def test_is_isomorphic_under_shuffled_numbering():
    g = catalog_group("Gamma2c1")
    assert is_isomorphic(g, relabelled(g, random.Random(4)))


def test_isomorphism_invariant_under_random_relabelling():
    rng = random.Random(31)
    groups = [catalog_group(n) for n in CATALOG_ORDER]
    rivals = 0
    for g in groups:
        for _ in range(3):
            h = relabelled(g, rng)
            assert is_isomorphic(g, h) and is_isomorphic(h, g), g.name
            # catalog entries are pairwise non-isomorphic, so every other
            # entry of the same order must still be told apart
            for other in groups:
                if other is not g and other.order == g.order:
                    assert not is_isomorphic(h, other), (g.name, other.name)
                    assert not is_isomorphic(other, h), (g.name, other.name)
                    rivals += 1
    assert rivals >= 60


def test_split_extension_name_matches_order16_group():
    assert is_isomorphic(semidirect_z4xz2_by_z2(), catalog_group("Gamma2c1"))
    assert catalog_group("(Z/4xZ/2):Z/2").name == "Gamma2c1"


def test_index_two_counts_match_abelianization():
    for name in CATALOG_ORDER:
        G = catalog_group(name)
        ab = abelianization_invariants(G)
        evens = sum(1 for f in ab.factors if f % 2 == 0)
        assert count_normal_subgroups(G, 2) == 2**evens - 1


def commutator_subgroup(G):
    """[G, G] as the closure of every commutator under products."""
    n = G.order
    inv = [G.table[a].index(0) for a in range(n)]
    elems = {G.table[G.table[a][b]][G.table[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    while True:
        more = {G.table[a][b] for a in elems for b in elems} - elems
        if not more:
            return elems
        elems |= more


def test_abelianization_matches_commutator_quotient_on_every_subgroup():
    """On each subgroup's own table, and read inside its parent's table with the same generators."""
    pairs = every_subgroup()
    assert len(pairs) == 292
    for G, S in pairs:
        H = subgroup_table(G, S)
        inv = abelianization_invariants(H)
        assert prod(inv.factors) == H.order // len(commutator_subgroup(H))
        if H.is_abelian():
            assert is_isomorphic(H, abelian_group_table(inv))
        gens = _generating_set(G.table, S)
        assert [sorted(S).index(g) for g in gens] == list(H.generators), (G.name, sorted(S))
        assert _abelianization(G.table, gens) == inv, (G.name, sorted(S))


def test_isomorphism_is_equivalence_on_catalog():
    groups = [catalog_group(n) for n in CATALOG_ORDER]
    for g in groups:
        assert is_isomorphic(g, g)
    for a in groups:
        for b in groups:
            assert is_isomorphic(a, b) == is_isomorphic(b, a)
    # distinct catalog entries are genuinely distinct groups
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            assert not is_isomorphic(a, b)


def test_subgroup_enumeration_counts():
    assert len(all_subgroups(catalog_group("S3"))) == 6
    assert len(all_subgroups(catalog_group("D8"))) == 10
    assert len(all_subgroups(catalog_group("Z/10"))) == 4


# ---------------------------------------------------------------------------
# extension filtering


def by_names(names):
    return [catalog_group(n) for n in names]


def test_filter_order10_extensions():
    constraint = ExtensionConstraint(AbelianInvariants((5,)), 2)
    survivors = filter_extensions(constraint, by_names(["Z/10", "D10", "Z/8", "S3"]))
    assert [g.name for g in survivors] == ["Z/10", "D10"]
    with_cover = ExtensionConstraint(
        AbelianInvariants((5,)), 2, ({"kind": "normal_count", "index": 5, "op": "ge", "value": 1},)
    )
    assert [g.name for g in filter_extensions(with_cover, by_names(["Z/10", "D10"]))] == ["Z/10"]
    without_cover = ExtensionConstraint(
        AbelianInvariants((5,)), 2, ({"kind": "normal_count", "index": 5, "op": "eq", "value": 0},)
    )
    assert [g.name for g in filter_extensions(without_cover, by_names(["Z/10", "D10"]))] == ["D10"]


def test_filter_order18_extensions():
    # kernel (Z/3)^2: an index-3 normal subgroup must exist, and be unique
    base = ["Z/6xZ/3", "S3xZ/3", "G18/5"]
    has3 = ExtensionConstraint(
        AbelianInvariants((3, 3)), 2, ({"kind": "normal_count", "index": 3, "op": "ge", "value": 1},)
    )
    assert [g.name for g in filter_extensions(has3, by_names(base))] == ["Z/6xZ/3", "S3xZ/3"]
    unique3 = ExtensionConstraint(
        AbelianInvariants((3, 3)), 2, ({"kind": "normal_count", "index": 3, "op": "eq", "value": 1},)
    )
    assert [g.name for g in filter_extensions(unique3, by_names(base))] == ["S3xZ/3"]
    # kernel Z/3 at order 6: the same index-3 fact separates the two extensions
    order6 = ExtensionConstraint(
        AbelianInvariants((3,)), 2, ({"kind": "normal_count", "index": 3, "op": "ge", "value": 1},)
    )
    assert [g.name for g in filter_extensions(order6, by_names(["Z/6", "S3"]))] == ["Z/6"]


def test_filter_order8_extensions_parity_fact():
    base = ["Z/8", "Z/4xZ/2", "(Z/2)^3", "D8"]
    odd_v4 = ExtensionConstraint(
        AbelianInvariants((2, 2)),
        2,
        ({"kind": "normal_iso_count", "pattern": "(Z/2)^2", "op": "odd"},),
    )
    assert [g.name for g in filter_extensions(odd_v4, by_names(base))] == [
        "Z/4xZ/2",
        "(Z/2)^3",
    ]


def test_filter_order16_extensions():
    base = ["(Z/2)^4", "Z/4x(Z/2)^2", "Gamma2c1", "D8xZ/2"]
    not_d8z2 = ExtensionConstraint(
        AbelianInvariants((2, 2, 2)), 2, ({"kind": "not_isomorphic", "pattern": "D8xZ/2"},)
    )
    assert [g.name for g in filter_extensions(not_d8z2, by_names(base))] == [
        "(Z/2)^4",
        "Z/4x(Z/2)^2",
        "Gamma2c1",
    ]
    # the index-2 normal-subgroup counts 15 / 7 / 3 then pick out each case
    for count, expect in [(15, "(Z/2)^4"), (7, "Z/4x(Z/2)^2"), (3, "Gamma2c1")]:
        c = ExtensionConstraint(
            AbelianInvariants((2, 2, 2)),
            2,
            (
                {"kind": "not_isomorphic", "pattern": "D8xZ/2"},
                {"kind": "normal_count", "index": 2, "op": "eq", "value": count},
            ),
        )
        assert [g.name for g in filter_extensions(c, by_names(base))] == [expect]


def every_subgroup():
    catalog = [catalog_group(name) for name in CATALOG_ORDER]
    return [(G, H) for G in catalog for H in all_subgroups(G)]


def test_generator_normality_matches_conjugation_by_every_element():
    pairs = every_subgroup()
    assert len(pairs) == 292
    normal = 0
    for G, H in pairs:
        by_definition = all(
            G.table[G.table[g][h]][G.table[g].index(0)] in H for g in range(G.order) for h in H
        )
        assert is_normal(G, H) == by_definition, (G.name, sorted(H))
        normal += by_definition
    catalog = [catalog_group(name) for name in CATALOG_ORDER]
    by_order = sum(len(normal_subgroups(G, m)) for G in catalog for m in range(1, G.order + 1))
    assert normal == by_order == 223


def abelian_invariants_of_order(n):
    """Every invariant-factor chain d1 | d2 | ... with product n."""
    chains = []

    def extend(chain, rest):
        if rest == 1:
            chains.append(AbelianInvariants(tuple(chain)))
        for d in range(2, rest + 1):
            if rest % d == 0 and (not chain or d % chain[-1] == 0):
                extend(chain + [d], rest // d)

    extend([], n)
    return chains


def test_kernel_test_by_invariants_matches_isomorphism():
    """A normal subgroup has K's invariants exactly when it is isomorphic to K."""
    assert [k.factors for k in abelian_invariants_of_order(16)] == [
        (2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)
    ]
    checked = matches = 0
    for name in CATALOG_ORDER:
        G = catalog_group(name)
        for m in range(1, G.order + 1):
            for H in normal_subgroups(G, m):
                for kernel in abelian_invariants_of_order(m):
                    by_invariants = abelianization_invariants(subgroup_table(G, H)) == kernel
                    oracle = is_isomorphic(subgroup_table(G, H), abelian_group_table(kernel))
                    assert by_invariants == oracle, (name, sorted(H), kernel)
                    checked += 1
                    matches += oracle
    assert (checked, matches) == (391, 211)


def test_in_parent_isomorphism_matches_subgroup_tables():
    """Every catalog pattern maps onto a normal subgroup exactly when the subgroup's own
    table is isomorphic to it."""
    catalog = [catalog_group(name) for name in CATALOG_ORDER]
    checked = matches = 0
    for G in catalog:
        for m in range(1, G.order + 1):
            for N in normal_subgroups(G, m):
                own = subgroup_table(G, N)
                for P in catalog:
                    if P.order == m:
                        in_parent = _maps_onto(P, G, N)
                        assert in_parent == is_isomorphic(own, P), (G.name, sorted(N), P.name)
                        checked += 1
                        matches += in_parent
    # each of the 223 normal subgroups is isomorphic to exactly one catalog group
    assert (checked, matches) == (435, 223)


def test_each_catalog_group_is_built_once(monkeypatch):
    """A cold pass over the (row, c) cases of table 2 builds each of the 24 catalog tables
    once, and a warm pass builds none: no subgroup or renamed copy is constructed."""
    built = []
    check = FiniteGroupTable.__post_init__

    def counting(G):
        built.append(G)
        check(G)

    monkeypatch.setattr(FiniteGroupTable, "__post_init__", counting)
    cases = [
        EnriquesInput(row["p"], c, w=row.get("w"), cover=row.get("cover"))
        for row in _table(2)
        for c in range(row["c_min"], row["c_max"] + 1)
    ]
    assert len(cases) == 29
    catalog_group.cache_clear()
    for inp in cases:
        enriques_classify(inp)
    assert len(built) == len(CATALOG_ORDER) == 24
    assert sorted(G.name for G in built) == sorted(CATALOG_ORDER)
    for inp in cases:
        enriques_classify(inp)
    assert len(built) == 24
