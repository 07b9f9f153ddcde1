import json
from functools import cache
from itertools import product

import pytest

from k3lat.classifier import (
    EnriquesInput,
    FactsError,
    K3Input,
    admissible_pairs,
    cover_euler_solutions,
    enriques_classify,
    k3_classify,
    table_lookup,
    transport_singularities,
)
from k3lat.data import data_dir


def test_cover_euler_solutions_exact():
    assert cover_euler_solutions() == [
        (2, 8, "K3"),
        (2, 16, "abelian"),
        (3, 6, "K3"),
        (3, 9, "abelian"),
        (5, 4, "K3"),
        (7, 3, "K3"),
    ]


def test_admissible_pairs():
    assert admissible_pairs("K3") == [
        (2, 16), (3, 9), (5, 4), (7, 3), (11, 1), (13, 1), (17, 1), (19, 1),
    ]
    assert admissible_pairs("Enriques") == [(2, 8), (3, 4), (5, 2), (7, 1)]
    with pytest.raises(ValueError):
        admissible_pairs("abelian")


def test_transport_singularities():
    assert transport_singularities(12, 8, 2) == 8
    assert transport_singularities(8, 6, 3) == 6
    assert transport_singularities(7, 6, 3) == 3
    assert transport_singularities(4, 4, 5) == 0
    with pytest.raises(ValueError):
        transport_singularities(4, 5, 2)


# ---------------------------------------------------------------------------
# K3 classification


def test_k3_stated_examples():
    row5 = k3_classify(K3Input(2, 13, "nonprimitive"))
    assert row5.number == 5
    assert row5.pi1.name == "(Z/2)^2"
    assert row5.sing_y == "4A1"

    row13 = k3_classify(K3Input(3, 9))
    assert row13.number == 13
    assert not row13.pi1.is_finite
    assert row13.pi1.quotient == "Z/3"
    assert row13.pi1.kernel_printed == "Z^4"
    # the covering kernel is table data that no query reads; the raw row keeps it
    assert next(r for r in _json_rows(1) if r["no"] == 13)["pi1"]["kernel_covering"] == "Z^2"

    row18 = k3_classify(K3Input(11, 1))
    assert row18.number == 18
    assert row18.pi1.name == "1"


def test_k3_roundtrip_all_rows():
    from k3lat.classifier import _table

    for row in _table(1):
        ps = [row["p"]] if row["p"] != "gt7" else [11, 13, 17, 19]
        for p in ps:
            for c in range(row["c_min"], row["c_max"] + 1):
                got = k3_classify(K3Input(p, c, row["condition"]))
                assert got.number == row["no"], (row["no"], p, c)


# rows for facts=None, written out by hand; None marks "the facts must choose"
K3_INFERRED = {
    2: {**dict.fromkeys(range(1, 8), 1), **dict.fromkeys(range(8, 13)), 13: 5, 14: 6, 15: 7, 16: 8},
    3: {**dict.fromkeys(range(1, 6), 9), 6: None, 7: None, 8: None, 9: 13},
    5: {1: 14, 2: 14, 3: 14, 4: None},
    7: {1: 16, 2: 16, 3: None},
    **{p: {1: 18} for p in (11, 13, 17, 19)},
    9: {1: None},
    23: {1: None},
}


def test_k3_inference_without_facts():
    for p, rows in K3_INFERRED.items():
        for c, expected in rows.items():
            if expected is None:
                with pytest.raises(FactsError):
                    k3_classify(K3Input(p, c))
            else:
                assert k3_classify(K3Input(p, c)).number == expected, (p, c)
    with pytest.raises(FactsError, match=r"\[3, 4\]"):
        k3_classify(K3Input(2, 12))


def test_k3_sing_y_column():
    assert k3_classify(K3Input(2, 9, "nonprimitive")).sing_y == "2A1"
    assert k3_classify(K3Input(2, 11, "nonprimitive")).sing_y == "6A1"
    assert k3_classify(K3Input(2, 12, "one_H")).sing_y == "8A1"
    assert k3_classify(K3Input(2, 12, "two_H")).sing_y == "smooth"
    assert k3_classify(K3Input(2, 14)).sing_y == "smooth"
    assert k3_classify(K3Input(2, 16)).sing_y == "Y = C^2"
    assert k3_classify(K3Input(3, 7, "nonprimitive")).sing_y == "3A2"
    assert k3_classify(K3Input(3, 8, "one_R")).sing_y == "6A2"
    assert k3_classify(K3Input(3, 8, "two_R")).sing_y == "smooth"
    assert k3_classify(K3Input(5, 4, "nonprimitive")).sing_y == "smooth"
    assert k3_classify(K3Input(7, 2)).sing_y == "2A6 (Y = X)"


def test_k3_inconsistent_facts():
    with pytest.raises(FactsError):
        k3_classify(K3Input(2, 16, "primitive"))
    with pytest.raises(FactsError):
        k3_classify(K3Input(2, 5, "nonprimitive"))
    with pytest.raises(FactsError):
        k3_classify(K3Input(3, 4, "nonprimitive"))
    with pytest.raises(FactsError):
        k3_classify(K3Input(2, 12))  # needs one_H / two_H
    with pytest.raises(FactsError):
        k3_classify(K3Input(2, 9))  # genuinely ambiguous without facts
    with pytest.raises(FactsError):
        k3_classify(K3Input(2, 17))
    with pytest.raises(FactsError):
        k3_classify(K3Input(13, 2))
    with pytest.raises(FactsError):
        k3_classify(K3Input(3, 9, "one_H"))


def test_k3_finite_orders_match_tower():
    from k3lat.classifier import _table
    from k3lat.groups import catalog_group

    for row in _table(1):
        if row["pi1"]["kind"] != "finite":
            continue
        p = row["p"] if row["p"] != "gt7" else 11
        order = catalog_group(row["pi1"]["name"]).order
        assert order == p ** len(row["tower"])


def _tower_faults(rows) -> list[int]:
    """The numbers of the Table 1 rows with a tower entry other than the c of the
    K3 cover of Lemma 13 for the row's p."""
    k3_c = {p: c for p, c, kind in cover_euler_solutions() if kind == "K3"}
    return [r["no"] for r in rows if any(t != k3_c.get(r["p"]) for t in r["tower"])]


def test_k3_words_are_the_k3_cover_sizes():
    """The word sizes the pipeline reads off Table 1's one_* rows are the c of the
    K3 cover for their p, (2, 8) and (3, 6), as is every tower entry of the table;
    a copy of the table with one tower entry changed is caught."""
    from k3lat.pipeline import _k3_word

    k3_c = {p: c for p, c, kind in cover_euler_solutions() if kind == "K3"}
    words = {(p, c): _k3_word(p, c) for p in (2, 3, 5, 7, 11) for c in range(1, 20)}
    words = {pc: word for pc, word in words.items() if word is not None}
    assert words == {(2, 12): (8, "H"), (3, 8): (6, "R")}
    assert all(size == k3_c[p] for (p, _), (size, _) in words.items())
    rows = table_lookup(1)
    assert _tower_faults(rows) == []
    rows[2] = {**rows[2], "tower": [9]}
    assert _tower_faults(rows) == [3]


# ---------------------------------------------------------------------------
# Enriques classification


def test_enriques_stated_examples():
    row25 = enriques_classify(EnriquesInput(5, 2, w="primitive", cover="nonprimitive"))
    assert row25.number == 25
    assert row25.pi1.name == "D10"

    row12 = enriques_classify(EnriquesInput(2, 7, w="one_K", cover="three_H"))
    assert row12.number == 12
    assert row12.pi1.name == "(Z/4xZ/2):Z/2"

    row15 = enriques_classify(EnriquesInput(2, 8, w="nonprimitive", cover="nonprimitive"))
    assert row15.number == 15
    assert not row15.pi1.is_finite
    assert row15.pi1.kernel_printed == "Z^2:Z/2"


def test_enriques_roundtrip_all_rows():
    from k3lat.classifier import _table

    for row in _table(2):
        for c in range(row["c_min"], row["c_max"] + 1):
            got = enriques_classify(
                EnriquesInput(row["p"], c, w=row.get("w"), cover=row.get("cover"))
            )
            assert got.number == row["no"], (row["no"], c)


def test_enriques_underdetermined_or_inconsistent():
    with pytest.raises(FactsError):
        enriques_classify(EnriquesInput(2, 4, w="nonprimitive", cover="primitive"))
    with pytest.raises(FactsError):
        enriques_classify(EnriquesInput(2, 4, w="primitive"))  # cover fact missing
    with pytest.raises(FactsError):
        enriques_classify(EnriquesInput(7, 2))


def test_enriques_group_is_soluble_sized():
    # all finite rows have order dividing 2 * p^4
    from k3lat.classifier import _table
    from k3lat.groups import catalog_group

    for row in _table(2):
        if row["pi1"]["kind"] != "finite":
            continue
        order = catalog_group(row["pi1"]["name"]).order
        assert order <= 2 * row["p"] ** 4


# ---------------------------------------------------------------------------
# lookups


def test_table_lookup_examples():
    rows = table_lookup(1, p=2, c=16)
    assert [r["no"] for r in rows] == [8]

    unknown = table_lookup(2, realizable="unknown")
    assert [r["no"] for r in unknown] == [14, 20]

    finite_p3 = table_lookup(1, p=3, finite=True)
    from k3lat.groups import catalog_group

    orders = [catalog_group(r["pi1"]["name"]).order for r in finite_p3]
    assert max(orders) == 9

    assert len(table_lookup(1)) == 18
    assert len(table_lookup(2)) == 26
    assert [r["no"] for r in table_lookup(2, p=5)] == [22, 23, 24, 25]


def test_theorem_bound_outside_exceptional_pairs():
    from k3lat.classifier import _table
    from k3lat.groups import catalog_group

    exceptional = {(2, 8), (2, 16), (3, 9)}
    for table_id in (1, 2):
        for row in _table(table_id):
            ps = [row["p"]] if row["p"] != "gt7" else [11, 13, 17, 19]
            for p in ps:
                for c in range(row["c_min"], row["c_max"] + 1):
                    if (p, c) in exceptional:
                        continue
                    assert row["pi1"]["kind"] == "finite"
                    order = catalog_group(row["pi1"]["name"]).order
                    assert order <= 2 * p**4


# ---------------------------------------------------------------------------
# brute-force oracle for table queries, read from the JSON independently


@cache
def _json_rows(table_id):
    return json.loads((data_dir() / f"table{table_id}.json").read_text())["rows"]


def _oracle(table_id, row=None, p=None, c=None, finite=None, realizable=None):
    """The rows every given filter admits; a row whose prime is "gt7" admits
    every p above 7, and a row not marked realizable is "unknown"."""
    return [
        r
        for r in _json_rows(table_id)
        if (row is None or r["no"] == row)
        and (p is None or r["p"] == p or (r["p"] == "gt7" and p > 7))
        and (c is None or r["c_min"] <= c <= r["c_max"])
        and (finite is None or (r["pi1"]["kind"] == "finite") == finite)
        and (realizable is None or (r["realizable"] if r["realizable"] is True
                                    else "unknown") == realizable)
    ]


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_table_lookup_matches_brute_force_oracle():
    for table_id in (1, 2):
        for filters in product(
            [None, 0, 1, 13, 18, 26, 27], [None, *range(24)], [None, *range(22)],
            [None, True, False], [None, True, "unknown"],
        ):
            assert table_lookup(table_id, *filters) == _oracle(table_id, *filters), filters
        assert table_lookup(table_id) == _json_rows(table_id)


def test_admissible_pairs_match_brute_force_oracle():
    # c (p - 1) <= 19 admits exactly the primes p <= 19
    primes = [p for p in range(24) if _trial_division_prime(p) and p - 1 <= 19]
    for surface, table_id in (("K3", 1), ("Enriques", 2)):
        want = [
            (p, max(r["c_max"] for r in _oracle(table_id, p=p)))
            for p in primes
            if _oracle(table_id, p=p)
        ]
        assert admissible_pairs(surface) == want


def test_k3_classify_matches_brute_force_oracle():
    facts = [None, *sorted({r["condition"] for r in _json_rows(1)}), "bogus"]
    for p, c, fact in product(range(1, 24), range(22), facts):
        # p = 4, 9 and 21 are not prime, and 23 is above the rank bound
        rows = [r["no"] for r in _oracle(1, p=p, c=c) if fact in (None, r["condition"])]
        if _trial_division_prime(p) and p <= 19 and len(rows) == 1:
            assert k3_classify(K3Input(p, c, fact)).number == rows[0], (p, c, fact)
        else:
            with pytest.raises(FactsError):
                k3_classify(K3Input(p, c, fact))


def test_enriques_classify_matches_brute_force_oracle():
    table = _json_rows(2)
    ws = [None, *sorted({r["w"] for r in table if r.get("w")})]
    covers = [None, *sorted({r["cover"] for r in table if r.get("cover")})]
    for p, c, w, cover in product(range(1, 24), range(22), ws, covers):
        rows = [
            r["no"]
            for r in _oracle(2, p=p, c=c)
            if r.get("w") in (None, w) and r.get("cover") in (None, cover)
        ]
        if len(rows) == 1:
            assert enriques_classify(EnriquesInput(p, c, w, cover)).number == rows[0]
        else:
            with pytest.raises(FactsError):
                enriques_classify(EnriquesInput(p, c, w, cover))
