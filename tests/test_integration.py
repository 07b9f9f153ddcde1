"""End-to-end pipelines through ``k3lat.pipeline``: geometry/fibration models
feed the divisibility search, whose witnesses give the facts that pick a row.

The class lattice of a fibration (`elliptic.class_lattice`) is the formal
intersection module modulo its radical; on the bundled extremal fibrations the
generator span is the full rank-20 class lattice whenever all torsion
sections are listed (the determinants below are the extremal values).
"""

import hashlib
import json
import re
import shutil
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from k3lat.classifier import FactsError
from k3lat.data import data_dir, load_json
from k3lat.elliptic import class_lattice, formal_gram, parse_fibration
from k3lat.finite_geometry import (
    affine_hyperplanes,
    affine_space,
    ag23_lattice,
    glue_overlattice,
    hyperplane_covering_search,
    kummer_lattice,
    line_complements,
)
from k3lat.lattice_core import GramLattice, bareiss_det, parse_lattice
from k3lat.pipeline import enriques_row, fibration_configuration, k3_row
from k3lat.root_config import (
    ChainConfiguration,
    enriques_mod2_divisibility,
    find_p_divisible_subsets,
)


# (prime, determinant, chains, expected witnesses) per bundled fibration;
# chain classes are contracted to rational double points of type A_{p-1}
FIBRATION_CASES = {
    "mp39": (3, -312,
             [["P0", "G0"], ["A1", "A2"], ["B1", "B2"],
              ["C1", "C2"], ["C4", "C5"], ["C7", "C8"], ["C10", "C11"]],
             []),
    "mp108": (3, -72,
              [["P0", "G0"], ["A1", "A2"], ["B1", "B2"], ["C1", "C2"],
               ["D1", "D2"], ["D5", "D4"], ["E1", "E2"], ["E5", "E4"]],
              [((1, 2, 4, 5, 6, 7), (1, 1, 2, 1, 2, 1))]),
    "mp64": (5, -900,
             [["A1", "A2", "A3", "A4"], ["B1", "B2", "B3", "B4"],
              ["C1", "C2", "C3", "C4"], ["D1", "D2", "D3", "D4"]],
             []),
    "mp9": (5, -4,
            [["A1", "A2", "A3", "A4"], ["A6", "A7", "A8", "A9"],
             ["B1", "B2", "B3", "B4"], ["B6", "B7", "B8", "B9"]],
            [((0, 1, 2, 3), (1, 1, 2, 2))]),
    "mp29": (7, -336,
             [["P0", "A0", "A1", "A2", "A3", "A4"],
              ["B1", "B2", "B3", "B4", "B5", "B6"],
              ["C1", "C2", "C3", "C4", "C5", "C6"]],
             []),
    "mp30": (7, -7,
             [["A1", "A2", "A3", "A4", "A5", "A6"],
              ["B1", "B2", "B3", "B4", "B5", "B6"],
              ["C1", "C2", "C3", "C4", "C5", "C6"]],
             [((0, 1, 2), (1, 2, 3))]),
    "mp1": (19, -19, [[f"A{i}" for i in range(1, 19)]], []),
    "double_iv_star": (3, -27,
                       [["F1+", "F2+"], ["F3+", "F4+"], ["F5+", "F6+"],
                        ["F1-", "F2-"], ["F3-", "F4-"], ["F5-", "F6-"]],
                       [((0, 1, 2, 3, 4, 5), (1, 1, 1, 2, 2, 2))]),
}


# the Table 1 row each fibration's configuration selects
FIBRATION_ROWS = {
    "double_iv_star": 10,
    "mp1": 18,
    "mp108": 11,
    "mp29": 16,
    "mp30": 17,
    "mp39": 9,
    "mp64": 14,
    "mp9": 15,
}


@pytest.mark.parametrize("name", sorted(FIBRATION_CASES))
def test_fibration_chain_divisibility(name):
    p, det, chains, expected = FIBRATION_CASES[name]
    spec = parse_fibration(load_json(f"{name}.json"))
    lattice, images = class_lattice(spec)
    gens, G = formal_gram(spec)
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            assert lattice.dot(images[g], images[h]) == G[i][j], (g, h)
    cfg = fibration_configuration(spec, p, chains)
    assert cfg.ambient == lattice and cfg.ambient.rank == 20
    assert bareiss_det(lattice.gram_rows()) == det
    witnesses, _, row = k3_row(cfg)
    assert [(w.subset, w.coefficients) for w in witnesses] == expected
    assert row.number == FIBRATION_ROWS[name]


def test_fibration_configuration_names_an_unknown_label():
    spec = parse_fibration(load_json("mp9.json"))
    with pytest.raises(ValueError, match="'Z9'"):
        fibration_configuration(spec, 5, [["A1", "A2", "A3", "Z9"]])


def test_relation_witness_matches_relation_weights():
    """The unique divisible subset of the rank-20 model carries exactly the
    per-chain weights of the bundled relation, up to one global unit."""
    rel = load_json("mp9_relation.json")
    # chain order (A1..A4), (A6..A9), (B1..B4), (B6..B9); d-values mod 5
    lhs = rel["lhs"]
    d = [lhs["A1"] % 5, lhs["A6"] % 5, lhs["B1"] % 5, lhs["B6"] % 5]
    unit = pow(d[0], -1, 5)
    assert tuple((x * unit) % 5 for x in d) == (1, 1, 2, 2)


def test_sixteen_point_model_drives_the_even_rows():
    _, cfg = kummer_lattice()
    report = hyperplane_covering_search()
    hyperplane = affine_hyperplanes(affine_space(2, 4))[0].members

    cases = [
        (hyperplane, 2, "smooth"),                      # eight points, one witness
        (report.none_11[:8], 1, None),                  # eight points, none
        (report.none_11, 1, None),                      # eleven points, none
        (report.unique_12, 3, "8A1"),                   # exactly one subset
        (tuple(range(12)), 4, "smooth"),                # a union of two subsets
        (tuple(range(13)), 5, "4A1"),
        (tuple(range(14)), 6, "smooth"),
        (tuple(range(15)), 7, "smooth"),
        (tuple(range(16)), 8, "Y = C^2"),
    ]
    for members, row_no, sing_y in cases:
        _, facts, row = k3_row(cfg.restrict(members))
        assert row.number == row_no, (members, facts, row.number)
        if sing_y is not None:
            assert row.sing_y == sing_y


def test_nine_point_model_drives_the_odd_rows():
    _, cfg = ag23_lattice()
    comp = line_complements(affine_space(3, 2))[0].members
    not_comp = tuple(sorted(set(comp[:5]) | {min(set(range(9)) - set(comp))}))

    cases = [
        (comp, 10, "smooth"),             # a divisible six-point subset
        (not_comp, 9, None),              # six points, primitive
        (tuple(range(7)), 10, "3A2"),     # seven points always hold one
        (tuple(range(8)), 12, "smooth"),  # eight points: union of two subsets
        (tuple(range(9)), 13, "Y = C^2"),
    ]
    for members, row_no, sing_y in cases:
        _, facts, row = k3_row(cfg.restrict(members))
        assert row.number == row_no, (members, facts, row.number)
        if sing_y is not None:
            assert row.sing_y == sing_y


def test_two_words_that_do_not_cover_are_a_facts_error():
    """At (2, 12) two 8-point words must cover the configuration; these two
    cover only ten of the twelve chains."""
    _, cfg = glue_overlattice(2, 12, [[1] * 8 + [0] * 4, [0, 0] + [1] * 8 + [0, 0]])
    with pytest.raises(FactsError, match="2 8-point words on 12 chains"):
        k3_row(cfg)


@pytest.fixture(scope="module")
def w12():
    return load_json("enriques_w12.json")


def w12_lattice(w12):
    return GramLattice(tuple(map(tuple, w12["gram"])))


def w12_curves(w12, labels):
    """The curves ``labels`` of the 12-curve model as one-class chains at p = 2,
    each vector its ten free coordinates and its torsion bit."""
    return ChainConfiguration(w12_lattice(w12), 2, tuple((tuple(w12["curves"][x]),) for x in labels))


def test_twelve_curve_model_drives_the_quotient_rows(w12):
    cases = [
        ((2, 4, 6, 9), 2, "Z/2"),
        ((2, 4, 9, 11), 3, "(Z/2)^2"),
        ((2, 4, 6, 8), 4, "Z/4"),
        ((2, 4, 6, 9, 11), 6, "(Z/2)^2"),
        ((2, 4, 6, 8, 9), 7, "Z/4"),
        ((4, 6, 8, 9, 10, 12), 10, "Z/4xZ/2"),
        ((4, 6, 8, 10, 11, 12), 11, "(Z/2)^3"),
        ((4, 6, 8, 9, 10, 11, 12), 13, "Z/4x(Z/2)^2"),
    ]
    for labels, row_no, group in cases:
        w, cover, row = enriques_row(w12_curves(w12, [f"F{i}" for i in labels]))
        assert row.number == row_no, (labels, w, cover, row.number)
        assert row.pi1.name == group


def d4_two_a1_curves():
    """Six disjoint curves at p = 2 in D4 + A1 + A1 (a1 the central root of D4):
    the orthogonal roots a0, a2, a3 and a0 + 2a1 + a2 + a3, whose sum is twice a
    class, and the two A1 roots; a0 alone carries the torsion bit, so the 4-set
    is 2-divisible on the cover but not on the quotient."""
    lattice = parse_lattice({"sum": ["D4", "A1", "A1"]})
    curves = [(1, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0),
              (1, 2, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0)]
    return ChainConfiguration(lattice, 2, tuple((v,) for v in curves))


def test_six_curves_with_no_strict_four_set_reach_row_8():
    """With no 2-divisible 4-set on the quotient, six curves fit Table 2's row 8,
    which names no cover fact; this raised FactsError before the rows were read
    as word counts."""
    w, cover, row = enriques_row(d4_two_a1_curves())
    assert (w, cover, row.number, row.pi1.name) == ("primitive", None, 8, "Z/4")


def test_a_table_condition_with_no_reading_is_refused_by_row(tmp_path, monkeypatch):
    """A table from K3LAT_DATA whose row names a condition outside the word-count
    grammar is a ValueError naming the row and the condition."""
    shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
    table = load_json("table2.json")
    (row,) = [r for r in table["rows"] if r["no"] == 11]
    row["w"] = "four_K"
    (tmp_path / "table2.json").write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setenv("K3LAT_DATA", str(tmp_path))
    with pytest.raises(ValueError, match="Table 2 row 11: no reading for w 'four_K'"):
        enriques_row(d4_two_a1_curves())


@pytest.fixture(scope="module")
def w12_sweep(w12):
    """Every nonempty label set of the 12-curve model, in order, with its
    configuration or the ValueError that refused it."""
    out = []
    for c in range(1, 13):
        for labels in combinations(sorted(w12["curves"], key=lambda x: int(x[1:])), c):
            try:
                out.append((labels, w12_curves(w12, labels)))
            except ValueError as exc:
                out.append((labels, exc))
    return out


def test_twelve_curve_sets_are_refused_exactly_when_two_curves_meet(w12, w12_sweep):
    lat = w12_lattice(w12)

    def meets(a, b):
        return lat.dot(w12["curves"][a][:10], w12["curves"][b][:10]) != 0

    assert len(w12_sweep) == 4095
    for labels, got in w12_sweep:
        if isinstance(got, ValueError):
            i, j = map(int, re.match(r"chains (\d+) and (\d+) are not orthogonal", str(got)).groups())
            assert meets(labels[i], labels[j]), (labels, got)
        else:
            assert not any(meets(a, b) for a, b in combinations(labels, 2)), labels
    assert sum(isinstance(got, ValueError) for _, got in w12_sweep) == 3753


def test_twelve_curve_witnesses_match_the_mod2_oracle(w12, w12_sweep):
    """With its torsion bit a 4-set is a witness exactly when its sum is 0 mod 2;
    cut to the free coordinates, exactly when the sum is 0 or K_W mod 2."""
    accepted = [(labels, cfg) for labels, cfg in w12_sweep if not isinstance(cfg, ValueError)]
    assert len(accepted) == 342
    for labels, cfg in accepted:
        verdicts = {sub: enriques_mod2_divisibility([w12["curves"][labels[i]] for i in sub], w12["kw"])
                    for sub in combinations(range(len(labels)), 4)}
        cut = replace(cfg, chains=tuple(tuple(v[:10] for v in ch) for ch in cfg.chains))
        for config, admitted in ((cfg, {"divisible_as_0"}),
                                 (cut, {"divisible_as_0", "divisible_as_KW"})):
            got = {w.subset for w in find_p_divisible_subsets(config) if len(w.subset) == 4}
            assert got == {sub for sub, v in verdicts.items() if v in admitted}, labels


def test_twelve_curve_rows_of_every_disjoint_set(w12_sweep):
    """The rows of all 342 disjoint sets; up to seven curves the (w, cover, row)
    list is pinned by its SHA-256, and the one disjoint 8-set, whose sum is
    2-divisible, is Table 2's row 15."""
    histogram, pinned = Counter(), []
    for labels, cfg in w12_sweep:
        if isinstance(cfg, ValueError):
            continue
        w, cover, row = enriques_row(cfg)
        histogram[row.number] += 1
        if len(labels) <= 7:
            pinned.append((labels, w, cover, row.number))
        else:
            assert (labels, w, cover, row.number) == (
                ("F2", "F4", "F6", "F8", "F9", "F10", "F11", "F12"),
                "nonprimitive", "nonprimitive", 15)
    assert dict(histogram) == {1: 154, 2: 76, 3: 6, 4: 9, 6: 28, 7: 32, 10: 24, 11: 4,
                               13: 8, 15: 1}
    digest = hashlib.sha256(json.dumps(sorted(pinned)).encode()).hexdigest()
    assert digest == "3c726bc02cac829fdea21a1dddd78e37a7402152141345fe38a1ca44073054de"


def test_every_twelve_subset_holds_one_or_three_hyperplanes():
    hyps = [frozenset(h.members) for h in affine_hyperplanes(affine_space(2, 4))]
    counts = set()
    for sub in combinations(range(16), 12):
        s = frozenset(sub)
        counts.add(sum(1 for h in hyps if h <= s))
    assert counts == {1, 3}
