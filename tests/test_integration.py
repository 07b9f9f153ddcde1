"""End-to-end pipelines: geometry/fibration models feed the divisibility
search, whose output facts feed the classifier.

The class lattice of a fibration (`elliptic.class_lattice`) is the formal
intersection module modulo its radical; on the bundled extremal fibrations the
generator span is the full rank-20 class lattice whenever all torsion
sections are listed (the determinants below are the extremal values).
"""

from itertools import combinations

import pytest

from k3lat.classifier import K3Input, k3_classify
from k3lat.data import load_json
from k3lat.elliptic import class_lattice, formal_gram, parse_fibration
from k3lat.finite_geometry import (
    affine_hyperplanes,
    affine_space,
    ag23_lattice,
    hyperplane_covering_search,
    kummer_lattice,
    line_complements,
)
from k3lat.lattice_core import bareiss_det
from k3lat.root_config import ChainConfiguration, find_p_divisible_subsets


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


@pytest.mark.parametrize("name", sorted(FIBRATION_CASES))
def test_fibration_chain_divisibility(name):
    p, det, chains, expected = FIBRATION_CASES[name]
    spec = parse_fibration(load_json(f"{name}.json"))
    lattice, images = class_lattice(spec)
    assert lattice.rank == 20
    assert bareiss_det(lattice.gram_rows()) == det
    gens, G = formal_gram(spec)
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            assert lattice.dot(images[g], images[h]) == G[i][j], (g, h)
    cfg = ChainConfiguration(
        lattice, p, tuple(tuple(images[label] for label in ch) for ch in chains)
    )
    witnesses = find_p_divisible_subsets(cfg)
    assert [(w.subset, w.coefficients) for w in witnesses] == expected


def test_relation_witness_matches_relation_weights():
    """The unique divisible subset of the rank-20 model carries exactly the
    per-chain weights of the bundled relation, up to one global unit."""
    rel = load_json("mp9_relation.json")
    # chain order (A1..A4), (A6..A9), (B1..B4), (B6..B9); d-values mod 5
    lhs = rel["lhs"]
    d = [lhs["A1"] % 5, lhs["A6"] % 5, lhs["B1"] % 5, lhs["B6"] % 5]
    unit = pow(d[0], -1, 5)
    assert tuple((x * unit) % 5 for x in d) == (1, 1, 2, 2)


def derive_k3_facts(cfg, p, c):
    """Turn the witness structure of a configuration into classifier facts."""
    witnesses = find_p_divisible_subsets(cfg)
    if p == 2 and c == 12:
        eights = [set(w.subset) for w in witnesses if len(w.subset) == 8]
        if len(eights) == 1:
            return "one_H"
        assert any(a | b == set(range(len(cfg.chains))) for a, b in combinations(eights, 2))
        return "two_H"
    if p == 3 and c == 8:
        sixes = [set(w.subset) for w in witnesses if len(w.subset) == 6]
        if len(sixes) == 1:
            return "one_R"
        assert any(a | b == set(range(len(cfg.chains))) for a, b in combinations(sixes, 2))
        return "two_R"
    return "nonprimitive" if witnesses else "primitive"


def sub_config(cfg, members):
    return ChainConfiguration(
        cfg.ambient, cfg.p, tuple(cfg.chains[i] for i in members),
        torsion_class=cfg.torsion_class,
    )


def test_sixteen_point_model_drives_the_even_rows():
    _, cfg = kummer_lattice()
    report = hyperplane_covering_search(affine_space(2, 4))
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
        c = len(members)
        facts = derive_k3_facts(sub_config(cfg, members), 2, c)
        row = k3_classify(K3Input(2, c, facts))
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
        c = len(members)
        facts = derive_k3_facts(sub_config(cfg, members), 3, c)
        row = k3_classify(K3Input(3, c, facts))
        assert row.number == row_no, (members, facts, row.number)
        if sing_y is not None:
            assert row.sing_y == sing_y


def derive_enriques_facts(w12, labels):
    """Quotient- and cover-side divisibility facts of a disjoint curve set,
    read off the mod-2 congruence structure of the 12-curve model."""
    from k3lat.root_config import enriques_mod2_divisibility

    kw = w12["kw"]
    curves = w12["curves"]
    strict, canonical = [], []
    for sub in combinations(labels, 4):
        verdict = enriques_mod2_divisibility([curves[f"F{i}"] for i in sub], kw)
        if verdict == "divisible_as_0":
            strict.append(set(sub))
        elif verdict == "divisible_as_KW":
            canonical.append(set(sub))
    c = len(labels)
    if c <= 5:
        w = "nonprimitive" if strict else "primitive"
        cover = "nonprimitive" if strict or canonical else "primitive"
        return w, cover
    if c == 6:
        if len(strict) == 1:
            w = "one_K"
        else:
            assert len(strict) == 3
            assert any(a | b == set(labels) for a, b in combinations(strict, 2))
            w = "two_K"
        cover = "one_H" if len(strict) + len(canonical) == 1 else "two_H"
        return w, cover
    assert c == 7
    if len(strict) == 1:
        w = "one_K"
    else:
        assert len(strict) == 3
        covered = set().union(*strict)
        w = "three_K" if covered == set(labels) else "two_K_plus_A1"
    return w, "three_H"


def test_twelve_curve_model_drives_the_quotient_rows():
    from k3lat.classifier import EnriquesInput, enriques_classify

    w12 = load_json("enriques_w12.json")
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
        w, cover = derive_enriques_facts(w12, labels)
        row = enriques_classify(EnriquesInput(2, len(labels), w=w, cover=cover))
        assert row.number == row_no, (labels, w, cover, row.number)
        assert row.pi1.name == group


def test_every_twelve_subset_holds_one_or_three_hyperplanes():
    hyps = [frozenset(h.members) for h in affine_hyperplanes(affine_space(2, 4))]
    counts = set()
    for sub in combinations(range(16), 12):
        s = frozenset(sub)
        counts.add(sum(1 for h in hyps if h <= s))
    assert counts == {1, 3}
