"""The bundled Enriques models: every structural claim in the data files is
re-verified here from scratch, so the frozen coordinates are self-certifying."""

from itertools import combinations

import pytest

from k3lat.data import load_json
from k3lat.lattice_core import GramLattice, catalog_lattice, parse_lattice
from k3lat.pipeline import enriques_facts
from k3lat.root_config import (
    ChainConfiguration,
    enriques_mod2_divisibility,
    find_p_divisible_subsets,
    odd_p_divisibility_by_finite_index,
    sublattice_index,
)


def block_gram(blocks):
    out = None
    for b in blocks:
        lat = parse_lattice(b) if isinstance(b, str) else GramLattice(tuple(map(tuple, b)))
        out = lat if out is None else out.direct_sum(lat)
    return out


@pytest.fixture(scope="module")
def idx8():
    return load_json("enriques_index8_2a4.json")


@pytest.fixture(scope="module")
def idx2():
    return load_json("enriques_index2_3a2.json")


@pytest.fixture(scope="module")
def w12():
    return load_json("enriques_w12.json")


@pytest.mark.parametrize("name", ["idx8", "idx2"])
def test_finite_index_models(name, request):
    data = request.getfixturevalue(name)
    amb = parse_lattice(data["ambient"])
    p = data["p"]

    # the stated sublattice really has the stated Gram shape and index
    want = block_gram(data["n_gram_blocks"])
    got = [[amb.dot(v, w) for w in data["n_basis"]] for v in data["n_basis"]]
    assert got == [list(r) for r in want.gram]
    assert sublattice_index(data["n_basis"], amb) == data["expected_index"]
    assert data["expected_index"] % p != 0

    # the chains form a genuine configuration and the weighted sum is the divisor
    cfg = ChainConfiguration(amb, p, tuple(tuple(tuple(v) for v in ch) for ch in data["chains"]))
    total = [0] * amb.rank
    for chain, weights in zip(data["chains"], data["weights"]):
        for w, v in zip(weights, chain):
            total = [a + w * b for a, b in zip(total, v)]
        for w in weights:
            assert w % p != 0
    assert total == data["divisor"]
    assert all(x % p == 0 for x in total)

    # the divisor pairs to a multiple of p with every generator of N
    assert all(amb.dot(data["divisor"], n) % p == 0 for n in data["n_basis"])

    # and the finite-index criterion certifies divisibility
    verdict = odd_p_divisibility_by_finite_index(data["divisor"], data["n_basis"], amb, p)
    assert verdict == "divisible"

    # the configuration itself is imprimitive: the weighted subset is a witness
    assert not find_p_divisible_subsets(cfg) == []


def test_finite_index_criterion_is_one_directional(idx2):
    amb = parse_lattice(idx2["ambient"])
    bad = list(idx2["divisor"])
    bad[0] += 1  # breaks the pairing condition
    assert odd_p_divisibility_by_finite_index(bad, idx2["n_basis"], amb, 3) == "inconclusive"


# ---------------------------------------------------------------------------
# the 12-curve model


def test_w12_lattice_shape(w12):
    lat = GramLattice(tuple(map(tuple, w12["gram"])))
    assert lat.rank == 10
    assert lat.is_even()
    assert abs(lat.det()) == 1
    for name, vec in w12["curves"].items():
        assert len(vec) == 11
        assert lat.dot(vec, vec) == -2


def curve_set(w12, labels):
    return [w12["curves"][f"F{i}"] for i in labels]


def test_w12_canonical_class_is_the_torsion_bit(w12):
    """The pipeline reads K_W mod 2 as the torsion bit alone, not from ``kw``."""
    assert w12["kw"] == [0] * 10 + [1]


def test_enriques_facts_refuses_a_configuration_that_is_not_p2_with_one_torsion_bit(w12):
    a2_with_bit = ChainConfiguration(catalog_lattice("A2"), 3, (((1, 0, 0), (0, 1, 0)),))
    with pytest.raises(ValueError, match="p = 2 configuration with one torsion bit"):
        enriques_facts(a2_with_bit)
    lat = GramLattice(tuple(map(tuple, w12["gram"])))
    free = ChainConfiguration(lat, 2, tuple((tuple(w12["curves"][f"F{i}"][:10]),) for i in (2, 4)))
    with pytest.raises(ValueError, match="p = 2 configuration with one torsion bit"):
        enriques_facts(free)


def test_w12_recorded_congruences(w12):
    kw = w12["kw"]
    assert enriques_mod2_divisibility(curve_set(w12, range(1, 9)), kw) == "divisible_as_0"
    assert enriques_mod2_divisibility(curve_set(w12, (2, 4, 9, 11)), kw) == "divisible_as_0"
    assert enriques_mod2_divisibility(curve_set(w12, (2, 6, 9, 12)), kw) == "divisible_as_0"
    assert enriques_mod2_divisibility(curve_set(w12, (1, 3, 5, 7)), kw) == "divisible_as_KW"
    assert enriques_mod2_divisibility(curve_set(w12, (2, 4, 6, 8)), kw) == "divisible_as_KW"
    assert enriques_mod2_divisibility(curve_set(w12, (2,)), kw) == "not_divisible"
    assert enriques_mod2_divisibility(curve_set(w12, (2, 4, 6, 9)), kw) == "not_divisible"


def w12_config(w12, labels):
    lat = GramLattice(tuple(map(tuple, w12["gram"])))
    chains = tuple((tuple(w12["curves"][f"F{i}"]),) for i in labels)
    return ChainConfiguration(lat, 2, chains)


def test_w12_strict_witness_counts(w12):
    # counts of exactly-divisible subsets behind the order-4, order-8 and
    # order-16 fundamental-group cases on six and seven disjoint curves
    assert len(find_p_divisible_subsets(w12_config(w12, (2, 4, 6, 8, 9)))) == 0
    assert len(find_p_divisible_subsets(w12_config(w12, (4, 6, 8, 9, 10, 12)))) == 1
    w3 = find_p_divisible_subsets(w12_config(w12, (4, 6, 8, 10, 11, 12)))
    assert len(w3) == 3
    assert all(len(w.subset) == 4 for w in w3)
    w7 = find_p_divisible_subsets(w12_config(w12, (4, 6, 8, 9, 10, 11, 12)))
    assert len(w7) == 3


def test_w12_five_curve_case_contains_a_k_set(w12):
    witnesses = find_p_divisible_subsets(w12_config(w12, (2, 4, 6, 9, 11)))
    assert any(len(w.subset) == 4 for w in witnesses)


def test_w12_symmetric_difference_law(w12):
    labels = (4, 6, 8, 10, 11, 12)
    witnesses = find_p_divisible_subsets(w12_config(w12, labels))
    supports = {frozenset(w.subset) for w in witnesses}
    for a, b in combinations(supports, 2):
        sym = a ^ b
        if sym:
            assert sym in supports
    # any two distinct 4-point sets here meet in 0 or 2 curves
    for a, b in combinations([s for s in supports if len(s) == 4], 2):
        assert len(a & b) in (0, 2)
