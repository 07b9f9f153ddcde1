from itertools import combinations

import pytest

from k3lat import finite_geometry
from k3lat.finite_geometry import (
    affine_function_code,
    affine_hyperplanes,
    affine_space,
    ag23_lattice,
    ag23_unique_six_set,
    chain_overlattice,
    glue_overlattice,
    hyperplane_covering_search,
    kummer_lattice,
    line_complements,
)
from k3lat.lattice_core import discriminant_group


def brute_hyperplanes(p, n):
    """Oracle: solution sets of every (a, b), deduplicated as sets."""
    space = affine_space(p, n)
    pts = space.points()
    seen = set()
    from itertools import product

    for a in product(range(p), repeat=n):
        if all(x == 0 for x in a):
            continue
        for b in range(p):
            members = frozenset(
                i for i, x in enumerate(pts) if sum(u * v for u, v in zip(a, x)) % p == b
            )
            seen.add(members)
    return seen


@pytest.mark.parametrize(
    "p,n,count,size",
    [(2, 4, 30, 8), (3, 2, 12, 3), (2, 1, 2, 1), (2, 3, 14, 4), (3, 1, 3, 1)],
)
def test_affine_hyperplane_counts(p, n, count, size):
    space = affine_space(p, n)
    hyps = affine_hyperplanes(space)
    assert len(hyps) == count == (p**n - 1) // (p - 1) * p
    assert all(len(h.members) == size == p ** (n - 1) for h in hyps)
    assert {frozenset(h.members) for h in hyps} == brute_hyperplanes(p, n)


def test_hyperplane_work_cap_boundary(monkeypatch):
    """The cap admits a listing of its size and refuses one index more, before listing points."""
    space = affine_space(3, 2)
    members = 4 * 9  # functionals x points
    monkeypatch.setattr(finite_geometry, "MAX_HYPERPLANE_MEMBERS", members)
    assert len(affine_hyperplanes(space)) == 12
    monkeypatch.setattr(finite_geometry, "MAX_HYPERPLANE_MEMBERS", members - 1)
    monkeypatch.setattr(type(space), "points", lambda self: pytest.fail("points were listed"))
    with pytest.raises(
        ValueError, match=f"p = 3, n = 2 list {members} point indices, above {members - 1}"
    ):
        affine_hyperplanes(space)


def test_hyperplane_work_cap_refuses_inputs_far_above_it():
    for p, n in [(2, 16), (251, 2), (3, 8)]:
        with pytest.raises(ValueError, match=f"p = {p}, n = {n} list"):
            affine_hyperplanes(affine_space(p, n))


def test_hyperplane_bound_splits_spaces_at_the_same_listing_size(monkeypatch):
    """Every space whose listing holds at most 362,952 point indices (the listing of
    (71, 2)) gets as far as listing its points, and every space whose listing holds at
    least 394,346 (that of (73, 2)) is refused before that."""
    class Listed(Exception):
        pass

    def listed(self):
        raise Listed

    monkeypatch.setattr(finite_geometry.AffineSpaceModel, "points", listed)
    primes = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    reached, refused = [], []
    for p, n in [(p, n) for p in primes for n in range(2, 17) if p**n <= 65536]:
        members = (p**n - 1) // (p - 1) * p**n  # functionals x points
        assert not 362_952 < members < 394_346, (p, n)
        if members <= 362_952:
            with pytest.raises(Listed):
                affine_hyperplanes(affine_space(p, n))
            reached.append((p, n))
        else:
            with pytest.raises(ValueError, match=f"^hyperplanes of p = {p}, n = {n} "):
                affine_hyperplanes(affine_space(p, n))
            refused.append((p, n))
    assert (71, 2) in reached and (73, 2) in refused


def test_glue_overlattice_refuses_odd_glue():
    with pytest.raises(ValueError, match="not even"):
        glue_overlattice(2, 4, [[1, 1, 0, 0]])  # the glue (e1 + e2) / 2 has norm -1


def test_two_hyperplanes_meet_in_0_or_4():
    hyps = affine_hyperplanes(affine_space(2, 4))
    pairs = list(combinations(hyps, 2))
    assert len(pairs) == 435
    for h1, h2 in pairs:
        inter = set(h1.members) & set(h2.members)
        assert len(inter) in (0, 4)
        if not inter:
            assert set(h1.members) | set(h2.members) == set(range(16))


def test_affine_code_weight_distribution():
    words = affine_function_code(affine_space(2, 4))
    assert len(words) == 32
    weights = sorted(sum(1 for x in w if x) for w in words)
    assert weights.count(0) == 1
    assert weights.count(8) == 30
    assert weights.count(16) == 1

    words3 = affine_function_code(affine_space(3, 2))
    assert len(words3) == 27
    dist = {}
    for w in words3:
        dist[sum(1 for x in w if x)] = dist.get(sum(1 for x in w if x), 0) + 1
    assert dist == {0: 1, 6: 24, 9: 2}


def test_f3_plane_line_incidences():
    space = affine_space(3, 2)
    lines = affine_hyperplanes(space)
    assert len(lines) == 12
    # every pair of distinct points lies on exactly one line
    for pair in combinations(range(9), 2):
        through = [l for l in lines if set(pair) <= set(l.members)]
        assert len(through) == 1


def test_kummer_lattice_structure():
    lattice, cfg = kummer_lattice()
    assert lattice.rank == 16
    assert lattice.is_even()
    assert abs(lattice.det()) == 64
    assert discriminant_group(lattice).factors == (2,) * 6
    assert cfg.p == 2 and cfg.count == 16


def test_ag23_lattice_structure():
    lattice, cfg = ag23_lattice()
    assert lattice.rank == 18
    assert lattice.is_even()
    assert abs(lattice.det()) == 27
    assert discriminant_group(lattice).factors == (3,) * 3
    assert cfg.p == 3 and cfg.count == 9


def test_chain_overlattice_rejects_bad_space():
    with pytest.raises(ValueError):
        chain_overlattice(2, 1)  # odd-weight glue words: not an even lattice


def test_affine_space_validation():
    with pytest.raises(ValueError):
        affine_space(4, 2)  # composite p
    with pytest.raises(ValueError):
        affine_space(2, 0)
    with pytest.raises(ValueError):
        affine_space(2, 20)  # enumeration bound


def test_float_p_and_n_are_stored_as_ints():
    """A float p used to give a float size (9.0) and a TypeError in
    chain_overlattice; integral floats now become ints, others are refused."""
    space = affine_space(3.0, 2.0)
    assert (space.p, space.n, space.size) == (3, 2, 9) and type(space.size) is int
    assert chain_overlattice(3.0, 2) == chain_overlattice(3, 2)
    with pytest.raises(ValueError, match=r"^p: 3\.5 is not an integer$"):
        affine_space(3.5, 2)
    with pytest.raises(ValueError, match=r"^n: 2\.5 is not an integer$"):
        affine_space(3, 2.5)


def test_glue_overlattice_takes_integral_p_and_c():
    """A float p used to end in a TypeError from range(); an integral float now
    becomes an int, and a non-integral one or a string is refused by name."""
    lattice, cfg = glue_overlattice(3.0, 2.0, [])
    assert type(cfg.p) is int and (lattice, cfg) == glue_overlattice(3, 2, [])
    with pytest.raises(ValueError, match=r"^p: 3\.5 is not an integer$"):
        glue_overlattice(3.5, 2, [])
    with pytest.raises(ValueError, match=r"^c: '2' is not an integer$"):
        glue_overlattice(3, "2", [])
    with pytest.raises(ValueError, match=r"^p: '3' is not an integer$"):
        affine_space("3", 2)


def test_hyperplane_covering_search():
    assert sum(1 for _ in combinations(range(16), 13)) == 560  # exhaustive scope
    report = hyperplane_covering_search()
    hyps = [frozenset(h.members) for h in affine_hyperplanes(affine_space(2, 4))]
    assert report.pair_13 is True
    assert len(report.unique_12) == 12
    assert sum(1 for h in hyps if h <= frozenset(report.unique_12)) == 1
    assert len(report.none_11) == 11
    assert not any(h <= frozenset(report.none_11) for h in hyps)


def test_ag23_unique_six_set():
    assert ag23_unique_six_set() is True


def test_eight_point_set_with_two_crossing_six_sets():
    space = affine_space(3, 2)
    comps = [frozenset(c.members) for c in line_complements(space)]
    lines = {frozenset(range(9)) - c: c for c in comps}
    found = False
    for sub in combinations(range(9), 8):
        s = frozenset(sub)
        inside = [c for c in comps if c <= s]
        for c1, c2 in combinations(inside, 2):
            l1 = frozenset(range(9)) - c1
            l2 = frozenset(range(9)) - c2
            if len(l1 & l2) == 1:
                found = True
    assert found
