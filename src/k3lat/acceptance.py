"""The acceptance suite: every headline claim the package makes, runnable as
one self-test.  Each criterion returns a pass/fail record with timing; the
CLI ``selftest`` subcommand prints one line per criterion and pytest asserts
them individually.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import classifier, elliptic, finite_geometry, groups, lattice_core, root_config
from .data import load_json


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


TIME_BUDGETS = {1: 1.0, 2: 5.0, 3: 1.0, 4: 1.0, 5: 5.0, 6: 10.0, 7: 1.0, 8: 5.0, 9: 60.0, 10: 5.0}


def _check(number, title, fn) -> CriterionResult:
    if not __debug__:  # python -O strips every assert, so no criterion would be checked
        detail = "not checked: assertions are off (python -O)"
        return CriterionResult(number, title, False, detail, 0.0)
    start = time.perf_counter()
    try:
        detail = fn() or "ok"
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # a crash is a failed criterion, not the end of the run
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    return CriterionResult(number, title, passed, detail, elapsed)


# ---------------------------------------------------------------------------


def _criterion_1():
    got = classifier.cover_euler_solutions()
    want = [
        (2, 8, "K3"), (2, 16, "abelian"), (3, 6, "K3"),
        (3, 9, "abelian"), (5, 4, "K3"), (7, 3, "K3"),
    ]
    assert got == want, f"cover solutions {got}"
    return "six cover cases, exact match"


def _criterion_2():
    space = finite_geometry.affine_space(2, 4)
    _, cfg = finite_geometry.kummer_lattice()
    witnesses = root_config.find_p_divisible_subsets(cfg)
    eights = [w for w in witnesses if len(w.subset) == 8]
    fulls = [w for w in witnesses if len(w.subset) == 16]
    assert len(eights) == 30 and len(fulls) == 1 and len(witnesses) == 31, (
        f"witness counts {len(eights)}/{len(fulls)}/{len(witnesses)}"
    )
    hyps = {h.members for h in finite_geometry.affine_hyperplanes(space)}
    assert {w.subset for w in eights} == hyps

    pairs = list(combinations([set(h) for h in hyps], 2))
    assert len(pairs) == 435
    for a, b in pairs:
        inter = a & b
        assert len(inter) in (0, 4)
        if not inter:
            assert a | b == set(range(16))

    report = finite_geometry.hyperplane_covering_search()
    assert report.pair_13 is True
    frozen = [frozenset(h) for h in hyps]
    assert sum(1 for h in frozen if h <= frozenset(report.unique_12)) == 1
    assert not any(h <= frozenset(report.none_11) for h in frozen)
    return "30 + 1 divisible subsets; 435-pair law; all three subset searches"


def _criterion_3():
    assert finite_geometry.ag23_unique_six_set() is True
    _, cfg = finite_geometry.ag23_lattice()
    sixes = {
        w.subset
        for w in root_config.find_p_divisible_subsets(cfg)
        if len(w.subset) == 6
    }
    for sub in combinations(range(9), 7):
        inside = [s for s in sixes if set(s) <= set(sub)]
        assert len(inside) == 1, f"7-subset {sub} holds {len(inside)} divisible 6-sets"
    return "36 seven-point subsets, one divisible 6-set each"


def _criterion_4():
    for name, section in [("mp108", "P1"), ("mp9", "P1"), ("mp30", "P1")]:
        spec = elliptic.parse_fibration(load_json(f"{name}.json"))
        h = elliptic.height(section, spec)
        assert h == 0, f"{name}: h({section}) = {h}"
    for name in ["mp1", "mp9", "mp29", "mp30", "mp39", "mp64", "mp108"]:
        report = elliptic.validate_fibration(elliptic.parse_fibration(load_json(f"{name}.json")))
        assert report.ok, f"{name} failed validation"
    return "three zero heights; seven fibrations validate"


def _criterion_5():
    rels = ["mp108_relation", "mp9_relation", "mp30_relation", "double_iv_star_relation"]
    perturbations = 0
    for rel_name in rels:
        rel = load_json(f"{rel_name}.json")
        spec = elliptic.parse_fibration(load_json(rel["fibration"]))
        assert elliptic.verify_divisibility_relation(spec, rel["lhs"], rel["p"], rel["rhs"]), rel_name
        for side in ("lhs", "rhs"):
            for symbol in rel[side]:
                for delta in (1, -1):
                    tweaked = {"lhs": dict(rel["lhs"]), "rhs": dict(rel["rhs"])}
                    tweaked[side][symbol] += delta
                    assert not elliptic.verify_divisibility_relation(
                        spec, tweaked["lhs"], rel["p"], tweaked["rhs"]
                    ), f"{rel_name} {side} {symbol} {delta:+d}"
                    perturbations += 1
    return f"four relations verify; {perturbations} unit perturbations all fail"


def _criterion_6():
    assert groups.catalog_group("Gamma2c1").order == 16
    assert groups.catalog_group("G18/5").order == 18
    assert groups.count_normal_subgroups(groups.catalog_group("(Z/2)^4"), 2) == 15
    assert groups.count_normal_subgroups(groups.catalog_group("Z/4x(Z/2)^2"), 2) == 7
    assert groups.count_normal_subgroups(groups.catalog_group("Gamma2c1"), 2) == 3
    assert groups.count_normal_subgroups(groups.catalog_group("D10"), 5) == 0
    v4 = groups.catalog_group("(Z/2)^2")
    assert groups.count_normal_subgroups_isomorphic_to(groups.catalog_group("D8"), v4) == 2
    return "orders 16 and 18; index-2 counts 15/7/3; dihedral facts"


_EXPECTED_SING_Y = {
    2: lambda p, c: f"{2 * (c - 8)}A1" if c > 8 else "smooth",
    3: lambda p, c: "8A1",
    4: lambda p, c: "smooth",
    5: lambda p, c: "4A1",
    6: lambda p, c: "smooth",
    7: lambda p, c: "smooth",
    10: lambda p, c: f"{3 * (c - 6)}A2" if c > 6 else "smooth",
    11: lambda p, c: "6A2",
    12: lambda p, c: "smooth",
    15: lambda p, c: "smooth",
    17: lambda p, c: "smooth",
}


def _criterion_7():
    checked = 0
    for row in classifier.table_lookup(1):
        ps = [row["p"]] if row["p"] != "gt7" else [11, 13, 17, 19]
        for p in ps:
            for c in range(row["c_min"], row["c_max"] + 1):
                got = classifier.k3_classify(classifier.K3Input(p, c, row["condition"]))
                assert got.number == row["no"], f"row {row['no']} at (p={p}, c={c})"
                if row["sing_y"]["kind"] == "same_as_x":
                    expected = f"{c}A{p - 1} (Y = X)"
                elif row["sing_y"]["kind"] == "plane":
                    expected = "Y = C^2"
                else:
                    expected = _EXPECTED_SING_Y[row["no"]](p, c)
                assert got.sing_y == expected, f"row {row['no']}: {got.sing_y} != {expected}"
                checked += 1
    for row in classifier.table_lookup(2):
        for c in range(row["c_min"], row["c_max"] + 1):
            got = classifier.enriques_classify(
                classifier.EnriquesInput(row["p"], c, w=row.get("w"), cover=row.get("cover"))
            )
            assert got.number == row["no"], f"row {row['no']} at c={c}"
            checked += 1
    return f"{checked} (row, c) cases round-trip with matching singular sets"


def _criterion_8():
    inv = lattice_core.AbelianInvariants
    names = lambda gs: [g.name for g in gs]
    by = lambda *ns: [groups.catalog_group(n) for n in ns]

    # order-10 trichotomy
    base10 = groups.filter_extensions(
        groups.ExtensionConstraint(inv((5,)), 2), by("Z/10", "D10")
    )
    assert names(base10) == ["Z/10", "D10"]
    with_cover = groups.filter_extensions(
        groups.ExtensionConstraint(
            inv((5,)), 2, ({"kind": "normal_count", "index": 5, "op": "ge", "value": 1},)
        ),
        by("Z/10", "D10"),
    )
    assert names(with_cover) == ["Z/10"]
    without = groups.filter_extensions(
        groups.ExtensionConstraint(
            inv((5,)), 2, ({"kind": "normal_count", "index": 5, "op": "eq", "value": 0},)
        ),
        by("Z/10", "D10"),
    )
    assert names(without) == ["D10"]

    # order-6 and order-18 elimination down to Z/6 and S3xZ/3
    has3 = ({"kind": "normal_count", "index": 3, "op": "ge", "value": 1},)
    got6 = groups.filter_extensions(
        groups.ExtensionConstraint(inv((3,)), 2, has3), by("Z/6", "S3")
    )
    assert names(got6) == ["Z/6"]
    unique3 = ({"kind": "normal_count", "index": 3, "op": "eq", "value": 1},)
    got18 = groups.filter_extensions(
        groups.ExtensionConstraint(inv((3, 3)), 2, unique3),
        by("Z/6xZ/3", "S3xZ/3", "G18/5"),
    )
    assert names(got18) == ["S3xZ/3"]

    # dihedral eliminations at orders 8 and 16
    got8 = groups.filter_extensions(
        groups.ExtensionConstraint(
            inv((2, 2)), 2, ({"kind": "normal_iso_count", "pattern": "(Z/2)^2", "op": "odd"},)
        ),
        by("Z/8", "Z/4xZ/2", "(Z/2)^3", "D8"),
    )
    assert names(got8) == ["Z/4xZ/2", "(Z/2)^3"]
    got16 = groups.filter_extensions(
        groups.ExtensionConstraint(
            inv((2, 2, 2)), 2, ({"kind": "not_isomorphic", "pattern": "D8xZ/2"},)
        ),
        by("(Z/2)^4", "Z/4x(Z/2)^2", "Gamma2c1", "D8xZ/2"),
    )
    assert names(got16) == ["(Z/2)^4", "Z/4x(Z/2)^2", "Gamma2c1"]
    return "order 10, 6, 18, 8 and 16 filters reproduce the stated survivors"


def _criterion_9():
    rng = random.Random(20260808)

    # Smith reconstruction on 1000 random matrices
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        D, P, Q = lattice_core.smith_normal_form(M)
        assert lattice_core.mat_mul(lattice_core.mat_mul(P, M), Q) == D
        assert abs(lattice_core.bareiss_det(P)) == 1
        assert abs(lattice_core.bareiss_det(Q)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        nz = [d for d in diag if d != 0]
        assert diag == nz + [0] * (len(diag) - len(nz))
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))

    # primitive-closure idempotence
    for _ in range(200):
        n = rng.randint(1, 6)
        amb = lattice_core.GramLattice(
            tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n))
        )
        basis = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(1, n)))
        closure, _ = lattice_core.primitive_closure(lattice_core.EmbeddedSublattice(amb, basis))
        _, glue2 = lattice_core.primitive_closure(
            lattice_core.EmbeddedSublattice(amb, tuple(map(tuple, closure)))
        )
        assert glue2.is_trivial

    # radical test vs brute-force kernel on small one-fibre systems
    for name in ["mp1", "mp9", "mp29", "mp30", "mp39", "mp64", "mp108", "double_iv_star"]:
        for fobj in load_json(f"{name}.json")["fibres"]:
            if len(fobj["labels"]) + 2 > 12:
                continue
            spec = elliptic.parse_fibration(
                {"chi": 2, "fibres": [fobj], "zero_section": "P0", "sections": []}
            )
            rel = elliptic.divisor_vector(spec, elliptic.fibre_relation(spec.fibres[0]))
            gens = elliptic.generators(spec)
            for _ in range(10):
                v = [Fraction(rng.randint(-3, 3)) for _ in gens]
                lam = None
                multiple = True
                for a, b in zip(v, rel):
                    if b == 0:
                        multiple &= a == 0
                    elif lam is None:
                        lam = Fraction(a, b)
                    elif Fraction(a, b) != lam:
                        multiple = False
                assert elliptic.in_radical(spec, v) == multiple

    # glue group trivial <=> no divisibility witness, on random configurations
    from .lattice_core import left_kernel_mod_p

    def random_code(p, c):
        basis = []
        for _ in range(12):
            w = [rng.randrange(p) for _ in range(c)]
            if all(x == 0 for x in w):
                continue
            if p == 2:
                if sum(w) % 4 != 0 or any(
                    sum(a & b for a, b in zip(w, v)) % 2 for v in basis
                ):
                    continue
            else:
                if sum(x * x for x in w) % p != 0 or any(
                    sum(a * b for a, b in zip(w, v)) % p for v in basis
                ):
                    continue
            cand = basis + [w]
            if len(left_kernel_mod_p(cand, p)) > 0:
                continue
            basis = cand
        return basis

    for _ in range(100):
        p = rng.choice([2, 2, 3, 5])
        c = rng.randint(1, 8 // (p - 1))
        code = random_code(p, c) if rng.random() < 0.7 else []
        _, cfg = finite_geometry.glue_overlattice(p, c, code)
        glue = root_config.chain_span_glue(cfg)
        witnesses = root_config.find_p_divisible_subsets(cfg)
        assert glue.is_trivial == (not witnesses)
    return "1000 Smith reconstructions; closure idempotence; radical oracle; glue equivalence"


def _criterion_10():
    """Bundled Enriques data: every structural claim in the files re-verifies."""
    from .lattice_core import GramLattice, parse_lattice

    for name in ("enriques_index8_2a4.json", "enriques_index2_3a2.json"):
        data = load_json(name)
        amb = parse_lattice(data["ambient"])
        p = data["p"]
        assert root_config.sublattice_index(data["n_basis"], amb) == data["expected_index"]
        total = [0] * amb.rank
        for chain, weights in zip(data["chains"], data["weights"]):
            for w, v in zip(weights, chain):
                total = [a + w * b for a, b in zip(total, v)]
        assert total == data["divisor"] and all(x % p == 0 for x in total)
        verdict = root_config.odd_p_divisibility_by_finite_index(
            data["divisor"], data["n_basis"], amb, p
        )
        assert verdict == "divisible", name

    w12 = load_json("enriques_w12.json")
    lat = GramLattice(tuple(map(tuple, w12["gram"])))
    assert lat.rank == 10 and lat.is_even() and abs(lat.det()) == 1
    kw = w12["kw"]
    curves = w12["curves"]
    sets = {
        "divisible_as_0": [(2, 4, 9, 11), (2, 6, 9, 12), (1, 2, 3, 4, 5, 6, 7, 8)],
        "divisible_as_KW": [(1, 3, 5, 7), (2, 4, 6, 8)],
        "not_divisible": [(2,), (2, 4, 6, 9)],
    }
    for verdict, subsets in sets.items():
        for labels in subsets:
            got = root_config.enriques_mod2_divisibility(
                [curves[f"F{i}"] for i in labels], kw
            )
            assert got == verdict, (labels, got)
    return "finite-index witnesses and the 12-curve congruences re-verify"


_CRITERIA = [
    (1, "cover Euler enumeration", _criterion_1),
    (2, "16-point divisibility combinatorics", _criterion_2),
    (3, "9-point plane divisibility", _criterion_3),
    (4, "height pairing and fibration validation", _criterion_4),
    (5, "divisibility relations and perturbations", _criterion_5),
    (6, "group facts", _criterion_6),
    (7, "table round-trips", _criterion_7),
    (8, "extension eliminations", _criterion_8),
    (9, "property suites", _criterion_9),
    (10, "bundled data integrity", _criterion_10),
]


def run_criterion(number: int) -> CriterionResult:
    for num, title, fn in _CRITERIA:
        if num == number:
            return _check(num, title, fn)
    raise ValueError(f"no criterion {number}")


def run_all() -> list[CriterionResult]:
    return [_check(num, title, fn) for num, title, fn in _CRITERIA]
