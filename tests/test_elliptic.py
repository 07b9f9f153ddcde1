import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from k3lat.data import load_json
from k3lat.elliptic import (
    FibrationSpec,
    KodairaFibre,
    divisor_vector,
    fibre_relation,
    formal_gram,
    height,
    height_pair,
    in_radical,
    local_contribution,
    parse_divisor,
    parse_fibration,
    validate_fibration,
    verify_divisibility_relation,
)

BUNDLED = ["mp1", "mp9", "mp29", "mp30", "mp39", "mp64", "mp108", "double_iv_star"]
RELATIONS = ["mp108_relation", "mp9_relation", "mp30_relation", "double_iv_star_relation"]


def spec_of(name):
    return parse_fibration(load_json(f"{name}.json"))


# ---------------------------------------------------------------------------
# local contributions


def test_local_contribution_cyclic():
    i10 = KodairaFibre("A", "In", tuple(f"A{i}" for i in range(10)), n=10)
    assert local_contribution(i10, 2, 2) == Fraction(8, 5)
    assert local_contribution(i10, 2, 4) == Fraction(2 * 6, 10)
    assert local_contribution(i10, 0, 5) == 0
    i7 = KodairaFibre("B", "In", tuple(f"B{i}" for i in range(7)), n=7)
    assert local_contribution(i7, 3, 3) == Fraction(12, 7)


def test_local_contribution_additive():
    iv = KodairaFibre("V", "IV*", tuple(f"V{i}" for i in range(7)))
    assert local_contribution(iv, 2, 2) == Fraction(4, 3)
    assert local_contribution(iv, 2, 4) == Fraction(2, 3)
    assert local_contribution(iv, 0, 4) == 0
    i0 = KodairaFibre("D", "I0*", tuple(f"D{i}" for i in range(5)))
    assert local_contribution(i0, 1, 1) == 1
    assert local_contribution(i0, 1, 2) == Fraction(1, 2)
    iii = KodairaFibre("E", "III*", tuple(f"E{i}" for i in range(8)))
    assert local_contribution(iii, 6, 6) == Fraction(3, 2)
    ii = KodairaFibre("W", "II*", tuple(f"W{i}" for i in range(9)))
    assert local_contribution(ii, 0, 0) == 0


@pytest.mark.parametrize("n", [1.5, "2", None])
def test_kodaira_fibre_refuses_an_n_that_is_not_an_integer(n):
    """A float n used to raise TypeError from tuple repetition; it is now refused by name."""
    with pytest.raises(ValueError, match=r"^fibre f, n: .* is not an integer$"):
        KodairaFibre("f", "In", ("a",), n=n)
    assert KodairaFibre("f", "In", ("a", "b"), n=2.0).n == 2


def test_local_contribution_rejects_non_simple():
    iv = KodairaFibre("V", "IV*", tuple(f"V{i}" for i in range(7)))
    with pytest.raises(ValueError):
        local_contribution(iv, 1, 1)  # multiplicity-2 component
    i10 = KodairaFibre("A", "In", tuple(f"A{i}" for i in range(10)), n=10)
    with pytest.raises(ValueError):
        local_contribution(i10, 10, 0)


# the textbook local corrections, as closed forms: i(n - j)/n on I_n for
# 0 < i <= j, and per additive kind the value on one non-zero simple component
# and on two distinct ones (II* has none, III* only one)
ADDITIVE_ORACLE = {
    "I0*": (5, (0, 1, 2, 3), Fraction(1), Fraction(1, 2), 6),
    "IV*": (7, (0, 2, 4), Fraction(4, 3), Fraction(2, 3), 8),
    "III*": (8, (0, 6), Fraction(3, 2), None, 9),
    "II*": (9, (0,), None, None, 10),
}


def _oracle_fibres():
    """(fibre, simple component indices, correction(i, j), Euler number)."""
    for n in range(1, 21):
        fibre = KodairaFibre(f"I{n}", "In", tuple(f"a{k}" for k in range(n)), n=n)
        yield fibre, range(n), lambda i, j, n=n: Fraction(min(i, j) * (n - max(i, j)), n), n
    for kind, (size, simple, same, distinct, euler) in ADDITIVE_ORACLE.items():
        fibre = KodairaFibre(kind, kind, tuple(f"b{k}" for k in range(size)))
        yield fibre, simple, lambda i, j, s=same, d=distinct: s if i == j else d, euler


def test_local_contribution_matches_closed_form_oracle():
    for fibre, simple, closed_form, euler in _oracle_fibres():
        assert fibre.euler == euler
        size = len(fibre.labels)
        for i, j in product(range(-1, size + 1), repeat=2):
            bad = next((k for k in (i, j) if k not in simple), None)
            if bad is None:
                want = 0 if 0 in (i, j) else closed_form(i, j)
                assert local_contribution(fibre, i, j) == want, (fibre.kind, size, i, j)
                continue
            message = (f"component {bad} of {fibre.fibre_id} is not simple" if 0 <= bad < size
                       else f"fibre {fibre.fibre_id} has no component index {bad}")
            with pytest.raises(ValueError, match=re.escape(message)):
                local_contribution(fibre, i, j)


# ---------------------------------------------------------------------------
# heights


def test_heights_of_bundled_torsion_sections_vanish():
    for name in BUNDLED:
        spec = spec_of(name)
        for s in spec.sections:
            assert height(s.name, spec) == 0


def test_height_contribution_breakdown_no108():
    spec = spec_of("mp108")
    contribs = []
    s = spec.section("P1")
    for fibre in spec.fibres:
        i = spec.meet_index(s, fibre)
        contribs.append(local_contribution(fibre, i, i))
    assert contribs == [0, Fraction(2, 3), Fraction(2, 3), 1, Fraction(5, 6), Fraction(5, 6)]
    assert sum(contribs) == 4


def test_height_pair_symmetric_and_consistent():
    for name in BUNDLED:
        spec = spec_of(name)
        names = [s.name for s in spec.sections]
        for a in names:
            assert height(a, spec) == height_pair(a, a, spec)
            for b in names:
                assert height_pair(a, b, spec) == height_pair(b, a, spec)


def test_height_pair_of_distinct_torsion_sections():
    spec = spec_of("mp108")
    assert height_pair("P1", "P2", spec) == 0


# ---------------------------------------------------------------------------
# validation


def test_bundled_fibrations_validate():
    for name in BUNDLED:
        report = validate_fibration(spec_of(name))
        assert report.ok, [c.detail for c in report.checks if not c.passed]


def test_validation_flags_bad_euler_sum():
    bad = {
        "chi": 2,
        "fibres": [
            {"id": f"S{i}", "type": "In", "n": 1, "labels": [f"S{i}0"]} for i in range(4)
        ]
        + [
            {"id": "A", "type": "In", "n": 10, "labels": [f"A{i}" for i in range(10)]},
            {"id": "B", "type": "In", "n": 9, "labels": [f"B{i}" for i in range(9)]},
        ],
        "zero_section": "P0",
        "sections": [],
    }
    report = validate_fibration(parse_fibration(bad))
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "euler_sum_24" in failed


def test_parse_rejects_non_simple_incidence():
    obj = load_json("mp108.json")
    obj["sections"][0]["meets"]["G"] = "G0"
    parse_fibration(obj)  # fine
    iv = {
        "chi": 2,
        "fibres": [{"id": "V", "type": "IV*", "labels": [f"V{i}" for i in range(7)]}],
        "zero_section": "P0",
        "sections": [{"name": "P1", "meets": {"V": "V1"}}],
    }
    with pytest.raises(ValueError):
        parse_fibration(iv)


@pytest.mark.parametrize("value", [True, 1.0, 1.5, "0", None], ids=repr)
def test_fibration_spec_refuses_a_dot_that_is_not_an_int(value):
    """`parse_fibration` refuses such a value by its path first; a spec built in
    Python meets the spec's own check, which names the section."""
    spec = spec_of("mp108")
    p1, p2 = spec.sections
    message = f"^section P1: {re.escape(repr(value))} for P2 is not an integer$"
    with pytest.raises(ValueError, match=message):
        FibrationSpec(spec.fibres, spec.zero_section, (replace(p1, dots={"P2": value}), p2))


# ---------------------------------------------------------------------------
# divisibility relations


@pytest.mark.parametrize("rel_name", RELATIONS)
def test_bundled_relations_verify(rel_name):
    rel = load_json(f"{rel_name}.json")
    spec = parse_fibration(load_json(rel["fibration"]))
    assert verify_divisibility_relation(spec, rel["lhs"], rel["p"], rel["rhs"])


@pytest.mark.parametrize("rel_name", RELATIONS)
def test_relations_fail_under_unit_perturbations(rel_name):
    rel = load_json(f"{rel_name}.json")
    spec = parse_fibration(load_json(rel["fibration"]))
    p = rel["p"]
    for side in ("lhs", "rhs"):
        for symbol in rel[side]:
            for delta in (1, -1):
                tweaked = {k: dict(v) for k, v in (("lhs", rel["lhs"]), ("rhs", rel["rhs"]))}
                tweaked[side][symbol] += delta
                assert not verify_divisibility_relation(
                    spec, tweaked["lhs"], p, tweaked["rhs"]
                ), (rel_name, side, symbol, delta)


@pytest.mark.parametrize("rel_name", RELATIONS)
def test_relation_invariant_under_global_scaling(rel_name):
    rel = load_json(f"{rel_name}.json")
    spec = parse_fibration(load_json(rel["fibration"]))
    for t in (2, -3, Fraction(1, 3)):
        lhs = {k: t * v for k, v in rel["lhs"].items()}
        rhs = {k: t * v for k, v in rel["rhs"].items()}
        assert verify_divisibility_relation(spec, lhs, rel["p"], rhs)


@pytest.mark.parametrize("p", [0, 1, -7, True, 3.0, "3"])
def test_relation_refuses_a_p_that_is_not_an_integer_of_at_least_2(p):
    """lhs = rhs = 0 holds for every p, so only the range check can refuse it."""
    with pytest.raises(ValueError, match=r"^p must be an integer of at least 2, not "):
        verify_divisibility_relation(spec_of("mp108"), {}, p, {})


def test_fibre_relations_lie_in_radical():
    for name in BUNDLED:
        spec = spec_of(name)
        for fibre in spec.fibres:
            v = divisor_vector(spec, fibre_relation(fibre))
            assert in_radical(spec, v)


def test_divisor_vector_rejects_unknown_symbol():
    spec = spec_of("mp9")
    with pytest.raises(ValueError):
        divisor_vector(spec, {"Z9": 1})


def test_parse_divisor_accepts_rational_strings():
    d = parse_divisor({"P0": "1/3", "F": 2})
    assert d["P0"] == Fraction(1, 3) and d["F"] == 2


# ---------------------------------------------------------------------------
# radical test vs brute-force kernel on small one-fibre subsystems


def rational_kernel(G):
    n = len(G)
    rows = [[Fraction(x) for x in row] for row in G]
    piv_of_col = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_of_col[c] = r
        r += 1
    basis = []
    for fc in [c for c in range(n) if c not in piv_of_col]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for c, pr in piv_of_col.items():
            v[c] = -rows[pr][fc]
        basis.append(v)
    return basis


def one_fibre_subsystem(fibre_obj):
    return parse_fibration(
        {"chi": 2, "fibres": [fibre_obj], "zero_section": "P0", "sections": []}
    )


def test_radical_agrees_with_fibre_relation_span():
    import random

    rng = random.Random(17)
    seen = set()
    for name in BUNDLED:
        for fobj in load_json(f"{name}.json")["fibres"]:
            key = (fobj["type"], fobj.get("n", 0))
            if key in seen:
                continue
            seen.add(key)
            if len(fobj["labels"]) + 2 > 12:
                continue
            spec = one_fibre_subsystem(fobj)
            gens, G = formal_gram(spec)
            kernel = rational_kernel(G)
            # the radical is exactly the span of the single fibre relation
            assert len(kernel) == 1
            rel = divisor_vector(spec, fibre_relation(spec.fibres[0]))
            assert in_radical(spec, rel)
            # random vectors: radical membership == multiple-of-relation
            for _ in range(25):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in gens]
                v = coeffs
                lam = None
                is_multiple = True
                for a, b in zip(v, rel):
                    if b == 0:
                        if a != 0:
                            is_multiple = False
                        continue
                    if lam is None:
                        lam = Fraction(a, b)
                    elif Fraction(a, b) != lam:
                        is_multiple = False
                assert in_radical(spec, v) == is_multiple
