"""fibration_rows: each bundled fibration taken from its model to a K3 table row.

One op per model.  The seed only permutes the order of the eight ops.  The
op is dominated by ``lattice_core`` rational solves on the 23-28 generator
formal Gram matrices, so an exact-linear-algebra rewrite shows here.
"""

from __future__ import annotations

import random

from common import Mismatch, expect_equal, k3_facts, load_data, table1_row
from k3lat.classifier import K3Input

# (prime, class-lattice determinant, chains, witnesses) as pinned by
# tests/test_integration.py; chain classes contract to A_{p-1} points.
MODELS = {
    "mp39": (3, -312,
             [["P0", "G0"], ["A1", "A2"], ["B1", "B2"],
              ["C1", "C2"], ["C4", "C5"], ["C7", "C8"], ["C10", "C11"]],
             []),
    "mp108": (3, -72,
              [["P0", "G0"], ["A1", "A2"], ["B1", "B2"], ["C1", "C2"],
               ["D1", "D2"], ["D5", "D4"], ["E1", "E2"], ["E5", "E4"]],
              [[[1, 2, 4, 5, 6, 7], [1, 1, 2, 1, 2, 1]]]),
    "mp64": (5, -900,
             [["A1", "A2", "A3", "A4"], ["B1", "B2", "B3", "B4"],
              ["C1", "C2", "C3", "C4"], ["D1", "D2", "D3", "D4"]],
             []),
    "mp9": (5, -4,
            [["A1", "A2", "A3", "A4"], ["A6", "A7", "A8", "A9"],
             ["B1", "B2", "B3", "B4"], ["B6", "B7", "B8", "B9"]],
            [[[0, 1, 2, 3], [1, 1, 2, 2]]]),
    "mp29": (7, -336,
             [["P0", "A0", "A1", "A2", "A3", "A4"],
              ["B1", "B2", "B3", "B4", "B5", "B6"],
              ["C1", "C2", "C3", "C4", "C5", "C6"]],
             []),
    "mp30": (7, -7,
             [["A1", "A2", "A3", "A4", "A5", "A6"],
              ["B1", "B2", "B3", "B4", "B5", "B6"],
              ["C1", "C2", "C3", "C4", "C5", "C6"]],
             [[[0, 1, 2], [1, 2, 3]]]),
    "mp1": (19, -19, [[f"A{i}" for i in range(1, 19)]], []),
    "double_iv_star": (3, -27,
                       [["F1+", "F2+"], ["F3+", "F4+"], ["F5+", "F6+"],
                        ["F1-", "F2-"], ["F3-", "F4-"], ["F5-", "F6-"]],
                       [[[0, 1, 2, 3, 4, 5], [1, 1, 1, 2, 2, 2]]]),
}

# the bundled divisor relations; every one of them holds
RELATIONS = {
    "mp108": "mp108_relation.json",
    "mp9": "mp9_relation.json",
    "mp30": "mp30_relation.json",
    "double_iv_star": "double_iv_star_relation.json",
}


def build_ops(seed: int) -> list[dict]:
    ops = []
    for name in sorted(MODELS):
        p, det, chains, witnesses = MODELS[name]
        facts = k3_facts(p, len(chains), [w[0] for w in witnesses])
        rel = load_data(RELATIONS[name]) if name in RELATIONS else None
        ops.append({
            "model": name,
            "spec": load_data(f"{name}.json"),
            "p": p,
            "chains": chains,
            "relation": rel and {"p": rel["p"], "lhs": dict(rel["lhs"]), "rhs": dict(rel["rhs"])},
            "expect": {
                "valid": True,
                "rank": 20,
                "det": det,
                "witnesses": witnesses,
                "row": table1_row(p, len(chains), facts),
                "relation": True if rel else None,
            },
        })
    random.Random(seed).shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def setup(ops, ctx):
    """Parse every fibration and relation (data loading, not timed per op)."""
    el = ctx.k.elliptic
    state = {}
    for op in ops:
        rel = op["relation"]
        state[op["id"]] = (
            el.parse_fibration(op["spec"]),
            rel and (el.parse_divisor(rel["lhs"]), rel["p"], el.parse_divisor(rel["rhs"])),
        )
    return state


def class_lattice(k, spec, tracer):
    """Quotient of the formal module by the radical of its pairing, as
    ``class_lattice`` in tests/test_integration.py builds it."""
    lc = k.lattice_core
    gens, G = k.elliptic.formal_gram(spec)
    rows = [list(r) for r in G]
    basis_rows = lc.lattice_row_basis(rows)
    r = len(basis_rows)
    coords = [lc.solve_left(rows, b) for b in basis_rows]
    gram = [
        [sum(coords[i][t] * basis_rows[j][t] for t in range(len(gens))) for j in range(r)]
        for i in range(r)
    ]
    if any(v.denominator != 1 for row in gram for v in row):
        raise Mismatch("class-lattice Gram matrix is not integral")
    lattice = lc.GramLattice(tuple(tuple(int(v) for v in row) for row in gram))
    images = {}
    for i, g in enumerate(gens):
        x = lc.solve_left(basis_rows, rows[i])
        if any(v.denominator != 1 for v in x):
            raise Mismatch(f"generator {g} has no integral image")
        images[g] = tuple(int(v) for v in x)
    if tracer is not None:
        tracer.count("lattice_core.solves", r + len(gens))
    return lattice, images


def run_op(op, state, ctx):
    k = ctx.k
    spec, relation = state[op["id"]]
    valid = k.elliptic.validate_fibration(spec).ok
    lattice, images = class_lattice(k, spec, ctx.tracer)
    det = k.lattice_core.bareiss_det(lattice.gram_rows())
    p = op["p"]
    cfg = k.root_config.ChainConfiguration(
        lattice, p, tuple(tuple(images[label] for label in ch) for ch in op["chains"])
    )
    witnesses = k.root_config.find_p_divisible_subsets(cfg)
    subsets = [list(w.subset) for w in witnesses]
    facts = k3_facts(p, len(op["chains"]), subsets)
    row = k.classifier.k3_classify(K3Input(p, len(op["chains"]), facts))
    verified = None
    if relation is not None:
        lhs, rp, rhs = relation
        verified = k.elliptic.verify_divisibility_relation(spec, lhs, rp, rhs)
    if ctx.tracer is not None:
        ctx.tracer.count("root_config.witnesses", len(witnesses))
    return {
        "valid": valid,
        "rank": lattice.rank,
        "det": det,
        "witnesses": [[list(w.subset), list(w.coefficients)] for w in witnesses],
        "row": row.number,
        "relation": verified,
    }


def check(op, result) -> None:
    for key, want in op["expect"].items():
        expect_equal(f"{op['model']} {key}", result[key], want)


def bases(ops) -> dict:
    return {
        "ops_per_pass": len(ops),
        "formal_gram_sizes": {
            op["model"]: 2 + len(op["spec"]["sections"])
            + sum(len(f["labels"]) for f in op["spec"]["fibres"])
            for op in ops
        },
    }
