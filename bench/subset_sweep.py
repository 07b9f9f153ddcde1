"""subset_sweep: point subsets of the 16-point and 9-point models taken to a row.

Set-up builds ``kummer_lattice()`` and ``ag23_lattice()`` (mostly
``lattice_core``).  Each op builds the sub-configuration of a seeded point
subset, searches it for divisible subsets, reads the glue of the chain span
off a Smith form and classifies.  ``root_config`` does most of the per-op
work; the large solves sit in set-up, so a ``lattice_core`` rewrite should
move ``setup_s`` here and leave the per-op figures alone.  Sizes are
stratified (every size equally often) so that seeds differ only in which
subsets of a size they draw.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from common import Mismatch, expect_equal, k3_facts, table1_row
from k3lat.classifier import K3Input

# model -> (p, n, ops per size): 16 x 88 = 1408 ops over F_2^4, 9 x 66 = 594 over F_3^2
SPACES = {"F2^4": (2, 4, 88), "F3^2": (3, 2, 66)}


def point(p: int, n: int, index: int) -> tuple[int, ...]:
    """Digit j of the index is coordinate j, as in ``AffineSpaceModel.point``."""
    return tuple(index // p**j % p for j in range(n))


def witness_supports(p: int, n: int) -> list[frozenset]:
    """Supports of the nonzero affine-function codewords up to scaling: the
    complements of the affine hyperplanes, plus the whole space.  Over F_2^4
    a hyperplane complement is again a hyperplane; over F_3^2 these are the
    line complements.  Computed here, independently of the program."""
    pts = [point(p, n, i) for i in range(p**n)]
    out = {frozenset(range(p**n))}
    for a in product(range(p), repeat=n):
        if any(a):
            for b in range(p):
                out.add(frozenset(i for i, x in enumerate(pts)
                                  if sum(ai * xi for ai, xi in zip(a, x)) % p != b))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def build_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for model, (p, n, per_size) in SPACES.items():
        size = p**n
        supports = witness_supports(p, n)
        for c in range(1, size + 1):
            for _ in range(per_size):
                members = sorted(rng.sample(range(size), c))
                pos = {m: i for i, m in enumerate(members)}
                subsets = sorted(
                    (sorted(pos[m] for m in s) for s in supports if s <= set(members)),
                    key=lambda s: (len(s), s),
                )
                ops.append({
                    "model": model,
                    "subset": members,
                    "expect": {
                        "witnesses": subsets,
                        "row": table1_row(p, c, k3_facts(p, c, subsets)),
                    },
                })
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def setup(ops, ctx):
    fg = ctx.k.finite_geometry
    return {"F2^4": fg.kummer_lattice()[1], "F3^2": fg.ag23_lattice()[1]}


def run_op(op, state, ctx):
    k = ctx.k
    cfg = state[op["model"]]
    p, c = cfg.p, len(op["subset"])
    chains = tuple(cfg.chains[i] for i in op["subset"])
    sub = k.root_config.ChainConfiguration(cfg.ambient, p, chains)
    witnesses = k.root_config.find_p_divisible_subsets(sub)
    rank = cfg.ambient.rank
    D = k.lattice_core.smith_normal_form([list(v[:rank]) for ch in chains for v in ch])[0]
    glue = [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] > 1]
    subsets = [list(w.subset) for w in witnesses]
    row = k.classifier.k3_classify(K3Input(p, c, k3_facts(p, c, subsets)))
    if ctx.tracer is not None:
        ctx.tracer.count("root_config.witnesses", len(witnesses))
    return {"p": p, "witnesses": subsets, "glue": glue, "row": row.number}


def check(op, result) -> None:
    expect = op["expect"]
    expect_equal("witness subsets", result["witnesses"], expect["witnesses"])
    # the span's glue is (Z/p)^k, where the p^k - 1 nonzero kernel vectors
    # make (p^k - 1)/(p - 1) witnesses; trivial exactly when none exists
    p, count = result["p"], len(result["witnesses"])
    k = 0
    while (p**k - 1) // (p - 1) < count:
        k += 1
    if (p**k - 1) // (p - 1) != count or result["glue"] != [p] * k:
        raise Mismatch(f"glue {result['glue']} does not match {count} witnesses")
    expect_equal("row", result["row"], expect["row"])


def bases(ops) -> dict:
    hist = {model: Counter() for model in SPACES}
    for op in ops:
        hist[op["model"]][len(op["subset"])] += 1
    return {
        "ops_per_pass": len(ops),
        "subset_sizes": {m: dict(sorted(h.items())) for m, h in hist.items()},
    }
