"""From a model to a table row: the divisibility witnesses of a chain
configuration give the facts that pick the row of Table 1, or of Table 2 for
Enriques curves at p = 2 with a torsion bit.  A witness structure the tables
do not describe raises ``FactsError``, naming the counts found."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from typing import Optional, Sequence

from .classifier import (
    EnriquesInput, FactsError, K3Input, TableRow, enriques_classify, k3_classify, table_lookup,
)
from .elliptic import FibrationSpec, class_lattice
from .root_config import ChainConfiguration, DivisibleSubsetWitness, find_p_divisible_subsets


def _k3_word(p: int, c: Optional[int]):
    """(word size, letter) of Table 1's one_* row at (p, c), read off its tower and
    its condition's suffix; None where Table 1 has no such row.  c = None takes the
    first such row at p."""
    return next(((r["tower"][0], r["condition"][4:]) for r in table_lookup(1, p=p, c=c)
                 if r["condition"].startswith("one_")), None)


def k3_facts(p: int, c: int, witnesses: Sequence[DivisibleSubsetWitness]) -> str:
    """The Table 1 condition met by a c-chain configuration with these witnesses: one
    divisible word, or the union of two, where Table 1 has a word; else primitivity."""
    if (word := _k3_word(p, c)) is None:
        return "nonprimitive" if witnesses else "primitive"
    size, letter = word
    words = [set(w.subset) for w in witnesses if len(w.subset) == size]
    if len(words) == 1:
        return f"one_{letter}"
    if not any(a | b == set(range(c)) for a, b in combinations(words, 2)):
        raise FactsError(f"{len(words)} {size}-point words on {c} chains, and no two cover them")
    return f"two_{letter}"


def k3_row(cfg: ChainConfiguration) -> tuple[list[DivisibleSubsetWitness], str, TableRow]:
    """The witnesses of a configuration, the facts they give and the Table 1 row."""
    witnesses = find_p_divisible_subsets(cfg)
    facts = k3_facts(cfg.p, cfg.count, witnesses)
    return witnesses, facts, k3_classify(K3Input(cfg.p, cfg.count, facts))


def fibration_configuration(
    spec: FibrationSpec, p: int, chain_labels: Sequence[Sequence[str]]
) -> ChainConfiguration:
    """Chains of generator labels (sections, fibre components) as a
    configuration in the fibration's class lattice."""
    lattice, images = class_lattice(spec)
    for label in (label for chain in chain_labels for label in chain):
        if label not in images:
            raise ValueError(f"unknown chain label {label!r}")
    chains = tuple(tuple(images[label] for label in chain) for chain in chain_labels)
    return ChainConfiguration(lattice, p, chains)


def enriques_facts(cfg: ChainConfiguration) -> tuple[str, str]:
    """The quotient-side and cover-side facts (w, cover) of disjoint curves.

    The curves are one-class chains at p = 2 whose vectors end in one torsion
    bit, the canonical class K_W mod 2.  A sum is 2-divisible on the quotient
    when the search counts that bit, and on the cover when it sees the free
    coordinates alone: K_W is the only torsion class and dies on the cover.
    Where Table 2 names no word for w at c, only primitivity counts; else the
    words are 4-sets, half of Table 1's 8-point word upstairs, and six or
    seven curves need one strict 4-set, or three.
    """
    r = cfg.ambient.rank
    if cfg.p != 2 or cfg.vector_length != r + 1:
        raise ValueError("Enriques curves are a p = 2 configuration with one torsion bit")
    c = cfg.count
    quotient = find_p_divisible_subsets(cfg)
    cut = replace(cfg, chains=tuple(tuple(v[:r] for v in chain) for chain in cfg.chains))
    cover = find_p_divisible_subsets(cut)
    if {row["w"] for row in table_lookup(2, p=2, c=c)} <= {"primitive", "nonprimitive"}:
        return ("nonprimitive" if quotient else "primitive",
                "nonprimitive" if cover else "primitive")
    size = _k3_word(2, None)[0] // 2
    strict = [set(w.subset) for w in quotient if len(w.subset) == size]
    if len(strict) not in (1, 3):
        raise FactsError(f"{len(strict)} strict {size}-sets among {c} curves; expected 1 or 3")
    if len(strict) == 1:
        w = "one_K"
    elif c == 6:
        if not any(a | b == set(range(c)) for a, b in combinations(strict, 2)):
            raise FactsError(f"no two of the 3 strict {size}-sets cover the 6 curves")
        w = "two_K"
    else:
        w = "three_K" if set().union(*strict) == set(range(c)) else "two_K_plus_A1"
    if c == 7:
        return w, "three_H"
    return w, "one_H" if sum(len(v.subset) == size for v in cover) == 1 else "two_H"


def enriques_row(cfg: ChainConfiguration) -> tuple[str, str, TableRow]:
    """The facts (w, cover) of disjoint Enriques curves and the Table 2 row."""
    w, cover = enriques_facts(cfg)
    return w, cover, enriques_classify(EnriquesInput(2, cfg.count, w=w, cover=cover))
