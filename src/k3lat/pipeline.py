"""From a model to a table row: the divisibility witnesses of a chain
configuration or of the 12-curve Enriques model give the facts that pick the
row of Table 1 or Table 2.  A witness structure the tables do not describe
raises ``FactsError``, naming the counts found."""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from .classifier import EnriquesInput, FactsError, K3Input, TableRow, enriques_classify, k3_classify
from .elliptic import FibrationSpec, class_lattice
from .root_config import (
    ChainConfiguration,
    DivisibleSubsetWitness,
    enriques_mod2_divisibility,
    find_p_divisible_subsets,
)

# (p, c) -> (word size, letter): there the configuration holds one divisible
# word of that size, or is the union of two; elsewhere primitivity decides
_K3_WORDS = {(2, 12): (8, "H"), (3, 8): (6, "R")}


def k3_facts(p: int, c: int, witnesses: Sequence[DivisibleSubsetWitness]) -> str:
    """The Table 1 condition met by a c-chain configuration with these witnesses."""
    if (p, c) not in _K3_WORDS:
        return "nonprimitive" if witnesses else "primitive"
    size, letter = _K3_WORDS[p, c]
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


def enriques_facts(
    curves: Mapping[str, Sequence[int]], kw: Sequence[int], labels: Sequence[str]
) -> tuple[str, str]:
    """The quotient-side and cover-side facts (w, cover) of disjoint curves.

    A 4-set of curves is strict when its sum is 2-divisible and canonical
    when the sum is the canonical class ``kw`` mod 2.  Up to five curves only
    primitivity counts; six or seven need one strict 4-set, or three.
    """
    vectors = {label: curves[label] for label in labels}  # a KeyError names an unknown label
    c = len(labels)
    if c > 7:
        raise FactsError(f"{c} curves; the 12-curve model gives facts for at most 7")
    strict, canonical = [], []
    for sub in combinations(labels, 4):
        verdict = enriques_mod2_divisibility([vectors[label] for label in sub], kw)
        if verdict != "not_divisible":
            (strict if verdict == "divisible_as_0" else canonical).append(set(sub))
    if c <= 5:
        return ("nonprimitive" if strict else "primitive",
                "nonprimitive" if strict or canonical else "primitive")
    if len(strict) not in (1, 3):
        raise FactsError(f"{len(strict)} strict 4-sets among {c} curves; expected 1 or 3")
    if len(strict) == 1:
        w = "one_K"
    elif c == 6:
        if not any(a | b == set(labels) for a, b in combinations(strict, 2)):
            raise FactsError("no two of the 3 strict 4-sets cover the 6 curves")
        w = "two_K"
    else:
        w = "three_K" if set().union(*strict) == set(labels) else "two_K_plus_A1"
    if c == 7:
        return w, "three_H"
    return w, "one_H" if len(strict) + len(canonical) == 1 else "two_H"


def enriques_row(
    curves: Mapping[str, Sequence[int]], kw: Sequence[int], labels: Sequence[str]
) -> tuple[str, str, TableRow]:
    """The facts (w, cover) of disjoint curves of the 12-curve model and the Table 2 row."""
    w, cover = enriques_facts(curves, kw, labels)
    return w, cover, enriques_classify(EnriquesInput(2, len(labels), w=w, cover=cover))
