"""From a model to a table row: the divisibility witnesses of a chain configuration
give the facts that pick the row of Table 1, or of Table 2 for Enriques curves at
p = 2 with a torsion bit, read as counts of the divisible words each condition names."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from itertools import combinations
from typing import Callable, Optional, Sequence

from .classifier import (EnriquesInput, K3Input, TableRow, enriques_classify, k3_classify,
                         pick_row, table_lookup)
from .elliptic import FibrationSpec, class_lattice
from .root_config import ChainConfiguration, DivisibleSubsetWitness, find_p_divisible_subsets

_COUNTS = ("one", "two", "three")
_CONDITION = re.compile(rf"primitive|nonprimitive|({'|'.join(_COUNTS)})_[A-Z](_plus_A1)?")


def _holds(condition: Optional[str], words: Sequence[frozenset], c: int, size: int) -> bool:
    """Whether a table condition holds of the witness supports ``words`` on c chains:
    primitive, no witness; nonprimitive, some; one_X, exactly one word of ``size``
    chains; two_X or three_X, that many such words cover all chains such words hold,
    which are all c chains, or all but one with _plus_A1.  None (no condition) holds."""
    if condition in (None, "primitive", "nonprimitive"):
        return condition is None or bool(words) == (condition == "nonprimitive")
    n = _COUNTS.index(condition.split("_")[0]) + 1
    sized = [w for w in words if len(w) == size]
    held = frozenset().union(*sized)
    return len(sized) == 1 if n == 1 else len(held) == c - condition.endswith("_plus_A1") and any(
        frozenset().union(*ws) == held for ws in combinations(sized, n))


def _row(table_id: int, p: int, c: int, words: dict, size: Callable[[dict], int]) -> dict:
    """The one row of the table at (p, c) whose conditions all hold, from the
    classifier's picker: ``words`` maps a condition key to witness supports, and a
    word of a row has size(row) chains."""
    def fits(row: dict) -> bool:
        for k in words:
            if row.get(k) and not _CONDITION.fullmatch(row[k]):
                raise ValueError(f"Table {table_id} row {row['no']}: no reading for {k} {row[k]!r}")
        return all(_holds(row.get(k), ws, c, size(row)) for k, ws in words.items())

    def found() -> str:
        return "; ".join(f"{k} words: " + (", ".join(
            f"{n} {s}-point word{'s' * (n != 1)}" for s, n in sorted(Counter(map(len, ws)).items()))
            or "none") for k, ws in words.items()) + f" on {c} chains"

    return pick_row(table_id, p, c, fits, found)


def k3_row(cfg: ChainConfiguration) -> tuple[list[DivisibleSubsetWitness], str, TableRow]:
    """The witnesses of a configuration, the facts they give and the Table 1 row: the
    facts are the condition of the one row at (p, c) the witnesses fit, where a word
    of a row has as many chains as the first entry of its tower (none if empty)."""
    witnesses = find_p_divisible_subsets(cfg)
    facts = _row(1, cfg.p, cfg.count, {"condition": [frozenset(w.subset) for w in witnesses]},
                 lambda row: sum(row["tower"][:1]))["condition"]
    return witnesses, facts, k3_classify(K3Input(cfg.p, cfg.count, facts))


def fibration_configuration(spec: FibrationSpec, p: int,
                            chain_labels: Sequence[Sequence[str]]) -> ChainConfiguration:
    """Chains of generator labels (sections, fibre components) as a
    configuration in the fibration's class lattice."""
    lattice, images = class_lattice(spec)
    if unknown := [label for chain in chain_labels for label in chain if label not in images]:
        raise ValueError(f"unknown chain label {unknown[0]!r}")
    chains = tuple(tuple(images[label] for label in chain) for chain in chain_labels)
    return ChainConfiguration(lattice, p, chains)


def enriques_row(cfg: ChainConfiguration) -> tuple[str, Optional[str], TableRow]:
    """The facts (w, cover) of the one Table 2 row disjoint curves fit, cover None if
    the row names none, and that row.

    The curves are one-class chains at p = 2 whose vectors end in one torsion bit,
    K_W mod 2.  A sum is 2-divisible on the quotient when the search counts that
    bit, and on the cover when it sees the free coordinates alone, since K_W dies
    there.  Each curve lifts to two on the K3 double cover, so a row's word is half
    that of the Table 1 row its ``k3_facts`` name at twice the curves."""
    r = cfg.ambient.rank
    if cfg.p != 2 or any(len(v) != r + 1 for chain in cfg.chains for v in chain):
        raise ValueError("Enriques curves are a p = 2 configuration with one torsion bit")
    cut = replace(cfg, chains=tuple(tuple(v[:r] for v in chain) for chain in cfg.chains))
    words = {key: [frozenset(w.subset) for w in find_p_divisible_subsets(side)]
             for key, side in (("w", cfg), ("cover", cut))}
    cover_words = {k3["condition"]: sum(k3["tower"][:1])
                   for k3 in table_lookup(1, p=cfg.p, c=2 * cfg.count)}
    row = _row(2, cfg.p, cfg.count, words, lambda row: cover_words.get(row["k3_facts"], 0) // 2)
    return row["w"], row["cover"], enriques_classify(
        EnriquesInput(cfg.p, cfg.count, w=row["w"], cover=row["cover"]))
