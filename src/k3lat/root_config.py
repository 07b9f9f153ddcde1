"""Chain configurations of (-2)-classes and exact p-divisibility searches.

A configuration is c pairwise orthogonal chains of p-1 classes, each chain
pairing as an A_{p-1} block.  The divisibility search asks which weighted
sums of whole chains are p times a lattice class.  It runs over the mod-p
reduction of the class coordinates (a kernel computation), then lifts and
re-verifies every candidate integrally.

For Enriques models the class group carries an order-2 torsion part that no
choice of basis splits off canonically; vectors may therefore carry extra
mod-2 coordinates beyond the free rank, which the pairing never sees and the
search counts for p = 2 only.  Only ``enriques_mod2_divisibility`` reads the
canonical class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from itertools import compress, repeat
from math import prod
from operator import floordiv, getitem, mod, mul
from typing import Literal, Sequence

from .lattice_core import (
    AbelianInvariants,
    GramLattice,
    checked_int,
    invariant_factors,
    is_prime,
    left_kernel_mod_p,
)


class SearchSpaceError(RuntimeError):
    """The divisibility search would enumerate more candidates than allowed."""


MAX_CANDIDATES = 10**9  # kernel vectors the divisibility search may enumerate


@dataclass(frozen=True)
class ChainConfiguration:
    """c chains of p-1 classes embedded in a class lattice.

    ``chains[i][k]`` is the coordinate vector of the k-th class of chain i
    (k = 0 .. p-2).  Vectors may have ``ambient.rank + t`` entries whose
    trailing t coordinates are torsion bits; the Gram pairing only sees the
    first ``ambient.rank`` entries.  Entries are stored as ints: one type
    scan, in C, passes int entries as they are, and any other entry goes
    through ``checked_int``, so an entry that int() would change, such as 2.5,
    is refused with a ValueError naming its chain, class and coordinate.
    """

    ambient: GramLattice
    p: int
    chains: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if type(self.p) is not int:
            object.__setattr__(self, "p", checked_int(self.p, ("p",)))
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        chains = self.chains
        if {int}.issuperset(map(type, itertools.chain.from_iterable(itertools.chain(*chains)))):
            chains = tuple(tuple(map(tuple, chain)) for chain in chains)
        else:
            chains = tuple(
                tuple(
                    tuple(checked_int(x, ("chain", ci), ("class", k), ("coordinate", j))
                          for j, x in enumerate(v))
                    for k, v in enumerate(chain)
                )
                for ci, chain in enumerate(chains)
            )
        object.__setattr__(self, "chains", chains)
        n = self.vector_length
        if n < self.ambient.rank:
            raise ValueError("chain vectors shorter than the ambient rank")
        for chain in self.chains:
            if len(chain) != self.p - 1:
                raise ValueError(f"each chain must have p-1 = {self.p - 1} classes")
            for v in chain:
                if len(v) != n:
                    raise ValueError("inconsistent vector lengths")
        self._check_gram()

    @property
    def vector_length(self) -> int:
        if not self.chains or not self.chains[0]:
            return self.ambient.rank
        return len(self.chains[0][0])

    def _check_gram(self):
        """Every class pairs as an A_{p-1} block with its own chain and to 0 with the others.

        The check is one exact identity over packed integers.  V is the m x r
        matrix of the classes, cut to r = ``ambient.rank`` (torsion bits are
        not paired), B the block-diagonal matrix of the A_{p-1} blocks and
        x = (X^0, ..., X^{m-1}) with X = 2^s.  Row a of V (G (V^T x)) is
        sum_b P_ab X^b, where P = V G V^T holds the pairings; each satisfies
        |P_ab| <= r^2 max|V|^2 max|G| = M - 2, and X > 2M.  So row a is the
        base-X expansion whose coefficients, all below X/2 in size, are the
        P_ab, and row a of B x the one whose coefficients are B's entries; such
        an expansion is unique, so V (G (V^T x)) = B x holds exactly when
        P = B, and ``got == want`` alone decides pass or fail.  It takes
        r + r + m inner products, each one C-level call, in place of m(m+1)/2
        pairings; G (V^T x) is taken against the rows of G, since the packed
        vector is dense, and max|G| is ``GramLattice.max_abs_entry``, scanned
        once per lattice.  When it fails, the pairs are scanned within each
        chain (a <= b), then across chains, each read with `GramLattice.dot` on
        the cut rows, and the first failing one is reported.
        """
        r, q = self.ambient.rank, self.p - 1
        rows = [v[:r] for chain in self.chains for v in chain]
        vmax = max(map(abs, itertools.chain.from_iterable(rows)), default=0)
        s = (2 * (r * r * vmax * vmax * self.ambient.max_abs_entry + 2)).bit_length()  # 2^s > 2M
        powers = [1 << (s * a) for a in range(len(rows))]
        packed = [sum(map(mul, col, powers)) for col in zip(*rows)]
        image = [sum(map(mul, g, packed)) for g in self.ambient.gram]
        got = [sum(map(mul, row, image)) for row in rows]
        want = [-2 * x for x in powers]
        for a in range(len(rows) - 1):
            if (a + 1) % q:  # classes a and a+1 are neighbours in one chain
                want[a] += powers[a + 1]
                want[a + 1] += powers[a]
        if got == want:
            return
        pair = lambda a, b: self.ambient.dot(rows[a], rows[b])  # P_ab
        for ci in range(self.count):
            for a, b in itertools.combinations_with_replacement(range(q), 2):
                want_ab = -2 if a == b else int(b == a + 1)
                if (got_ab := pair(ci * q + a, ci * q + b)) != want_ab:
                    raise ValueError(f"chain {ci} is not an A_{q} block: "
                                     f"classes {a},{b} pair to {got_ab}, expected {want_ab}")
        for ci, cj in itertools.combinations(range(self.count), 2):
            for a, b in itertools.product(range(q), repeat=2):
                if got_ab := pair(ci * q + a, cj * q + b):
                    raise ValueError(f"chains {ci} and {cj} are not orthogonal "
                                     f"(classes {a},{b} pair to {got_ab})")

    @property
    def count(self) -> int:
        return len(self.chains)

    def restrict(self, members: Sequence[int]) -> "ChainConfiguration":
        """The chains ``members``, in that order, through the full constructor (Gram check too)."""
        return replace(self, chains=tuple(self.chains[i] for i in members))


@dataclass(frozen=True)
class DivisibleSubsetWitness:
    """A p-divisible weighted subset: p * quotient_class = sum d_i (sum_k k chain_i[k])."""

    subset: tuple[int, ...]
    coefficients: tuple[int, ...]
    quotient_class: tuple[int, ...]


def weighted_chain_class(chain: Sequence[Sequence[int]], d: int) -> list[int]:
    """d * sum_k k * chain[k-1], the weighted class attached to one chain."""
    if not chain:
        raise ValueError("empty chain")
    n = len(chain[0])
    if any(len(v) != n for v in chain):
        raise ValueError("mismatched vector lengths")
    if not 1 <= d <= len(chain):
        raise ValueError("weight d must satisfy 1 <= d <= p-1")
    out = [d * x for x in chain[0]]
    for k, v in enumerate(chain[1:], start=2):
        out = [o + d * k * x for o, x in zip(out, v)]
    return out


def find_p_divisible_subsets(cfg: ChainConfiguration) -> list[DivisibleSubsetWitness]:
    """All p-divisible weighted chain subsets, one witness per projective class.

    Coefficient vectors related by a global unit scaling mod p are the same
    divisibility datum; the representative returned has first coefficient 1.
    The kernel is taken on the weighted chain rows themselves: the
    coefficient vectors x with x rows = 0 mod p (``left_kernel_mod_p``).
    The search enumerates it projectively: each combination of the k kernel
    basis vectors whose first nonzero entry is 1 gives one class,
    (p^k - 1)/(p - 1) in all, so no class is met twice.  The combinations of
    one lead vector are built one later basis vector v at a time: each
    combination met so far, plus x v for x = 1 .. p-1, so every new
    combination is one list pass from the one it extends.  They are held as
    a list of at most p^(k-1) vectors, no more than the witnesses they
    yield.  The kernel is tiny in every real configuration;
    ``SearchSpaceError`` is raised if p^k - 1 would exceed
    ``MAX_CANDIDATES``.  The weighted rows are taken straight from the
    chains, whose lengths the constructor has checked.  Each witness total
    is sum d_i row_i over the same rows: the multiples d row_i
    (d = 2 .. p-1) are taken once per search, and only when the kernel is
    nonzero, so a total is the column sums of its support's multiples,
    ``map(sum, zip(*...))``.  It is re-verified integrally, and the quotient
    taken, in one C-level pass each; the kernel is taken on the same
    coordinates, so the re-check is an assertion that cannot fail.
    Witnesses are sorted as plain (size, subset, coefficients, quotient)
    tuples, each built once after the sort, so their order does not depend
    on the kernel basis or the enumeration.  Torsion bits only count for
    p = 2: order-2 torsion is p-divisible for odd p, so there the search
    sees the free coordinates alone.
    """
    p = cfg.p
    c = cfg.count
    r = cfg.ambient.rank
    n = cfg.vector_length if p == 2 else r

    rows = []  # sum_k k chain[k-1] over n coordinates; the constructor checked every length
    for chain in cfg.chains:
        row = chain[0][:n]
        for w, v in enumerate(chain[1:], 2):
            row = [a + w * b for a, b in zip(row, v)]
        rows.append(row)
    kernel = left_kernel_mod_p(rows, p)
    k = len(kernel)
    if p**k - 1 > MAX_CANDIDATES:
        raise SearchSpaceError(
            f"kernel enumeration needs {p**k - 1} candidates (> {MAX_CANDIDATES})"
        )
    if not k:
        return []

    # row i times d = 0 .. p-1 (0 is never read): a witness total sums its support's columns
    multiples = [(None, row, *([d * x for x in row] for d in range(2, p))) for row in rows]
    found = []
    for lead in range(k):
        combos = [kernel[lead]]  # each later kernel vector v extends every combination d by x v
        for v in kernel[lead + 1 :]:
            combos += [[(a + x * b) % p for a, b in zip(d, v)] for x in range(1, p) for d in combos]
        for d in combos:
            support = tuple(compress(range(c), d))
            if d[support[0]] != 1:  # first nonzero coefficient becomes 1
                unit = pow(d[support[0]], -1, p)
                d = [(x * unit) % p for x in d]
            coefficients = tuple(compress(d, d))
            total = list(map(sum, zip(*map(getitem, compress(multiples, d), coefficients))))
            assert not any(map(mod, total, repeat(p))), "a kernel vector failed the integral check"
            quotient = tuple(map(floordiv, total[:r], repeat(p)))
            found.append((len(support), support, coefficients, quotient))
    found.sort()
    return [DivisibleSubsetWitness(*w[1:]) for w in found]


def chain_span_glue(cfg: ChainConfiguration) -> AbelianInvariants:
    """Invariant factors of (primitive closure / span) for the full chain span."""
    d = invariant_factors([list(v[: cfg.ambient.rank]) for chain in cfg.chains for v in chain])
    return AbelianInvariants(tuple(x for x in d if x > 1))


# ---------------------------------------------------------------------------
# Enriques-specific criteria


def odd_p_divisibility_by_finite_index(
    D: Sequence[int],
    N_basis: Sequence[Sequence[int]],
    ambient: GramLattice,
    p: int,
) -> Literal["divisible", "inconclusive"]:
    """Finite-index divisibility criterion for a divisor class, p odd.

    If N has finite index in the ambient unimodular lattice, the index is
    coprime to p, and D pairs to a multiple of p with every generator of N,
    then D is p times a class (for odd p, the order-2 torsion of an
    Enriques class group cannot obstruct this).  The criterion is
    one-directional: a failed hypothesis yields "inconclusive", never a
    claim of indivisibility.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if ambient.rank != 10 or not ambient.is_unimodular() or not ambient.is_even():
        raise ValueError("ambient must be an even unimodular lattice of rank 10")
    if len(D) != ambient.rank:
        raise ValueError("divisor length must equal the ambient rank")
    rows = [list(v) for v in N_basis]
    if any(len(r) != ambient.rank for r in rows):
        raise ValueError("sublattice vectors must have the ambient rank")
    if sublattice_index(rows, ambient) % p == 0:
        return "inconclusive"
    if all(ambient.dot(D, n) % p == 0 for n in N_basis):
        return "divisible"
    return "inconclusive"


def sublattice_index(N_basis: Sequence[Sequence[int]], ambient: GramLattice) -> int:
    """Index of the full-rank sublattice spanned by N_basis inside Z^rank."""
    d = invariant_factors([list(v) for v in N_basis])
    if len(d) != ambient.rank:
        raise ValueError("sublattice does not have finite index in the ambient lattice")
    return prod(d)


def enriques_mod2_divisibility(
    classes: Sequence[Sequence[int]],
    torsion_class: Sequence[int],
) -> Literal["divisible_as_0", "divisible_as_KW", "not_divisible"]:
    """Reduce a sum of classes mod 2 and compare with 0 and the canonical class.

    Classes and the canonical-class representative live in the same
    coordinate model (free coordinates plus any trailing torsion bits).
    """
    if not classes:
        raise ValueError("empty class list")
    n = len(torsion_class)
    if any(len(v) != n for v in classes):
        raise ValueError("classes and torsion_class must share one coordinate length")
    total = [sum(v[i] for v in classes) % 2 for i in range(n)]
    kw = [x % 2 for x in torsion_class]
    if all(x == 0 for x in total):
        return "divisible_as_0"
    if total == kw:
        return "divisible_as_KW"
    return "not_divisible"

