"""Finite-geometry models of the singular locus: F_2^4 and F_3^2.

Points of the affine space F_p^n are indexed 0 .. p^n - 1 by their base-p
expansion (digit j of the index is coordinate j), so every witness a search
reports is reproducible.  A hyperplane listing is refused when it would hold
more than ``MAX_HYPERPLANE_MEMBERS`` point indices (functionals x points).
The glue code attached to the space is the evaluation code of affine-linear
functions; over F_2^4 that is the 32-word first-order code with weight
distribution 0^1 8^30 16^1, over F_3^2 the 27-word ternary analogue whose
weight-6 supports are the line complements.  Gluing it onto orthogonal copies
of the negative definite A_{p-1} block gives the model lattices.  The
exhaustive searches are facts of the paper's two models, so each builds its
own space: the 16-point F_2^4 and the 9-point plane F_3^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .lattice_core import (
    GramLattice,
    block_diagonal,
    cartan_matrix,
    checked_int,
    is_prime,
    mat_mul,
    span_coordinates,
    transpose,
)
from .root_config import ChainConfiguration


@dataclass(frozen=True)
class AffineSpaceModel:
    p: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", checked_int(self.p, ("p",)))
        object.__setattr__(self, "n", checked_int(self.n, ("n",)))
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        # bounded before the primality test; n <= 16 and p <= 65536 keep p**n small
        if self.p >= 2 and (self.n > 16 or self.p > 65536 or self.p**self.n > 65536):
            raise ValueError(
                f"affine space with p = {self.p}, n = {self.n} has more than 65536 points"
            )
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def size(self) -> int:
        return self.p**self.n

    def point(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.n):
            digits.append(index % self.p)
            index //= self.p
        return tuple(digits)

    def points(self) -> list[tuple[int, ...]]:
        return [self.point(i) for i in range(self.size)]


@dataclass(frozen=True)
class PointSubset:
    space: AffineSpaceModel
    members: tuple[int, ...]

    def __post_init__(self):
        m = tuple(sorted(self.members))
        object.__setattr__(self, "members", m)
        if len(set(m)) != len(m):
            raise ValueError("duplicate point indices")
        if m and not (0 <= m[0] and m[-1] < self.space.size):
            raise ValueError("point index out of range")


def affine_space(p: int, n: int) -> AffineSpaceModel:
    return AffineSpaceModel(p, n)


def _monic_functionals(space: AffineSpaceModel):
    """Nonzero functionals up to scale: first nonzero coefficient is 1."""
    p, n = space.p, space.n
    for a in product(range(p), repeat=n):
        nz = next((x for x in a if x != 0), None)
        if nz == 1:
            yield a


# point indices one listing may hold (monic functionals x points), the count that its
# text and its JSON both print: (71, 2) lists 362,952 and (73, 2), at 394,346, is refused
MAX_HYPERPLANE_MEMBERS = 375_000


def affine_hyperplanes(space: AffineSpaceModel) -> list[PointSubset]:
    """All solution sets of one nontrivial affine-linear equation a.x = b."""
    p, n = space.p, space.n
    members = (p**n - 1) // (p - 1) * space.size
    if members > MAX_HYPERPLANE_MEMBERS:
        raise ValueError(
            f"hyperplanes of p = {p}, n = {n} list {members} point indices, "
            f"above {MAX_HYPERPLANE_MEMBERS}"
        )
    pts = space.points()
    out = []
    for a in _monic_functionals(space):  # bucketed by b = a.x, so the p hyperplanes come in b order
        buckets: list[list[int]] = [[] for _ in range(p)]
        for i, x in enumerate(pts):
            buckets[sum(ai * xi for ai, xi in zip(a, x)) % p].append(i)
        out.extend(PointSubset(space, tuple(members)) for members in buckets)
    return out


def affine_function_code(space: AffineSpaceModel) -> list[tuple[int, ...]]:
    """Evaluations of every affine function a.x + b on the point list."""
    pts = space.points()
    words = []
    for a in product(range(space.p), repeat=space.n):
        for b in range(space.p):
            words.append(
                tuple((sum(ai * xi for ai, xi in zip(a, x)) + b) % space.p for x in pts)
            )
    return words


def line_complements(space: AffineSpaceModel) -> list[PointSubset]:
    """Complements of the lines of a plane (p, 2)."""
    if space.n != 2:
        raise ValueError("line complements are defined for planes only")
    full = set(range(space.size))
    return [PointSubset(space, tuple(sorted(full - set(h.members)))) for h in affine_hyperplanes(space)]


# ---------------------------------------------------------------------------
# glue-code overlattices


def glue_overlattice(
    p: int, c: int, code: Sequence[Sequence[int]]
) -> tuple[GramLattice, ChainConfiguration]:
    """Overlattice of c orthogonal A_{p-1} chains glued along a code over F_p.

    Generators are the chain classes together with, for every codeword w,
    the class (1/p) * sum_i w_i * (sum_k k * chain_i(k)).  Coordinates are
    taken in scale 1/p so everything stays integral; the returned Gram
    matrix is expressed in a basis of the overlattice and the configuration
    presents the original chain classes in that basis.  A code whose glue
    is not integral or not even raises ValueError.
    """
    p, c = checked_int(p, ("p",)), checked_int(c, ("c",))
    m = c * (p - 1)
    # generators in coordinates scaled by p (chain classes become p * e)
    gens = [[p if j == idx else 0 for j in range(m)] for idx in range(m)]
    for w in code:
        if any(w):
            gens.append([(w[i] * k) % p for i in range(c) for k in range(1, p)])

    basis, coords, _ = span_coordinates(gens)
    chain = [[-x for x in row] for row in cartan_matrix("A", p - 1)]
    gram = mat_mul(mat_mul(basis, block_diagonal([chain] * c)), transpose(basis))
    if any(x % (p * p) for row in gram for x in row):
        raise ValueError("overlattice is not integral; the glue code is invalid")
    lattice = GramLattice(tuple(tuple(x // (p * p) for x in row) for row in gram))
    if not lattice.is_even():
        raise ValueError("overlattice is not even; the glue code is invalid")

    # the first m generators are the chain classes, chain by chain; their coordinates are the chains
    chains = tuple(tuple(map(tuple, coords[i * (p - 1):(i + 1) * (p - 1)])) for i in range(c))
    cfg = ChainConfiguration(ambient=lattice, p=p, chains=chains)
    return lattice, cfg


def chain_overlattice(p: int, n: int) -> tuple[GramLattice, ChainConfiguration]:
    """Overlattice of p^n orthogonal A_{p-1} chains glued along the affine code."""
    space = AffineSpaceModel(p, n)
    return glue_overlattice(space.p, space.size, affine_function_code(space))


def kummer_lattice() -> tuple[GramLattice, ChainConfiguration]:
    """The rank-16 overlattice of sixteen orthogonal (-2)-classes with its half-sum glue."""
    return chain_overlattice(2, 4)


def ag23_lattice() -> tuple[GramLattice, ChainConfiguration]:
    """The rank-18 overlattice of nine orthogonal A_2 chains with its ternary glue."""
    return chain_overlattice(3, 2)


# ---------------------------------------------------------------------------
# exhaustive searches over the 16-point model


@dataclass(frozen=True)
class HyperplaneSearchReport:
    pair_13: bool
    unique_12: tuple[int, ...]
    none_11: tuple[int, ...]


def _sets_inside(sets: list[frozenset], points: int, k: int):
    """Each k-point subset of range(points), in ``combinations`` order, with the sets inside it."""
    for sub in combinations(range(points), k):
        s = frozenset(sub)
        yield sub, [h for h in sets if h <= s]


def hyperplane_covering_search() -> HyperplaneSearchReport:
    """Exhaustive facts about hyperplanes inside small point subsets of F_2^4.

    - every 13-point subset contains two distinct hyperplanes meeting in 4 points;
    - an explicit 12-point subset containing exactly one hyperplane;
    - an explicit 11-point subset containing no hyperplane.
    """
    hyps = [frozenset(h.members) for h in affine_hyperplanes(AffineSpaceModel(2, 4))]
    return HyperplaneSearchReport(
        pair_13=all(any(len(a & b) == 4 for a, b in combinations(inside, 2))
                    for _, inside in _sets_inside(hyps, 16, 13)),
        unique_12=next((sub for sub, inside in _sets_inside(hyps, 16, 12) if len(inside) == 1), ()),
        none_11=next((sub for sub, inside in _sets_inside(hyps, 16, 11) if not inside), ()),
    )


def ag23_unique_six_set() -> bool:
    """Every 7-point subset of the 9-point plane F_3^2 contains exactly one line complement."""
    comps = [frozenset(c.members) for c in line_complements(AffineSpaceModel(3, 2))]
    return all(len(inside) == 1 for _, inside in _sets_inside(comps, 9, 7))
