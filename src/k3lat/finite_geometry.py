"""Finite-geometry models of the singular locus: F_2^4 and F_3^2.

Points of the affine space F_p^n are indexed 0 .. p^n - 1 by their base-p
expansion (digit j of the index is coordinate j), so every witness a search
reports is reproducible.  The glue code attached to the space is the
evaluation code of affine-linear functions; over F_2^4 that is the 32-word
first-order code with weight distribution 0^1 8^30 16^1, over F_3^2 the
27-word ternary analogue whose weight-6 supports are the line complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .lattice_core import GramLattice, is_prime, mat_mul, span_coordinates, transpose
from .root_config import ChainConfiguration


@dataclass(frozen=True)
class AffineSpaceModel:
    p: int
    n: int

    def __post_init__(self):
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


# monic functionals x points x (n + HYPERPLANE_POINT_COST) that one enumeration may take:
# each functional is one pass over the points, n products and a fixed cost per point (the
# bucket and, from the CLI, the JSON).  Near the cap, (p, n) = (71, 2) runs in 1.0-1.3 s
# from the CLI with --json and F_2^9 in 0.8-1.1 s (2-vCPU KVM guest, Python 3.11.7)
HYPERPLANE_POINT_COST = 30
MAX_HYPERPLANE_WORK = 12_000_000


def affine_hyperplanes(space: AffineSpaceModel) -> list[PointSubset]:
    """All solution sets of one nontrivial affine-linear equation a.x = b."""
    p, n = space.p, space.n
    work = (p**n - 1) // (p - 1) * space.size * (n + HYPERPLANE_POINT_COST)
    if work > MAX_HYPERPLANE_WORK:
        raise ValueError(
            f"hyperplanes of p = {p}, n = {n} take {work} steps, above {MAX_HYPERPLANE_WORK}"
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
    m = c * (p - 1)

    def slot(i: int, k: int) -> int:  # chain i, class index k = 1..p-1
        return i * (p - 1) + (k - 1)

    # block Gram of the orthogonal chains
    block = [[0] * m for _ in range(m)]
    for i in range(c):
        for a in range(1, p):
            block[slot(i, a)][slot(i, a)] = -2
            if a + 1 < p:
                block[slot(i, a)][slot(i, a + 1)] = 1
                block[slot(i, a + 1)][slot(i, a)] = 1

    # generators in coordinates scaled by p (chain classes become p * e)
    gens = [[p if j == idx else 0 for j in range(m)] for idx in range(m)]
    for w in code:
        if any(w):
            gens.append([(w[i] * k) % p for i in range(c) for k in range(1, p)])

    basis, coords, _ = span_coordinates(gens)
    gram = mat_mul(mat_mul(basis, block), transpose(basis))
    if any(x % (p * p) for row in gram for x in row):
        raise ValueError("overlattice is not integral; the glue code is invalid")
    lattice = GramLattice(tuple(tuple(x // (p * p) for x in row) for row in gram))
    if not lattice.is_even():
        raise ValueError("overlattice is not even; the glue code is invalid")

    # generator slot(i, k) is the chain class p * e; its coordinates are the chain's
    chains = tuple(tuple(tuple(coords[slot(i, k)]) for k in range(1, p)) for i in range(c))
    cfg = ChainConfiguration(ambient=lattice, p=p, chains=chains)
    return lattice, cfg


def chain_overlattice(p: int, n: int) -> tuple[GramLattice, ChainConfiguration]:
    """Overlattice of p^n orthogonal A_{p-1} chains glued along the affine code."""
    space = AffineSpaceModel(p, n)
    return glue_overlattice(p, space.size, affine_function_code(space))


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


def hyperplane_covering_search(space: AffineSpaceModel) -> HyperplaneSearchReport:
    """Exhaustive facts about hyperplanes inside small point subsets of F_2^4.

    - every 13-point subset contains two distinct hyperplanes meeting in 4 points;
    - an explicit 12-point subset containing exactly one hyperplane;
    - an explicit 11-point subset containing no hyperplane.
    """
    if (space.p, space.n) != (2, 4):
        raise ValueError("the covering search is specific to the 16-point model")
    hyps = [frozenset(h.members) for h in affine_hyperplanes(space)]
    universe = range(space.size)

    pair_13 = True
    for sub in combinations(universe, 13):
        s = frozenset(sub)
        inside = [h for h in hyps if h <= s]
        if not any(len(a & b) == 4 for a, b in combinations(inside, 2)):
            pair_13 = False
            break

    unique_12 = ()
    for sub in combinations(universe, 12):
        s = frozenset(sub)
        if sum(1 for h in hyps if h <= s) == 1:
            unique_12 = tuple(sub)
            break

    none_11 = ()
    for sub in combinations(universe, 11):
        s = frozenset(sub)
        if not any(h <= s for h in hyps):
            none_11 = tuple(sub)
            break

    return HyperplaneSearchReport(pair_13=pair_13, unique_12=unique_12, none_11=none_11)


def ag23_unique_six_set(space: AffineSpaceModel) -> bool:
    """Every 7-point subset of the 9-point plane contains exactly one line complement."""
    if (space.p, space.n) != (3, 2):
        raise ValueError("the unique-six-set check is specific to the 9-point plane")
    comps = [frozenset(c.members) for c in line_complements(space)]
    for sub in combinations(range(space.size), 7):
        s = frozenset(sub)
        if sum(1 for c in comps if c <= s) != 1:
            return False
    return True
