"""Exact integral lattice arithmetic.

Everything here runs on plain Python integers (arbitrary precision, so
intermediate blow-up in a Smith reduction can never wrap around).  All
exact linear algebra over Z goes through one Smith reduction, which logs
its row and column operations; each reader replays only the transforms it
reads.  A row operation, in the reduction or in a replay, updates the
target row in place over the nonzero entries of the source row alone: a
zero entry of the source leaves the target's entry as it is, so the
result, and the order of the logged operations, are those of the whole-row
update.  It pays because the source rows are sparse: a row of a replay
that starts from I, or of a formal Gram, has few nonzero entries.  A unit
pivot, the common case, is finished in one row sweep and one column sweep
(see `_smith`).
`fractions.Fraction` appears only in a non-integral solution of
`solve_left`; an integral one comes back as ints.  `solve_left` and
`lattice_row_basis` share one memo of the last reduction, because their
callers solve many right-hand sides in a row against one matrix; holding
one matrix keeps no work across unrelated calls.  The memo key is the
matrix as given, as ``tuple(map(tuple, M))``, so building and hashing it
run in C; equal entries of another type (True for 1, 2.0 for 2) hit the
same entry.  The reduction copies its input, and the copy (`copy_matrix`)
checks it: an entry that int() would change, such as 2.5 or "2", is refused
with a ValueError naming its row and column.
Matrices are lists of lists of ints; the public domain types freeze their
data into tuples and are safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress
from math import gcd, prod
from operator import mul
from typing import Iterable, Optional, Sequence


class DegenerateLatticeError(ValueError):
    """Raised when an operation needs a nonzero Gram determinant."""


# ---------------------------------------------------------------------------
# basic exact matrix helpers


def checked_int(x, *where: tuple) -> int:
    """int(x) when that equals x: a bool, 2.0 or Fraction(4, 2) passes, while a
    2.5 (which int() would truncate), a "2" (which it would parse), NaN or None
    is refused with a ValueError.  ``where`` names the entry in the error, as
    (label, index) pairs or a (label,) alone."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    place = ", ".join(" ".join(map(str, w)) for w in where)
    raise ValueError(f"{place}: {x!r} is not an integer")


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def typed(value, kind, path: str):
    """``value`` when it has the JSON type ``kind``: int (a bool is none), str, list,
    dict, or ``[k]`` for a list of items of type k, checked recursively; else a
    ValueError naming the path of the value at fault, such as ``chains[0][1][2]``."""
    if isinstance(kind, list):
        for i, item in enumerate(typed(value, list, path)):
            typed(item, kind[0], f"{path}[{i}]")
    elif not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise ValueError(f"{path} must be {_JSON_TYPE_NAMES[kind]}")
    return value


def copy_matrix(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """A fresh copy of M with int entries; one type scan, in C, passes an int matrix as it is."""
    A = [list(row) for row in M]
    if {int}.issuperset(map(type, chain.from_iterable(A))):
        return A
    return [[checked_int(x, ("row", i), ("column", j)) for j, x in enumerate(row)]
            for i, row in enumerate(A)]


def identity_matrix(n: int) -> list[list[int]]:
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = 1
    return M


def transpose(M: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*M)]


def block_diagonal(grams: Sequence[Sequence[Sequence[int]]]) -> list[list[int]]:
    """The block-diagonal matrix with the given square blocks, built in one pass."""
    n = sum(len(g) for g in grams)
    out = []
    before = 0
    for g in grams:
        after = n - before - len(g)
        out.extend([0] * before + list(row) + [0] * after for row in g)
        before += len(g)
    return out


def _shape(M: Sequence[Sequence]) -> str:
    """M's shape as "m x n", with the sorted row lengths for n when they differ."""
    lengths = sorted({len(row) for row in M})
    return f"{len(M)} x {lengths[0] if len(lengths) == 1 else lengths or 0}"


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> list[list]:
    """A B; each row of A has one entry per row of B, and B's rows one length."""
    Bt = list(zip(*B))
    if any(len(row) != len(B) for row in A) or any(len(row) != len(Bt) for row in B):
        raise ValueError(f"cannot multiply a {_shape(A)} matrix by a {_shape(B)} one")
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def bareiss_det(M: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    A = copy_matrix(M)
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError(f"determinant of a non-square {_shape(A)} matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


# Miller-Rabin with the primes up to 41 as bases is exact below _MR_LIMIT
# (Jiang and Deng, 2014); a larger p is refused, not guessed at
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    if p <= _MR_BASES[-1]:
        return p in _MR_BASES
    if p >= _MR_LIMIT:
        raise ValueError(f"p = {p} is too large for an exact primality test (limit {_MR_LIMIT})")
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
        for a in _MR_BASES
    )


def left_kernel_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of {x : x rows = 0 over F_p}, the relations mod p among the rows.

    Each row is reduced against the pivot rows before it while the
    combination of input rows it has become is tracked; a row that reduces
    to zero contributes that combination to the basis.  Pivot rows are kept
    with pivot entry 1 and zeros at every earlier pivot column.

    For p = 2 the same elimination runs on int bit masks, bit j for column
    j (or for input row j, in a combination): the pivot column, the first
    nonzero one, is the lowest set bit, and every update is an XOR, so the
    pivots and the basis, in its order, are those of the list elimination.
    """
    c = len(rows)
    if p == 2:
        bit_pivots: list[tuple[int, int, int]] = []  # (pivot bit, row mask, combination mask)
        basis = []
        for i, row in enumerate(rows):
            r = sum(1 << j for j, a in enumerate(row) if a % 2)
            combo = 1 << i
            for bit, prow, pcombo in bit_pivots:
                if r & bit:
                    r ^= prow
                    combo ^= pcombo
            if r:
                bit_pivots.append((r & -r, r, combo))
            else:
                basis.append([combo >> k & 1 for k in range(c)])
        return basis
    pivots: list[tuple[int, list[int], list[int]]] = []  # (column, row, combination)
    basis = []
    for i, row in enumerate(rows):
        r = [a % p for a in row]
        combo = [0] * c
        combo[i] = 1
        for col, prow, pcombo in pivots:
            f = r[col]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, prow)]
                combo = [(a - f * b) % p for a, b in zip(combo, pcombo)]
        col = next((j for j, a in enumerate(r) if a), None)
        if col is None:
            basis.append(combo)
            continue
        inv = pow(r[col], -1, p)
        pivots.append((col, [a * inv % p for a in r], [a * inv % p for a in combo]))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form


def _balanced_quotient(a: int, b: int) -> int:
    """Quotient q minimising |a - q b| (keeps Smith reduction entries small)."""
    q = a // b
    r = a - q * b
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _smith(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[tuple], list[tuple]]:
    """Return (D, rows, cols): the Smith form D = P M Q and the logs of the row
    and column operations, replayed on I into P and Q; see `smith_normal_form`.

    Log entry (i, j, q) means line i -= q * line j and (i, j, None) swaps them;
    the sign fix of pivot t is (t, t, 2).  Since P M = D Q^-1, the first r rows
    of P M are d_i times rows of Q^-1, a basis of the span of M; the rest vanish.

    A row operation reads only the nonzero entries of row j (`_row_sub`): the
    others would subtract 0, so the rows, the pivots chosen from them and
    hence both logs are those of the whole-row update.

    The rows above pivot t are finished, zero off the diagonal, so a column
    operation of sweep t skips them; and col_j -= q * col_t leaves every row
    with a 0 in column t as it is, so it runs over the live rows alone: those
    from t down with a nonzero in column t, fixed for the sweep because its
    column operations change only columns past t.

    A unit pivot u = ±1 finishes in one sweep (`unit_sweep`): every balanced
    quotient is exact, q = a·u, so the row sweep zeroes column t below the
    pivot and leaves row t the only row with a nonzero in column t; the
    column operations then change row t alone, and set its entries past t
    to 0.  The pivot row's nonzero columns are taken once; row i subtracts
    (a·u) times the pivot row over them and logs (i, t, a·u), and then, in
    ascending j, the log gets (j, t, piv[j]·u) and piv[j] becomes 0.  The
    general loop would log the same operations, pick the same pivot again
    and sweep once more to no effect, so D and both logs are unchanged.  A
    non-unit pivot runs the general loop until it is done or a re-pivot
    lands on a unit, which then finishes in the unit sweep.
    """
    A = copy_matrix(M)
    m = len(A)
    if m == 0 or len(A[0]) == 0:
        raise ValueError("matrix must have at least one row and one column")
    n = len(A[0])
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    rows, cols = [], []  # the elimination updates A alone and logs each operation

    def row_op(i, j, q):  # row_i -= q * row_j, over the nonzeros of row_j
        _row_sub(A[i], q, A[j])
        rows.append((i, j, q))

    def move_min_pivot(t) -> bool:
        # smallest |entry|, ties to the first in row-major order; a unit ends the scan
        best, small = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                a = abs(row[j])
                if a and (best is None or a < small):
                    best, small = (i, j), a
                    if a == 1:
                        break
            if small == 1:
                break
        if best is None:
            return False
        i, j = best
        if i != t:
            A[t], A[i] = A[i], A[t]
            rows.append((t, i, None))
        if j != t:
            for row in A[t:]:
                row[t], row[j] = row[j], row[t]
            cols.append((t, j, None))
        return True

    def unit_sweep(t):  # a pivot u = ±1 clears column t and row t in one sweep
        piv = A[t]
        u = piv[t]
        nz = list(compress(range(t, n), piv[t:]))
        for i in range(t + 1, m):
            row = A[i]
            if row[t]:
                q = row[t] * u
                for k in nz:
                    row[k] -= q * piv[k]
                rows.append((i, t, q))
        for j in nz[1:]:  # row t is now the only row with a nonzero in column t
            cols.append((j, t, piv[j] * u))
            piv[j] = 0

    t = 0
    while t < min(m, n):
        if not move_min_pivot(t):
            break
        while abs(A[t][t]) != 1:
            # clear column t and row t against the current minimal pivot
            touched = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    row_op(i, t, _balanced_quotient(A[i][t], A[t][t]))
                    touched = True
            live = [row for row in A[t:] if row[t]]  # the rows col_j -= q * col_t changes
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = _balanced_quotient(A[t][j], A[t][t])
                    for row in live:
                        row[j] -= q * row[t]
                    cols.append((j, t, q))
                    touched = True
            if touched:
                move_min_pivot(t)
                continue
            # pivot must divide the whole trailing block
            d = A[t][t]
            fix = next((i for i in range(t + 1, m) if any(x % d for x in A[i][t + 1 :])), None)
            if fix is None:
                break
            row_op(t, fix, -1)  # pull row `fix` into the pivot row
            move_min_pivot(t)
        else:
            unit_sweep(t)

        if A[t][t] < 0:
            row_op(t, t, 2)
        t += 1

    return A, rows, cols


def _row_sub(dst: list, q: int, src: list) -> None:
    """dst -= q * src in place, over the nonzero entries of src alone; src may
    be dst itself (the sign fix), since each entry is read before it is written."""
    for k in compress(range(len(src)), src):
        dst[k] -= q * src[k]


def _replay_rows(log: Iterable[tuple], M: list[list[int]]) -> list[list[int]]:
    """Apply the logged row operations, in order, to the rows of M (in place)."""
    for i, j, q in log:
        if q is None:
            M[i], M[j] = M[j], M[i]
        else:
            _row_sub(M[i], q, M[j])
    return M


def _replay_vec(log: Iterable[tuple], v: list) -> list:
    """Apply the logged operations, in order, to the entries of v (in place)."""
    for i, j, q in log:
        if q is None:
            v[i], v[j] = v[j], v[i]
        else:
            v[i] -= q * v[j]
    return v


def smith_normal_form(
    M: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, P, Q) with D = P M Q, P and Q unimodular.

    D is diagonal with nonnegative entries d1 | d2 | ... and zeros last.
    Reduction is by elementary row/column operations; every sweep re-pivots
    on the entry of smallest absolute value, which keeps intermediate
    entries from exploding.
    """
    D, rows, cols = _smith(M)
    P = _replay_rows(rows, identity_matrix(len(D)))
    Q = transpose(_replay_rows(cols, identity_matrix(len(D[0]))))  # column operations, as rows of I^T
    return D, P, Q


def _diagonal(D: list[list[int]]) -> list[int]:
    """The nonzero invariant factors on the diagonal of a Smith form."""
    return [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] != 0]


def invariant_factors(M: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero invariant factors d_1 | ... | d_r of M ([] for no rows); no log is replayed."""
    return _diagonal(_smith(M)[0]) if M else []


@lru_cache(maxsize=1)
def _reduction(key: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple, tuple]:
    """(nonzero diagonal, row log, column log) of `_smith` for the matrix ``key``;
    one entry, the last matrix reduced (see the module docstring)."""
    D, rows, cols = _smith(key)
    return tuple(_diagonal(D)), tuple(rows), tuple(cols)


def _reduce(M: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple, tuple]:
    return _reduction(tuple(map(tuple, M)))


def solve_left(B: Sequence[Sequence[int]], target: Sequence) -> Optional[list]:
    """Solve x B = target exactly; None if target is not in the rational row space.

    With D = P B Q the system reads y D = target Q for y = x P^-1, which is
    solvable iff (target Q)_j = 0 beyond the rank, and then y_i =
    (target Q)_i / d_i.  Over a common denominator only integers are used.
    For x = y P the row log, read backwards, acts on y as y_j -= q y_i.
    An integral x is returned as ints, and only a non-integral one as
    Fractions.  The reduction of B is memoised for the next call, so a run
    of right-hand sides against one B reduces it once.
    """
    d, rows, cols = _reduce(B)
    tq = _replay_vec(cols, list(target))
    if any(tq[len(d):]):
        return None
    den = d[-1] if d else 1  # every d_i divides the last one
    y = [tq[i] * (den // d[i]) for i in range(len(d))] + [0] * (len(B) - len(d))
    x = _replay_vec(((j, i, q) for i, j, q in reversed(rows)), y)
    if all(v % den == 0 for v in x):
        return [v // den for v in x]
    return [Fraction(v, den) for v in x]


def lattice_row_basis(gens: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis for the lattice generated by the given (possibly dependent) rows:
    the first r rows of P gens.  Shares `solve_left`'s memo of the reduction."""
    if not gens:
        return []
    d, rows, _ = _reduce(gens)
    return _replay_rows(rows, copy_matrix(gens))[: len(d)]


def span_coordinates(gens: Sequence[Sequence[int]]) -> tuple[list, list, list]:
    """(basis, coords, combos) for the lattice spanned by the rows of gens.

    One Smith form D = P gens Q gives all three: the first r rows of
    P [gens | I] are [basis | combos], with basis[i] = combos[i] gens, and
    coords[j][i] = (gens Q)[j][i] / d_i is exact, with gens[j] = coords[j] basis.
    """
    gens = copy_matrix(gens)
    D, rows, cols = _smith(gens)
    d = _diagonal(D)
    n = len(D[0])
    pg = _replay_rows(rows, [g + e for g, e in zip(gens, identity_matrix(len(D)))])[: len(d)]
    gq = transpose(_replay_rows(cols, transpose(gens)))  # column operations, as rows of gens^T
    assert all(x % di == 0 for row in gq for x, di in zip(row, d))
    coords = [[x // di for x, di in zip(row, d)] for row in gq]
    return [row[:n] for row in pg], coords, [row[n:] for row in pg]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class AbelianInvariants:
    """A finite abelian group as its invariant-factor chain (each divides the next)."""

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        for f in self.factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError("factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join(f"Z/{f}" for f in self.factors)


@dataclass(frozen=True)
class GramLattice:
    """A finite-rank integral lattice presented by a symmetric Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "gram", tuple(map(tuple, copy_matrix(self.gram))))
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError(f"Gram matrix must be square, not {_shape(self.gram)}")
        if self.gram != tuple(zip(*self.gram)):
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]

    def det(self) -> int:
        return bareiss_det(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    @cached_property
    def max_abs_entry(self) -> int:
        """max |G_ij|, scanned once per lattice on first use (0 at rank 0)."""
        return max(map(abs, chain.from_iterable(self.gram)), default=0)

    def dot(self, v: Sequence[int], w: Sequence[int]) -> int:
        """v·G·w over the first ``rank`` entries of v and w.

        It is the sum of v_k times row k of G paired with w over the nonzero
        v_k, so a sparse v (a root class, say) costs only its nonzero entries.
        """
        if len(v) < self.rank or len(w) < self.rank:
            raise ValueError("vector shorter than the lattice rank")
        return sum(x * sum(map(mul, row, w)) for x, row in zip(v, self.gram) if x)

    def direct_sum(self, other: "GramLattice", name: Optional[str] = None) -> "GramLattice":
        return GramLattice(block_diagonal([self.gram, other.gram]), name=name)


@dataclass(frozen=True)
class EmbeddedSublattice:
    """Vectors spanning a sublattice of the ambient coordinate lattice Z^rank.

    The given vectors need not be linearly independent; operations work
    with the lattice they generate.
    """

    ambient: GramLattice
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(map(tuple, copy_matrix(self.basis))))
        for v in self.basis:
            if len(v) != self.ambient.rank:
                raise ValueError("basis vector length must equal the ambient rank")


# ---------------------------------------------------------------------------
# operations


def discriminant_group(L: GramLattice) -> AbelianInvariants:
    """Invariant factors of L*/L, read off the Smith form of the Gram matrix;
    fewer nonzero factors than the rank means L is degenerate."""
    d = invariant_factors(L.gram_rows())
    if len(d) < L.rank:
        raise DegenerateLatticeError("degenerate lattice")
    return AbelianInvariants(tuple(x for x in d if x > 1))


def primitive_closure(S: EmbeddedSublattice) -> tuple[list[list[int]], AbelianInvariants]:
    """Saturation of the sublattice spanned by S inside the ambient Z^rank.

    Returns (closure_basis, glue) where glue is the quotient closure/S;
    a trivial glue group means S was already primitive.  Span basis row i
    is d_i times a row of the unimodular Q^-1, so d_i is the gcd of its row.
    """
    if S.ambient.det() == 0:
        raise DegenerateLatticeError("degenerate lattice")
    span = lattice_row_basis(S.basis)
    d = [gcd(*row) for row in span]
    glue = AbelianInvariants(tuple(x for x in d if x > 1))
    return [[x // di for x in row] for di, row in zip(d, span)], glue


def is_p_divisible_class(v: Sequence[int], L: GramLattice, p: int) -> Optional[list[int]]:
    """Return w with p*w = v when every coordinate of v is divisible by p."""
    if len(v) != L.rank:
        raise ValueError("vector length must equal the lattice rank")
    if any(x % p != 0 for x in v):
        return None
    return [x // p for x in v]


# ---------------------------------------------------------------------------
# lattice catalog

_ADE_RE = re.compile(r"^([ADE])(\d+)$")
_SCALE_RE = re.compile(r"^(.*?)\((-?\d+)\)$")


def _chain_bonds(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _d_bonds(n: int) -> list[tuple[int, int]]:
    # chain 0..n-3 with the two fork nodes n-2, n-1 both attached to n-3
    return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]


def _e_bonds(n: int) -> list[tuple[int, int]]:
    return [(0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]


def cartan_matrix(kind: str, n: int) -> list[list[int]]:
    """Positive-definite Cartan matrix of the simply laced root system."""
    if kind == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        bonds = _chain_bonds(n)
    elif kind == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        bonds = _d_bonds(n)
    elif kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        bonds = _e_bonds(n)
    else:
        raise ValueError(f"unknown root system kind {kind!r}")
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        g[i][j] = g[j][i] = -1
    return g


def _scaled(gram: list[list[int]], k: int) -> list[list[int]]:
    return [[k * x for x in row] for row in gram]


_U_GRAM = [[0, 1], [1, 0]]
MAX_CATALOG_RANK = 256  # a dense Gram matrix of this rank still takes about a second to reduce


class CatalogRankError(ValueError):
    """A catalog name or a sum whose lattice has rank above ``MAX_CATALOG_RANK``."""


def catalog_lattice(name: str) -> GramLattice:
    """Build a lattice from its catalog name.

    Root-system names (``A4``, ``D8``, ``E8``) denote the negative definite
    form (diagonal -2, bonds +1).  An explicit scale suffix ``(k)`` applies k
    to the positive-definite Cartan matrix, so ``E8(-1)`` equals ``E8``.
    ``U`` is the hyperbolic plane [[0,1],[1,0]]; ``U(k)`` scales it.
    ``K3`` is U^3 + two negative definite E8 blocks; ``ENRIQUES_FREE`` is
    U + one negative definite E8 block.
    """
    if not isinstance(name, str):
        raise ValueError(f"lattice name must be a string, not {name!r}")
    name = name.strip()
    if name in ("K3", "ENRIQUES_FREE"):
        e8 = _scaled(cartan_matrix("E", 8), -1)
        blocks = [_U_GRAM] * 3 + [e8] * 2 if name == "K3" else [_U_GRAM, e8]
        return GramLattice(block_diagonal(blocks), name=name)

    scale = None
    base = name
    m = _SCALE_RE.match(name)
    if m:
        base, scale = m.group(1), int(m.group(2))
    if base == "U":
        return GramLattice(tuple(map(tuple, _scaled(_U_GRAM, 1 if scale is None else scale))), name=name)
    m = _ADE_RE.match(base)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n > MAX_CATALOG_RANK:
            raise CatalogRankError(
                f"catalog lattice {name!r} has rank {n}, above {MAX_CATALOG_RANK}"
            )
        k = -1 if scale is None else scale
        return GramLattice(tuple(map(tuple, _scaled(cartan_matrix(kind, n), k))), name=name)
    raise ValueError(f"unknown catalog lattice {name!r}")


def parse_lattice(obj, path: str = "") -> GramLattice:
    """Parse the JSON lattice format: a catalog name, {"gram": ...}, or {"sum": [...]}.

    A malformed field is named by its path below ``path``, such as ``sum[0].gram``."""
    field = f"{path}." if path else ""
    if isinstance(obj, str):
        return catalog_lattice(obj)
    if isinstance(obj, dict):
        name = typed(obj["name"], str, f"{field}name") if "name" in obj else None
        if "gram" in obj:
            gram = typed(obj["gram"], [[int]], f"{field}gram")
            try:
                lat = GramLattice(gram, name=name)
            except ValueError as exc:  # a shape error, which GramLattice cannot name
                raise ValueError(f"{field}gram: {exc}") from exc
            if name is not None:
                try:
                    expected = catalog_lattice(name)
                except CatalogRankError:
                    raise
                except ValueError:
                    expected = None  # a free-form label, not a catalog name
                if expected is not None and expected.gram != lat.gram:
                    raise ValueError(
                        f"gram matrix does not match the catalog entry for {name!r}"
                    )
            return lat
        if "sum" in obj:
            items = typed(obj["sum"], list, f"{field}sum")
            parts, rank = [], 0
            for i, item in enumerate(items):
                parts.append(parse_lattice(item, f"{field}sum[{i}]"))
                rank += parts[-1].rank
                if rank > MAX_CATALOG_RANK:  # refused before the sum's Gram matrix is built
                    raise CatalogRankError(
                        f"'sum' of {len(items)} lattices has rank above {MAX_CATALOG_RANK} "
                        f"(rank {rank} by part {i + 1})"
                    )
            if not parts:
                raise ValueError("'sum' needs at least one lattice")
            return GramLattice(
                block_diagonal([p.gram for p in parts]),
                name=name if name is not None else " + ".join(str(s) for s in items),
            )
        if name is not None:
            return catalog_lattice(name)
    raise ValueError(
        f"{path or 'lattice'} must be a catalog name or an object with 'gram' or 'sum'"
    )
