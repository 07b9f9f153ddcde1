import json
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod
from pathlib import Path

import pytest

from k3lat import elliptic, finite_geometry, lattice_core
from k3lat.data import data_dir
from k3lat.lattice_core import (
    AbelianInvariants,
    CatalogRankError,
    DegenerateLatticeError,
    EmbeddedSublattice,
    GramLattice,
    _reduction,
    _smith,
    bareiss_det,
    catalog_lattice,
    checked_int,
    discriminant_group,
    is_p_divisible_class,
    lattice_row_basis,
    left_kernel_mod_p,
    mat_mul,
    parse_lattice,
    primitive_closure,
    smith_normal_form,
    solve_left,
    span_coordinates,
)


def vec_mat(v, M):
    """The row vector v times the matrix M."""
    return [sum(v[i] * M[i][j] for i in range(len(v))) for j in range(len(M[0]))]


def minor_gcd_diagonal(M):
    """Independent SNF oracle: d_1...d_k = gcd of all k x k minors."""
    m, n = len(M), len(M[0])
    prev = 1
    diag = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(bareiss_det(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def snf_diag(M):
    D, P, Q = smith_normal_form(M)
    assert _smith(M)[0] == D
    assert mat_mul(mat_mul(P, M), Q) == D
    assert abs(bareiss_det(P)) == 1
    assert abs(bareiss_det(Q)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    nz = [d for d in diag if d != 0]
    assert diag == nz + [0] * (len(diag) - len(nz))
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    return diag


def test_snf_stated_examples():
    assert snf_diag([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diag([[-2, 1], [1, -2]]) == [1, 3]
    assert snf_diag([[0, 1], [1, 0]]) == [1, 1]


def test_snf_rejects_empty():
    with pytest.raises(ValueError):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[]])


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        diag = snf_diag(M)
        oracle = minor_gcd_diagonal(M)
        assert [d for d in diag if d != 0] == oracle


def test_snf_reconstruction_random():
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        snf_diag(M)


def test_snf_handles_larger_entries_and_sizes():
    rng = random.Random(1)
    for _ in range(15):
        n = rng.randint(8, 14)
        M = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        snf_diag(M)


def smith_log_cases():
    """300 seeded matrices, 60 of each kind: dense, sparse, no unit entry (so
    pivots start non-unit), dependent rows, and entries up to 10**6."""
    rng = random.Random(31)
    for kind in ("dense", "sparse", "nonunit", "dependent", "large"):
        for k in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            if kind == "dense":
                M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            elif kind == "sparse":
                M = [[rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(n)]
                     for _ in range(m)]
            elif kind == "nonunit":
                M = [[rng.choice([0, 2, -2, 3, -3, 4, 6, -6, 9, 10, -15]) for _ in range(n)]
                     for _ in range(m)]
            elif kind == "dependent":
                base = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, m))]
                M = [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)]
                     for cs in ([rng.randint(-3, 3) for _ in base] for _ in range(m))]
            else:
                M = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(m)]
            yield f"{kind}{k}", M


SMITH_LOG_FIBRATIONS = ["mp1", "mp9", "mp29", "mp30", "mp39", "mp64", "mp108", "double_iv_star"]


def chain_span_cases():
    """The chain-span matrices a `subset_sweep` op reduces: two seeded point
    subsets of each size (one for the whole set) of the 16-point and the
    9-point model, each chain's classes as rows over the free coordinates."""
    rng = random.Random(18)
    for name, model in (("kummer", finite_geometry.kummer_lattice),
                        ("ag23", finite_geometry.ag23_lattice)):
        cfg = model()[1]
        rank = cfg.ambient.rank
        for c in range(1, cfg.count + 1):
            for k in range(1 if c == cfg.count else 2):
                members = sorted(rng.sample(range(cfg.count), c))
                yield f"{name}_span{c}_{k}", [list(v[:rank]) for i in members for v in cfg.chains[i]]


def test_smith_logs_are_pinned():
    """D, P, Q and both operation logs, exactly as pinned, for the seeded matrices,
    the 16 matrices one `fibration_rows` op list reduces (each bundled formal
    Gram and its row basis) and the chain spans of `chain_span_cases`."""
    pins = json.loads((Path(__file__).parent / "data" / "smith_log_pins.json").read_text())
    cases = list(smith_log_cases())
    for n in SMITH_LOG_FIBRATIONS:
        spec = elliptic.parse_fibration(json.loads((data_dir() / f"{n}.json").read_text()))
        gram = [list(row) for row in elliptic.formal_gram(spec)[1]]
        cases += [(f"{n}_formal_gram", gram), (f"{n}_row_basis", lattice_row_basis(gram))]
    cases += chain_span_cases()
    assert [(c["name"], c["M"]) for c in pins] == cases
    for pin in pins:
        M = pin["M"]
        D, rows, cols = _smith(M)
        assert D == pin["D"], pin["name"]
        assert [list(e) for e in rows] == pin["rows"], pin["name"]
        assert [list(e) for e in cols] == pin["cols"], pin["name"]
        assert list(smith_normal_form(M)) == [pin["D"], pin["P"], pin["Q"]], pin["name"]


def reference_smith(M):
    """The elimination `_smith` ran before a unit pivot had its own one-sweep
    branch, kept as the reference: every pivot, a unit too, goes round the
    general loop (sweep, re-pivot, sweep again) until nothing changes.  Row
    operations update the whole row.  Returns (D, rows, cols, pivots), where
    pivots holds (|first pivot|, |final pivot|) for each t, so a test can see
    which cases it covered."""
    A = [list(row) for row in M]
    m, n = len(A), len(A[0])
    rows, cols, pivots = [], [], []

    def quotient(a, b):  # balanced: minimises |a - q b|
        q = a // b
        return q + 1 if 2 * abs(a - q * b) > abs(b) else q

    def row_op(i, j, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        rows.append((i, j, q))

    def move_min_pivot(t):
        best, small = None, 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
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

    t = 0
    while t < min(m, n):
        if not move_min_pivot(t):
            break
        first = abs(A[t][t])
        while True:
            touched = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    row_op(i, t, quotient(A[i][t], A[t][t]))
                    touched = True
            live = [row for row in A[t:] if row[t]]
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = quotient(A[t][j], A[t][t])
                    for row in live:
                        row[j] -= q * row[t]
                    cols.append((j, t, q))
                    touched = True
            if touched:
                move_min_pivot(t)
                continue
            d = A[t][t]
            fix = None
            if abs(d) != 1:
                fix = next((i for i in range(t + 1, m) if any(x % d for x in A[i][t + 1:])), None)
            if fix is None:
                break
            row_op(t, fix, -1)
            move_min_pivot(t)
        pivots.append((first, abs(A[t][t])))
        if A[t][t] < 0:
            row_op(t, t, 2)
        t += 1
    return A, rows, cols, pivots


def unit_branch_cases():
    """Seeded matrices for the unit-pivot branch of `_smith`: unit-rich ones
    with -1 entries, ones whose pivots start non-unit, zero rows and columns,
    1 x n and n x 1, and the chain spans of seeded point subsets of every
    size of the 16-point and the 9-point model."""
    rng = random.Random(21)
    for k in range(900):
        kind = k % 6
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if kind == 4:
            m, n = (1, rng.randint(1, 9)) if k % 12 < 6 else (rng.randint(1, 9), 1)
        values = ([-1, -1, 0, 0, 1, 2, -3] if kind in (0, 4) else
                  [0, 2, -2, 3, -3, 4, 5, -6] if kind == 1 else
                  [0, 0, 0, -1, 1, 2] if kind == 2 else list(range(-9, 10)))
        M = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        if kind == 3:  # a zero row and a zero column
            M[rng.randrange(m)] = [0] * n
            j = rng.randrange(n)
            for row in M:
                row[j] = 0
        if kind == 5:  # a negated identity block: every pivot is -1
            for i in range(min(m, n)):
                M[i] = [-int(i == j) if j < min(m, n) else x for j, x in enumerate(M[i])]
        yield M
    for model in (finite_geometry.kummer_lattice, finite_geometry.ag23_lattice):
        cfg = model()[1]
        for c in range(1, cfg.count + 1):
            for _ in range(3):
                members = sorted(rng.sample(range(cfg.count), c))
                yield [list(v[:cfg.ambient.rank]) for i in members for v in cfg.chains[i]]


def test_unit_pivot_branch_matches_the_general_elimination():
    """D and both logs of `_smith` equal the reference elimination's, so P and
    Q do too; the cases cover a unit pivot from the start, a -1 pivot, a
    non-unit pivot that a re-pivot turns into a unit, and a non-unit pivot
    that stays one."""
    seen = set()  # (first pivot a unit, final pivot a unit) for each t
    negative_units = count = 0
    for M in unit_branch_cases():
        D, rows, cols, pivots = reference_smith(M)
        assert _smith(M) == (D, rows, cols), M
        seen.update((first == 1, final == 1) for first, final in pivots)
        negative_units += sum(i == j and q == 2 and D[i][i] == 1 for i, j, q in rows)  # sign fixes
        count += 1
    assert count == 900 + 3 * (16 + 9)
    assert seen == {(True, True), (False, True), (False, False)} and negative_units


def leibniz_det(M):
    """Independent determinant oracle: the sum over permutations, signed by inversions."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def test_bareiss_det_matches_leibniz_oracle():
    """Dense, singular and swap-forcing matrices up to 6 x 6, entries up to 10**6."""
    rng = random.Random(41)
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 2, 1], [3, 0, 0], [0, 0, 5]], [[7]]]
    for k in range(240):
        n = rng.randint(1, 6)
        bound = 10**6 if k % 3 == 0 else 9
        M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if k % 4 == 1 and n > 1:  # singular: one row a multiple of another
            i, j = rng.sample(range(n), 2)
            M[i] = [rng.randint(-3, 3) * x for x in M[j]]
        elif k % 4 == 2 and n > 1:  # zero leading pivot, nonzero below it: a swap
            M[0][0] = 0
            M[rng.randrange(1, n)][0] = rng.choice([-1, 1]) * rng.randint(1, bound)
        elif k % 4 == 3 and n > 2:  # the second pivot vanishes after the first step
            M[1] = [2 * x for x in M[0][:2]] + M[1][2:]
        cases.append(M)
    dets = [bareiss_det(M) for M in cases]
    assert dets == [leibniz_det(M) for M in cases]
    assert {d == 0 for d in dets} == {True, False}
    assert bareiss_det([]) == 1


@pytest.mark.parametrize("call,message", [
    (lambda: bareiss_det([[1, 2]]), "determinant of a non-square 1 x 2 matrix"),
    (lambda: bareiss_det([[1, 2], [3, 4], [5, 6]]), "determinant of a non-square 3 x 2 matrix"),
    (lambda: bareiss_det([[1, 2], [3]]), r"determinant of a non-square 2 x \[1, 2\] matrix"),
    (lambda: mat_mul([[1, 2]], [[1], [2], [3]]), "cannot multiply a 1 x 2 matrix by a 3 x 1 one"),
    (lambda: mat_mul([[1, 2]], [[1], [2, 3]]),
     r"cannot multiply a 1 x 2 matrix by a 2 x \[1, 2\] one"),
    (lambda: mat_mul([[1]], []), "cannot multiply a 1 x 1 matrix by a 0 x 0 one"),
], ids=["det_1x2", "det_3x2", "det_ragged", "mul_inner", "mul_ragged", "mul_empty"])
def test_malformed_shape_is_refused_not_answered(call, message):
    """Each of these answered wrongly (1, or [[5]] from a truncating zip) or raised
    IndexError; the ValueError names the shapes."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_left_kernel_mod_p_matches_brute_force():
    """Dimension, membership and independence against all of F_p^c."""
    rng = random.Random(23)
    for trial in range(300):
        p = rng.choice([2, 3, 5, 7])
        c = rng.randint(1, {2: 7, 3: 5, 5: 4, 7: 3}[p])
        n = rng.randint(1, 5)
        rows = []
        for _ in range(c):
            kind = rng.random()
            if kind < 0.15:
                rows.append([0] * n)
            elif kind < 0.4 and rows:  # dependent on the rows so far
                a, b = rng.choice(rows), rng.choice(rows)
                x, y = rng.randint(-4, 4), rng.randint(-4, 4)
                rows.append([x * u + y * v for u, v in zip(a, b)])
            else:
                rows.append([rng.randint(-9, 9) for _ in range(n)])
        if p == 2 and trial % 2:  # torsion-bit columns
            rows = [row + [rng.randrange(2) for _ in range(2)] for row in rows]
        basis = left_kernel_mod_p(rows, p)

        def in_kernel(x):
            return all(sum(xi * r[j] for xi, r in zip(x, rows)) % p == 0 for j in range(len(rows[0])))

        kernel = [x for x in product(range(p), repeat=c) if in_kernel(x)]
        assert len(kernel) == p ** len(basis)
        for v in basis:
            assert len(v) == c and all(0 <= x < p for x in v) and in_kernel(v)
        span = {
            tuple(sum(a * v[i] for a, v in zip(coeffs, basis)) % p for i in range(c))
            for coeffs in product(range(p), repeat=len(basis))
        }
        assert len(span) == len(kernel)  # independent: p^k distinct combinations
    assert left_kernel_mod_p([], 3) == []


def list_kernel_mod_p(rows, p):
    """Reference elimination on lists of residues: each row is reduced against
    the pivot rows before it, the combination it has become is tracked, and a
    row that reduces to zero contributes its combination to the basis."""
    c = len(rows)
    pivots, basis = [], []
    for i, row in enumerate(rows):
        r = [a % p for a in row]
        combo = [int(k == i) for k in range(c)]
        for col, prow, pcombo in pivots:
            f = r[col]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, prow)]
                combo = [(a - f * b) % p for a, b in zip(combo, pcombo)]
        col = next((j for j, a in enumerate(r) if a), None)
        if col is None:
            basis.append(combo)
        else:
            inv = pow(r[col], -1, p)
            pivots.append((col, [a * inv % p for a in r], [a * inv % p for a in combo]))
    return basis


def test_left_kernel_mod_2_bit_masks_match_the_list_elimination():
    """Up to 16 x 20, with zero rows, dependent rows and torsion-bit columns:
    the same basis vectors, in the same order, as the list elimination."""
    rng = random.Random(18)
    sizes = set()
    for trial in range(400):
        c, n = (16, 18) if trial % 10 < 2 else (rng.randint(1, 16), rng.randint(1, 18))
        rows = []
        for _ in range(c):
            kind = rng.random()
            if kind < 0.15:
                rows.append([0] * n)
            elif kind < 0.45 and rows:  # a combination of the rows so far
                picks = rng.sample(rows, rng.randint(1, len(rows)))
                rows.append([sum(rng.randint(-3, 3) * r[j] for r in picks) for j in range(n)])
            else:
                rows.append([rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(n)])
        if trial % 2:  # torsion-bit columns
            rows = [row + [rng.randrange(2) for _ in range(2)] for row in rows]
        basis = left_kernel_mod_p(rows, 2)
        assert basis == list_kernel_mod_p(rows, 2)
        assert all(type(x) is int for v in basis for x in v)
        sizes.add((len(basis) > 0, c == 16, len(rows[0]) == 20))
    assert {(True, True, True), (False, False, False)} <= sizes
    assert left_kernel_mod_p([], 2) == []
    assert left_kernel_mod_p([[0, 0], [2, 4], [1, -1]], 2) == [[1, 0, 0], [0, 1, 0]]


def test_full_rank22_catalog_discriminants():
    k3 = catalog_lattice("K3")
    assert discriminant_group(k3).is_trivial
    big = k3.direct_sum(catalog_lattice("A4"))
    assert discriminant_group(big).factors == (5,)


def rank_oracle_cases():
    """200 seeded (B, target) systems: dependent and zero rows, rational and random targets."""
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        B = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:  # a dependent row
            i, j = rng.sample(range(m), 2)
            B[i] = [rng.randint(-2, 2) * x for x in B[j]]
        if rng.random() < 0.2:
            B[rng.randrange(m)] = [0] * n
        if rng.random() < 0.5:  # a rational combination of the rows
            x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
            target = vec_mat(x0, B)
        else:
            target = [rng.randint(-6, 6) for _ in range(n)]
        yield B, target


def test_solve_left_matches_rank_oracle():
    for B, target in rank_oracle_cases():
        x = solve_left(B, target)
        rank = len(minor_gcd_diagonal(B))
        scaled = [int(t * 12) for t in target]  # denominators divide 12
        rises = len(minor_gcd_diagonal(B + [scaled])) > rank
        assert (x is None) == rises, (B, target)
        if x is not None:
            assert len(x) == len(B)
            assert vec_mat(x, B) == target


def test_solve_left_returns_ints_exactly_when_integral():
    """Against the pinned answers of the Fraction-only solver: equal values, and
    ints exactly where every entry of that answer had denominator 1."""
    pins = json.loads((Path(__file__).parent / "data" / "solve_pins.json").read_text())["answers"]
    cases = list(rank_oracle_cases())
    assert len(pins) == len(cases) == 200
    kinds = set()
    for (B, target), pin in zip(cases, pins):
        x = solve_left(B, target)
        if pin is None:
            assert x is None
            continue
        want = [Fraction(v) for v in pin]
        assert x == want, (B, target)
        integral = all(v.denominator == 1 for v in want)
        assert all(type(v) is int for v in x) == integral
        assert integral or all(type(v) is Fraction for v in x)
        kinds.add(integral)
    assert kinds == {True, False}


def test_solve_left_memo_follows_its_input():
    """The memo holds one reduction; alternating matrices, a B changed in place
    and a caller changing a returned list all give the answers of a cleared memo."""
    def fresh(fn, *args):
        _reduction.cache_clear()
        return fn(*args)

    A = [[2, 0], [0, 3]]
    B = [[1, 1], [0, 2], [1, 3]]
    want_a, want_b = fresh(lattice_row_basis, A), fresh(lattice_row_basis, B)
    for _ in range(3):  # two matrices in turn: each call replaces the memo
        assert solve_left(A, [2, 3]) == [1, 1]
        assert solve_left(B, [1, 3]) == [1, 1, 0]
        assert lattice_row_basis(A) == want_a
        assert lattice_row_basis(B) == want_b
    assert solve_left(A, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    A[0][0] = 4  # changed in place after a call: the key is taken afresh
    assert solve_left(A, [2, 3]) == [Fraction(1, 2), 1]
    A[1] = [0, 0]
    assert solve_left(A, [2, 3]) is None
    assert lattice_row_basis(A) == fresh(lattice_row_basis, A) == [[4, 0]]
    x = solve_left(B, [1, 3])
    x[0] = 99  # a returned list is the caller's own
    assert solve_left(B, [1, 3]) == [1, 1, 0]
    basis = lattice_row_basis(B)
    basis[0][0] += 5
    assert lattice_row_basis(B) == want_b
    assert fresh(solve_left, B, [1, 3]) == [1, 1, 0]


def test_solve_left_memo_ignores_the_container_and_bool_entries():
    """One matrix as a list, as a tuple of tuples, and with a bool for a 1 gives
    the answers of the int list, whichever fills the memo first."""
    B = [[1, 0, 1], [0, 2, 4], [1, 2, 5]]
    forms = [B, tuple(map(tuple, B)), [[True, False, True], [0, 2, 4], [True, 2, 5]]]
    for first in forms:
        _reduction.cache_clear()
        solve_left(first, [1, 2, 5])
        for form in forms:
            for target, want in (([1, 2, 5], [1, 1, 0]),
                                 ([1, 1, 3], [Fraction(1), Fraction(1, 2), Fraction(0)])):
                x = solve_left(form, target)
                assert x == want and list(map(type, x)) == list(map(type, want))
            basis = lattice_row_basis(form)
            assert basis == [[1, 0, 1], [0, 2, 4]]
            assert all(type(v) is int for row in basis for v in row)


def class_lattice_by_solves(spec):
    """The class lattice as the bench builds it: the row basis of the formal
    Gram G, one solve against G per basis row, one against the basis per generator."""
    gens, G = elliptic.formal_gram(spec)
    rows = [list(r) for r in G]
    basis = lattice_row_basis(rows)
    coords = [solve_left(rows, b) for b in basis]
    gram = tuple(tuple(sum(x * y for x, y in zip(c, b)) for b in basis) for c in coords)
    images = {g: tuple(solve_left(basis, row)) for g, row in zip(gens, rows)}
    return gram, images


def test_bench_solve_pattern_reduces_each_matrix_once(monkeypatch):
    """Two Smith reductions per bundled spec, G and its row basis, on every pass."""
    names = ["mp1", "mp9", "mp29", "mp30", "mp39", "mp64", "mp108", "double_iv_star"]
    specs = [elliptic.parse_fibration(json.loads((data_dir() / f"{n}.json").read_text()))
             for n in names]
    calls = []
    real = lattice_core._smith
    monkeypatch.setattr(lattice_core, "_smith", lambda M: calls.append(1) or real(M))
    _reduction.cache_clear()
    for _ in range(2):
        for spec in specs:
            before = len(calls)
            gram, images = class_lattice_by_solves(spec)
            assert len(calls) - before == 2, spec.name
            lattice, want = elliptic.class_lattice(spec)
            assert gram == lattice.gram and images == want
            assert all(type(v) is int for image in images.values() for v in image)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_grams():
    a2 = catalog_lattice("A2")
    assert a2.gram == ((-2, 1), (1, -2))
    u = catalog_lattice("U")
    assert u.gram == ((0, 1), (1, 0))
    e8 = catalog_lattice("E8")
    assert e8.rank == 8 and e8.det() == 1 and e8.is_even()
    assert all(e8.gram[i][i] == -2 for i in range(8))
    assert catalog_lattice("E8(-1)").gram == e8.gram
    k3 = catalog_lattice("K3")
    assert k3.rank == 22 and abs(k3.det()) == 1 and k3.is_even()
    enr = catalog_lattice("ENRIQUES_FREE")
    assert enr.rank == 10 and abs(enr.det()) == 1 and enr.is_even()


@pytest.mark.parametrize(
    "name,det",
    [("A1", -2), ("A4", 5), ("D4", 4), ("D8", 4), ("E6", 3), ("E7", -2), ("E8", 1)],
)
def test_catalog_determinants(name, det):
    L = catalog_lattice(name)
    assert L.det() == det
    assert L.is_even()


def test_parse_lattice_forms():
    assert parse_lattice("A3").rank == 3
    assert parse_lattice({"gram": [[2]]}).gram == ((2,),)
    s = parse_lattice({"sum": ["U", "E8(-1)"]})
    assert s.gram == catalog_lattice("ENRIQUES_FREE").gram
    assert parse_lattice({"name": "A2"}).gram == ((-2, 1), (1, -2))
    # a catalog name must agree with an explicitly supplied gram
    assert parse_lattice({"name": "U", "gram": [[0, 1], [1, 0]]}).name == "U"
    with pytest.raises(ValueError):
        parse_lattice({"name": "U", "gram": [[0, 2], [2, 0]]})
    parse_lattice({"name": "my lattice", "gram": [[4]]})  # free-form labels pass
    with pytest.raises(ValueError):
        parse_lattice({"basis": []})
    with pytest.raises(ValueError):
        parse_lattice("Q17")
    # a sum is bounded like one catalog name: rank 256 passes, 264 does not
    assert parse_lattice({"sum": ["E8"] * 32}).gram == catalog_lattice("E8").direct_sum(
        parse_lattice({"sum": ["E8"] * 31})).gram
    with pytest.raises(CatalogRankError):
        parse_lattice({"sum": [{"sum": ["E8"] * 16}, {"sum": ["E8"] * 17}]})


# ---------------------------------------------------------------------------
# discriminant groups


def test_discriminant_examples():
    assert discriminant_group(catalog_lattice("E8")).is_trivial
    for p in (2, 3, 5, 7):
        inv = discriminant_group(catalog_lattice(f"A{p - 1}"))
        assert inv.factors == (p,)
    a2a2 = catalog_lattice("A2").direct_sum(catalog_lattice("A2"))
    assert discriminant_group(a2a2).factors == (3, 3)


def test_discriminant_degenerate():
    with pytest.raises(DegenerateLatticeError):
        discriminant_group(GramLattice(((0, 0), (0, 0))))


def test_discriminant_order_equals_det():
    rng = random.Random(11)
    names = ["A1", "A2", "A4", "D4", "E6", "E7", "E8", "U", "ENRIQUES_FREE", "K3"]
    for name in names:
        L = catalog_lattice(name)
        assert discriminant_group(L).order == abs(L.det())
    for _ in range(40):
        n = rng.randint(1, 5)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-6, 6)
            L = GramLattice(tuple(map(tuple, g)))
            if L.det() != 0:
                break
        assert discriminant_group(L).order == abs(L.det())


# ---------------------------------------------------------------------------
# primitive closure


def test_primitive_closure_index_two_line():
    amb = GramLattice(((1, 0), (0, 1)))
    closure, glue = primitive_closure(EmbeddedSublattice(amb, ((2, 0),)))
    assert glue.factors == (2,)
    assert [[abs(x) for x in v] for v in closure] == [[1, 0]]


def test_primitive_closure_full_basis_trivial():
    amb = catalog_lattice("A4")
    basis = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    _, glue = primitive_closure(EmbeddedSublattice(amb, basis))
    assert glue.is_trivial


def test_primitive_closure_idempotent_and_index_bound():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        amb = GramLattice(tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n)))
        basis = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
        closure, glue = primitive_closure(EmbeddedSublattice(amb, basis))
        closure2, glue2 = primitive_closure(EmbeddedSublattice(amb, tuple(map(tuple, closure))))
        assert glue2.is_trivial
        assert len(closure2) == len(closure)
        # |glue|^2 divides |det Gram(S)| when the vectors are independent
        if len(closure) == k:
            gram_s = [[amb.dot(v, w) for w in basis] for v in basis]
            det_s = bareiss_det(gram_s)
            if det_s != 0:
                assert det_s % (glue.order**2) == 0


def test_lattice_row_basis_spans_same_lattice():
    rng = random.Random(3)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, 7)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
    cases += [[[0, 0, 0], [0, 0, 0]], [[2, 4, 6], [0, 0, 0], [1, 2, 3], [2, 4, 6]]]
    for gens in cases:
        basis = lattice_row_basis(gens)
        span_basis, coords, combos = span_coordinates(gens)
        assert span_basis == basis
        assert mat_mul(combos, gens) == basis
        for g, c in zip(gens, coords):
            x = solve_left(basis, g) if basis else None
            if basis:
                assert x is not None and all(v.denominator == 1 for v in x)
                assert c == x
            else:
                assert all(v == 0 for v in g) and c == []


def test_span_readers_are_pinned():
    """The closure of the Kummer chain span and the span coordinates of a formal Gram, as literals."""
    pins = json.loads((Path(__file__).parent / "data" / "span_pins.json").read_text())
    lattice, cfg = finite_geometry.kummer_lattice()
    pin = pins["kummer_chain_closure"]
    span = [list(v) for chain in cfg.chains for v in chain]
    assert span == pin["basis"]
    closure, glue = primitive_closure(EmbeddedSublattice(lattice, tuple(map(tuple, span))))
    assert (closure, list(glue.factors)) == (pin["closure"], pin["glue"])
    spec = elliptic.parse_fibration(json.loads((data_dir() / "double_iv_star.json").read_text()))
    gram = [list(row) for row in elliptic.formal_gram(spec)[1]]
    pin = pins["double_iv_star_span_coordinates"]
    assert gram == pin["gens"]
    basis, coords, combos = span_coordinates(gram)
    assert (basis, coords, combos) == (pin["basis"], pin["coords"], pin["combos"])


@pytest.mark.parametrize("call,message", [
    (lambda: solve_left([[Fraction(3, 2)]], [3]), r"row 0, column 0: Fraction\(3, 2\)"),
    (lambda: bareiss_det([[1.5, 0], [0, 2]]), r"row 0, column 0: 1\.5"),
    (lambda: lattice_row_basis([[Fraction(1, 2), 0]]), r"row 0, column 0: Fraction\(1, 2\)"),
    (lambda: GramLattice(((Fraction(-5, 2),),)), r"row 0, column 0: Fraction\(-5, 2\)"),
    (lambda: bareiss_det([[1, 0, 0], [0, 1, 0.25], [0, 0, 1]]), r"row 1, column 2: 0\.25"),
    (lambda: smith_normal_form([[1], [float("nan")]]), "row 1, column 0: nan"),
    (lambda: span_coordinates([[1, float("inf")]]), "row 0, column 1: inf"),
    (lambda: EmbeddedSublattice(catalog_lattice("A2"), ((1, Fraction(1, 3)),)),
     r"row 0, column 1: Fraction\(1, 3\)"),
    (lambda: parse_lattice({"gram": [[-2, 0.5], [0.5, -2]]}), r"gram\[0\]\[1\] must be"),
], ids=["solve_left", "bareiss_det", "lattice_row_basis", "GramLattice", "bareiss_det_row1",
        "smith_nan", "span_inf", "EmbeddedSublattice", "parse_lattice"])
def test_non_integral_entry_is_refused_not_truncated(call, message):
    """int() would truncate the entry; the ValueError names its row and column, or
    its path in a JSON lattice."""
    with pytest.raises(ValueError, match=f"^{message} (is not )?an integer$"):
        call()


@pytest.mark.parametrize("value", ["3", " 3", b"3", bytearray(b"3"), ""],
                         ids=["str", "padded_str", "bytes", "bytearray", "empty_str"])
def test_checked_int_refuses_strings_and_bytes(value):
    with pytest.raises(ValueError, match=r"^row 1, column 2: .* is not an integer$"):
        checked_int(value, ("row", 1), ("column", 2))


@pytest.mark.parametrize("value", [Decimal("2.5"), None, float("nan"), float("inf"),
                                   Decimal("NaN"), Decimal("-Infinity"), 1j, [2]],
                         ids=["decimal", "none", "nan", "inf", "decimal_nan", "decimal_inf",
                              "complex", "list"])
def test_checked_int_refuses_what_int_would_change_or_cannot_read(value):
    """int() truncates Decimal("2.5") to 2, and raises TypeError on None and
    ValueError or OverflowError on NaN and inf; each is one named ValueError."""
    with pytest.raises(ValueError, match=r"^p: .* is not an integer$"):
        checked_int(value, ("p",))


def test_a_non_integral_decimal_is_refused_not_truncated():
    with pytest.raises(ValueError, match=r"^row 0, column 0: Decimal\('-2\.5'\) is not an integer$"):
        GramLattice(((Decimal("-2.5"),),))
    with pytest.raises(ValueError, match=r"^row 0, column 0: Decimal\('2\.9'\) is not an integer$"):
        smith_normal_form([[Decimal("2.9"), 0], [0, 3]])


def test_checked_int_passes_ints_bools_and_integral_numbers():
    values = [checked_int(x, ("p",))
              for x in (3, True, False, 3.0, Fraction(6, 2), Decimal("3"), Decimal("-2.000"))]
    assert values == [3, 1, 0, 3, 3, 3, -2] and all(type(v) is int for v in values)


def test_integral_floats_and_fractions_pass_as_ints():
    assert solve_left([[Fraction(4, 2)]], [4]) == [2]
    det = bareiss_det([[2.0, 0], [0, Fraction(6, 2)]])
    assert det == 6 and type(det) is int
    assert lattice_row_basis([[2.0, 0], [True, 1]]) == [[1, 1], [0, 2]]
    lat = GramLattice(((Fraction(-4, 2), 1.0), (True, -2)))
    assert lat.gram == ((-2, 1), (1, -2))
    assert all(type(v) is int for row in lat.gram for v in row)
    basis, coords, combos = span_coordinates([[2.0, 0], [0, Fraction(3)]])
    assert all(type(v) is int for m in (basis, coords, combos) for row in m for v in row)


# ---------------------------------------------------------------------------
# p-divisibility of coordinate classes


def test_is_p_divisible_class():
    L = GramLattice(((2, 0), (0, 2)))
    assert is_p_divisible_class((2, 4), L, 2) == [1, 2]
    assert is_p_divisible_class((1, 2), L, 2) is None
    with pytest.raises(ValueError):
        is_p_divisible_class((1, 2, 3), L, 2)


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((2, 3))
    with pytest.raises(ValueError):
        AbelianInvariants((1,))
    assert AbelianInvariants((2, 4)).order == 8
    assert str(AbelianInvariants()) == "1"
