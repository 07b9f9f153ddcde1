import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from k3lat.finite_geometry import (
    affine_hyperplanes,
    affine_space,
    ag23_lattice,
    glue_overlattice,
    kummer_lattice,
    line_complements,
)
from k3lat.lattice_core import (
    GramLattice,
    block_diagonal,
    catalog_lattice,
    identity_matrix,
    is_prime,
    left_kernel_mod_p,
    parse_lattice,
    primitive_closure,
)
from k3lat import root_config
from k3lat.acceptance import random_self_orthogonal_code
from k3lat.data import load_json
from k3lat.pipeline import k3_row
from k3lat.root_config import (
    ChainConfiguration,
    SearchSpaceError,
    chain_span_glue,
    enriques_mod2_divisibility,
    find_p_divisible_subsets,
    odd_p_divisibility_by_finite_index,
    sublattice_index,
    weighted_chain_class,
)


def test_weighted_chain_class_examples():
    assert weighted_chain_class([(1, 0)], 1) == [1, 0]
    assert weighted_chain_class([(1, 0, 0), (0, 1, 0)], 1) == [1, 2, 0]
    assert weighted_chain_class([(1, 0, 0), (0, 1, 0)], 2) == [2, 4, 0]
    with pytest.raises(ValueError):
        weighted_chain_class([], 1)
    with pytest.raises(ValueError):
        weighted_chain_class([(1, 0), (0, 1, 0)], 1)


def make_unit_config(p, c, extra_rank=0):
    """Chains sitting on an integral basis: block gram, unit-vector classes."""
    n = c * (p - 1) + extra_rank
    block = catalog_lattice(f"A{p - 1}")
    gram = [[0] * n for _ in range(n)]
    for i in range(c):
        off = i * (p - 1)
        for a in range(p - 1):
            for b in range(p - 1):
                gram[off + a][off + b] = block.gram[a][b]
    for j in range(c * (p - 1), n):
        gram[j][j] = 2
    chains = tuple(
        tuple(tuple(1 if t == i * (p - 1) + k else 0 for t in range(n)) for k in range(p - 1))
        for i in range(c)
    )
    return ChainConfiguration(GramLattice(tuple(map(tuple, gram))), p, chains)


def test_integral_basis_configuration_has_no_witnesses():
    for p, c in [(2, 5), (3, 3), (5, 4)]:
        cfg = make_unit_config(p, c)
        assert find_p_divisible_subsets(cfg) == []


def test_config_validation_rejects_bad_gram():
    amb = GramLattice(((2, 0), (0, 2)))
    with pytest.raises(ValueError):
        ChainConfiguration(amb, 2, (((1, 0),),))  # self-intersection +2, not -2


@pytest.mark.parametrize("chains,message", [
    ((((Fraction(3, 2), 0), (0, 1.9)),), r"chain 0, class 0, coordinate 0: Fraction\(3, 2\)"),
    ((((1.0, 0), (0, 1.9)),), r"chain 0, class 1, coordinate 1: 1\.9"),
    ((((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0.5, 1))),
     r"chain 1, class 1, coordinate 2: 0\.5"),
    ((((1, 0), (0, float("nan"))),), "chain 0, class 1, coordinate 1: nan"),
], ids=["fraction", "float", "second_chain", "nan"])
def test_non_integral_chain_entry_is_refused_not_truncated(chains, message):
    """int() would truncate the entry into a valid chain; the ValueError names
    the chain, the class and the coordinate."""
    ambient = parse_lattice({"sum": ["A2"] * len(chains)})  # one A_2 block per chain
    with pytest.raises(ValueError, match=message + " is not an integer"):
        ChainConfiguration(ambient, 3, chains)


def test_chain_entries_are_stored_as_ints():
    a2 = catalog_lattice("A2")
    cfg = ChainConfiguration(a2, 3, [[[Fraction(2, 2), 0.0], [False, True]]])
    assert cfg.chains == (((1, 0), (0, 1)),)
    assert all(type(x) is int for chain in cfg.chains for v in chain for x in v)
    chains = (((1, 0), (0, 1)),)
    assert ChainConfiguration(a2, 3, chains).chains[0][0] is chains[0][0]  # int tuples kept as they are


def test_float_p_is_stored_as_an_int():
    """is_prime(3.0) holds, so a float p used to pass the constructor and then
    break the search's pow(); 3.0 now becomes 3, and 3.5 is refused by name."""
    a2 = catalog_lattice("A2")
    cfg = ChainConfiguration(a2, 3.0, (((1, 0), (0, 1)),))
    assert type(cfg.p) is int and cfg == ChainConfiguration(a2, 3, (((1, 0), (0, 1)),))
    assert find_p_divisible_subsets(cfg) == []
    with pytest.raises(ValueError, match=r"^p: 3\.5 is not an integer$"):
        ChainConfiguration(a2, 3.5, (((1, 0), (0, 1)),))


@pytest.mark.parametrize("p,chains,message", [
    ("3", (((1, 0), (0, 1)),), r"^p: '3' is not an integer$"),
    (b"3", (((1, 0), (0, 1)),), r"^p: b'3' is not an integer$"),
    (3, ((("1", 0), (0, 1)),), r"^chain 0, class 0, coordinate 0: '1' is not an integer$"),
    (3, (((1, 0), (0, bytearray(b"1"))),),
     r"^chain 0, class 1, coordinate 1: bytearray\(b'1'\) is not an integer$"),
], ids=["str_p", "bytes_p", "str_entry", "bytearray_entry"])
def test_string_p_and_entries_are_refused(p, chains, message):
    """int() would parse a numeric string; the ValueError names the field."""
    with pytest.raises(ValueError, match=message):
        ChainConfiguration(catalog_lattice("A2"), p, chains)


def test_single_a1_in_rank_one_model_is_primitive():
    amb = GramLattice(((-2,),))
    cfg = ChainConfiguration(amb, 2, (((1,),),))
    assert find_p_divisible_subsets(cfg) == []


# ---------------------------------------------------------------------------
# the 16-point model


def test_kummer_witnesses_are_hyperplanes_and_full_set():
    _, cfg = kummer_lattice()
    witnesses = find_p_divisible_subsets(cfg)
    assert len(witnesses) == 31
    supports = {w.subset for w in witnesses}
    hyps = {h.members for h in affine_hyperplanes(affine_space(2, 4))}
    assert supports == hyps | {tuple(range(16))}
    eight = [w for w in witnesses if len(w.subset) == 8]
    assert len(eight) == 30
    # each witness satisfies its identity exactly
    for w in witnesses:
        total = [0] * cfg.ambient.rank
        for i, d in zip(w.subset, w.coefficients):
            wc = weighted_chain_class(cfg.chains[i], d)
            total = [a + b for a, b in zip(total, wc)]
        assert total == [2 * x for x in w.quotient_class]


def test_kummer_symmetric_difference_law():
    _, cfg = kummer_lattice()
    supports = [set(w.subset) for w in find_p_divisible_subsets(cfg)]
    keyed = {tuple(sorted(s)) for s in supports}
    for s1, s2 in combinations(supports, 2):
        sym = tuple(sorted(s1 ^ s2))
        assert sym in keyed or sym == ()


def test_kummer_eight_set_intersection_law():
    _, cfg = kummer_lattice()
    eights = [set(w.subset) for w in find_p_divisible_subsets(cfg) if len(w.subset) == 8]
    for h1, h2 in combinations(eights, 2):
        inter = h1 & h2
        assert len(inter) in (0, 4)
        if not inter:
            assert h1 | h2 == set(range(16))


def test_kummer_hyperplane_span_has_glue_two():
    lattice, cfg = kummer_lattice()
    hyp = affine_hyperplanes(affine_space(2, 4))[0]
    basis = tuple(cfg.chains[i][0] for i in hyp.members)
    _, glue = primitive_closure(lattice, basis)
    assert glue.factors == (2,)
    # the hyperplane sum itself is coordinatewise 2-divisible in the overlattice
    assert all(sum(v[i] for v in basis) % 2 == 0 for i in range(lattice.rank))


# ---------------------------------------------------------------------------
# the 9-point model


def test_ag23_witnesses_are_line_complements_plus_full_set():
    _, cfg = ag23_lattice()
    witnesses = find_p_divisible_subsets(cfg)
    six = {w.subset for w in witnesses if len(w.subset) == 6}
    comps = {c.members for c in line_complements(affine_space(3, 2))}
    assert six == comps
    assert len(six) == 12
    full = [w for w in witnesses if len(w.subset) == 9]
    assert len(full) == 1
    assert len(witnesses) == 13
    for w in witnesses:
        total = [0] * cfg.ambient.rank
        for i, d in zip(w.subset, w.coefficients):
            wc = weighted_chain_class(cfg.chains[i], d)
            total = [a + b for a, b in zip(total, wc)]
        assert total == [3 * x for x in w.quotient_class]


def test_ag23_torsion_bit_does_not_block_odd_p():
    _, cfg = ag23_lattice()
    # one order-2 torsion bit on the first class of chain 0
    chains = tuple(
        tuple(v + (int(i == 0 and k == 0),) for k, v in enumerate(chain))
        for i, chain in enumerate(cfg.chains)
    )
    with_bit = ChainConfiguration(cfg.ambient, 3, chains)
    witnesses = find_p_divisible_subsets(with_bit)
    assert witnesses == find_p_divisible_subsets(cfg) and len(witnesses) == 13


def test_torsion_bit_still_counts_for_p2():
    _, cfg = kummer_lattice()
    chains = tuple(
        tuple(v + (int(i == 0),) for v in chain) for i, chain in enumerate(cfg.chains)
    )
    with_bit = ChainConfiguration(cfg.ambient, 2, chains)
    expected = [w for w in find_p_divisible_subsets(cfg) if 0 not in w.subset]
    assert find_p_divisible_subsets(with_bit) == expected
    assert len(expected) == 15


def test_restrict_equals_the_constructor():
    _, cfg = kummer_lattice()
    chains = tuple(
        tuple(v + (int(i == 0),) for v in chain) for i, chain in enumerate(cfg.chains)
    )
    with_bit = ChainConfiguration(cfg.ambient, 2, chains)
    members = (5, 0, 9, 3)
    sub = with_bit.restrict(members)
    assert sub == ChainConfiguration(cfg.ambient, 2, tuple(chains[i] for i in members))
    # the Gram check runs again: a parent whose chains were overwritten is refused
    object.__setattr__(with_bit, "chains", chains[:1] * 2)
    with pytest.raises(ValueError, match="not orthogonal"):
        with_bit.restrict((0, 1))


# ---------------------------------------------------------------------------
# glue group vs witness list, on random glue-code models


def test_glue_trivial_iff_no_witness_random_models():
    rng = random.Random(99)
    ran = 0
    while ran < 100:
        p = rng.choice([2, 2, 3, 5])
        cmax = 8 // (p - 1)
        c = rng.randint(1, cmax)
        code = random_self_orthogonal_code(rng, p, c) if rng.random() < 0.7 else []
        cfg = glue_overlattice(p, c, code)[1]
        glue = chain_span_glue(cfg)
        # the shortcut glue computation agrees with the saturation operation
        span = tuple(v for chain in cfg.chains for v in chain)
        _, glue_via_closure = primitive_closure(cfg.ambient, span)
        assert glue.factors == glue_via_closure.factors
        witnesses = find_p_divisible_subsets(cfg)
        assert glue.is_trivial == (witnesses == [])
        expected = (p ** len(code) - 1) // (p - 1)
        assert len(witnesses) == expected
        ran += 1


def brute_force_witnesses(cfg):
    """Every nonzero coefficient vector, kept when its weighted chain sum is
    0 mod p on the searched coordinates (all of them for p = 2, the free ones
    otherwise), then scaled to a leading 1."""
    p, rank = cfg.p, cfg.ambient.rank
    n = cfg.vector_length if p == 2 else rank
    # column j of the weighted chain classes: sum_k k chain_i[k-1][j] for each chain i
    columns = [[sum(k * chain[k - 1][j] for k in range(1, p)) for chain in cfg.chains]
               for j in range(cfg.vector_length)]

    def weighted_sum(d, length):
        return [sum(map(mul, d, column)) for column in columns[:length]]

    found = set()
    for d in product(range(p), repeat=cfg.count):
        if any(d) and all(sum(map(mul, d, column)) % p == 0 for column in columns[:n]):
            unit = pow(next(x for x in d if x), -1, p)
            found.add(tuple(x * unit % p for x in d))
    out = []
    for d in found:
        support = tuple(i for i, x in enumerate(d) if x)
        quotient = tuple(x // p for x in weighted_sum(d, rank))
        out.append((support, tuple(d[i] for i in support), quotient))
    return sorted(out, key=lambda w: (len(w[0]), w[0], w[1]))


def with_torsion_bits(cfg, rng, bits=2):
    chains = tuple(
        tuple(v + tuple(rng.randrange(2) for _ in range(bits)) for v in chain)
        for chain in cfg.chains
    )
    # `bits` more draws, so the models drawn after this call stay the ones the
    # tests were written against
    for _ in range(bits):
        rng.randrange(2)
    return ChainConfiguration(cfg.ambient, cfg.p, chains)


def test_search_matches_brute_force_oracle():
    rng = random.Random(7)
    models = []
    for p in (2, 3, 5, 7):
        for _ in range(6):
            c = rng.randint(1, 4)
            models.append(glue_overlattice(p, c, random_self_orthogonal_code(rng, p, c))[1])
    models += [with_torsion_bits(m, rng) for m in models if m.p in (2, 3)]
    nonempty = 0
    for cfg in models:
        expected = brute_force_witnesses(cfg)
        got = [(w.subset, w.coefficients, w.quotient_class)
               for w in find_p_divisible_subsets(cfg)]
        assert got == expected, (cfg.p, cfg.count)
        nonempty += bool(expected)
    assert nonempty >= 10


def isotropic_code(rng, p, c, dim):
    """A seeded basis of up to ``dim`` independent words of F_p^c (p odd),
    pairwise orthogonal and each of square sum 0 mod p, so a valid glue code;
    fewer when no larger one is found (one exists only up to the Witt index
    of the sum of squares: c // 2, less one when c = 2 mod 4 and p = 3 mod 4)."""
    basis = []
    for _ in range(4000):
        if len(basis) == dim:
            break
        w = [rng.randrange(p) for _ in range(c)]
        if sum(x * x for x in w) % p or any(sum(map(mul, w, v)) % p for v in basis):
            continue
        if not left_kernel_mod_p(basis + [w], p):  # independent of the words so far
            basis.append(w)
    return basis


def test_odd_p_search_matches_brute_force_on_larger_kernels():
    """Glue models with p = 3 (c <= 8), 5 (c <= 6) and 7 (c <= 5) against the
    brute-force oracle, with kernels of dimension up to 4, 3 and 2: so
    combinations of three or more kernel vectors with multipliers x >= 2 are
    enumerated.  A glue code is isotropic, so its dimension is at most c // 2,
    and for p = 7 dimension 3 needs c = 7, where the brute force reads 7^7
    vectors; that model is checked against the words of its glue code, which
    are exactly the kernel, with each quotient summed directly."""
    rng = random.Random(21)
    largest = {}
    for p, cmax in ((3, 8), (5, 6), (7, 5)):
        for c in range(1, cmax + 1):
            for _ in range(2):
                code = isotropic_code(rng, p, c, c // 2)
                cfg = glue_overlattice(p, c, code)[1]
                expected = brute_force_witnesses(cfg)
                assert len(expected) == (p ** len(code) - 1) // (p - 1), (p, c)
                got = [(w.subset, w.coefficients, w.quotient_class)
                       for w in find_p_divisible_subsets(cfg)]
                assert got == expected, (p, c, code)
                largest[p] = max(largest.get(p, 0), len(code))
    assert largest == {3: 4, 5: 3, 7: 2}

    code = isotropic_code(rng, 7, 7, 3)
    assert len(code) == 3
    cfg = glue_overlattice(7, 7, code)[1]
    words = set()
    for x in product(range(7), repeat=3):
        word = [sum(a * v[i] for a, v in zip(x, code)) % 7 for i in range(7)]
        if any(word):
            unit = pow(next(v for v in word if v), -1, 7)
            words.add(tuple(v * unit % 7 for v in word))
    expected = []
    for word in words:
        total = [0] * cfg.ambient.rank
        for i, d in enumerate(word):
            if d:
                total = [t + x for t, x in zip(total, weighted_chain_class(cfg.chains[i], d))]
        assert all(t % 7 == 0 for t in total)
        support = tuple(i for i, d in enumerate(word) if d)
        expected.append((support, tuple(word[i] for i in support), tuple(t // 7 for t in total)))
    expected.sort(key=lambda w: (len(w[0]), w[0], w[1]))
    got = [(w.subset, w.coefficients, w.quotient_class) for w in find_p_divisible_subsets(cfg)]
    assert len(got) == 57 and got == expected


def brute_force_gram_error(ambient, p, chains):
    """The message of the first failing pair under sum_ij v_i G_ij w_j, or None.

    Pairs are visited as the check promises: within each chain (a <= b),
    then every pair of distinct chains; only the first rank entries pair."""
    r, G = ambient.rank, ambient.gram

    def pair(v, w):
        return sum(v[i] * G[i][j] * w[j] for i in range(r) for j in range(r))

    for ci, chain in enumerate(chains):
        for a in range(len(chain)):
            for b in range(a, len(chain)):
                want = -2 if a == b else (1 if b == a + 1 else 0)
                got = pair(chain[a], chain[b])
                if got != want:
                    return (f"chain {ci} is not an A_{p - 1} block: "
                            f"classes {a},{b} pair to {got}, expected {want}")
    for ci in range(len(chains)):
        for cj in range(ci + 1, len(chains)):
            for a, va in enumerate(chains[ci]):
                for b, vb in enumerate(chains[cj]):
                    got = pair(va, vb)
                    if got != 0:
                        return (f"chains {ci} and {cj} are not orthogonal "
                                f"(classes {a},{b} pair to {got})")
    return None


def adversarial_gram_case(weakened):
    """Six classes of three A_2 chains whose error E = V G V^T - B is not 0, but
    packs to 0 under the digit width X that leaves max|G| (``"gram"``) or
    max|V|^2 (``"classes"``) out of the bound M = r^2 max|V|^2 max|G| + 2.

    E = h (z w^T + w z^T) with z = (X, -1, 0, ...) and w = (0, X, -1, 0, ...);
    both are orthogonal to x = (1, X, X^2, ...), so E x = 0.  For "gram" the
    large entries sit in G: a block equal to E (h = 1), read by one unit
    coordinate per class, and class entries near 10^6 on a coordinate that
    pairs only with one no class uses.  For "classes" they sit in V: z and w
    as two coordinates that pair to h = 2^14.  Returns (ambient, chains, X)."""
    base = make_unit_config(3, 3)
    units = [v for chain in base.chains for v in chain]
    m = len(units)

    def error_vectors(X):
        return [X, -1] + [0] * (m - 2), [0, X, -1] + [0] * (m - 3)

    if weakened == "gram":
        big = [10**6 + a for a in range(m)]
        rank = len(units[0]) + 2 + m
        X = 2 ** (rank * rank * max(big) ** 2 + 2).bit_length()
        z, w = error_vectors(X)
        E = [[z[a] * w[b] + w[a] * z[b] for b in range(m)] for a in range(m)]
        gram = block_diagonal([base.ambient.gram, [[0, 1], [1, 0]], E])
        classes = [u + (big[a], 0) + tuple(int(a == b) for b in range(m))
                   for a, u in enumerate(units)]
    else:
        h = 2**14
        rank = len(units[0]) + 2
        X = 2 ** (rank * rank * h + 2).bit_length()
        z, w = error_vectors(X)
        gram = block_diagonal([base.ambient.gram, [[0, h], [h, 0]]])
        classes = [u + (z[a], w[a]) for a, u in enumerate(units)]
    chains = tuple(tuple(classes[2 * i:2 * i + 2]) for i in range(3))
    return GramLattice(tuple(map(tuple, gram))), chains, X


@pytest.mark.parametrize("weakened", ["gram", "classes"])
def test_gram_identity_is_exact_where_a_weaker_bound_would_pass(weakened):
    """The packed identity's digit width must cover both max|G| and max|V|^2:
    at the width without either one, this broken configuration would pass."""
    ambient, chains, X = adversarial_gram_case(weakened)
    r, G = ambient.rank, ambient.gram
    V = [v for chain in chains for v in chain]
    assert max(abs(x) for v in V for x in v) >= 10**6
    E = [
        [sum(V[a][i] * G[i][j] * V[b][j] for i in range(r) for j in range(r))
         - (-2 if a == b else int(abs(a - b) == 1 and a // 2 == b // 2))
         for b in range(len(V))]
        for a in range(len(V))
    ]
    assert any(map(any, E))
    assert all(sum(e * X**b for b, e in enumerate(row)) == 0 for row in E)
    expected = brute_force_gram_error(ambient, 3, chains)
    assert expected is not None
    with pytest.raises(ValueError) as excinfo:
        ChainConfiguration(ambient, 3, chains)
    assert str(excinfo.value) == expected


def perturbed_class(rng, v, rank):
    """v plus a nonzero vector with entries in {-1, 0, 1} on the first rank entries."""
    u = [0] * rank
    while not any(u):
        u = [rng.randint(-1, 1) for _ in range(rank)]
    return tuple(x + y for x, y in zip(v, u)) + tuple(v[rank:])


def test_gram_check_matches_brute_force_oracle():
    rng = random.Random(2024)
    cases = []  # (ambient, p, chains)
    for p in (2, 3, 5, 7):
        for _ in range(4):
            c = rng.randint(2, 4)
            cfg = glue_overlattice(p, c, random_self_orthogonal_code(rng, p, c))[1]
            cases.append((cfg.ambient, p, cfg.chains))
            tcfg = with_torsion_bits(cfg, rng)
            cases.append((tcfg.ambient, p, tcfg.chains))
    # each first chain alone: 1 class at p = 2 and 2 at p = 3 are the fewest the check meets
    cases += [(ambient, p, chains[:1]) for ambient, p, chains in cases]
    broken, flipped_bits = [], []
    for ambient, p, chains in cases:
        rank = ambient.rank
        # one class moved: some pairing inside its chain (or across) breaks
        i, k = rng.randrange(len(chains)), rng.randrange(p - 1)
        moved = [list(ch) for ch in chains]
        moved[i][k] = perturbed_class(rng, moved[i][k], rank)
        broken.append((ambient, p, tuple(map(tuple, moved))))
        # one chain replaced by a copy of another: every chain is still an
        # A_{p-1} block, but the two are no longer orthogonal
        if len(chains) > 1:
            i, j = rng.sample(range(len(chains)), 2)
            copied = list(chains)
            copied[j] = chains[i]
            broken.append((ambient, p, tuple(copied)))
        # the torsion bits alone changed: the pairing must not see them
        if len(chains[0][0]) > rank:
            flipped = tuple(
                tuple(v[:rank] + tuple(1 - x for x in v[rank:]) for v in ch) for ch in chains
            )
            flipped_bits.append((ambient, p, flipped))
    cases += flipped_bits
    seen = {"valid": 0, "block": 0, "orthogonal": 0}
    for ambient, p, chains in cases + broken:
        expected = brute_force_gram_error(ambient, p, chains)
        try:
            ChainConfiguration(ambient, p, chains)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (p, len(chains))
        seen["valid" if got is None else "block" if "block" in got else "orthogonal"] += 1
    assert seen["valid"] == len(cases)
    assert seen["block"] >= 10 and seen["orthogonal"] >= 10


def affine_code_words(p, n):
    """Every nonzero word of the affine-function code over F_p^n, scaled to a
    leading 1: a.x + b evaluated at the points in index order (digit j of the
    index is coordinate j)."""
    points = [tuple(i // p**j % p for j in range(n)) for i in range(p**n)]
    words = set()
    for *a, b in product(range(p), repeat=n + 1):
        word = [(sum(ai * xi for ai, xi in zip(a, x)) + b) % p for x in points]
        if any(word):
            unit = pow(next(v for v in word if v), -1, p)
            words.add(tuple(v * unit % p for v in word))
    return words


def large_kernel_cases():
    """(model, p, n, members) for every point subset of AG(2,3) and every
    Kummer subset of at least 13 points: kernel dimensions up to 3 and 5."""
    for model, p, n, smallest in ((ag23_lattice()[1], 3, 2, 1), (kummer_lattice()[1], 2, 4, 13)):
        for size in range(smallest, p**n + 1):
            for members in combinations(range(p**n), size):
                yield model, p, n, members


LARGE_KERNEL_DIGEST = "57609b74d38f93cb9573c557130f7d9c30edb8b254606488352a89698f6f93fa"


def test_witness_lists_on_large_kernels():
    """Sub-configurations of the two models against the affine-code oracle:
    the witnesses are the code words supported inside the subset, each with
    a leading 1 and its quotient; the full output matches a pinned digest."""
    digest = hashlib.sha256()
    words = {(3, 2): affine_code_words(3, 2), (2, 4): affine_code_words(2, 4)}
    count = 0
    for model, p, n, members in large_kernel_cases():
        sub = model.restrict(members)
        got = [(w.subset, w.coefficients, w.quotient_class) for w in find_p_divisible_subsets(sub)]
        position = {m: i for i, m in enumerate(members)}
        inside = set(members)
        expected = sorted(
            ((tuple(position[i] for i, v in enumerate(word) if v), tuple(v for v in word if v))
             for word in words[(p, n)] if inside.issuperset(i for i, v in enumerate(word) if v)),
            key=lambda w: (len(w[0]), w[0], w[1]),
        )
        assert [(subset, coefficients) for subset, coefficients, _ in got] == expected, members
        for subset, coefficients, quotient in got:
            assert coefficients[0] == 1
            total = [0] * sub.ambient.rank
            for i, d in zip(subset, coefficients):
                total = [t + x for t, x in zip(total, weighted_chain_class(sub.chains[i], d))]
            assert total == [p * x for x in quotient]
        digest.update(repr((members, got)).encode())
        count += 1
    assert count == 511 + 697
    assert digest.hexdigest() == LARGE_KERNEL_DIGEST


def test_every_ag23_subset_gets_the_table_row_of_its_code_words():
    """All 511 point subsets of the 9-point model, through `restrict` and
    `k3_row`, against Table 1 read with facts from the affine-code words inside
    each subset: none is primitivity, and where Table 1 splits c by word count,
    one 6-point word is one_R and two that cover the subset are two_R."""
    _, cfg = ag23_lattice()
    supports = {frozenset(i for i, v in enumerate(word) if v) for word in affine_code_words(3, 2)}
    table = load_json("table1.json")["rows"]
    rows = Counter()
    for size in range(1, 10):
        for members in combinations(range(9), size):
            inside = [s for s in supports if s <= set(members)]
            candidates = [r for r in table if r["p"] == 3 and r["c_min"] <= size <= r["c_max"]]
            six = [s for s in inside if len(s) == 6]
            if not inside:
                facts = "primitive"
            elif not any(r["condition"] == "two_R" for r in candidates):
                facts = "nonprimitive"
            elif len(six) == 1:
                facts = "one_R"
            else:
                assert any(a | b == set(members) for a, b in combinations(six, 2)), members
                facts = "two_R"
            (expected,) = [r["no"] for r in candidates if r["condition"] == facts]
            _, got_facts, row = k3_row(cfg.restrict(members))
            assert (got_facts, row.number) == (facts, expected), members
            rows[row.number] += 1
    assert rows == {9: 453, 10: 48, 12: 9, 13: 1}


def test_every_large_kummer_subset_gets_the_table_row_of_its_hyperplanes():
    """All 2517 subsets of at least 12 of the 16 points, through `restrict` and
    `k3_row`, against Table 1 read with facts from the affine hyperplanes inside
    each subset: where Table 1 splits c by word count, one hyperplane is one_H
    and two that cover the subset are two_H; elsewhere any hyperplane is
    nonprimitivity."""
    _, cfg = kummer_lattice()
    hyperplanes = [frozenset(h.members) for h in affine_hyperplanes(affine_space(2, 4))]
    table = load_json("table1.json")["rows"]
    rows = Counter()
    for size in range(12, 17):
        for members in combinations(range(16), size):
            inside = [h for h in hyperplanes if h <= set(members)]
            candidates = [r for r in table if r["p"] == 2 and r["c_min"] <= size <= r["c_max"]]
            if not any(r["condition"] == "two_H" for r in candidates):
                facts = "nonprimitive" if inside else "primitive"
            elif len(inside) == 1:
                facts = "one_H"
            else:
                assert any(a | b == set(members) for a, b in combinations(inside, 2)), members
                facts = "two_H"
            (expected,) = [r["no"] for r in candidates if r["condition"] == facts]
            _, got_facts, row = k3_row(cfg.restrict(members))
            assert (got_facts, row.number) == (facts, expected), members
            rows[row.number] += 1
    assert rows == {3: 1680, 4: 140, 5: 560, 6: 120, 7: 16, 8: 1}


def test_dot_matches_brute_force_oracle():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(1, 6)
        G = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                G[i][j] = G[j][i] = rng.randint(-5, 5)
        lat = GramLattice(tuple(map(tuple, G)))
        # vectors may run past the rank; the extra entries do not pair
        v = [rng.randint(-9, 9) for _ in range(r + rng.randint(0, 2))]
        w = [rng.randint(-9, 9) for _ in range(r + rng.randint(0, 2))]
        expected = sum(v[i] * G[i][j] * w[j] for i in range(r) for j in range(r))
        assert lat.dot(v, w) == expected == lat.dot(w, v)
        with pytest.raises(ValueError):
            lat.dot(v[: r - 1], w)
        with pytest.raises(ValueError):
            lat.dot(v, w[: r - 1])


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 10**4) if is_prime(n)] == [
        n for n in range(-3, 10**4) if trial(n)
    ]
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, with a factor each
    for n, factor in ((3215031751, 151), (3825123056546413051, 149491),
                      (318665857834031151167461, 399165290221)):
        assert n % factor == 0 and not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    with pytest.raises(ValueError, match="too large"):
        is_prime(2**89 - 1)


def test_search_space_guard(monkeypatch):
    _, cfg = kummer_lattice()
    monkeypatch.setattr(root_config, "MAX_CANDIDATES", 3)
    with pytest.raises(SearchSpaceError):
        find_p_divisible_subsets(cfg)


# ---------------------------------------------------------------------------
# finite-index divisibility criterion


def test_odd_p_divisible_trivial_case():
    amb = catalog_lattice("ENRIQUES_FREE")
    n_basis = identity_matrix(10)
    D = [5 * x for x in (1, 2, 0, -1, 3, 0, 0, 1, 1, 2)]
    assert odd_p_divisibility_by_finite_index(D, n_basis, amb, 5) == "divisible"
    assert sublattice_index(n_basis, amb) == 1


def test_odd_p_inconclusive_not_divisible_vector():
    amb = catalog_lattice("ENRIQUES_FREE")
    n_basis = identity_matrix(10)
    D = [1] + [0] * 9
    assert odd_p_divisibility_by_finite_index(D, n_basis, amb, 3) == "inconclusive"


def test_odd_p_index_not_coprime_is_inconclusive():
    amb = catalog_lattice("ENRIQUES_FREE")
    n_basis = [[3 if i == j else 0 for j in range(10)] for i in range(10)]
    D = [3] + [0] * 9
    assert odd_p_divisibility_by_finite_index(D, n_basis, amb, 3) == "inconclusive"


def test_odd_p_requires_finite_index():
    amb = catalog_lattice("ENRIQUES_FREE")
    with pytest.raises(ValueError):
        odd_p_divisibility_by_finite_index([0] * 10, [[1] + [0] * 9], amb, 3)


# ---------------------------------------------------------------------------
# mod-2 congruences with a torsion marker


def test_enriques_mod2_basic():
    kw = (0, 0, 0, 1)
    a = (2, 0, 4, 0)
    b = (1, 1, 0, 1)
    c = (1, 1, 0, 0)
    assert enriques_mod2_divisibility([a], kw) == "divisible_as_0"
    assert enriques_mod2_divisibility([b, c], kw) == "divisible_as_KW"
    assert enriques_mod2_divisibility([c], kw) == "not_divisible"
    with pytest.raises(ValueError):
        enriques_mod2_divisibility([], kw)

