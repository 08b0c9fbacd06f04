import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zprs.additive import AdditiveCode, shift_module_span
from zprs.errors import (DistanceNotDetermined, LengthMismatch, MalformedInput, NotAUnit,
                         ProfileMismatch, ZprsError)
from zprs.field import find_kappa
from zprs.gray import GrayMap
from zprs.linalg import kernel_basis, rref
from zprs.linear import LinearCode, min_distance_by_enumeration
from zprs.words import BlockProfile, unflatten

from oracles import reference_rref


def random_code(rng, p, n, k_target):
    rows = rng.integers(0, p, size=(k_target, n))
    return LinearCode(p, n, rows)


# -- the unbatched column-subset DFS, kept as the reference for the library's search


def reference_choose_column(mat, p, j):
    col = mat[:, j]
    nz = np.flatnonzero(col)
    if nz.size == 0:
        return None
    piv = int(nz[0])
    scaled = col * pow(int(col[piv]), p - 2, p) % p
    rest = mat[:, j + 1:]
    reduced = (rest - np.outer(scaled, rest[piv])) % p
    return np.concatenate([np.zeros((mat.shape[0], j + 1), dtype=np.int64), reduced], axis=1)


def reference_subtree(mat, p, start, chosen, w):
    """One elimination per node down to the last level, then a zero-column test."""
    ncols = mat.shape[1]
    if chosen == w - 1:
        return bool((~mat[:, start:].any(axis=0)).any()) if start < ncols else False
    for j in range(start, ncols - (w - chosen) + 1):
        nxt = reference_choose_column(mat, p, j)
        if nxt is not None and reference_subtree(nxt, p, j + 1, chosen + 1, w):
            return True
    return False


def reference_distance(code):
    """d as the smallest dependent column subset of the RREF kernel basis, by the
    unbatched DFS over all columns; the Singleton bound caps the search."""
    h = kernel_basis(code.generator, code.p)
    if h.shape[0] == 0 or (~h.any(axis=0)).any():
        return 1
    return next(w for w in range(2, code.n - code.k + 2)
                if reference_subtree(h, code.p, 0, 0, w))


def cyclic_span(p, vec):
    """The cyclic code spanned by vec and all its shifts."""
    return LinearCode(p, len(vec), [np.roll(vec, i) for i in range(len(vec))])


def test_dual_examples():
    full = LinearCode.full_space(2, 5)
    assert full.euclidean_dual().k == 0
    rep = LinearCode(2, 6, [[1] * 6])
    even = rep.euclidean_dual()
    assert even.k == 5
    words = even.generator
    assert ((words.sum(axis=1) % 2) == 0).all()


def test_dual_involution_random():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = (2, 3, 5)[int(rng.integers(0, 3))]
        n = int(rng.integers(2, 12))
        code = random_code(rng, p, n, int(rng.integers(1, n + 1)))
        dual = code.euclidean_dual()
        assert code.k + dual.k == n
        assert dual.euclidean_dual() == code
        assert ((code.generator @ dual.generator.T) % p == 0).all()


def test_a_linear_code_is_the_additive_code_of_its_profile():
    rng = np.random.default_rng(7)
    for trial in range(60):
        p = (2, 3, 5)[trial % 3]
        n = int(rng.integers(1, 10))
        rows = rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n))
        code, additive = LinearCode(p, n, rows), AdditiveCode(BlockProfile(p, n, 0, 0), rows)
        assert code == additive and additive == code and hash(code) == hash(additive)
        assert code.generator is code.basis and code.k == additive.rank
        # u acts as 0 and the form is u^2 times the dot product: the duals agree
        assert code.dual() == code.euclidean_dual()
    with pytest.raises(ProfileMismatch):
        LinearCode(2, 0, [])


def test_parity_check_orthogonality():
    rng = np.random.default_rng(4)
    for _ in range(40):
        p = (2, 3, 13)[int(rng.integers(0, 3))]
        code = random_code(rng, p, int(rng.integers(2, 10)), 3)
        h = code.parity_check
        assert ((code.generator @ h.T) % p == 0).all()
        # standard form: the identity on the free columns, spanning the whole kernel
        free = [c for c in range(code.n) if c not in code.pivots]
        assert (h[:, free] == np.eye(len(free))).all()
        assert (rref(h, p)[0] == kernel_basis(code.generator, p)).all()


def test_min_distance_repetition():
    for n in (3, 5, 8):
        rep = LinearCode(2, n, [[1] * n])
        assert rep.min_distance(search_cap=n) == n


def test_min_distance_edge_cases():
    assert LinearCode.full_space(5, 4).min_distance() == 1
    with pytest.raises(ZprsError):
        LinearCode.zero(2, 4).min_distance()
    # zero column in the parity check = an unchecked coordinate
    code = LinearCode(2, 3, [[1, 0, 0], [0, 1, 1]])
    assert code.min_distance() == 1


def test_min_distance_matches_enumeration_oracle():
    # at cap n and at cap 2, where every d > 2 lies past the cap and is enumerated
    rng = np.random.default_rng(77)
    checked = past_cap = 0
    while checked < 80:
        p = (2, 3, 5, 7)[checked % 4]
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n, 8) + 1))
        if p ** k > 2 ** 14:
            continue
        code = random_code(rng, p, n, k)
        if code.k == 0:
            continue
        d_search = code.min_distance(search_cap=n)
        d_oracle = min_distance_by_enumeration(code)
        assert d_search == d_oracle == LinearCode(p, n, code.generator).min_distance(2)
        assert d_search <= code.n - code.k + 1          # Singleton
        checked += 1
        past_cap += d_oracle > 2
    assert past_cap >= 20, past_cap


def test_min_distance_cap_and_fallback():
    # cap too small but p^k small: falls back to enumeration
    rep = LinearCode(2, 9, [[1] * 9])
    assert rep.min_distance(search_cap=2) == 9
    # cap too small and p^k too large: certified lower bound
    rng = np.random.default_rng(5)
    big = LinearCode(3, 30, rng.integers(0, 3, size=(19, 30)))
    assert big.size > 2 ** 20
    if big.min_distance(search_cap=30) > 1:   # make sure d really exceeds 1
        for cap in (1, 0, -3):      # a cap below 1 searches weight 1 as cap 1 does
            with pytest.raises(DistanceNotDetermined) as err:
                big.min_distance(search_cap=cap)
            assert err.value.lower_bound == 2
    for cap in (2.5, "3", None):
        with pytest.raises(MalformedInput, match="search_cap"):
            rep.min_distance(search_cap=cap)


def test_a_second_min_distance_call_runs_no_search(monkeypatch):
    # a code that is no Plotkin sum is its own half: its distances, searched or
    # enumerated past the cap, are memoized like a half's
    import zprs.linear as linear
    searched, search = [], linear._smallest_dependent_subset
    enumerated, enumerate_ = [], linear.min_distance_by_enumeration
    monkeypatch.setattr(linear, "_smallest_dependent_subset",
                        lambda h, *args: searched.append(args[1]) or search(h, *args))
    monkeypatch.setattr(linear, "min_distance_by_enumeration",
                        lambda code: enumerated.append(code.n) or enumerate_(code))
    hamming = LinearCode(2, 7, [np.roll([1, 1, 0, 1, 0, 0, 0], i) for i in range(4)])
    assert hamming.min_distance() == hamming.min_distance() == 3
    rep = LinearCode(2, 9, [[1] * 9])
    assert rep.min_distance(search_cap=2) == rep.min_distance(search_cap=2) == 9
    assert (searched, enumerated) == ([4, 2], [9])


def test_choose_column_refuses_a_zero_column():
    # a zero column is a dependency smaller than the round's subset size, which the
    # earlier deepening rounds rule out: a bug, never a column to skip
    from zprs.linear import _choose_column
    mat = np.array([[1, 0, 2], [0, 0, 1]], dtype=np.int64)
    assert _choose_column(mat, 3, 0).tolist() == [[0, 0, 0], [0, 0, 1]]
    with pytest.raises(AssertionError, match="reduced to zero"):
        _choose_column(mat, 3, 1)


def test_min_distance_matches_the_unbatched_reference():
    rng = np.random.default_rng(31)
    codes = []
    for _ in range(120):
        p = (2, 3, 5, 7, 13)[int(rng.integers(0, 5))]
        n = int(rng.integers(3, 15))
        codes.append(random_code(rng, p, n, int(rng.integers(1, n))))
    # zero, repeated and proportional columns in the generator, and through the
    # dual in the parity check; 65537 is above the cached inverse table
    for p in (2, 3, 5, 7, 13, 65537):
        for _ in range(6):
            n, k = int(rng.integers(3, 9)), int(rng.integers(1, 5))
            m = rng.integers(0, p, size=(k, n))
            picked = rng.integers(0, n, size=3)
            g = np.hstack([m, np.zeros((k, 1), dtype=np.int64), m[:, picked[:1]],
                           m[:, picked] * rng.integers(1, p, size=3) % p])
            code = LinearCode(p, n + 5, g)
            codes += [c for c in (code, code.euclidean_dual()) if c.k]
    for code in codes:
        assert code.min_distance(search_cap=code.n) == reference_distance(code), \
            (code.p, code.generator)


def test_pair_check_runs_in_bounded_memory():
    # the pair check compares blocks of columns: one (499, 250, 500) int64 array
    # crossing every column with every later one is 476 MiB and does not fit
    # twice in 1 GB of address space, and even as booleans it is over 32 MiB
    import zprs
    paths = [str(Path(zprs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import numpy as np\n"
        "from zprs import LinearCode\n"
        "from zprs.errors import DistanceNotDetermined\n"
        "import tracemalloc\n"
        "code = LinearCode(17, 500, np.random.default_rng(0).integers(0, 17, (250, 500)))\n"
        "code.parity_check\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    code.min_distance(2)\n"
        "except DistanceNotDetermined as exc:\n"
        "    print(exc.lower_bound, tracemalloc.get_traced_memory()[1] < 32 << 20)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env)
    assert (out.returncode, out.stdout.strip()) == (0, "3 True"), out.stderr[-2000:]


def recorded_starts(monkeypatch):
    """The ``starts`` argument of every ``_smallest_dependent_subset`` call from now on."""
    import zprs.linear as linear
    starts, search = [], linear._smallest_dependent_subset
    monkeypatch.setattr(linear, "_smallest_dependent_subset",
                        lambda h, *args: starts.append(args[-1]) or search(h, *args))
    return starts


def test_cyclic_codes_start_from_column_0_and_match_the_reference(monkeypatch):
    # random cyclic codes: each is found cyclic and searched from column 0 alone
    starts = recorded_starts(monkeypatch)
    rng = np.random.default_rng(32)
    for _ in range(80):
        p = (2, 3, 5, 13)[int(rng.integers(0, 4))]
        n = int(rng.integers(4, 13))
        code = cyclic_span(p, rng.integers(0, p, size=n) * (rng.random(n) < 0.6))
        if code.k == 0:
            continue
        starts.clear()
        assert code.is_cyclic()
        assert code.min_distance(search_cap=n) == reference_distance(code)
        assert starts == [1]


def test_min_distance_of_classic_cyclic_codes_matches_the_reference(monkeypatch):
    # the binary [7, 4, 3] Hamming, ternary [11, 6, 5] Golay and binary [15, 7, 5] BCH
    # codes, each searched from column 0 alone
    starts = recorded_starts(monkeypatch)
    for p, n, g, d in ((2, 7, [1, 1, 0, 1], 3), (3, 11, [2, 0, 1, 2, 1, 1], 5),
                       (2, 15, [1, 0, 0, 0, 1, 0, 1, 1, 1], 5)):
        code = cyclic_span(p, np.array(g + [0] * (n - len(g))))
        assert code.min_distance(search_cap=n) == reference_distance(code) == d
    assert starts == [1, 1, 1]


def test_a_code_that_is_not_cyclic_is_searched_from_every_column(monkeypatch):
    # C1 + C2 on two blocks of 4: the repetition code (d = 4) on the first, the
    # even-weight code (d = 2) on the second; every weight-2 word lies off column 0
    starts = recorded_starts(monkeypatch)
    rows = [[1, 1, 1, 1, 0, 0, 0, 0]] + [[0] * 4 + list(np.roll([1, 4, 0, 0], i))
                                         for i in range(3)]
    code = LinearCode(5, 8, rows)
    assert not code.is_cyclic() and reference_distance(code) == 2
    assert code.min_distance() == 2 and starts == [8]


def test_cyclic_verdicts_are_kept_per_code(monkeypatch):
    # the shift maps the cyclic [7, 4, 3] code into itself but not a code with one
    # word of weight 2: one row-space product per code, in either order; for a Plotkin
    # sum the verdict is per half
    import zprs.linear as linear
    calls, in_row_space = [], linear.linalg.in_row_space
    monkeypatch.setattr(linear.linalg, "in_row_space",
                        lambda *args: calls.append(args) or in_row_space(*args))
    for cyclic_first in (True, False):
        hamming = cyclic_span(2, np.array([1, 1, 0, 1, 0, 0, 0]))
        other = LinearCode(2, 7, [[1, 1, 0, 0, 0, 0, 0]])
        calls.clear()
        for code in (hamming, other) if cyclic_first else (other, hamming):
            for _ in range(2):
                assert code.is_cyclic() == (code is hamming)
                assert code.min_distance() == (3 if code is hamming else 2)
        assert len(calls) == 2
    cyclic = plotkin_example()
    assert [half.is_cyclic() for half in cyclic._plotkin[:2]] == [True, True]
    assert not LinearCode(5, 12, cyclic.generator).is_cyclic()


def outcome(code, cap):
    """min_distance at a cap: (d, True), or (the lower bound, False) if not determined."""
    try:
        return code.min_distance(search_cap=cap), True
    except DistanceNotDetermined as exc:
        return exc.lower_bound, False


def test_plotkin_sums_match_their_plain_codes():
    # {(x + y | lam x)} for random V in U, lam != kappa where Z_p has one: the closed
    # form against elimination of the spanning words (x | lam x) and (y | 0), also from
    # bases that are not in RREF, and d against the unbatched reference and, at caps
    # 1, 2 and 3, against the plain code's search
    rng = np.random.default_rng(43)
    for p in (2, 3, 5, 13):
        kappa = find_kappa(p) if p % 4 != 3 else None
        units = [a for a in range(1, p) if a != kappa] or [1]
        for trial in range(12):
            m = int(rng.integers(2, 8 if p < 13 else 5))
            u = random_code(rng, p, m, int(rng.integers(1, m + 1))).generator
            v = reference_rref(rng.integers(0, p, size=(int(rng.integers(0, len(u) + 1)),
                                                        len(u))) @ u % p, p)[0]
            lam = int(rng.choice(units))
            if trial % 3 == 0:     # reversed rows and a zero row: reduced before use
                u, v = u[::-1], np.vstack([v, np.zeros((1, m), dtype=np.int64)])
            code = LinearCode.plotkin_sum(p, u, v, lam)
            words = np.vstack([np.hstack([u, lam * u % p]), np.hstack([v, 0 * v])])
            assert np.array_equal(code.generator, reference_rref(words, p)[0])
            plain = LinearCode(p, 2 * m, words)
            assert code._plotkin is not None and plain._plotkin is None
            assert code.min_distance(search_cap=2 * m) == reference_distance(plain), (p, u, v)
            for cap in (1, 2, 3):
                assert outcome(code, cap) == outcome(plain, cap), (p, u, v, cap)


def test_plotkin_sum_refuses_what_is_not_one():
    with pytest.raises(ZprsError, match="V is not in U"):
        LinearCode.plotkin_sum(5, [[1, 0, 1]], [[0, 1, 0]], 2)
    with pytest.raises(ZprsError, match="V is not in U"):
        LinearCode.plotkin_sum(5, [[1, 2, 1]], [[1, 0, 3]], 2)   # not in RREF either
    with pytest.raises(NotAUnit):
        LinearCode.plotkin_sum(5, [[1, 0, 1]], [], 5)
    with pytest.raises(ProfileMismatch):
        LinearCode.plotkin_sum(5, [], [], 1)


def test_plotkin_halves_are_searched_within_the_cap(monkeypatch):
    # d(V) up to the cap and d(U) up to half of it, each at most its Singleton bound
    import zprs.linear as linear
    calls = []
    search = linear._smallest_dependent_subset
    monkeypatch.setattr(linear, "_smallest_dependent_subset",
                        lambda h, *args: calls.append((h.shape, args[1])) or search(h, *args))
    rng = np.random.default_rng(44)
    u = random_code(rng, 3, 12, 4).generator
    v = reference_rref(rng.integers(0, 3, size=(2, 4)) @ u % 3, 3)[0]
    singleton_u, singleton_v = 12 - len(u) + 1, 12 - len(v) + 1
    for cap in range(1, 13):
        calls.clear()   # plotkin_sum builds fresh halves, so no distance is memoized
        outcome(LinearCode.plotkin_sum(3, u, v, 2), cap)
        assert sorted(calls) == sorted([((12 - len(u), 12), min(cap // 2, singleton_u)),
                                        ((12 - len(v), 12), min(cap, singleton_v))]), cap


def plotkin_example():
    """P(U, V, 2) over Z_5 with U = < x - 1 > and V = < x^2 - 1 >, cyclic of length 6."""
    return LinearCode.plotkin_sum(5, cyclic_span(5, np.array([4, 1, 0, 0, 0, 0])).generator,
                                  cyclic_span(5, np.array([4, 0, 1, 0, 0, 0])).generator, 2)


def test_a_plotkin_half_that_is_not_cyclic_is_searched_from_every_column(monkeypatch):
    # halves among the full space, < e0, e1 > and < e0 > (not cyclic) and the zero code
    # (no search): each nonzero half searched from column 0 alone iff it is cyclic, and d
    # that of the plain code
    starts = recorded_starts(monkeypatch)
    full, e0 = np.eye(6, dtype=np.int64), [[1, 0, 0, 0, 0, 0]]
    for u, v, expected in ((full, e0, [1, 6]), (full[:2], e0, [6, 6]), (full[:2], [], [6])):
        code = LinearCode.plotkin_sum(5, u, v, 2)
        starts.clear()
        assert code.min_distance(search_cap=12) == reference_distance(
            LinearCode(5, 12, code.generator))
        assert starts == expected, (len(u), len(v))


def test_half_distances_are_memoized_per_cap(monkeypatch):
    # each cyclic half is searched from column 0 once per cap: U up to cap // 2, V up to
    # the cap, at most the Singleton bound 4 of P; a repeated cap runs no search
    starts = recorded_starts(monkeypatch)
    code = plotkin_example()   # fresh halves
    assert code.min_distance(3) == code.min_distance(3) == code.min_distance(5)
    assert starts == [1] * 4
    assert [sorted(half._memo) for half in code._plotkin[:2]] == [[1, 2], [3, 4]]


def test_shift_invariance_predicates_trivia():
    full = LinearCode.full_space(3, 6)
    assert full.is_quasi_cyclic(2)
    assert full.is_quasi_twisted(2, 3)
    assert full.is_generalized_quasi_twisted([1, 2], [2, 4])
    with pytest.raises(LengthMismatch):
        full.is_quasi_cyclic(4)
    with pytest.raises(LengthMismatch):
        full.is_generalized_quasi_twisted([1], [2, 4])


def test_quasi_twisted_reduces_to_quasi_cyclic():
    rng = np.random.default_rng(10)
    for _ in range(40):
        p = (2, 5)[int(rng.integers(0, 2))]
        code = random_code(rng, p, 8, int(rng.integers(1, 5)))
        for l in (1, 2, 4):
            assert code.is_quasi_twisted(1, l) == code.is_quasi_cyclic(l)


def test_quasi_twisted_with_one_block_is_constacyclic():
    rng = np.random.default_rng(14)
    for _ in range(40):
        p = (2, 5)[int(rng.integers(0, 2))]
        code = random_code(rng, p, 6, int(rng.integers(1, 4)))
        lam = int(rng.integers(1, p))
        assert code.is_quasi_twisted(lam, 1) == code.is_constacyclic(lam)


def test_cyclic_code_detected():
    # binary [7, 4] cyclic code generated by x^3 + x + 1
    rows = [[1, 1, 0, 1, 0, 0, 0]]
    rows = [np.roll(rows[0], i) for i in range(4)]
    code = LinearCode(2, 7, rows)
    assert code.is_cyclic()
    assert code.is_quasi_cyclic(1)
    assert code.min_distance() == 3
    # adding a violating row breaks the invariance
    bent = LinearCode(2, 7, list(code.generator) + [[1, 0, 0, 0, 0, 0, 0]])
    assert bent.k == 5 and not bent.is_cyclic()


def test_constacyclic_predicate():
    # <(1, c)> over F_5 is lambda-constacyclic exactly for lambda = c^-2
    code = LinearCode(5, 2, [[1, 2]])
    assert code.is_constacyclic(4)          # 4 = 2^-2; sigma_4(1,2) = (3,1) = 3*(1,2)
    for lam in (1, 2, 3):
        assert not code.is_constacyclic(lam)


# -- the per-row blockwise shift, kept as the reference for the one-product predicates


def reference_sigma(block, lam, p):
    if block.size == 0:
        return block
    out = np.roll(block, 1)
    out[0] = out[0] * lam % p
    return out


def reference_shift(v, lams, block_lens, p):
    out, pos = [], 0
    for lam, m in zip(lams, block_lens):
        out.append(reference_sigma(v[pos:pos + m], lam, p))
        pos += m
    return np.concatenate(out) if out else v


def reference_gqt(code, lams, block_lens):
    """Shift each generator row blockwise and test each image for membership."""
    return all(code.contains(reference_shift(row, lams, block_lens, code.p))
               for row in code.generator)


def random_split(rng, n):
    """Block lengths summing to n, zero-length blocks included."""
    cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 4))))
    return np.diff(np.r_[0, cuts, n]).astype(int).tolist()


def test_generalized_quasi_twisted_matches_the_per_row_reference():
    rng = np.random.default_rng(81)
    invariant = 0
    for trial in range(2400):
        p = (2, 3, 5, 7, 13)[trial % 5]
        n = int(rng.integers(1, 9))
        block_lens = random_split(rng, n)
        lams = [int(rng.integers(1, p)) + p * int(rng.integers(0, 2)) for _ in block_lens]
        if trial % 2:       # a random code, rarely invariant
            code = random_code(rng, p, n, int(rng.integers(0, n + 1)))
        else:               # the orbit of a few random vectors under the twisted shift
            rows = []
            for v in rng.integers(0, p, size=(int(rng.integers(1, 3)), n)):
                for _ in range(n):
                    rows.append(v)
                    v = reference_shift(v, lams, block_lens, p)
            code = LinearCode(p, n, rows)
        expected = reference_gqt(code, lams, block_lens)
        assert code.is_generalized_quasi_twisted(lams, block_lens) == expected
        invariant += expected
        other = [int(rng.integers(1, p)) for _ in block_lens]
        assert code.is_generalized_quasi_twisted(other, block_lens) \
            == reference_gqt(code, other, block_lens)
    assert invariant >= 1200


def test_cyclic_predicates_match_the_per_row_reference():
    rng, other_rng = np.random.default_rng(82), np.random.default_rng(84)
    for trial in range(200):
        p = (2, 3, 5, 7, 13)[trial % 5]
        n = int(rng.integers(1, 11))
        code = cyclic_span(p, rng.integers(0, p, size=n))
        assert code.is_cyclic() and reference_gqt(code, [1], [n])
        other = random_code(other_rng, p, n, int(other_rng.integers(0, n + 1)))   # rarely cyclic
        assert other.is_cyclic() == reference_gqt(other, [1], [n])
        for l in (l for l in range(1, n + 1) if n % l == 0):
            assert code.is_quasi_cyclic(l) == reference_gqt(code, [1] * l, [n // l] * l)
            lam = int(rng.integers(1, p))
            assert code.is_quasi_twisted(lam, l) == reference_gqt(code, [lam] * l, [n // l] * l)
            assert code.is_constacyclic(lam) == reference_gqt(code, [lam], [n])


def test_gray_images_are_quasi_twisted_by_the_per_row_reference():
    # the classification of acceptance criterion 9e, compared with the reference,
    # with the right twists and with other units
    rng = np.random.default_rng(83)
    for trial in range(60):
        p = (2, 5, 13)[trial % 3]
        q, r, s = (int(rng.integers(1, 4)) for _ in range(3))
        q, r, s = ((0, r, 0), (0, 0, s), (q, r, s))[trial // 3 % 3]
        mu = [int(rng.integers(1, p)) for _ in range(3)]
        pr = BlockProfile(p, q, r, s)
        code = shift_module_span([unflatten(rng.integers(0, p, size=pr.n), pr)],
                                 *(m if b else 1 for m, b in zip(mu, (q, r, s))), profile=pr)
        image = GrayMap(p).image(code)
        block_lens = [q, r, r, s, s, s]
        for twist in (mu, [int(rng.integers(1, p)) for _ in range(3)]):
            lams = [twist[0], twist[1], twist[1], twist[2], twist[2], twist[2]]
            expected = reference_gqt(image, lams, block_lens)
            assert image.is_generalized_quasi_twisted(lams, block_lens) == expected
            if twist is mu:
                assert expected
        if q == s == 0:
            assert image.is_quasi_twisted(mu[1], 2) == reference_gqt(image, [mu[1]] * 2, [r] * 2)
        if q == r == 0:
            assert image.is_quasi_twisted(mu[2], 3) == reference_gqt(image, [mu[2]] * 3, [s] * 3)


def test_predicates_refuse_a_non_unit_twist_and_a_negative_block():
    code = LinearCode(5, 4, [[1, 2, 3, 4]])
    with pytest.raises(NotAUnit):
        code.is_constacyclic(0)
    with pytest.raises(NotAUnit):
        code.is_quasi_twisted(0, 2)
    with pytest.raises(NotAUnit):
        code.is_quasi_twisted(10, 4)
    with pytest.raises(NotAUnit):
        code.is_generalized_quasi_twisted([0, 1], [0, 4])   # even on an empty block
    full = LinearCode.full_space(5, 4)
    with pytest.raises(LengthMismatch):
        full.is_generalized_quasi_twisted([1, 1], [-1, 5])
    for l in (0, -2):
        with pytest.raises(LengthMismatch):
            full.is_quasi_twisted(1, l)
    assert full.is_generalized_quasi_twisted([1, 2, 3], [0, 4, 0])
    assert full.is_quasi_twisted(np.int64(2), 2)           # numpy integers are units too
