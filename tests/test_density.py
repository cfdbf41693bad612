import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsap import density, geometry
from epsap.density import (
    apk_free_set,
    build_behrend_digit_set,
    build_cube_blowup,
    find_dense_translate,
    product_free_set,
    verify_cube_free,
)
from epsap.errors import Budget, MemoryGuardExceeded, SearchCapExceeded
from epsap.geometry import IndexedGrid, check_points, narrowed, recognize_ap, recognize_cube
from epsap.search import find_eps_ap_in_points, max_exact_ap_free
import oracles
from oracles import brute_force_cubes, fraction_verify_cube_free, has_exact_ap

F = Fraction


# ---------------------------------------------------------------------------
# Progression-free providers
# ---------------------------------------------------------------------------

def test_exact_provider_examples():
    assert apk_free_set(0, 4, 3) == (0, 1, 3, 4)
    assert apk_free_set(2, 3, 3) == (2, 3)


def test_exact_provider_translation():
    assert apk_free_set(10, 14, 3) == tuple(x + 10 for x in apk_free_set(0, 4, 3))


def test_exact_provider_is_maximum():
    # brute force over all subsets of a small interval
    n, k = 9, 3
    best = 0
    for size in range(n, 0, -1):
        if any(not has_exact_ap(sub, k) for sub in combinations(range(n), size)):
            best = size
            break
    assert len(apk_free_set(0, n - 1, k)) == best


def test_exact_provider_refuses_a_capped_search(monkeypatch):
    import epsap.density as density
    from epsap.search import max_exact_ap_free

    monkeypatch.setattr(density, "max_exact_ap_free",
                        lambda n, k: max_exact_ap_free(n, k, work_cap=100))
    assert apk_free_set(0, 4, 3) == (0, 1, 3, 4)
    with pytest.raises(SearchCapExceeded, match="^exact provider hit the work cap on 21"):
        apk_free_set(0, 20, 3)


def test_greedy_provider_is_free():
    got = density._greedy(60, 4, Budget(10 ** 6))
    assert got and not has_exact_ap(got, 4)


def test_greedy_provider_is_capped(monkeypatch):
    # First fit on [0, 60] for k = 4 tries 444 differences, each one unit
    # of a budget that every call gets anew.
    full = density._greedy(61, 4, Budget(10 ** 6))
    monkeypatch.setattr(density, "DEFAULT_WORK_CAP", 444)
    assert apk_free_set(0, 60, 4) == apk_free_set(0, 60, 4) == full
    monkeypatch.setattr(density, "DEFAULT_WORK_CAP", 443)
    with pytest.raises(SearchCapExceeded) as info:
        apk_free_set(0, 60, 4)
    assert str(info.value) == (
        "greedy provider hit the work cap of 443 differences tried on 61 elements")


def test_behrend3_provider_is_free():
    for n in (10, 50, 200):
        got = density._behrend3(n)
        assert got and not has_exact_ap(got, 3)
        assert all(0 <= x < n for x in got)


def test_behrend3_equals_the_loop_that_tried_one_digit():
    # one digit gives singleton spheres, which never beat the starting (0,)
    for n in (*range(1025), 3000, 4096, 10 ** 5):
        assert density._behrend3(n) == oracles.behrend3_from_one_digit(n), n


@pytest.mark.parametrize("lo, hi, k, provider", [
    (0, 4, 3, "exact"), (0, 59, 20, "exact"), (7, 66, 30, "exact"),
    (0, 60, 3, "behrend3"), (3, 202, 3, "behrend3"),
    (0, 60, 4, "greedy"), (5, 104, 6, "greedy"),
])
def test_provider_is_picked_by_size_alone(lo, hi, k, provider):
    # exact up to EXACT_CAP = 60 elements, then behrend3 for k = 3, else greedy
    n = hi - lo + 1
    expected = {
        "exact": lambda: tuple(x - 1 for x in max_exact_ap_free(n, k).witness),
        "behrend3": lambda: density._behrend3(n),
        "greedy": lambda: density._greedy(n, k, Budget(10 ** 6)),
    }[provider]()
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    with mock.patch.object(density, "max_exact_ap_free",
                           spy("exact", density.max_exact_ap_free)), \
            mock.patch.object(density, "_behrend3", spy("behrend3", density._behrend3)), \
            mock.patch.object(density, "_greedy", spy("greedy", density._greedy)):
        got = apk_free_set(lo, hi, k)
    assert calls == [provider]
    assert got == tuple(x + lo for x in expected)
    assert not has_exact_ap(got, k)


# ---------------------------------------------------------------------------
# Digit construction
# ---------------------------------------------------------------------------

def test_digit_q_at_boundary():
    spec, _ = build_behrend_digit_set(F(1, 125), 1)
    assert spec.q == 5


def test_digit_h2_exact_members():
    spec, members = build_behrend_digit_set(F(1, 125), 2)
    assert spec.head == (0, 1, 3, 4) and spec.tail == (2, 3)
    assert members == (2, 3, 7, 8, 17, 18, 22, 23)
    assert len(members) == spec.size == 8


def test_digit_h1_degenerates_to_head():
    spec, members = build_behrend_digit_set(F(1, 125), 1)
    assert members == spec.head


@pytest.mark.parametrize("eps, h", [(F(1, 125), 4), (F(1, 250), 3), (F(1, 150), 6)])
def test_digit_members_are_the_digit_expansions(eps, h):
    spec, members = build_behrend_digit_set(eps, h)
    assert members == oracles.power_sum_digit_set(spec.q, h, spec.head, spec.tail)


def test_digit_members_equal_the_power_sums():
    for eps, h, k, one_based in product((F(1, 125), F(1, 250), F(1, 500), F(1, 2500)),
                                        (1, 2, 3), (3, 4), (False, True)):
        spec, members = build_behrend_digit_set(eps, h, k, one_based=one_based)
        want = oracles.power_sum_digit_set(spec.q, h, spec.head, spec.tail)
        assert members == tuple(x + one_based for x in want)


def test_digit_guard_refuses_only_unprintable_members(monkeypatch):
    # q = 6, head {0, 1, 3, 4}, tail {3}: the largest member has 4300
    # decimal digits at h = 5526 and 4301 at h = 5527
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    for one_based in (False, True):
        _, members = build_behrend_digit_set(F(1, 150), 5526, one_based=one_based)
        assert len(members) == 4 and len(str(members[-1])) == 4300
        with pytest.raises(MemoryGuardExceeded, match="exceeds materialize cap"):
            build_behrend_digit_set(F(1, 150), 5527, one_based=one_based)


def test_digit_eps_out_of_range():
    with pytest.raises(ValueError):
        build_behrend_digit_set(F(1, 100), 2)


def test_digit_sets_have_no_approximate_progression():
    eps = F(1, 125)
    for h in (1, 2):
        _, members = build_behrend_digit_set(eps, h)
        shifted = tuple(x + 1 for x in members)  # recognizer wants >= 2 pts anyway
        assert find_eps_ap_in_points(shifted, 3, eps) is None


def test_digit_gap_separation():
    # pairs of consecutive members with the same leading distinct digit index
    # but different digit gaps have element gaps at least q^j0 / 5 apart
    spec, members = build_behrend_digit_set(F(1, 125), 3)
    q = spec.q

    def digits(x):
        return [(x // q ** i) % q for i in range(spec.h)]

    pair_info = []
    for u1, u2 in zip(members, members[1:]):
        du1, du2 = digits(u1), digits(u2)
        j0 = max(j for j in range(spec.h) if du1[j] != du2[j])
        pair_info.append((j0, abs(du2[j0] - du1[j0]), u2 - u1))
    for (j0, g1, gap1), (j0b, g2, gap2) in combinations(pair_info, 2):
        if j0 == j0b and g1 != g2:
            assert abs(gap1 - gap2) * 5 >= q ** j0


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_product_m1_is_the_set_itself():
    assert product_free_set([2, 5], 1, 6) == ((2,), (5,))


def test_product_size_and_projection():
    s = product_free_set([1, 2, 4], 2, 5)
    assert len(s) == 3 * 5
    assert sorted({p[0] for p in s}) == [1, 2, 4]


def test_product_validates_range():
    with pytest.raises(ValueError):
        product_free_set([0, 2], 2, 5)


@pytest.mark.parametrize("A", [[], [1, 2]])
def test_product_refuses_a_negative_N_for_any_A(A):
    with pytest.raises(ValueError, match="need m >= 1 and N >= 0"):
        product_free_set(A, 2, -3)


@pytest.mark.parametrize("A", [[1.5, True], [2, 2.0], [True]])
def test_product_refuses_non_integer_points(A):
    with pytest.raises(ValueError, match="must be integer 1-tuples"):
        product_free_set(A, 2, 2)


# ---------------------------------------------------------------------------
# Cube blow-up
# ---------------------------------------------------------------------------

def test_cube_blowup_r1_is_the_lattice():
    spec = build_cube_blowup(2, 3, F(1, 2), F(17, 18))  # alpha > (k^m-1)/k^m
    assert spec.r == 1
    assert spec.elements == tuple(sorted(product(range(3), repeat=2)))


def test_cube_blowup_r_formula():
    spec = build_cube_blowup(1, 3, F(1, 3), F(1, 2))
    assert spec.r == 2  # ceil(ln 2 / ln(3/2))


def test_cube_blowup_r_bound_sweep():
    import math

    for k, m, alpha in ((3, 1, F(1, 2)), (3, 2, F(4, 5)), (4, 1, F(1, 3))):
        spec = build_cube_blowup(m, k, F(1, 2), alpha,
                                 cap=10 ** 7)
        assert spec.r < 2 * k ** m * math.log(1 / float(alpha)) + 1e-9
        assert len(spec.elements) == k ** (spec.r * m)
        assert all(0 <= c < spec.n0_bound for p in spec.elements for c in p)


def test_cube_blowup_matches_1d_blowup():
    from epsap.colorings import build_blowup_1d

    spec = build_cube_blowup(1, 3, F(1, 3), F(1, 2))
    line = build_blowup_1d(3, spec.r, F(1, 3))
    assert spec.t == line.t
    assert spec.elements == tuple((x,) for x in line.elements)


def test_cube_blowup_cap_names_r():
    with pytest.raises(MemoryGuardExceeded, match="r="):
        build_cube_blowup(2, 3, F(1, 2), F(1, 2), cap=1000)


@pytest.mark.parametrize("m, k", [(1, 3), (1, 4), (2, 3), (2, 4), (1, 6), (2, 6)])
def test_cube_blowup_r_is_exact_at_a_power(m, k):
    # alpha = (1 - 1/k^m)^n needs exactly n iterations; the float ratio of
    # logarithms read one more at most of these
    size = k ** m
    for n in range(1, 4):
        alpha = F(size - 1, size) ** n
        spec = build_cube_blowup(m, k, F(1, 2), alpha, cap=size ** n)
        assert spec.r == n
        assert build_cube_blowup(m, k, F(1, 2), alpha * F(999, 1000),
                                 cap=size ** (n + 1)).r == n + 1


@pytest.mark.parametrize("m, k, alpha, cap, message", [
    (100, 3, F(4, 5), density.CUBE_BLOWUP_CAP, "blow-up size k^m = 3^100 exceeds cap 200000"),
    (2, 3, F(1, 2), 1000, "blow-up needs r=6 iterations, k^(r*m) = 3^12 exceeds cap 1000"),
    (1, 3, F(1, 10 ** 400), density.CUBE_BLOWUP_CAP,
     "blow-up needs r=2272 iterations, k^(r*m) = 3^2272 exceeds cap 200000"),
])
def test_cube_blowup_refuses_without_the_power(m, k, alpha, cap, message):
    with pytest.raises(MemoryGuardExceeded) as err:
        build_cube_blowup(m, k, F(1, 2), alpha, cap=cap)
    assert str(err.value) == message


def test_product_is_capped_before_it_is_built(monkeypatch):
    with pytest.raises(MemoryGuardExceeded) as err:
        product_free_set([1, 2, 4], 3, 10 ** 5)
    assert str(err.value) == (
        "product size |A|*N^(m-1) = 3*100000^2 exceeds materialize cap 50000000")
    monkeypatch.setattr(density, "DEFAULT_MATERIALIZE_CAP", 48)
    assert len(product_free_set([1, 2, 4], 3, 4)) == 48
    with pytest.raises(MemoryGuardExceeded):
        product_free_set([1, 2, 4], 3, 5)


@pytest.mark.parametrize("m, k", [(2, 3), (2, 7), (3, 4), (5, 3), (6, 3), (7, 3)])
def test_cube_blowup_base_matches_the_float_formula(m, k):
    # for a non-square m, k*sqrt(m)/eps is irrational, so the float formula
    # that the integer rule replaced rounds to the same ceiling on small cells
    size = k ** m
    for q in range(2, 25):
        for p in range(1, q):
            e = F(p, q)
            spec = build_cube_blowup(m, k, e, F(size - 1, size))  # r = 1
            assert spec.t == math.ceil(k * math.sqrt(m) / float(e))


def test_cube_blowup_refuses_colliding_digits():
    # t = ceil(3 sqrt(2) / (5/2)) = 2 < k: the 81 digit vectors give 49 points
    with pytest.raises(ValueError, match=(
            "^eps=5/2 gives digit base t=2 < k=3; blow-up digits would collide$")):
        build_cube_blowup(2, 3, F(5, 2), F(4, 5))


def test_cube_blowup_equals_the_power_sums():
    built = refused = 0
    for m, k, eps, alpha in product((1, 2, 3), (3, 4), (F(1, 4), F(1, 2), F(1), F(5, 2)),
                                    (F(1, 2), F(4, 5), F(9, 10))):
        try:
            spec = build_cube_blowup(m, k, eps, alpha)
        except MemoryGuardExceeded:
            continue
        except ValueError as err:
            assert "blow-up digits would collide" in str(err)
            refused += 1
            continue
        built += 1
        assert spec.elements == oracles.power_sum_cube_blowup(m, k, spec.r, spec.t)
        assert spec.blocks() == oracles.power_sum_cube_blocks(m, k, spec.r, spec.t)
    assert (built, refused) == (39, 5)


def test_cube_blowup_transversals_recognized_dim1():
    # one point per block forms an approximate progression, exactly checkable
    spec = build_cube_blowup(1, 3, F(1, 3), F(1, 2))
    blocks = spec.blocks()
    rng = random.Random(2)
    for _ in range(30):
        pts = tuple(sorted(rng.choice(blk)[0] for _, blk in blocks))
        assert recognize_ap(pts, F(1, 3)) is not None


# ---------------------------------------------------------------------------
# Dense translates
# ---------------------------------------------------------------------------

def test_translate_full_grid():
    full = list(product(range(1, 4), repeat=2))
    res = find_dense_translate([(1, 1), (2, 3)], full, 3, 2)
    assert res.count == 2
    assert res.count >= res.bound


def test_translate_average_identity():
    rng = random.Random(9)
    n, m = 4, 2
    a_pts = rng.sample(list(product(range(1, n + 1), repeat=m)), 3)
    x_pts = rng.sample(list(product(range(1, n + 1), repeat=m)), 7)
    x_set = set(x_pts)
    total = 0
    for u in product(range(-n + 1, n + 1), repeat=m):
        total += sum(1 for p in a_pts
                     if tuple(c + s for c, s in zip(p, u)) in x_set)
    assert total == len(a_pts) * len(x_pts)


def test_translate_crafted_half_density():
    x_pts = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4)]
    res = find_dense_translate([(1, 1), (2, 2)], x_pts, 4, 2)
    assert res.count >= 1
    assert F(res.count) >= res.bound


@st.composite
def _translate_cases(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    cell = st.tuples(*[st.integers(1, n)] * m)
    return (draw(st.sets(cell, min_size=1, max_size=8)),
            draw(st.sets(cell, max_size=12)), n, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_translate_cases())
# shifts 1 and 4 both get 2 votes, after shift 0 got 1: the first maximum wins
@example(({(1,), (2,)}, {(2,), (3,), (5,), (6,)}, 6, 1))
@example(({(2, 3)}, set(), 4, 2))  # no vote at all
@example(({(1, 1, 1), (2, 2, 2)}, {(1, 1, 1), (2, 2, 2), (3, 3, 3)}, 3, 3))
def test_translate_equals_the_scan_oracle(case):
    A, X, n, m = case
    assert tuple(find_dense_translate(A, X, n, m)) == oracles.scan_dense_translate(A, X, n, m)


def test_translate_answers_at_a_cap_of_one_unit_per_pair():
    a_pts, x_pts = [(1, 1), (2, 3)], list(product(range(1, 4), repeat=2))
    res = find_dense_translate(a_pts, x_pts, 3, 2, work_cap=18)
    assert tuple(res) == ((0, 0), 2, F(1, 2))


def test_translate_refuses_a_cap_one_below_the_pairs_before_any_vote(monkeypatch):
    def no_vote(a, x_pts):
        raise AssertionError("a vote was counted")

    monkeypatch.setattr(density, "_votes", no_vote)
    x_pts = list(product(range(1, 4), repeat=2))
    with pytest.raises(SearchCapExceeded, match="search work cap of 17 exceeded"):
        find_dense_translate([(1, 1), (2, 3)], x_pts, 3, 2, work_cap=17)


def test_translate_refuses_n_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"need N >= 1, got N={n}"):
            find_dense_translate([(1, 1)], [(1, 1)], n, 2)


def test_translate_rejects_out_of_range():
    with pytest.raises(ValueError):
        find_dense_translate([(0, 0)], [(1, 1)], 4, 2)


# ---------------------------------------------------------------------------
# Cube search
# ---------------------------------------------------------------------------

def test_cube_search_finds_standard_lattice():
    s = list(product(range(3), repeat=2))
    hit = verify_cube_free(s, 2, 3, F(1, 4))
    assert hit is not None
    grid, decision = hit
    assert decision.exact and decision.witness.residual > 0


def test_cube_search_digit_product_is_free():
    _, members = build_behrend_digit_set(F(1, 125), 1, one_based=True)
    s = product_free_set(members, 2, 5)
    assert verify_cube_free(s, 2, 3, F(1, 125)) is None


def test_cube_search_digit_product_is_free_h2():
    _, members = build_behrend_digit_set(F(1, 125), 2, one_based=True)
    s = product_free_set(members, 2, 25)
    assert verify_cube_free(s, 2, 3, F(1, 125)) is None


def _behrend_members(h):
    return build_behrend_digit_set(F(1, 125), h, one_based=True)[1]


@pytest.mark.parametrize("A, m, N, axis", [
    (max_exact_ap_free(6, 3).witness, 2, 6, 0),
    (max_exact_ap_free(8, 3).witness, 3, 8, 0),
    (max_exact_ap_free(8, 3).witness, 3, 8, 2),
    (_behrend_members(1), 2, 5, 1),
    (_behrend_members(1), 3, 5, 0),
    (_behrend_members(2), 3, 25, 1),
])
def test_cube_search_settles_a_free_product_by_its_axes(A, m, N, axis):
    # An axis-j line of a cube would be a 1-D eps-progression of A, held on
    # axis j, so the search answers before the cube listing starts.
    points = [p[m - axis:] + p[:m - axis] for p in product_free_set(A, m, N)]
    with mock.patch.object(density, "_cubes", side_effect=AssertionError("listed")):
        assert verify_cube_free(points, m, 3, F(1, 125)) is None
    if len(points) <= 200:  # the listing it skips agrees
        listed = geometry._cubes(check_points(points, m), m, 3, F(1, 125), Budget(10 ** 5))
        assert next(listed, None) is None


def test_cube_search_axis_check_spends_the_search_budget():
    # [6] x {1, 2, 4, 5}: the stream on axis 0 finds (1, 2, 3), the one on
    # axis 1 none, in 10 nodes of one budget.
    points = [(b, a) for a, b in product_free_set((1, 2, 4, 5), 2, 6)]
    assert verify_cube_free(points, 2, 3, F(1, 10), work_cap=10) is None
    with pytest.raises(SearchCapExceeded, match="^search work cap of 9 exceeded$"):
        verify_cube_free(points, 2, 3, F(1, 10), work_cap=9)


def test_cube_search_lists_cubes_at_eps_one_half():
    # From eps = 1/2 on there is no axis check (the 1-D stream takes eps
    # below 1/2), so the query goes to the listing and gets its answer: a
    # cube, as A holds (1, 2, 4).
    points = product_free_set((1, 2, 4, 5), 2, 5)
    with mock.patch.object(density, "_cubes", wraps=geometry._cubes) as cubes:
        hit = verify_cube_free(points, 2, 3, F(1, 2))
    listed = geometry._cubes(points, 2, 3, F(1, 2), Budget(10 ** 6))
    assert cubes.call_count == 1
    assert hit is not None and hit == next(listed)


def test_cube_search_with_too_few_points_builds_no_slots():
    # too few points answer before the k^m slots are listed (160,000 here;
    # 1050^3 for `verify set --m 3 --k 1050` would not fit in memory)
    tracemalloc.start()
    try:
        assert verify_cube_free([(1, 2), (3, 4)], 2, 400, F(1, 4)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@st.composite
def _cube_search_inputs(draw):
    """Up to k^m + 6 points in a small box: a jittered lattice, sometimes
    with a point missing, plus free points; eps on both sides of 1/2 (eps >=
    1/2 reaches the zero and negative coefficient cases)."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    eps = draw(st.sampled_from([F(1, 10), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3)]))
    scale = draw(st.integers(1, 3))
    amp = draw(st.integers(0, 1))
    jitter = st.integers(-amp, amp)
    pts = [tuple(scale * c + draw(jitter) for c in v)
           for v in product(range(k), repeat=m)]
    pts = pts[draw(st.integers(0, 1)):]
    side = scale * k
    pts += draw(st.lists(st.tuples(*[st.integers(-1, side)] * m), max_size=6))
    cap = draw(st.sampled_from([2, 10, 60, 400]))
    return draw(st.permutations(pts)), m, k, eps, cap


def _cube_search_outcome(search, module, pts, m, k, eps, cap):
    """The hit, or the error, of one search, with the nodes it spent: the
    Budget the search module builds is swapped for one that is recorded."""
    budgets = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    with mock.patch.object(module, "Budget", Recorded):
        try:
            hit = search(pts, m, k, eps, work_cap=cap)
        except Exception as exc:  # the caller compares type and message
            outcome = type(exc), str(exc)
        else:
            outcome = hit and (sorted(hit[0].assignment.items()), hit[1])
    return outcome, [b.spent for b in budgets]


_WHOLE = 100_000  # a cap the searches below finish under


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_cube_search_inputs())
# A x [6] for a progression-free A: the axis check answers in 6 nodes, the
# oracle runs out at 60 and finishes at 177.
@example((list(product((1, 2, 4, 5), range(1, 7))), 2, 3, F(1, 10), 60))
def test_cube_search_matches_fraction_oracle(case):
    # The axis check spends the search's budget too, so the search may run
    # out where the oracle finishes.  Under a cap both finish under, they give
    # the same hit, scale and residual, None or error; under the drawn cap the
    # search gives the oracle's uncapped answer or SearchCapExceeded.
    pts, m, k, eps, cap = case
    oracle, oracle_spent = _cube_search_outcome(fraction_verify_cube_free, oracles, *case)
    capped, spent = _cube_search_outcome(verify_cube_free, density, *case)
    ran_out = (SearchCapExceeded, f"search work cap of {cap} exceeded")
    if m == 1 or 2 * eps >= 1:  # no axis check: the same search, node for node
        assert (capped, spent) == (oracle, oracle_spent)
    if oracle != ran_out:  # the oracle's uncapped answer
        assert capped in (oracle, ran_out)
        whole, _ = _cube_search_outcome(verify_cube_free, density, pts, m, k, eps, _WHOLE)
        assert whole == oracle
    elif capped != ran_out:  # the axis check answered; the search it skipped agrees
        listed = geometry._cubes(check_points(pts, m), m, k, eps, Budget(_WHOLE))
        assert (capped, next(listed, None)) == (None, None)


@st.composite
def _cube_listing_inputs(draw):
    """The cube search's inputs, or as many random points in a small box,
    as the sorted distinct points a listing takes, with caps that stop some
    listings and leave others whole."""
    pts, m, k, eps, _ = draw(_cube_search_inputs())
    if draw(st.booleans()):
        box = st.integers(0, draw(st.integers(k, 3 * k)))
        pts = draw(st.lists(st.tuples(*[box] * m), min_size=k ** m, max_size=k ** m + 6))
    cap = draw(st.sampled_from([2, 10, 60, 400, 3000]))
    return check_points(pts, m), m, k, eps, cap


def _cube_listing(cubes, points, m, k, eps, cap):
    """The (assignment, status) pairs a listing yields, then the error that
    ends it, if any, with the nodes it spent."""
    budget = Budget(cap)
    out = []
    try:
        for grid, decision in cubes(points, m, k, eps, budget):
            out.append((sorted(grid.assignment.items()), decision.status))
    except Exception as exc:  # the caller compares type and message
        out.append((type(exc), str(exc)))
    return out, budget.spent


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cube_listing_inputs())
def test_cube_window_matches_unwindowed_listing(case):
    # The axis-0 window skips only points the interval update would refuse,
    # so the same cubes come out after the same nodes, capped or not.
    assert (_cube_listing(geometry._cubes, *case)
            == _cube_listing(oracles.unwindowed_cubes, *case))


@pytest.mark.parametrize("m, N, nodes, calls", [
    (3, 5, 852, 30_000),  # 80,206 calls unwindowed, 24,951 windowed
    (2, 6, 139, 1_200),  # 2,970 unwindowed, 966 windowed
])
def test_cube_window_cuts_interval_updates(m, N, nodes, calls):
    counted = []

    def counting(*args):
        counted.append(None)
        return narrowed(*args)

    budget = Budget(10 ** 6)
    with mock.patch.object(geometry, "narrowed", counting):
        hits = list(geometry._cubes(product_free_set([1, 2, 4, 5], m, N), m, 3,
                                   F(1, 125), budget))
    assert (hits, budget.spent) == ([], nodes)
    assert len(counted) <= calls


@pytest.mark.parametrize("N, m, k, eps, found, distinct", [
    (3, 2, 2, F(1, 10), 5, 5),
    (3, 2, 2, F(2, 5), 49, 49),
    (4, 2, 2, F(1, 3), 206, 206),
    (3, 2, 3, F(9, 10), 37, 1),  # one point set, 37 assignments
])
def test_cube_listing_is_every_cube(N, m, k, eps, found, distinct):
    points = tuple(product(range(1, N + 1), repeat=m))
    hits = list(geometry._cubes(points, m, k, eps, Budget(10 ** 6)))
    sets = {tuple(sorted(grid.assignment.values())) for grid, _ in hits}
    assert (len(hits), len(sets)) == (found, distinct)
    assert sets == {tuple(points[i] for i in c)
                    for c in brute_force_cubes(N, m, k, eps)}
    assert all(decision.status == "feasible" for _, decision in hits)
    grid, decision = verify_cube_free(points, m, k, eps)
    assert (grid.assignment, decision) == (hits[0][0].assignment, hits[0][1])


def test_cube_search_finds_blowup_transversal():
    spec = build_cube_blowup(2, 3, F(1, 2), F(4, 5))
    rng = random.Random(6)
    transversal = [rng.choice(blk) for _, blk in spec.blocks()]
    hit = verify_cube_free(transversal, 2, 3, F(1, 2))
    assert hit is not None
    _, decision = hit
    scale = spec.t ** (spec.r - 1)
    assert abs(decision.witness.d - scale) <= 0.5 * scale


def test_density_forcing_dim1_exhaustive():
    # every subset of the twice-iterated blow-up with more than alpha share
    # contains an approximate progression; exhaustive at 9 elements
    eps, alpha = F(1, 3), F(1, 2)
    spec = build_cube_blowup(1, 3, eps, alpha)
    elems = tuple(p[0] for p in spec.elements)
    need = -(-len(elems) * alpha.numerator // alpha.denominator)
    for size in range(need, len(elems) + 1):
        for sub in combinations(elems, size):
            assert find_eps_ap_in_points(sub, 3, eps) is not None, sub


def test_density_forcing_dim2_sampled():
    eps, alpha = F(1, 3), F(4, 5)
    spec = build_cube_blowup(2, 3, eps, alpha)
    rng = random.Random(13)
    need = -(-len(spec.elements) * alpha.numerator // alpha.denominator)
    for _ in range(3):
        subset = rng.sample(spec.elements, need)
        assert verify_cube_free(subset, 2, 3, eps) is not None
