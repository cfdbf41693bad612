import math
import random
import re
from fractions import Fraction
from itertools import accumulate, combinations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epsap import cli, geometry, search
from epsap.density import find_dense_translate, verify_cube_free
from epsap.geometry import (
    IndexedGrid,
    IndexingError,
    Witness1D,
    WitnessMD,
    _bound,
    _check_cube_eps,
    _circumsphere,
    _scale_interval,
    index_grid_points,
    min_enclosing_ball,
    narrowed,
    recognize_ap,
    recognize_cube,
)
from oracles import (
    _inside,
    fraction_certifies,
    gap_ratio_filter,
    golden_section_recognize_cube,
    line_interval,
    lp_vertex_accepts,
    naive_enclosing_circle_2d,
    pairwise_recognize_ap,
    point_certifies,
    recursive_welzl_ball,
    region_scale_interval,
    sort_index_grid_points,
)

F = Fraction


def grid_from_points_1d(points) -> IndexedGrid:
    """Increasing 1-D points as a 1-dimensional IndexedGrid."""
    return IndexedGrid(m=1, k=len(points),
                       assignment={(i,): (x,) for i, x in enumerate(points)})


def d_bounds(interval):
    """A line_interval as Fractions (lo, hi), hi None while unbounded."""
    lo_n, lo_d, hi = interval
    return F(lo_n, lo_d), None if hi is None else F(*hi)


def open_feasible(interval):
    """Strict feasibility of the points, exact for distinct points: a
    nonempty closed interval with lo < hi."""
    if interval is None:
        return False
    lo, hi = d_bounds(interval)
    return hi is None or lo < hi


def contains(pairs, eps, a, d):
    """Exact closed membership of a candidate (a, d) in the set of pairs
    (a, d) that fit the indexed points."""
    return d >= 0 and all(a + (i - eps) * d <= x <= a + (i + eps) * d for i, x in pairs)


# ---------------------------------------------------------------------------
# 1-D recognizer
# ---------------------------------------------------------------------------

def test_accepts_1_3_6_at_one_third():
    w = recognize_ap((1, 3, 6), F(1, 3))
    assert w is not None and w.margin > 0
    assert w.certifies((1, 3, 6), F(1, 3))


def test_published_witness_for_1_3_6_validates():
    w = Witness1D(a=F(4, 5), d=F(12, 5), margin=F(0))
    assert w.residuals((1, 3, 6)) == (F(1, 5), F(1, 5), F(2, 5))
    assert all(r < F(1, 3) * F(12, 5) for r in w.residuals((1, 3, 6)))


def test_exact_progression_accepted_at_any_eps():
    for eps in (F(1, 100), F(1, 10), F(1, 3)):
        w = recognize_ap((5, 7, 9), eps)
        assert w is not None
        assert (w.a, w.d) == (F(5), F(2))
        assert w.residuals((5, 7, 9)) == (0, 0, 0)


def test_rejects_1_3_6_at_tiny_eps():
    assert recognize_ap((1, 3, 6), F(1, 100)) is None


def test_1_2_4_witness_arithmetic():
    w = recognize_ap((1, 2, 4), F(1, 3))
    assert w is not None
    assert (w.a, w.d) == (F(3, 4), F(3, 2))
    assert w.residuals((1, 2, 4)) == (F(1, 4), F(1, 4), F(1, 4))
    assert all(r < F(1, 3) * F(3, 2) for r in w.residuals((1, 2, 4)))


def test_every_pair_is_a_progression():
    w = recognize_ap((3, 10), F(1, 7))
    assert w is not None and (w.a, w.d) == (F(3), F(7))


def test_margin_matches_definition():
    pts = (1, 3, 6)
    w = recognize_ap(pts, F(1, 3))
    offsets = [x - i * w.d for i, x in enumerate(pts)]
    assert w.margin == F(1, 3) * w.d - F(max(offsets) - min(offsets), 2)


def test_flat_maximum_returns_smallest_optimal_d():
    # (0, 2, 3) at eps=1/2 has a flat margin maximum on d in [3/2, 2];
    # the canonical witness takes the smaller end
    w = recognize_ap((0, 2, 3), F(1, 2))
    assert (w.d, w.margin) == (F(3, 2), F(1, 2))


def test_unbounded_slack_still_returns_valid_witness():
    # eps >= (k-1)/2 makes the slack unbounded; the canonical finite witness
    # must still certify strictly.
    w = recognize_ap((4, 9), F(2))
    assert w is not None and w.certifies((4, 9), F(2))


@pytest.mark.parametrize("bad", [(), (3,), (1, 1, 2), (2, 1)])
def test_bad_point_sequences_rejected(bad):
    with pytest.raises(ValueError):
        recognize_ap(bad, F(1, 3))


def test_non_integer_points_rejected():
    with pytest.raises(TypeError):
        recognize_ap((1.0, 2.0, 3.0), F(1, 3))


def test_nonpositive_eps_rejected():
    with pytest.raises(ValueError):
        recognize_ap((1, 2, 3), F(0))
    with pytest.raises(ValueError):
        recognize_ap((1, 2, 3), F(-1, 2))


def test_float_eps_rejected():
    with pytest.raises(TypeError):
        recognize_ap((1, 2, 3), 0.3333)


def test_translation_and_scale_equivariance():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(3, 5)
        pts = tuple(sorted(rng.sample(range(1, 30), k)))
        eps = F(1, rng.choice((3, 4, 6, 10)))
        w = recognize_ap(pts, eps)
        for c in (-7, 5):
            shifted = tuple(x + c for x in pts)
            ws = recognize_ap(shifted, eps)
            assert (w is None) == (ws is None)
            if w is not None:
                assert (ws.a, ws.d, ws.margin) == (w.a + c, w.d, w.margin)
        lam = 3
        scaled = tuple(lam * x for x in pts)
        wl = recognize_ap(scaled, eps)
        assert (w is None) == (wl is None)
        if w is not None:
            assert (wl.a, wl.d) == (lam * w.a, lam * w.d)


def test_monotone_in_eps():
    rng = random.Random(5)
    ladder = [F(1, 10), F(1, 6), F(1, 4), F(1, 3)]
    for _ in range(80):
        pts = tuple(sorted(rng.sample(range(1, 25), rng.randint(3, 5))))
        accepted = [recognize_ap(pts, e) is not None for e in ladder]
        # once accepted, stays accepted as eps grows
        assert accepted == sorted(accepted)


def test_agrees_with_lp_vertex_oracle_small():
    for k, eps in ((3, F(1, 10)), (3, F(1, 3)), (4, F(1, 4))):
        for pts in combinations(range(1, 10), k):
            got = recognize_ap(pts, eps) is not None
            want = lp_vertex_accepts(pts, eps)
            assert got == want, (pts, eps)


@st.composite
def near_progressions(draw, max_k):
    """Strictly increasing integers whose gaps scatter around a common step."""
    k = draw(st.integers(2, max_k))
    step = draw(st.integers(1, 60))
    jitter = draw(st.integers(0, step))
    gap = st.integers(max(1, step - jitter), step + jitter)
    start = draw(st.integers(-100, 100))
    gaps = draw(st.lists(gap, min_size=k - 1, max_size=k - 1))
    return tuple(accumulate([start] + gaps))


def epsilons(k):
    """Small and large eps, on both sides of (k-1)/2 and right at it."""
    return st.one_of(
        st.builds(F, st.integers(1, 9), st.integers(10, 200)),
        st.builds(F, st.integers(1, 4 * k), st.integers(1, 8)),
        st.just(F(k - 1, 2)),
    )


def _witness_tuple(w):
    return None if w is None else (w.a, w.d, w.margin)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_hull_walk_matches_pairwise_oracle(data):
    pts = data.draw(near_progressions(40))
    eps = data.draw(epsilons(len(pts)))
    w = recognize_ap(pts, eps)
    assert _witness_tuple(w) == pairwise_recognize_ap(pts, eps)
    assert open_feasible(line_interval(enumerate(pts), F(eps))) == (w is not None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_hull_walk_agrees_with_lp_vertex_oracle(data):
    pts = data.draw(near_progressions(8))
    k = len(pts)
    eps = data.draw(epsilons(k).filter(lambda e: e < F(k - 1, 2)))
    assert (recognize_ap(pts, eps) is not None) == lp_vertex_accepts(pts, eps)


# ---------------------------------------------------------------------------
# Gap ratio filter
# ---------------------------------------------------------------------------

def test_filter_exact_progression_true():
    assert gap_ratio_filter((2, 5, 8, 11), F(1, 100))


def test_filter_examples():
    assert gap_ratio_filter((1, 3, 6), F(1, 3))
    assert not gap_ratio_filter((1, 2, 10), F(1, 10))


def test_filter_vacuous_below_three_points():
    assert gap_ratio_filter((4, 9), F(1, 100))


def test_filter_necessity_sampled():
    rng = random.Random(23)
    eps = F(1, 20)
    rejected_by_filter = 0
    for _ in range(800):
        k = rng.randint(3, 6)
        pts = tuple(sorted(rng.sample(range(1, 51), k)))
        if not gap_ratio_filter(pts, eps):
            rejected_by_filter += 1
            assert recognize_ap(pts, eps) is None, pts
    assert rejected_by_filter > 100  # the implication was actually exercised


# ---------------------------------------------------------------------------
# Feasible region: one progression's d interval, through narrowed
# ---------------------------------------------------------------------------

def test_region_for_1_3_6_contains_published_point():
    pairs = list(enumerate((1, 3, 6)))
    lo, hi = d_bounds(line_interval(pairs, F(1, 3)))
    assert lo <= F(12, 5) and (hi is None or F(12, 5) <= hi)
    assert contains(pairs, F(1, 3), F(4, 5), F(12, 5))


def test_region_for_1_2_10_empties():
    assert line_interval([(0, 1), (1, 2)], F(1, 10)) is not None
    assert line_interval([(0, 1), (1, 2), (2, 10)], F(1, 10)) is None


def test_region_bounds_at_large_eps():
    # eps = p/q; the pair (j, y), (i, x) bounds d through q*(i - j) - 2p,
    # which is positive (an upper bound), zero (a constant constraint) or
    # negative (a lower bound) depending on eps and i - j.
    half = F(1, 2)
    r = line_interval([(0, 3), (1, 5)], half)  # zero, holds
    assert d_bounds(r) == (F(1), None)
    r = line_interval([(0, 3), (1, 5), (2, 6)], half)  # i - j = 2: positive, d <= (6 - 3)/1
    assert d_bounds(r) == (F(1), F(3))
    r = line_interval([(0, 5), (1, 3)], half)  # zero, fails
    assert r is None and not open_feasible(r)
    pairs = [(0, 5), (1, 3)]
    assert d_bounds(line_interval(pairs, F(3, 4))) == (F(4), None)  # negative: d >= 2/(3/2 - 1)
    assert contains(pairs, F(3, 4), 2, 4) and not contains(pairs, F(3, 4), 2, F(399, 100))


def test_region_bounds_match_pointwise_projection():
    # The region's d interval is exactly the set of d >= 0 at which some a
    # satisfies every closed constraint; the indices need not be consecutive.
    rng = random.Random(31)
    ladder = [F(0), F(1, 7), F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(4)]
    for _ in range(300):
        k = rng.randint(2, 5)
        eps = rng.choice((F(2, 5), F(1, 2), F(3, 4), F(1), F(3, 2), F(7, 3)))
        pts = [(i, rng.randint(-6, 6)) for i in sorted(rng.sample(range(k), rng.randint(1, k)))]
        r = line_interval(pts, eps)
        d_lo, d_hi = d_bounds(r) if r is not None else (F(0), None)
        assert d_hi is None or d_lo <= d_hi
        probes = set(ladder) | {d_lo, d_lo + F(1, 1000)}
        if d_lo > 0:
            probes.add(d_lo - F(1, 1000))
        if d_hi is not None:
            probes |= {d_hi, d_hi + F(1, 1000)}
        for d in probes:
            feasible = (max(x - (i + eps) * d for i, x in pts)
                        <= min(x - (i - eps) * d for i, x in pts))
            inside = r is not None and d_lo <= d and (d_hi is None or d <= d_hi)
            assert feasible == inside, (pts, eps, d)


@st.composite
def _kernel_cases(draw):
    """Rows (axis, y, a, c) with every sign of a and c, a candidate x and a
    nonempty start interval [lo, hi], hi None or above lo."""
    m = draw(st.integers(1, 3))
    small = st.integers(-6, 6)
    rows = draw(st.lists(st.tuples(st.integers(0, m - 1), small, small, small),
                         max_size=5))
    x = tuple(draw(st.lists(small, min_size=m, max_size=m)))
    lo_n, lo_d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    hi = None
    if draw(st.booleans()):
        extra_n, extra_d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
        hi = (lo_n * extra_d + extra_n * lo_d, lo_d * extra_d)
    return rows, x, (lo_n, lo_d), hi


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_narrowed_matches_fraction_intersection(case):
    # Each row asks c*d <= x[axis] - y <= a*d.  Intersect in Fractions,
    # without early exit, and probe the set pointwise.
    rows, x, lo, hi = case
    d_lo, d_hi, ok = F(*lo), None if hi is None else F(*hi), True
    for axis, y, a, c in rows:
        gap = x[axis] - y
        for coef, g in ((a, gap), (-c, -gap)):  # g <= coef*d
            if coef > 0:
                d_lo = max(d_lo, F(g, coef))
            elif coef < 0:
                d_hi = F(g, coef) if d_hi is None else min(d_hi, F(g, coef))
            elif g > 0:
                ok = False
    got = narrowed(rows, x, *lo, hi)
    assert (got is not None) == (ok and (d_hi is None or d_lo <= d_hi))
    if got is not None:
        lo_n, lo_d, got_hi = got
        assert lo_d > 0 and F(lo_n, lo_d) == d_lo
        assert (got_hi is None) == (d_hi is None)
        if got_hi is not None:
            assert got_hi[1] > 0 and F(*got_hi) == d_hi
    probes = {d_lo, d_lo + F(1, 97), d_lo - F(1, 97), F(0), F(1), F(5)}
    if d_hi is not None:
        probes |= {d_hi, d_hi + F(1, 97), d_hi - F(1, 97)}
    for d in probes:
        member = (F(*lo) <= d and (hi is None or d <= F(*hi))
                  and all(c * d <= x[axis] - y <= a * d for axis, y, a, c in rows))
        inside = got is not None and F(got[0], got[1]) <= d and (
            got[2] is None or d <= F(*got[2]))
        assert member == inside, (case, d)


def test_region_prune_is_sound():
    # closed-empty prefix => every completion is rejected
    eps = F(1, 10)
    n = 9
    for x0, x1 in combinations(range(1, n + 1), 2):
        if line_interval([(0, x0), (1, x1)], eps) is not None:
            continue
        for x2 in range(x1 + 1, n + 1):
            assert recognize_ap((x0, x1, x2), eps) is None


# ---------------------------------------------------------------------------
# Enclosing ball
# ---------------------------------------------------------------------------

def test_ball_single_point():
    center, radius = min_enclosing_ball([(3, 4)])
    assert center == (3.0, 4.0) and radius == 0.0


def test_ball_two_points():
    center, radius = min_enclosing_ball([(0, 0), (2, 0)])
    assert center == pytest.approx((1.0, 0.0))
    assert radius == pytest.approx(1.0)


def test_ball_unit_square():
    center, radius = min_enclosing_ball([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert center == pytest.approx((0.5, 0.5))
    assert radius == pytest.approx(2 ** 0.5 / 2)


def test_ball_empty_rejected():
    with pytest.raises(ValueError):
        min_enclosing_ball([])


@pytest.mark.parametrize("points, shown", [
    ([(0.0,), (2.0 ** 600,)], "4.149515568880993e+180"),  # gave radius 0.0
    ([(0,), (math.inf,)], "inf"),  # gave center inf
    ([(0,), (math.nan,)], "nan"),  # gave radius 0.0
    ([(0,), (2.0 ** 500,)], "3.273390607896142e+150"),
    ([(0, 0), (1, -2 ** 700)], "a 701-bit int"),
])
def test_ball_refuses_coordinates_past_its_floats(points, shown):
    with pytest.raises(ValueError, match=rf"^coordinate {len(points[0]) - 1} of point 1 "
                                         rf"is {re.escape(shown)}; min_enclosing_ball"):
        min_enclosing_ball(points)


def test_ball_takes_coordinates_just_below_its_float_limit():
    below = math.nextafter(2.0 ** 500, 0)
    center, radius = min_enclosing_ball([(-below,), (below,)] * 4)
    assert (center, radius) == ((0.0,), below)


def test_ball_is_deterministic_across_calls():
    pts = [(3, 1), (0, 0), (7, 2), (4, 9), (1, 1)]
    assert min_enclosing_ball(pts) == min_enclosing_ball(list(pts))


def test_ball_matches_naive_2d():
    rng = random.Random(3)
    for _ in range(25):
        pts = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(rng.randint(2, 9))]
        center, radius = min_enclosing_ball(pts)
        _, naive_radius = naive_enclosing_circle_2d(pts)
        assert radius == pytest.approx(naive_radius, abs=1e-6)
        assert all(
            sum((c - p) ** 2 for c, p in zip(center, q)) <= (radius + 1e-9) ** 2
            for q in pts
        )


@st.composite
def _ball_inputs(draw):
    """Up to 60 integer points in 1-3 dimensions, mixing free points with
    duplicates, points on one line and points on one circle or sphere."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-30, 30)] * dim)
    pts = draw(st.lists(point, max_size=25))
    if pts and draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    if draw(st.booleans()):
        a, b = draw(point), draw(point)
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
        pts += [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in steps]
    if draw(st.booleans()):
        center = draw(point)
        shell = [v for v in product(range(-5, 6), repeat=dim)
                 if sum(c * c for c in v) == 25]
        pts += [tuple(c + x for c, x in zip(center, v))
                for v in draw(st.lists(st.sampled_from(shell), min_size=1, max_size=15))]
    assume(pts)
    return draw(st.permutations(pts[:60]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ball_inputs())
def test_ball_matches_recursive_welzl(pts):
    ball = min_enclosing_ball(pts)
    _, want = recursive_welzl_ball(pts)
    assert abs(ball[1] - want) <= 1e-9 * want
    assert all(_inside(ball, p) for p in pts)


def _noisy_grid(m, k, scale, noise, seed):
    rng = random.Random(seed)
    return IndexedGrid(m=m, k=k, assignment={
        v: tuple(scale * c + rng.randint(-noise, noise) for c in v)
        for v in product(range(k), repeat=m)})


def test_ball_with_a_shared_order_matches_cold_calls():
    pairs = _noisy_grid(2, 6, 100, 20, seed=4).items_in_index_order()
    order = list(range(len(pairs)))
    for d in [60 + 2.5 * i for i in range(33)] + [101.0, 99.5, 100.2, 100.0]:
        shifted = [tuple(c - d * u for c, u in zip(p, v)) for v, p in pairs]
        warm = min_enclosing_ball(shifted, order)
        assert warm[1] == pytest.approx(min_enclosing_ball(shifted)[1], rel=1e-12)
        assert all(_inside(warm, p) for p in shifted)
        assert sorted(order) == list(range(len(pairs)))
    with pytest.raises(ValueError):
        min_enclosing_ball(shifted, order[:-1])


def test_ball_of_a_tiny_lattice_is_not_degenerate():
    # The degeneracy test is relative to the Gram matrix, so a cluster of
    # spread 1e-8 still gets its ball (an absolute 1e-12 pivot gave radius 0).
    h = 1e-8
    pts = [(i * h, j * h) for i in range(3) for j in range(3)]
    center, radius = min_enclosing_ball(pts)
    assert radius == pytest.approx(2 ** 0.5 * h, rel=1e-9)
    assert all(math.dist(center, p) <= _bound(radius) for p in pts)
    assert _circumsphere([(h, h), (h, h)]) is None
    assert _circumsphere([(0.0, 0.0), (h, 0.0), (h, 0.0)]) is None


# ---------------------------------------------------------------------------
# Cube recognizer
# ---------------------------------------------------------------------------

def _lattice_grid(m, k, scale=1, shift=0):
    return IndexedGrid(
        m=m, k=k,
        assignment={v: tuple(scale * c + shift for c in v)
                    for v in product(range(k), repeat=m)},
    )


def test_standard_lattice_feasible():
    for m, k in ((1, 3), (2, 2), (2, 3), (3, 2)):
        decision = recognize_cube(_lattice_grid(m, k), F(1, 4))
        assert decision.status == "feasible"
        w = decision.witness
        assert w.d == pytest.approx(1.0, rel=1e-5)
        assert all(abs(c) < 1e-4 for c in w.a)
        assert w.residual == pytest.approx(0.25, rel=1e-4)


def test_cube_agrees_with_exact_recognizer_dim1():
    eps = F(1, 3)
    for pts in combinations(range(1, 9), 3):
        decision = recognize_cube(grid_from_points_1d(pts), eps)
        if decision.status == "boundary":
            continue
        exact = recognize_ap(pts, eps) is not None
        assert (decision.status == "feasible") == exact, pts


def test_construct_then_verify_perturbed_grids():
    rng = random.Random(17)
    for _ in range(20):
        m, k = rng.choice(((1, 4), (2, 3)))
        eps = F(1, 3)
        d = rng.randint(40, 80)
        a = [rng.randint(0, 15) for _ in range(m)]
        limit = float(eps) * d / 2
        assignment = {}
        for v in product(range(k), repeat=m):
            exactp = [a[j] + d * v[j] for j in range(m)]
            while True:
                pert = [rng.randint(-int(limit / 2), int(limit / 2)) for _ in range(m)]
                if sum(x * x for x in pert) < limit ** 2:
                    break
            assignment[v] = tuple(e + p for e, p in zip(exactp, pert))
        grid = IndexedGrid(m=m, k=k, assignment=assignment)
        assert recognize_cube(grid, eps).status == "feasible"


def test_cube_g_is_convex_along_scale():
    from epsap.geometry import min_enclosing_ball as ball

    grid = _lattice_grid(2, 3, scale=7, shift=2)
    pairs = grid.items_in_index_order()
    e = 0.25

    def g(d):
        shifted = [tuple(c - d * vc for c, vc in zip(p, v)) for v, p in pairs]
        return ball(shifted)[1] - e * d

    ds = [0.5 + 0.35 * i for i in range(40)]
    vals = [g(d) for d in ds]
    for u, v, w in zip(vals, vals[1:], vals[2:]):
        assert v <= (u + w) / 2 + 1e-7


def test_cube_witness_substitutes_into_the_inequalities():
    rng = random.Random(29)
    eps = F(1, 3)
    for _ in range(10):
        grid = _lattice_grid(2, 3, scale=rng.randint(5, 30), shift=rng.randint(0, 9))
        decision = recognize_cube(grid, eps)
        assert decision.status == "feasible"
        w = decision.witness
        assert decision.exact and w.residual > 0
        bound = float(eps) * w.d * (1 + 1e-12)
        for v, p in grid.items_in_index_order():
            dist = sum((c - (a + w.d * vc)) ** 2
                       for c, a, vc in zip(p, w.a, v)) ** 0.5
            assert dist < bound


def _ball_calls(grid, eps):
    """recognize_cube's decision and the number of balls it built."""
    with mock.patch.object(geometry, "min_enclosing_ball",
                           wraps=min_enclosing_ball) as ball:
        decision = recognize_cube(grid, eps)
    return decision, ball.call_count


def test_cube_probe_settles_a_clear_grid_without_a_ball():
    grid = _noisy_grid(2, 4, 100, 5, seed=1)
    decision, balls = _ball_calls(grid, F(1, 5))
    assert (decision.status, decision.exact, balls) == ("feasible", True, 0)
    pairs = grid.items_in_index_order()
    shifted = [tuple(c - decision.witness.d * u for c, u in zip(p, v)) for v, p in pairs]
    assert decision.witness.a == tuple(sum(c) / len(pairs) for c in zip(*shifted))


def test_cube_probe_falls_back_to_the_ball_center():
    # d0 = 7/2 leaves {0, 3/2, 0}: the mean 1/2 lies 1 from the far points,
    # past eps*d0 = 7/8, but the ball's center 3/4 lies 3/4 from all three
    grid = grid_from_points_1d((0, 5, 7))
    decision, balls = _ball_calls(grid, F(1, 4))
    assert (decision.status, decision.exact, balls) == ("feasible", True, 1)
    assert decision.witness == WitnessMD(a=(0.75,), d=3.5, residual=0.125)


def test_cube_refuses_coordinates_past_its_floats():
    # at 2^600 the squared distances overflowed, the ball came back with
    # radius 0 and the verdict with a witness that does not certify
    with pytest.raises(ValueError,
                       match=r"^coordinate 0 of the point at index \(2,\) has 603 bits"):
        recognize_cube(grid_from_points_1d((0, 5 << 600, 7 << 600)), F(1, 4))
    decision, balls = _ball_calls(grid_from_points_1d((0, 5 << 490, 7 << 490)), F(1, 4))
    assert (decision.status, decision.exact, balls) == ("feasible", True, 1)
    assert decision.witness.a == (0.75 * 2.0 ** 490,)


def test_cube_refuses_grids_whose_shifted_points_leave_its_floats():
    # every coordinate is below 2^500, but at the scales up to
    # d_max = 2^499 / (3 - 12/5) the balls' points x_v - d*v pass it:
    # refused in recognize_cube's own words, not the ball's about a point
    # set the caller never gave
    points = [int(F(c, 10) * 2 ** 500) for c in (-6, -3, -5, -1)]
    grid = IndexedGrid(m=1, k=4, assignment={(i,): (x,) for i, x in enumerate(points)})
    assert max(map(abs, points)) < 2 ** 500
    with pytest.raises(ValueError, match=r"^x_v - d\*v reaches .* recognize_cube "
                                         r"computes in floats and needs it below 2\^500$"):
        recognize_cube(grid, F(6, 5))


def test_cube_refuses_an_eps_that_rounds_to_its_scale_bound():
    # eps < (k-1)/2 exactly, but k - 1 - 2*eps is 0 in floats, where
    # recognize_cube divides by it
    eps = F(1, 2) - F(1, 10 ** 23)
    with pytest.raises(ValueError, match=r"rounds to \(k-1\)/2 in floats"):
        recognize_cube(grid_from_points_1d((0, 5)), eps)
    with pytest.raises(ValueError, match=r"rounds to \(k-1\)/2 in floats"):
        search.exact_f(2, 2, 2, eps, work_cap=0)  # a cube search, up front


def test_cube_refuses_an_eps_past_the_floats():
    # eps < (k-1)/2 exactly, but eps has no float, so the cube searches
    # refuse it as bad input rather than end in an OverflowError
    eps, k = F(10 ** 400), 10 ** 401
    for run in (lambda: _check_cube_eps(eps, k),
                lambda: search.exact_f(1, 2, k, eps, work_cap=0),
                lambda: verify_cube_free([(1, 1), (2, 2)], 2, k, eps)):
        with pytest.raises(ValueError, match=r"overflows a float; recognize_cube computes "
                                             r"in floats$"):
            run()


def test_cube_boundary_verdict():
    # (0, 1, 3) at eps = 1/6 has exact maximum slack 0: its line interval is
    # the single closed point d = 3/2, so the exact stage proves it
    # infeasible, where golden section alone can only call it a boundary case
    assert recognize_ap((0, 1, 3), F(1, 6)) is None
    decision = recognize_cube(grid_from_points_1d((0, 1, 3)), F(1, 6))
    assert (decision.status, decision.exact) == ("infeasible", True)
    # the lines and corner pairs of this grid leave an interval of d open,
    # the probe misses, min g = 0 at d = 5 up to rounding and no ball's
    # center certifies: a numeric boundary verdict
    grid = IndexedGrid(m=2, k=2, assignment={
        (0, 0): (1, 3), (0, 1): (3, 7), (1, 0): (8, 2), (1, 1): (6, 6)})
    decision = recognize_cube(grid, F(1, 4))
    assert decision == ("boundary", None, False)
    at_5 = [tuple(c - 5 * u for c, u in zip(p, v)) for v, p in grid.items_in_index_order()]
    assert min_enclosing_ball(at_5)[1] == pytest.approx(5 / 4, rel=1e-12)


def test_cube_fallback_returns_the_first_ball_that_certifies():
    # points near their spheres: the least-squares probe misses, and the
    # golden section used to run to its end (42 balls) and return an
    # uncertified witness
    grid = IndexedGrid(m=2, k=2, assignment={
        (0, 0): (1, 1), (0, 1): (3, 12), (1, 0): (11, -3), (1, 1): (17, 13)})
    decision, balls = _ball_calls(grid, F(1, 4))
    assert (decision.status, decision.exact) == ("feasible", True)
    assert decision.witness.certifies(grid, F(1, 4)) and balls <= 5


_CUBE_EPS = (F(1, 10), F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(0.15), F(0.2), F(0.3))


@st.composite
def cube_cases(draw, k_max=5):
    """(grid, eps): k^m points near d*v with clear (0.3 eps*d), near
    (0.95 eps*d), tight (eps*d, so a point may sit on its sphere) or broken
    noise (small noise, then one point moved along one axis), or free: any
    distinct points of the box [0, k*d]^m."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(2, k_max))
    eps = draw(st.sampled_from(_CUBE_EPS))
    kind = draw(st.sampled_from(("clear", "near", "tight", "broken", "free")))
    d = draw(st.integers(4, 60))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    slots = list(product(range(k), repeat=m))
    if kind == "free":
        pts = []
        while len(pts) < len(slots):
            p = tuple(rng.randint(0, k * d) for _ in range(m))
            if p not in pts:
                pts.append(p)
    else:
        radius = {"clear": 0.3, "near": 0.95, "tight": 1, "broken": 0.1}[kind] * float(eps) * d
        pts = []
        for v in slots:
            while True:
                u = [rng.randint(-int(radius), int(radius)) for _ in range(m)]
                if sum(c * c for c in u) <= radius ** 2:
                    break
            pts.append(tuple(d * c + n for c, n in zip(v, u)))
        if kind == "broken":
            i, axis = rng.randrange(len(slots)), rng.randrange(m)
            moved = list(pts[i])
            moved[axis] += rng.choice((-1, 1)) * rng.randint(1, d)
            pts[i] = tuple(moved)
            assume(len(set(pts)) == len(pts))
    return IndexedGrid(m=m, k=k, assignment=dict(zip(slots, pts))), eps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cube_cases())
@example(case=(grid_from_points_1d((0, 1, 3)), F(1, 6)))
@example(case=(grid_from_points_1d((0, 1, 3)), F(1 / 6)))
def test_cube_stages_agree_with_golden_section_oracle(case):
    grid, eps = case
    fast = recognize_cube(grid, eps)
    slow = golden_section_recognize_cube(grid, eps)
    if fast.status == "feasible":
        assert fast.exact and fast.witness.certifies(grid, eps)
    # residual is eps*d less the largest distance from a + d*v, and no
    # center comes closer to every shifted point than the ball's
    for w in (fast.witness, slow.witness):
        if w is not None:
            shifted = [tuple(c - w.d * u for c, u in zip(p, v))
                       for v, p in grid.items_in_index_order()]
            _, radius = min_enclosing_ball(shifted)
            assert 0 < w.residual <= float(eps) * w.d - radius + 1e-9 * (1 + w.d)
    if fast.exact:
        assert fast.status in ("feasible", "infeasible")
    if slow.status == "feasible":
        assert fast.status != "infeasible"
    # The probe settles most feasible grids before the exact interval is
    # built, so the interval is checked on its own: an empty one is never
    # feasible under the oracle, and it holds the scale of every witness.
    interval = _scale_interval(grid, F(eps))
    if interval is None:
        assert slow.status != "feasible"
    for w in (fast.witness, slow.witness):
        if w is not None and w.certifies(grid, eps):
            assert interval is not None
            assert F(*interval[0]) < F(w.d) < F(*interval[1])
    # One axis line is the whole 1-D grid, so its interval decides it exactly.
    if grid.m == 1 and not lp_vertex_accepts(
            [x for _, (x,) in grid.items_in_index_order()], F(eps)):
        assert (fast.status, fast.exact) == ("infeasible", True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cube_cases(k_max=4))
@example(case=(grid_from_points_1d((0, 1, 3)), F(1, 6)))
def test_scale_interval_matches_the_region_oracle(case):
    # One interval carried through the rows of every axis line equals, as
    # rationals, the intersection of one region per line.
    grid, eps = case
    got, want = _scale_interval(grid, F(eps)), region_scale_interval(grid, F(eps))
    assert (got is None) == (want is None)
    if got is not None:
        assert [F(*b) for b in got] == [F(*b) for b in want]
    with mock.patch.object(geometry, "_scale_interval", region_scale_interval):
        reference = recognize_cube(grid, eps)
    assert recognize_cube(grid, eps) == reference


def test_cube_depth_does_not_grow_with_the_grid():
    # both are far beyond the interpreter's recursion limit in points
    grid = _noisy_grid(2, 32, 1000, 60, seed=7)
    assert recognize_cube(grid, F(1, 5)).status == "feasible"
    rng = random.Random(8)
    line = grid_from_points_1d([1000 * i + rng.randint(-60, 60) for i in range(2000)])
    assert recognize_cube(line, F(1, 5)).status == "feasible"


def test_cube_witness_certifies_exactly():
    eps = F(1, 4)
    grid = _lattice_grid(2, 3, scale=7, shift=2)
    w = recognize_cube(grid, eps).witness
    assert w.certifies(grid, eps)
    # moving the center by 1.5*eps*d puts every point outside its ball
    shifted = WitnessMD(a=(w.a[0] + 1.5 * float(eps) * w.d, w.a[1]), d=w.d,
                        residual=w.residual)
    assert not shifted.certifies(grid, eps)
    # a float witness is checked exactly as the float it is
    exact = WitnessMD(a=(2.0, 2.0), d=7.0, residual=1.75)
    assert exact.certifies(grid, eps)
    # every point exactly on its sphere: the strict inequality fails
    assert not WitnessMD(a=(3.75, 2.0), d=7.0, residual=0.0).certifies(grid, eps)
    assert not WitnessMD(a=(2.0, 2.0), d=0.0, residual=0.0).certifies(grid, eps)


def test_cube_stage_one_center_is_the_same_float_on_every_python():
    # The stage-1 center is the mean of {x_v - d0*v}.  Its second column's
    # plain left-to-right float sum ends in ...886 on Python 3.10 and 3.11,
    # while the built-in sum compensates from 3.12 on; the correctly rounded
    # sum is ...884 on every version, and the witness must not depend on it.
    rows = [(-1, -1), (-1, 3), (1, 8), (5, -1), (5, 3), (4, 8), (9, -1), (9, 4), (9, 8)]
    grid = IndexedGrid(m=2, k=3, assignment=dict(zip(product(range(3), repeat=2), rows)))
    decision = recognize_cube(grid, F(1, 4))
    assert decision.status == "feasible"
    assert decision.witness.d == 4.583333333333333
    assert decision.witness.a == (-0.1388888888888886, -1.1388888888888884)


@st.composite
def _boundary_witnesses(draw):
    """(witness, grid, eps): a grid near base + scale*v, and a center moved
    off base by about eps*d, then a few floats on, so that the farthest
    point sits just inside, on or just outside its ball."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    scale = draw(st.integers(5, 10 ** 6))
    base = draw(st.tuples(*[st.integers(-10 ** 9, 10 ** 9)] * m))
    still = (0,) * m
    noise = draw(st.lists(st.one_of(st.just(still), st.tuples(*[st.integers(-2, 2)] * m)),
                          min_size=k ** m, max_size=k ** m))
    grid = IndexedGrid(m, k, {
        v: tuple(b + scale * c + n for b, c, n in zip(base, v, nv))
        for v, nv in zip(product(range(k), repeat=m), noise)})
    eps = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 5), F(3, 8), F(2, 7)]))
    d = float(scale)
    for _ in range(draw(st.integers(0, 2))):
        d = math.nextafter(d, draw(st.sampled_from([0.0, math.inf])))
    way = draw(st.tuples(*[st.integers(-3, 3)] * m).filter(any))
    length = math.hypot(*way)
    a = [b + float(eps) * d * w / length for b, w in zip(base, way)]
    axis = draw(st.integers(0, m - 1))
    for _ in range(draw(st.integers(0, 3))):
        a[axis] = math.nextafter(a[axis], draw(st.sampled_from([-math.inf, math.inf])))
    return WitnessMD(a=tuple(a), d=d, residual=0.0), grid, eps


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_boundary_witnesses())
def test_cube_certificate_equals_the_fraction_check_across_the_boundary(case):
    # the column-wise integer check, the per-point one and the one in
    # Fractions give one verdict, on either side of the sphere and on it
    witness, grid, eps = case
    verdict = fraction_certifies(witness, grid, eps)
    assert witness.certifies(grid, eps) is verdict
    assert point_certifies(witness, grid, eps) is verdict


def test_cube_duplicate_points_rejected():
    with pytest.raises(ValueError):
        IndexedGrid(m=1, k=2, assignment={(0,): (1,), (1,): (1,)})


def test_cube_eps_too_large_rejected():
    with pytest.raises(ValueError):
        recognize_cube(_lattice_grid(1, 2), F(3, 4))


@pytest.mark.parametrize("eps", [0.25, 1 / 6, math.nan])
def test_cube_refuses_a_float_eps_as_every_eps_check_does(eps):
    # a binary float changes the question (1/6 != 0.1666...), so the cube
    # code takes eps only as an exact rational, like the 1-D code
    grid = _lattice_grid(2, 3, scale=7, shift=2)
    witness = WitnessMD(a=(2.0, 2.0), d=7.0, residual=1.75)
    for call in (lambda: recognize_cube(grid, eps), lambda: witness.certifies(grid, eps),
                 lambda: verify_cube_free(list(grid.assignment.values()), 2, 3, eps)):
        with pytest.raises(TypeError, match="^expected int, Fraction or 'p/q' string, "
                                            "got float$"):
            call()


# ---------------------------------------------------------------------------
# Grid indexing
# ---------------------------------------------------------------------------

def test_index_recovery_identity():
    grid = index_grid_points(list(product(range(3), repeat=2)), 2, 3, F(1, 4))
    assert all(grid.assignment[v] == v for v in grid.assignment)


def test_index_recovery_affine_invariance():
    pts = [(10 * a + 3, 10 * b + 7) for a, b in product(range(3), repeat=2)]
    grid = index_grid_points(pts, 2, 3, F(1, 4))
    assert all(grid.assignment[v] == (10 * v[0] + 3, 10 * v[1] + 7)
               for v in grid.assignment)


def _index_outcome(index, pts, m, k):
    try:
        grid = index(pts, m, k, F(1, 4))
    except ValueError as exc:  # IndexingError among them
        return type(exc).__name__, str(exc)
    return grid.m, grid.k, list(grid.assignment.items())


@st.composite
def _tied_grids(draw):
    """(points, m, k): k^m points scale*v + noise, shuffled, with a scale
    small enough that coordinates tie across clusters and points repeat."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    scale, spread = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    pts = [tuple(scale * c + draw(st.integers(-spread, spread)) for c in v)
           for v in product(range(k), repeat=m)]
    return draw(st.permutations(pts)), m, k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tied_grids())
@example(([(0, 0), (0, 1), (0, 2), (0, 3)], 2, 2))  # a tie straddles axis 0
@example(([(0, 0), (1, 0), (2, 1), (3, 1)], 2, 2))  # no tie, yet not injective
def test_index_recovery_equals_sorting_the_points(case):
    # rank columns give the sort-based assignment, in the same order, or
    # the same error
    pts, m, k = case
    assert _index_outcome(index_grid_points, pts, m, k) == _index_outcome(
        sort_index_grid_points, pts, m, k)


def test_index_recovery_ambiguity_is_an_error():
    with pytest.raises(IndexingError):
        index_grid_points([(0, 0), (0, 1), (0, 2), (0, 3)], 2, 2, F(1, 4))


def test_index_recovery_wrong_cardinality():
    with pytest.raises(ValueError):
        index_grid_points([(0, 0), (1, 1)], 2, 2, F(1, 4))


def _searched(*args):
    raise AssertionError("a bad point reached the search")


@pytest.mark.parametrize("call, message", [
    (lambda: verify_cube_free([(1, 2, 3)], 2, 2, F(1, 4)), "is not 2-dimensional"),
    (lambda: verify_cube_free([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
                              2, 2, F(1, 4)), "integer 2-tuples"),
    (lambda: index_grid_points([(0.5, 0), (0, 10), (10, 0), (10, 10)], 2, 2, F(1, 4)),
     "integer 2-tuples"),
    (lambda: index_grid_points([(False, 0), (0, 10), (10, 0), (10, 10)], 2, 2, F(1, 4)),
     "integer 2-tuples"),
    (lambda: find_dense_translate([(1.5, 1)], [(1, 1)], 3, 2), "integer 2-tuples"),
    (lambda: find_dense_translate([(1, 1)], [(True, 1)], 3, 2), "integer 2-tuples"),
    (lambda: search.find_eps_ap_in_points((1.0, 2.0, 5.0), 3, F(1, 5)),
     "must be integers"),
], ids=["cube-search-dimension", "cube-search-float", "index-float", "index-bool",
        "translate-float", "translate-bool", "points-1d-float"])
def test_point_sets_are_checked_before_any_search(call, message):
    with mock.patch.object(geometry, "narrowed", _searched), \
            mock.patch.object(search, "_eps_aps", _searched):
        with pytest.raises((ValueError, TypeError), match=message):
            call()


_BAD_SQUARES = {
    "duplicate": [(0, 0), (0, 10), (10, 0), (0, 0)],
    "float": [(0.5, 0), (0, 10), (10, 0), (10, 10)],
    "bool": [(False, 0), (0, 10), (10, 0), (10, 10)],
    "dimension": [(0, 0, 0), (0, 10), (10, 0), (10, 10)],
}


@pytest.mark.parametrize("bad", sorted(_BAD_SQUARES))
def test_public_grid_builders_check_their_points(bad):
    # The package builds its grids unchecked from checked points; a caller
    # of the public constructors still has every point checked.
    pts = _BAD_SQUARES[bad]
    with pytest.raises(ValueError):
        IndexedGrid(m=2, k=2, assignment=dict(zip(product(range(2), repeat=2), pts)))
    with pytest.raises(ValueError):
        index_grid_points(pts, 2, 2, F(1, 4))


def test_a_checked_set_is_checked_again_in_another_dimension():
    square = geometry.check_points([(0, 0), (0, 10), (10, 0), (10, 10)], 2)
    assert geometry.check_points(square, 2) is square
    with pytest.raises(ValueError, match="is not 3-dimensional"):
        geometry.check_points(square, 3)
    with pytest.raises(ValueError, match="integer 2-tuples"):
        geometry.check_points(tuple([(0.5, 0)]), 2)


_BAD_SET_FILES = [
    ("0 0\n0 10\n10 0\n10.0 10\n", "set file line 4: '10.0 10' is not integers"),
    ("0 0\n0 10\n10 0\nTrue 10\n", "set file line 4: 'True 10' is not integers"),
    ("0 0\n0 10\n10 0\n10 10 10\n", "point (10, 10, 10) is not 2-dimensional"),
]


# A repeated line is one point of a set, which only a grid of k^m points
# refuses.
@pytest.mark.parametrize("command, text, message", [
    *[("recognize cube", *row) for row in _BAD_SET_FILES],
    ("recognize cube", "0 0\n0 10\n10 0\n0 0\n", "expected 4 distinct points, got 3"),
    *[("verify set", *row) for row in _BAD_SET_FILES],
], ids=["cube-float", "cube-bool", "cube-dimension", "cube-duplicate",
        "set-float", "set-bool", "set-dimension"])
def test_cli_checks_set_files_before_any_search(tmp_path, capsys, command, text,
                                                 message):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    argv = command.split() + ["--file", str(path), "--m", "2", "--k", "2",
                              "--eps", "1/4"]
    with mock.patch.object(geometry, "narrowed", _searched), \
            mock.patch.object(geometry, "recognize_cube", _searched):
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_index_recovery_requires_disjoint_balls():
    with pytest.raises(ValueError):
        index_grid_points(list(product(range(2), repeat=2)), 2, 2, F(1, 2))
