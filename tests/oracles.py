"""Independent brute-force oracles the test suite checks the library against.

These deliberately share no code path with the library: the 1-D oracles
enumerate vertices of the slack LP in (a, d, s) by solving raw 3x3 integer
systems, or evaluate the margin at every pairwise slope, and the
enclosing-ball oracles try every pair and triple circle, or run Welzl's
recursive algorithm with its own Gram-system solver.  The cube-search
oracle keeps the library's earlier Fraction pruner and shares only the
numeric recognizer that confirms a complete assignment; run on every
k^m-subset of [N]^m, it lists the cubes the m-D free-set search avoids.  The
unwindowed cube listing is the library's integer cube search as it stood
before it windowed its candidates on axis 0: it tries every unused point at
every slot, and shares the interval update and the recognizer.  The
free-set and coloring oracles are the library's searches as they stood
before they climbed a ladder over n: a branch and bound on [N] alone that
asks a closes(i, chosen) callback at every node, and a coloring search
started afresh for every N; callers hand them the edges.
The golden-section cube recognizer is the library's before it gained its
exact stages; it shares the enclosing ball and the witness type with it.
The unwindowed progression stream is the library's 1-D lex stream as it
stood before it windowed its candidates: it tries every remaining candidate
at every level, and shares the interval update.  The direct listing is the
library's hypergraph enumeration before it shifted the progressions
starting at 1: that stream, run over all of [N] and accepting by its own
open-interval test.  The every-root stream is the library's windowed
stream as it stood before it stopped at a root whose candidates translate
into an earlier root's; it shares the interval update and the window, and
the per-class first hit runs it on every color class, translated ones
included.  The repeated-root index is tried pair by pair.  The gap-ratio filter is a
necessary condition for a 1-D progression that no library code calls, and
so are the exact-progression listing, the excluded-difference test of the
alternate labelings and the HYPERGRAPH reader: the library's former public
functions of those names, kept here as test preconditions and reference
listings.  The line interval runs indexed 1-D points through the library's
interval update one at a time, and the region scale interval is the cube
recognizer's exact stage as it stood when every axis line was its own 1-D
interval; it shares the corner-pair bounds with the library.  The
power-sum builders are the library's digit-set builders as they stood
before they went through one Horner's-rule builder: each member of the
blow-ups, their blocks and the base-q digit set is summed digit by digit,
then sorted.  The translate scan is the library's dense-translate search as
it stood before it counted votes: it tries all (2N)^m shifts, |A|
membership tests each.  The line reader, the per-point certificate and the
sort-based grid indexing are the library's SET reader, WitnessMD.certifies
and index_grid_points as they stood before they worked in whole columns:
one int conversion per line, one Python loop per point, and one sort of the
points per axis.  The Fraction certificate checks a cube witness in exact
rationals, with no common denominator.
"""

import functools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from epsap.errors import DEFAULT_WORK_CAP, Budget, SearchCapExceeded
from epsap.geometry import (
    CubeDecision,
    IndexedGrid,
    IndexingError,
    WitnessMD,
    _corner_pair_bounds,
    _welzl_order,
    check_epsilon,
    check_points,
    check_points_1d,
    min_enclosing_ball,
    narrowed,
    recognize_cube,
    window,
)
from epsap.search import EpsApHypergraph


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def lp_vertex_accepts(points, eps: Fraction) -> bool:
    """Strict feasibility of |x_i - (a + i*d)| < eps*d by LP vertex search.

    Scales each constraint by den(eps) to keep everything in integers,
    enumerates all triples of the 2k+1 constraint planes (including d >= 0),
    solves by Cramer, and accepts iff some feasible vertex has s > 0.  Valid
    whenever the LP is bounded, i.e. eps < (k-1)/2.
    """
    pts = tuple(points)
    k = len(pts)
    p, q = eps.numerator, eps.denominator
    assert Fraction(p, q) < Fraction(k - 1, 2), "oracle requires a bounded LP"
    # rows: coeffs (a, d, s), rhs; constraint is coeffs . (a,d,s) <= rhs
    rows = [((0, -1, 0), 0)]
    for i, x in enumerate(pts):
        rows.append(((-q, -(i * q + p), q), -q * x))
        rows.append(((q, i * q - p, q), q * x))
    for tri in combinations(rows, 3):
        m = [row[0] for row in tri]
        rhs = [row[1] for row in tri]
        det = _det3(m)
        if det == 0:
            continue
        cols = list(zip(*m))
        num = [
            _det3(list(zip(*(cols[:j] + [tuple(rhs)] + cols[j + 1:]))))
            for j in range(3)
        ]
        if det < 0:
            det = -det
            num = [-v for v in num]
        if num[2] <= 0:  # s <= 0 at this vertex
            continue
        if all(
            c[0] * num[0] + c[1] * num[1] + c[2] * num[2] <= b * det
            for c, b in rows
        ):
            return True
    return False


def _pairwise_margin_at(pts, e, d):
    offs = [x - i * d for i, x in enumerate(pts)]
    hi, lo = max(offs), min(offs)
    return e * d - Fraction(hi - lo, 2), hi, lo


def pairwise_recognize_ap(points, eps: Fraction):
    """Margin-maximizing (a, d, margin) over all O(k^2) pairwise slopes, or None.

    The margin eps*d - (max_i(x_i - i*d) - min_i(x_i - i*d))/2 is concave and
    piecewise linear in d with every breakpoint among the slopes
    (x_j - x_i)/(j - i), so this scan finds its maximum (smallest optimal d)
    at O(k) Fraction operations per slope.  When eps > (k-1)/2 the margin is
    unbounded and the canonical witness is the smallest slope with positive
    margin, else the point on the final ray where the margin reaches 1.
    """
    pts = tuple(points)
    e = Fraction(eps)
    k = len(pts)

    breaks = sorted(
        {Fraction(pts[j] - pts[i], j - i) for i in range(k) for j in range(i + 1, k)}
    )

    best = best_hi = best_lo = best_d = None
    for d in breaks:
        m, hi, lo = _pairwise_margin_at(pts, e, d)
        if best is None or m > best:
            best, best_hi, best_lo, best_d = m, hi, lo, d

    tail_slope = e - Fraction(k - 1, 2)
    if tail_slope > 0:
        for d in breaks:
            m, hi, lo = _pairwise_margin_at(pts, e, d)
            if m > 0:
                break
        else:
            d0 = breaks[-1]
            m0, _, _ = _pairwise_margin_at(pts, e, d0)
            d = d0 + (1 - m0) / tail_slope
            m, hi, lo = _pairwise_margin_at(pts, e, d)
        return Fraction(hi + lo, 2), d, m

    if best <= 0:
        return None
    return Fraction(best_hi + best_lo, 2), best_d, best


def naive_eps_ap_subsets(universe, k, eps, recognizer):
    """All k-subsets accepted by the given recognizer, no pruning at all."""
    return tuple(
        s for s in combinations(sorted(universe), k) if recognizer(s, eps) is not None
    )


def unwindowed_eps_aps(candidates, k, eps, budget, head=(), tail=None):
    """Lex-order stream of the approximate k-progressions among candidates:
    geometry._eps_aps with every remaining candidate tried at every level,
    until one empties the interval after another has kept it.

    Each tuple starts with `head` (fewer than k points, below the
    candidates) and, when `tail` is given, ends with it (a point above the
    candidates).  One budget unit per node, the root included.
    """
    p2, q = 2 * eps.numerator, eps.denominator
    candidates = tuple(candidates)
    scaled = [(q * x,) for x in candidates]
    n, h = len(candidates), len(head)
    last = k if tail is None else k - 1  # levels filled: h .. last - 1
    chosen = list(head) + [None] * (k - h)
    if tail is not None:
        chosen[-1] = tail

    def rows(depth):  # the prefix and the tail against the point at index depth
        level = [(0, q * y, q * (depth - j) + p2, q * (depth - j) - p2)
                 for j, y in enumerate(chosen[:depth])]
        if tail is not None:
            level.append((0, q * tail, q * (depth - last) + p2, q * (depth - last) - p2))
        return level

    interval = (0, 1, None)
    for depth, x in enumerate(head):
        interval = interval and narrowed(rows(depth), (q * x,), *interval)

    def fits(start, depth, interval):  # indices that may fill level depth
        level = rows(depth)
        seen = False
        for idx in range(start, n - (last - depth) + 1):
            shrunk = narrowed(level, scaled[idx], *interval)
            if shrunk is not None:
                seen = True
                yield idx, shrunk
            elif seen:
                # The x keeping the closed interval nonempty form an interval
                # (projection of a convex set), and candidates increase.
                return

    budget.spend()
    if h == last:  # nothing to fill: head and tail are the whole tuple
        if interval:
            lo_n, lo_d, hi = interval
            if hi is None or lo_n * hi[1] < hi[0] * lo_d:  # open: lo < hi
                yield tuple(chosen)
        return
    stack = [fits(0, h, interval)] if interval else []
    while stack:
        depth = h + len(stack) - 1
        for idx, shrunk in stack[-1]:
            chosen[depth] = candidates[idx]
            budget.spend()
            if depth + 1 < last:
                stack.append(fits(idx + 1, depth + 1, shrunk))
                break
            lo_n, lo_d, hi = shrunk
            if hi is None or lo_n * hi[1] < hi[0] * lo_d:  # open: lo < hi
                yield tuple(chosen)
        else:
            stack.pop()


def every_root_eps_aps(candidates, k, eps, budget, head=(), tail=None):
    """geometry._eps_aps as it stood before it stopped at repeated roots:
    the windowed, forward-checked lex stream, which searches every root,
    also one whose candidates translate into an earlier root's."""
    p2, q = 2 * eps.numerator, eps.denominator
    candidates = tuple(candidates)  # indexed per candidate: faster than a range
    keys = [q * x for x in candidates]  # sorted, as candidates are
    scaled = [(x,) for x in keys]
    n, h = len(candidates), len(head)
    last = k if tail is None else k - 1  # levels filled: h .. last - 1
    chosen = list(head) + [None] * (k - h)
    if tail is not None:
        chosen[-1] = tail

    def rows(depth, at):  # chosen[:depth] and the tail against the point at index `at`
        level = [(0, q * y, q * (at - j) + p2, q * (at - j) - p2)
                 for j, y in enumerate(chosen[:depth])]
        if tail is not None:
            level.append((0, q * tail, q * (at - last) + p2, q * (at - last) - p2))
        return level

    interval = (0, 1, None)
    for depth, x in enumerate(head):
        interval = interval and narrowed(rows(depth, depth), (q * x,), *interval)

    def fits(start, depth, interval):
        """The indices from start on that may fill level depth, with the
        interval each leaves, or None when the window holds none."""
        level = rows(depth, depth)
        lower, upper = window(level, *interval)
        # leave a candidate for each later level; bisect reads hi = -1 as len
        stop = max(start, n - (last - depth) + 1)
        begin = bisect_left(keys, lower, start, stop)
        end = bisect_right(keys, upper, begin, stop)
        if begin == end:
            return None
        if depth + 2 >= last:  # no level between this one and the last
            return ((idx, shrunk) for idx in range(begin, end)
                    if (shrunk := narrowed(level, scaled[idx], *interval)) is not None)
        return ahead(level, begin, end, depth, interval)

    def ahead(level, begin, end, depth, interval):
        """fits' candidates whose interval leaves the last level a candidate
        inside its window, past one candidate for each level between."""
        gap = last - 1 - depth
        far = rows(depth, last - 1)  # each candidate's own row is appended in turn
        a, c = q * gap + p2, q * gap - p2
        for idx in range(begin, end):
            shrunk = narrowed(level, scaled[idx], *interval)
            if shrunk is None:
                continue
            far.append((0, keys[idx], a, c))
            lower, upper = window(far, *shrunk)
            far.pop()
            first = bisect_left(keys, lower, idx + gap)
            if first < n and keys[first] <= upper:
                yield idx, shrunk

    budget.spend()
    if h == last:  # nothing to fill: head and tail are the whole tuple
        if interval:
            lo_n, lo_d, hi = interval
            if hi is None or lo_n * hi[1] < hi[0] * lo_d:  # open: lo < hi
                yield tuple(chosen)
        return
    tries = interval and fits(0, h, interval)
    stack = [tries] if tries else []
    while stack:
        depth = h + len(stack) - 1
        for idx, shrunk in stack[-1]:
            chosen[depth] = candidates[idx]
            budget.spend()
            if depth + 1 < last:
                tries = fits(idx + 1, depth + 1, shrunk)
                if tries:
                    stack.append(tries)
                    break
                continue
            lo_n, lo_d, hi = shrunk
            if hi is None or lo_n * hi[1] < hi[0] * lo_d:  # open: lo < hi
                yield tuple(chosen)
        else:
            stack.pop()


def every_class_first_hit(coloring, k: int, eps: Fraction):
    """The (color, progression) that verify_no_mono_ap reports, found by
    searching every color class in color order with the every-root stream,
    translated classes included; None when no class holds one."""
    for c, pts in sorted(coloring.classes().items()):
        hit = next(every_root_eps_aps(pts, k, eps, Budget(10 ** 9)), None)
        if hit is not None:
            return c, hit
    return None


def naive_repeated_root(points) -> int:
    """The least j >= 1 such that points[j:] - points[j] is a prefix of
    points[i:] - points[i] for some i < j, tried pair by pair."""
    for j in range(1, len(points) + 1):
        tail = [x - points[j] for x in points[j:]]
        for i in range(j):
            if [x - points[i] for x in points[i:i + len(tail)]] == tail:
                return j
    return 1  # no points: the empty tail is a prefix of anything


def direct_eps_aps_listing(N: int, k: int, eps: Fraction) -> tuple:
    """Every approximate k-progression inside [N], searched start by start."""
    return tuple(unwindowed_eps_aps(range(1, N + 1), k, eps, Budget(10 ** 9)))


def enumerate_exact_aps(N: int, k: int) -> tuple:
    """All exact k-term progressions inside [N], lex sorted."""
    edges = []
    for a in range(1, N + 1):
        for d in range(1, (N - a) // (k - 1) + 1):
            edges.append(tuple(a + i * d for i in range(k)))
    return tuple(sorted(edges))


def excluded_difference_check(d, r: int, D: int, delta) -> bool:
    """True iff d avoids every interval ((i/q - delta)rD, (i/q + delta)rD).

    Exact: d is inside the excluded set for denominator q iff the distance
    from d*q/(r*D) to the nearest integer is strictly below q*delta.
    """
    dv, dl = Fraction(d), Fraction(delta)
    period = r * D
    for q in range(1, r + 1):
        z = dv * q / period
        frac = z - (z.numerator // z.denominator)
        if min(frac, 1 - frac) < q * dl:
            return False
    return True


def read_hypergraph(text: str) -> EpsApHypergraph:
    """The hypergraph of a HYPERGRAPH file as the library writes it: a
    '# N=<N> k=<k> eps=<p>/<q>' header, then one edge per line."""
    head, *rows = text.splitlines()
    fields = dict(tok.split("=") for tok in head.lstrip("#").split())
    edges = tuple(tuple(int(x) for x in row.split()) for row in rows if row.strip())
    return EpsApHypergraph(N=int(fields["N"]), k=int(fields["k"]),
                           eps=Fraction(fields["eps"]), edges=edges)


def gap_ratio_filter(points, eps) -> bool:
    """Necessary consecutive-gap test for approximate progressions.

    True iff every ratio of consecutive gaps lies strictly inside
    (1 - 5*eps, 1 + 5*eps).  For eps < 1/10 a False verdict guarantees that
    recognize_ap rejects; with fewer than 3 points the test is vacuous.
    """
    pts = check_points_1d(points)
    e = check_epsilon(eps)
    if len(pts) < 3:
        return True
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    hi, lo = max(gaps), min(gaps)
    five = 5 * e
    return Fraction(hi, lo) - 1 < five and 1 - Fraction(lo, hi) < five


def line_interval(pairs, eps) -> Optional[tuple]:
    """The closed d interval of the indexed points (i, x), i increasing:
    the d >= 0 at which some a has a + (i - eps)*d <= x <= a + (i + eps)*d
    for every pair.  Each point runs through `narrowed` against the earlier
    ones.  Returns (lo_num, lo_den, hi), hi a pair or None while unbounded,
    or None once the interval is empty."""
    p2, q = 2 * eps.numerator, eps.denominator
    interval, seen = (0, 1, None), []
    for i, x in pairs:
        interval = narrowed([(0, q * y, q * (i - j) + p2, q * (i - j) - p2) for j, y in seen],
                            (q * x,), *interval)
        if interval is None:
            return None
        seen.append((i, x))
    return interval


def region_scale_interval(grid: IndexedGrid, eps: Fraction) -> Optional[tuple]:
    """The cube recognizer's open d interval, one 1-D interval per axis line.

    Each axis line's k points go through line_interval; its closed
    interval, or None once emptied, is then intersected with the others and
    with the corner-pair bounds.  Returns ((lo_num, lo_den), (hi_num,
    hi_den)) or None once the open intersection is empty.
    """
    k, m = grid.k, grid.m
    points = grid.assignment

    def line_bounds():
        for j in range(m):
            for rest in product(range(k), repeat=m - 1):
                line = line_interval(
                    [(i, points[rest[:j] + (i,) + rest[j:]][j]) for i in range(k)], eps)
                yield None if line is None else (line[:2], line[2])

    lo, hi = (0, 1), None
    for bounds in (*line_bounds(), *_corner_pair_bounds(grid, eps)):
        if bounds is None:
            return None
        b_lo, b_hi = bounds
        if b_lo[0] * lo[1] > lo[0] * b_lo[1]:
            lo = b_lo
        if hi is None or b_hi[0] * hi[1] < hi[0] * b_hi[1]:
            hi = b_hi
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return None
    return lo, hi


def has_exact_ap(values, k) -> bool:
    vs = set(values)
    for a in vs:
        d = 1
        while a + (k - 1) * d <= max(vs):
            if all(a + i * d in vs for i in range(k)):
                return True
            d += 1
    return False


def _circle_two(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    return (cx, cy), math.dist(a, b) / 2.0


def _circle_three(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-12:
        return None
    ux = ((a[0] ** 2 + a[1] ** 2) * (b[1] - c[1])
          + (b[0] ** 2 + b[1] ** 2) * (c[1] - a[1])
          + (c[0] ** 2 + c[1] ** 2) * (a[1] - b[1])) / d
    uy = ((a[0] ** 2 + a[1] ** 2) * (c[0] - b[0])
          + (b[0] ** 2 + b[1] ** 2) * (a[0] - c[0])
          + (c[0] ** 2 + c[1] ** 2) * (b[0] - a[0])) / d
    center = (ux, uy)
    return center, max(math.dist(center, p) for p in (a, b, c))


def naive_enclosing_circle_2d(points):
    """Best circle through every pair or triple that covers all points."""
    pts = [tuple(map(float, p)) for p in points]
    if len(pts) == 1:
        return pts[0], 0.0
    best = None
    slack = 1 + 1e-9
    for pair in combinations(pts, 2):
        center, radius = _circle_two(*pair)
        if all(math.dist(center, p) <= radius * slack + 1e-9 for p in pts):
            if best is None or radius < best[1]:
                best = (center, radius)
    for tri in combinations(pts, 3):
        circ = _circle_three(*tri)
        if circ is None:
            continue
        center, radius = circ
        if all(math.dist(center, p) <= radius * slack + 1e-9 for p in pts):
            if best is None or radius < best[1]:
                best = (center, radius)
    return best


def lex_first_max_free_set(n, edges):
    """Lex-smallest among the largest subsets of range(n) containing no edge.

    Tries every subset, largest sizes first; combinations come in lex order.
    """
    for size in range(n, -1, -1):
        for sub in combinations(range(n), size):
            chosen = set(sub)
            if not any(chosen.issuperset(e) for e in edges):
                return sub


def count_bound_max_free(n, closes, budget, incumbent=None, room=None):
    """Largest set of indices in range(n) closing no edge, lex-first among ties.

    closes(i, chosen) tells whether adding index i to the indices marked in
    the bool list `chosen` completes an edge.  Include-first branch and bound
    with one budget unit per node: the first leaf reached is the greedy set
    (also accepted as a preloaded incumbent), incumbents are replaced only on
    strict improvement, and a branch is pruned when it cannot strictly
    improve, so the lex-first optimum survives.  room[i] bounds how many of
    the indices i..n-1 a free set can hold; by default it is their count
    (the count bound).  The search stops at the first leaf that reaches
    room[0], and once room[1] cannot beat the best set, an include after
    which n - 1 would close an edge is skipped.  An explicit stack keeps
    the Python depth constant.  Returns (indices, completed); a capped
    search returns the best set found so far.
    """
    if room is None:
        room = range(n, -1, -1)
    chosen = [False] * n
    best = () if incumbent is None else tuple(incumbent)
    best_size = -1 if incumbent is None else len(best)
    size = 0  # number of chosen indices
    stack = [0]  # indices to visit; ~i undoes the choice of i
    try:
        while stack:
            i = stack.pop()
            if i < 0:
                chosen[~i] = False
                size -= 1
                continue
            budget.spend()
            if size + room[i] <= best_size:
                continue
            if i == n:
                best_size = size
                best = tuple(j for j in range(n) if chosen[j])
                if size >= room[0]:
                    break
                continue
            stack.append(i + 1)
            if not closes(i, chosen):
                chosen[i] = True
                if room[1] <= best_size and closes(n - 1, chosen):
                    chosen[i] = False
                    continue
                size += 1
                stack.append(~i)
                stack.append(i + 1)
    except SearchCapExceeded:
        return best, False
    return best, True


def edge_closes(n, edges):
    """closes(i, chosen) of the free-set searches, for edges of range(n)."""
    by_max = [[] for _ in range(n)]
    for edge in edges:
        by_max[edge[-1]].append(edge[:-1])
    return lambda i, chosen: any(all(chosen[j] for j in rest) for rest in by_max[i])


def first_fit(n, closes) -> tuple:
    """The indices of range(n) kept in turn when they close no edge with
    those kept before: the first leaf of the include-first searches."""
    chosen = [False] * n
    for i in range(n):
        chosen[i] = not closes(i, chosen)
    return tuple(i for i in range(n) if chosen[i])


def greedy_free_set(N, edges) -> tuple:
    """The first-fit subset of [N] containing no edge (1-based edges)."""
    closes = edge_closes(N, [tuple(p - 1 for p in e) for e in edges])
    return tuple(i + 1 for i in first_fit(N, closes))


def count_bound_free_set(N, edges):
    """(kind, value, witness) of the largest subset of [N] containing no edge,
    by one count-bound search on [N] seeded with the greedy set."""
    closes = edge_closes(N, [tuple(p - 1 for p in e) for e in edges])
    greedy = tuple(x - 1 for x in greedy_free_set(N, edges))
    best, completed = count_bound_max_free(N, closes, Budget(10 ** 8), greedy)
    return ("value" if completed else "lower_bound_only", len(best),
            tuple(i + 1 for i in best))


def recursive_good_coloring(N: int, r: int, edges, budget):
    """Canonical r-coloring of [N] with no monochromatic edge, or None.

    Backtracking in element order.  Colors are propagated as per-element
    forbidden sets: color c is forbidden at x when some edge ending at x has
    all other elements colored c.  Symmetry is broken canonically: element 1
    gets color 1 and a new color may only follow all smaller ones.
    """
    by_max = [[] for _ in range(N + 1)]
    for edge in edges:
        by_max[edge[-1]].append(edge[:-1])
    colors = [0] * (N + 1)

    def backtrack(x: int, used: int) -> bool:
        budget.spend()
        if x > N:
            return True
        forbidden = set()
        for rest in by_max[x]:
            c = colors[rest[0]]
            if all(colors[y] == c for y in rest[1:]):
                forbidden.add(c)
        for c in range(1, min(r, used + 1) + 1):
            if c in forbidden:
                continue
            colors[x] = c
            if backtrack(x + 1, max(used, c)):
                return True
        colors[x] = 0
        return False

    if backtrack(1, 0):
        return colors[1:]
    return None


def per_n_least_forcing(r: int, edges_of, n_max: int):
    """(kind, value, good coloring list) of the least N <= n_max whose every
    r-coloring has a monochromatic edge, solving each N from scratch;
    edges_of(N) lists the edges of [N]."""
    last_good = []
    for N in range(1, n_max + 1):
        good = recursive_good_coloring(N, r, edges_of(N), Budget(10 ** 8))
        if good is None:
            return "value", N, last_good
        last_good = good
    return "lower_bound_only", n_max, last_good


_WELZL_SEED = 0x5EB21


def _circumsphere(boundary):
    """Ball through all boundary points, centered in their affine hull.

    Solves the Gram system G @ lam = |u_i|^2 / 2 with u_i = p_i - p_0;
    returns None if the points are (numerically) affinely dependent.
    """
    p0 = boundary[0]
    us = [tuple(c - c0 for c, c0 in zip(p, p0)) for p in boundary[1:]]
    n = len(us)
    if n == 0:
        return p0, 0.0
    # Gaussian elimination with partial pivoting on the Gram matrix.
    g = [[sum(a * b for a, b in zip(us[r], us[c])) for c in range(n)] for r in range(n)]
    rhs = [sum(a * a for a in us[r]) / 2.0 for r in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(g[r][col]))
        if abs(g[piv][col]) < 1e-12:
            return None
        g[col], g[piv] = g[piv], g[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, n):
            f = g[r][col] / g[col][col]
            for c in range(col, n):
                g[r][c] -= f * g[col][c]
            rhs[r] -= f * rhs[col]
    lam = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r] - sum(g[r][c] * lam[c] for c in range(r + 1, n))
        lam[r] = acc / g[r][r]
    center = tuple(
        c0 + sum(lam[r] * us[r][axis] for r in range(n))
        for axis, c0 in enumerate(p0)
    )
    radius = math.dist(center, p0)
    return center, radius


def _inside(ball, p) -> bool:
    if ball is None:
        return False
    center, radius = ball
    return math.dist(center, p) <= radius * (1 + 1e-12) + 1e-12


def recursive_welzl_ball(points):
    """Smallest enclosing Euclidean ball by Welzl's recursive algorithm.

    One Python frame per point, so only for small inputs.  A fixed shuffle
    seed keeps repeated calls deterministic.  Returns (center, radius) as floats; containment
    holds up to the usual floating slack.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points must share one dimension")
    rng = random.Random(_WELZL_SEED)
    rng.shuffle(pts)

    def welzl(idx: int, boundary):
        if idx == len(pts) or len(boundary) == dim + 1:
            if not boundary:
                return None
            return _circumsphere(boundary)
        ball = welzl(idx + 1, boundary)
        p = pts[idx]
        if ball is not None and _inside(ball, p):
            return ball
        return welzl(idx + 1, boundary + [p])

    ball = welzl(0, [])
    if ball is None:
        # only possible for a single repeated point after degenerate solves
        return pts[0], 0.0
    return ball


def fraction_verify_cube_free(S, m: int, k: int, eps,
                              work_cap: int = 20_000_000) -> Optional[tuple]:
    """The cube search as it stood before its pruner went to integers.

    First approximate cube found in S (lex order of assignments) as
    (grid, CubeDecision), or None.

    DFS assigns points to index vectors in lex order.  Each partial
    assignment keeps the exact interval of scales d allowed by the
    per-axis box constraints |x_j - (a_j + d*v_j)| <= eps*d (a necessary
    consequence of the ball constraint); an empty interval prunes.  Complete
    assignments are confirmed by the numeric ball recognizer; only a
    'feasible' verdict counts, so boundary candidates are skipped.

    Because every injective index assignment is tried explicitly, no sorted-
    order disambiguation is needed and any eps accepted by the recognizer is
    allowed (in particular eps = 1/2); one the recognizer refuses
    (2 eps >= k - 1) is refused first, whatever the points.
    """
    e = check_epsilon(eps)
    if 2 * e >= k - 1:
        raise ValueError(f"eps={e} too large; recognize_cube needs eps < (k-1)/2")
    points = sorted(set(tuple(p) for p in S))
    slots = sorted(product(range(k), repeat=m))
    total = k ** m
    if len(points) < total:
        return None
    for p in points:
        if len(p) != m:
            raise ValueError(f"point {p!r} is not {m}-dimensional")

    two_eps = 2 * e
    budget = Budget(work_cap)

    def narrowed(d_lo, d_hi, v, p, assigned):
        """Intersect the d interval with the constraints p brings against
        every already assigned point; returns None when it empties."""
        for v2, p2 in assigned:
            for axis in range(m):
                dv = v[axis] - v2[axis]
                dx = p[axis] - p2[axis]
                for c, rhs in ((dv + two_eps, dx), (-dv + two_eps, -dx)):
                    if c > 0:
                        b = Fraction(rhs) / c
                        if b > d_lo:
                            d_lo = b
                    elif rhs > 0:
                        return None
                if d_hi is not None and d_lo > d_hi:
                    return None
                # upper bounds come from c < 0 cases of the same pairs
                for c, rhs in ((dv - two_eps, dx), (-dv - two_eps, -dx)):
                    if c > 0:
                        b = Fraction(rhs) / c
                        if d_hi is None or b < d_hi:
                            d_hi = b
                if d_hi is not None and d_lo > d_hi:
                    return None
        return d_lo, d_hi

    assigned: list = []
    used: set = set()

    def recurse(slot_idx: int, d_lo, d_hi):
        budget.spend()
        if slot_idx == total:
            grid = IndexedGrid(m=m, k=k,
                               assignment={v: p for v, p in assigned})
            decision = recognize_cube(grid, e)
            if decision.status == "feasible":
                return grid, decision
            return None
        v = slots[slot_idx]
        for p in points:
            if p in used:
                continue
            shrunk = narrowed(d_lo, d_hi, v, p, assigned)
            if shrunk is None:
                continue
            assigned.append((v, p))
            used.add(p)
            hit = recurse(slot_idx + 1, *shrunk)
            assigned.pop()
            used.discard(p)
            if hit is not None:
                return hit
        return None

    return recurse(0, Fraction(0), None)


def unwindowed_cubes(points, m: int, k: int, e, budget):
    """Every approximate cube among `points` (distinct, sorted m-tuples), as
    (grid, CubeDecision), in lex order of assignments: geometry._cubes with
    every unused point tried at every slot, each node spending one unit of
    `budget`, the root included."""
    total = k ** m
    slots = sorted(product(range(k), repeat=m))
    p2, q = 2 * e.numerator, e.denominator
    scaled = [tuple(q * c for c in p) for p in points]

    assigned: list = []
    used: set = set()

    def fits(lo_n, lo_d, hi):
        v = slots[len(assigned)]
        rows = [
            (axis, y[axis], span + p2, span - p2)
            for v2, _, y in assigned
            for axis, span in enumerate([q * (c - c2) for c, c2 in zip(v, v2)])
        ]
        for p, x in zip(points, scaled):
            if p in used:
                continue
            shrunk = narrowed(rows, x, lo_n, lo_d, hi)
            if shrunk is not None:
                yield (v, p, x), shrunk

    budget.spend()
    stack = [fits(0, 1, None)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if assigned:
                used.discard(assigned.pop()[1])
            continue
        slot, shrunk = step
        assigned.append(slot)
        used.add(slot[1])
        budget.spend()
        if len(assigned) < total:
            stack.append(fits(*shrunk))
            continue
        grid = IndexedGrid(m=m, k=k, assignment={v: p for v, p, _ in assigned})
        decision = recognize_cube(grid, e)
        if decision.status == "feasible":
            yield grid, decision
        used.discard(assigned.pop()[1])


@functools.cache
def brute_force_cubes(N: int, m: int, k: int, eps) -> tuple:
    """The k^m-subsets of [N]^m (lex order) holding an approximate cube, as
    sorted index tuples into that order: fraction_verify_cube_free on each."""
    points = list(product(range(1, N + 1), repeat=m))
    return tuple(c for c in combinations(range(len(points)), k ** m)
                 if fraction_verify_cube_free([points[i] for i in c], m, k, eps)
                 is not None)


def _cube_eps_float(eps) -> float:
    if isinstance(eps, float):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        return eps
    return float(check_epsilon(eps))


def golden_section_recognize_cube(grid: IndexedGrid, eps,
                                  tol: float = 1e-9) -> CubeDecision:
    """The cube recognizer as it stood before its exact stages: golden
    section over the whole of (0, d_max], every verdict numeric.

    Minimizes g(d) = R(d) - eps*d over (0, d_max] by golden-section search,
    where R(d) is the smallest-enclosing-ball radius of {x_v - d*v} and
    d_max = max_j spread_j / (k - 1 - 2*eps) bounds every feasible scale.
    Verdicts: feasible when min g < -tol*d_max (with witness), infeasible
    when min g > +tol*d_max, boundary otherwise.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    e = _cube_eps_float(eps)
    k, m = grid.k, grid.m
    pairs = grid.items_in_index_order()
    pts = [p for _, p in pairs]
    vecs = [v for v, _ in pairs]

    denom = (k - 1) - 2 * e
    if denom <= 0:
        raise ValueError(
            f"eps={e} too large for the scale bound; recognize_cube needs eps < (k-1)/2"
        )
    spreads = [
        max(p[j] for p in pts) - min(p[j] for p in pts) for j in range(m)
    ]
    d_max = max(spreads) / denom
    if d_max <= 0:
        return CubeDecision("infeasible", None, False)

    # One processing order serves every ball: nearby scales share most of
    # their support, so each call starts from the previous one's.
    order = _welzl_order(len(pts))
    axes = [([float(p[j]) for p in pts], [v[j] for v in vecs]) for j in range(m)]

    def shifted(d: float) -> list:
        return list(zip(*[[x - d * u for x, u in zip(xs, us)] for xs, us in axes]))

    def g_of(d: float) -> float:
        _, radius = min_enclosing_ball(shifted(d), order)
        return radius - e * d

    lo = d_max * 2.0 ** -60
    hi = d_max
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = g_of(x1), g_of(x2)
    best_d, best_g = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(200):
        if hi - lo < tol * d_max:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = g_of(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = g_of(x2)
        for d, f in ((x1, f1), (x2, f2)):
            if f < best_g:
                best_d, best_g = d, f

    if best_g < -tol * d_max:
        center, _ = min_enclosing_ball(shifted(best_d), order)
        witness = WitnessMD(a=center, d=best_d, residual=-best_g)
        return CubeDecision("feasible", witness, False)
    if best_g > tol * d_max:
        return CubeDecision("infeasible", None, False)
    return CubeDecision("boundary", None, False)


def _power_sums(k: int, r: int, t: int) -> list:
    """sum b_p t^p over every digit vector in {0..k-1}^r, unsorted."""
    return [sum(b * t ** p for p, b in enumerate(bs)) for bs in product(range(k), repeat=r)]


def power_sum_blowup(k: int, r: int, t: int) -> tuple:
    """The r-fold base-t blow-up of {0..k-1}, sorted."""
    return tuple(sorted(_power_sums(k, r, t)))


def power_sum_blowup_blocks(k: int, r: int, t: int) -> list:
    """The k blocks (i, members) of the blow-up: the (r-1)-fold blow-up
    shifted by i t^(r-1)."""
    step = t ** (r - 1)
    if r == 1:
        return [(i, (i,)) for i in range(k)]
    prefix = _power_sums(k, r - 1, t)
    return [(i, tuple(sorted(w + i * step for w in prefix))) for i in range(k)]


def power_sum_cube_blowup(m: int, k: int, r: int, t: int) -> tuple:
    """The m-fold product of the blow-up, as sorted m-tuples."""
    return tuple(sorted(product(sorted(_power_sums(k, r, t)), repeat=m)))


def power_sum_cube_blocks(m: int, k: int, r: int, t: int) -> list:
    """The k^m blocks (u, members) of the cube blow-up: the m-fold product of
    the (r-1)-fold blow-up shifted by t^(r-1) u."""
    step = t ** (r - 1)
    if r == 1:
        prefix = [(0,) * m]
    else:
        prefix = list(product(_power_sums(k, r - 1, t), repeat=m))
    out = []
    for u in product(range(k), repeat=m):
        shift = tuple(step * c for c in u)
        out.append((u, tuple(sorted(
            tuple(w + s for w, s in zip(p, shift)) for p in prefix
        ))))
    return out


def power_sum_digit_set(q: int, h: int, head, tail) -> tuple:
    """The h-digit base-q numbers with leading digit in head and every other
    digit in tail, sorted."""
    return tuple(sorted(
        top * q ** (h - 1) + sum(dg * q ** i for i, dg in enumerate(rest))
        for top in head for rest in product(tail, repeat=h - 1)))


def behrend3_from_one_digit(n: int) -> tuple:
    """The sphere digit construction as it stood when it also tried one
    digit, whose spheres are single points."""
    if n <= 2:
        return tuple(range(n))
    best: tuple = (0,)
    max_digits = max(1, int(math.log2(n)))
    for ndig in range(1, max_digits + 1):
        base = math.ceil(n ** (1.0 / ndig))
        while base ** ndig < n:
            base += 1
        dmax = (base - 1) // 2
        if dmax < 1 and ndig > 1:
            continue
        spheres: dict = {}
        for digits in product(range(dmax + 1), repeat=ndig):
            value = sum(dg * base ** i for i, dg in enumerate(digits))
            if value < n:
                spheres.setdefault(sum(dg * dg for dg in digits), []).append(value)
        candidate = max(spheres.values(), key=lambda vs: (len(vs), vs))
        if len(candidate) > len(best):
            best = tuple(sorted(candidate))
    return best


def scan_dense_translate(A, X, N: int, m: int, work_cap: int = DEFAULT_WORK_CAP):
    """(shift, count, bound): the lex-smallest shift u in [-N+1, N]^m with
    the most points of X in A + u, found by trying every shift at |A| units
    of Budget(work_cap) each, and the average |X||A| / (2N)^m."""
    a_pts = check_points(A, m)
    x_set = set(check_points(X, m))
    total_shifts = (2 * N) ** m
    scan = total_shifts * len(a_pts)
    bound = Fraction(len(x_set) * len(a_pts), total_shifts)
    budget = Budget(work_cap)

    def count_at(u):
        budget.spend(len(a_pts))
        return sum(
            1 for p in a_pts if tuple(c + s for c, s in zip(p, u)) in x_set
        )

    if scan > work_cap:
        budget.spend(scan)  # raises, as the scan would
    best_u, best_c = None, -1
    for u in product(range(-N + 1, N + 1), repeat=m):
        c = count_at(u)
        if c > best_c:
            best_u, best_c = u, c
    return best_u, best_c, bound


def line_read_set(text: str, m: int) -> tuple:
    """The m-D points of a SET file, read one line at a time: the first line
    holding a token that is no integer is named, then the first point that
    is not m-dimensional; the points come back sorted and distinct."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise ValueError(f"set file line {ln}: {raw!r} is not integers") from exc
        rows.append(row)
    bad = next((p for p in rows if len(p) != m), None)
    if bad is not None:
        raise ValueError(f"point {bad!r} is not {m}-dimensional")
    return tuple(sorted(set(rows)))


def point_certifies(witness: WitnessMD, grid: IndexedGrid, eps) -> bool:
    """q^2 * |L*x_v - L*a - L*d*v|^2 < (p * L*d)^2 for eps = p/q, tested
    point by point over the common denominator L of a and d."""
    e = check_epsilon(eps)
    ratios = [c.as_integer_ratio() for c in (*witness.a, witness.d)]
    den = math.lcm(*(q for _, q in ratios))
    *a, d = [n * (den // q) for n, q in ratios]
    if d <= 0:
        return False
    bound = (e.numerator * d) ** 2
    qq = e.denominator ** 2
    for v, x in grid.assignment.items():
        norm = 0
        for xc, ac, vc in zip(x, a, v):
            t = den * xc - ac - d * vc
            norm += t * t
        if norm * qq >= bound:
            return False
    return True


def fraction_certifies(witness: WitnessMD, grid: IndexedGrid, eps: Fraction) -> bool:
    """|x_v - a - d*v|^2 < (eps*d)^2 for every v, in Fractions."""
    a = [Fraction(c) for c in witness.a]
    d = Fraction(witness.d)
    return d > 0 and all(
        sum((x - ac - d * u) ** 2 for x, ac, u in zip(p, a, v)) < (eps * d) ** 2
        for v, p in grid.assignment.items())


def sort_index_grid_points(point_set, m: int, k: int, eps) -> IndexedGrid:
    """index_grid_points by sorting the points themselves on each axis and
    appending each point's cluster rank to its index vector."""
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    e = check_epsilon(eps)
    if e >= Fraction(1, 2):
        raise ValueError(f"index recovery requires eps < 1/2, got {e}")
    pts = check_points(point_set, m)
    if len(pts) != k ** m:
        raise ValueError(f"expected {k ** m} distinct points, got {len(pts)}")
    cluster = k ** (m - 1)
    index_of = {p: [] for p in pts}
    for axis in range(m):
        order = sorted(pts, key=lambda p: p[axis])  # stable: pts is sorted
        coords = [p[axis] for p in order]
        for c in range(1, k):
            if coords[c * cluster - 1] == coords[c * cluster]:
                raise IndexingError(
                    f"axis {axis}: tied coordinate {coords[c * cluster]} straddles "
                    f"the cluster boundary at rank {c}"
                )
        for rank, p in enumerate(order):
            index_of[p].append(rank // cluster)
    assignment = {tuple(idx): p for p, idx in index_of.items()}
    if len(assignment) != k ** m:
        raise IndexingError("per-axis clustering produced a non-injective indexing")
    return IndexedGrid(m, k, assignment)
