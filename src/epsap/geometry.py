"""Exact and numeric recognizers for approximate progressions and cubes, and
the listings of both.

The 1-D recognizer decides, in exact rational arithmetic, whether k strictly
increasing integers fit inside open balls of radius eps*d around some real
progression a, a+d, ..., a+(k-1)d.  Feasibility is decided by maximizing the
common slack

    margin(d) = eps*d - (max_i(x_i - i*d) - min_i(x_i - i*d)) / 2

over d > 0.  The margin is concave and piecewise linear in d, and its
breakpoints are the edge slopes of the upper and lower convex hulls of the
points (i, x_i): the max term changes its maximizer only along the upper
hull, the min term only along the lower one.  Both hulls take O(k) to build
(Andrew's monotone chain, the points already come sorted by i), and one merge
walk along them evaluates the margin at every breakpoint in O(1) integer
operations each, with eps = p/q and every candidate d = dy/dx kept as an
integer pair.  A positive maximum is equivalent to strict feasibility, and
the midrange of {x_i - i*d} at the smallest optimal d gives the intercept a.

Both listings prune by the closed interval of scales d of a partial tuple
or cube, kept the same way; `narrowed` is the one update of it, also for
the axis lines of a grid, and `window` bounds the coordinates of the
candidates that can keep it nonempty.  No other module reads the rows or
the interval.  The region_* functions wrap it for one progression at a
time; nothing in the package calls them.

One lex-order stream (_eps_aps) lists approximate progressions: each level
tries only the candidates inside the window that the closed d interval of
the prefix allows, and every one outside it would empty that interval.  A
level with another between it and the last also looks ahead to the last
one (forward checking: Haralick and Elliott, "Increasing tree search
efficiency for constraint satisfaction problems", 1980).  A candidate is
dropped before it becomes a node when the last level's window, over the
interval the candidate leaves, holds no candidate far enough past it.  No
tuple is lost: a deeper interval lies inside this one, the window shrinks
with the interval, and the rows of the levels between only narrow it.  The
stream accepts a full tuple exactly when its open interval is nonempty,
the exact recognizer's verdict, so pruned output equals naive output.  A
progression shifted by t is one with the same d, so a stream with no head
and no tail that has yielded nothing stops at the first root whose
candidates translate into an earlier root's, and verify_no_mono_ap does
not search a color class that translates one it found free.  The cube
listing (_cubes) assigns points to index vectors in lex order under the
same update, tries at each slot only the points inside the axis-0 window,
and yields the full assignments that recognize_cube finds feasible.  The
searches of the search and density modules optimize over
these two listings.

The m-D recognizer settles almost every grid exactly.  The least-squares
scale and center, else one smallest enclosing ball at that scale, give a
witness checked in exact arithmetic; failing both, the exact d intervals
of the axis lines and of the corner pairs are intersected, and an empty
intersection proves the grid infeasible.  Only the grids both leave open
are searched numerically: it minimizes g(d) = R(d) - eps*d, where R(d) is
the smallest-enclosing-ball radius of the translated family {x_v - d*v}.
R is a partial minimization of a jointly convex function, hence g is
convex.  Every ball's center is checked exactly as it is built, so a
feasible verdict is always certified; only the search's infeasible and
boundary verdicts are numeric, with the fixed tolerance DEFAULT_TOL.  Like
every other function here, the cube code takes eps as an exact rational and
refuses a float.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, combinations, islice, product, repeat
from operator import add, lt, mul
from typing import Mapping, NamedTuple, Optional, Sequence

__all__ = [
    "Witness1D",
    "WitnessMD",
    "IndexedGrid",
    "CubeDecision",
    "FeasibleRegion2D",
    "IndexingError",
    "to_fraction",
    "check_epsilon",
    "check_points_1d",
    "check_points",
    "recognize_ap",
    "region_new",
    "region_add_point",
    "region_closed_empty",
    "min_enclosing_ball",
    "recognize_cube",
    "index_grid_points",
]

DEFAULT_TOL = 1e-9  # the numeric cube verdicts' tolerance, relative to d_max
_FLOAT_BITS = 500  # below 2^500, squared distances in the ball code stay finite


class IndexingError(ValueError):
    """A point set cannot be unambiguously indexed as a grid."""


def to_fraction(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to a Fraction.

    Floats are refused on purpose: the 1-D feasibility decisions are exact,
    and a binary float silently changes the question being asked
    (1/3 != 0.3333...).
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as an exact rational") from exc
    raise TypeError(
        f"expected int, Fraction or 'p/q' string, got {type(value).__name__}"
    )


def check_epsilon(eps, *, set_level: bool = False) -> Fraction:
    """Validate an approximation parameter and return it as a Fraction.

    Set-level recognition additionally requires eps < 1/2: below that bound
    the balls around a+i*d are pairwise disjoint, so sorted order is the only
    possible indexing.  At eps >= 1/2 the indexing is ambiguous and set-level
    questions are refused rather than guessed.
    """
    e = to_fraction(eps)
    if e.numerator <= 0:  # a Fraction keeps its sign in the numerator
        raise ValueError(f"eps must be positive, got {e}")
    if set_level and 2 * e.numerator >= e.denominator:
        raise ValueError(
            f"set-level recognition requires eps < 1/2 (got {e}): "
            "the index permutation is ambiguous otherwise"
        )
    return e


def check_points_1d(points, fewest: int = 2) -> tuple:
    """Validate a strictly increasing sequence of at least `fewest` integers."""
    pts = tuple(points)
    if len(pts) < fewest:
        raise ValueError(f"need at least {fewest} points, got {len(pts)}")
    for p in pts:
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError(f"points must be integers, got {p!r}")
    for a, b in zip(pts, pts[1:]):
        if a >= b:
            raise ValueError(f"points must be strictly increasing, got {a} >= {b}")
    return pts


class _Points(tuple):
    """A point set that check_points returned: a sorted tuple of distinct
    integer tuples of one length."""

    __slots__ = ()


def check_points(points, m: int) -> tuple:
    """Validate a set of integer m-tuples, bools excluded, and return it as
    a sorted tuple of distinct tuples; anything else is a one-line
    ValueError naming a bad point.  A set this function returned passes
    again at once, so a set read at the boundary is checked only there, and
    a set already strictly increasing is kept as it is, not sorted again."""
    if type(points) is _Points and (not points or len(points[0]) == m):
        return points
    pts = list(map(tuple, points))
    # One pass over the lengths and one over the coordinate types; a bad
    # point is looked up only once one is known to exist.
    if set(map(len, pts)) - {m}:
        bad = next(p for p in pts if len(p) != m)
        raise ValueError(f"point {bad!r} is not {m}-dimensional")
    if set(map(type, chain.from_iterable(pts))) - {int}:
        bad = next(p for p in pts if any(type(c) is not int for c in p))
        raise ValueError(f"points must be integer {m}-tuples, got {bad!r}")
    if all(map(lt, pts, islice(pts, 1, None))):
        return _Points(pts)
    return _Points(sorted(set(pts)))


class Witness1D(NamedTuple):
    """An exact certificate (a, d) for a 1-D approximate progression.

    margin = eps*d - spread(d)/2 where spread(d) is the range of the offsets
    x_i - i*d; it is positive exactly when every residual |x_i - (a + i*d)|
    is strictly below eps*d.
    """

    a: Fraction
    d: Fraction
    margin: Fraction

    def residuals(self, points: Sequence[int]) -> tuple:
        return tuple(abs(x - (self.a + i * self.d)) for i, x in enumerate(points))

    def certifies(self, points: Sequence[int], eps) -> bool:
        """Exact strict check of the defining inequalities."""
        e = check_epsilon(eps)
        if self.d <= 0:
            return False
        bound = e * self.d
        return all(r < bound for r in self.residuals(points))


def _margin_at(pts: tuple, e: Fraction, d: Fraction):
    offs = [x - i * d for i, x in enumerate(pts)]
    hi, lo = max(offs), min(offs)
    return e * d - Fraction(hi - lo, 2), hi, lo


def _hull_chain(pts: tuple, turn: int) -> list:
    """Indices of the upper (turn=1) or lower (turn=-1) convex hull of the
    points (i, pts[i]), left to right, without collinear vertices."""
    chain = []
    for i, x in enumerate(pts):
        while len(chain) >= 2:
            j, h = chain[-2], chain[-1]
            y = pts[j]
            if turn * ((h - j) * (x - y) - (pts[h] - y) * (i - j)) < 0:
                break
            chain.pop()
        chain.append(i)
    return chain


def recognize_ap(points, eps) -> Optional[Witness1D]:
    """Decide exactly whether the points form an approximate progression.

    Returns the margin-maximizing witness (smallest optimal d; the intercept
    a is then the unique midrange), or None when the maximum margin is <= 0,
    i.e. when no (a, d) with d > 0 satisfies every strict inequality
    |x_i - (a + i*d)| < eps*d.

    Points are taken in sorted order as x_0 < x_1 < ... < x_{k-1}; for
    eps < 1/2 this is the only indexing a witness can use.  Any positive eps
    is accepted here (indexed recognition); set-level callers enforce
    eps < 1/2 themselves.
    """
    pts = check_points_1d(points)
    e = check_epsilon(eps)
    k = len(pts)
    p2, q = 2 * e.numerator, e.denominator

    if p2 > q * (k - 1):  # eps > (k-1)/2
        return _unbounded_witness(pts, e)

    # Breakpoints in increasing d: the upper hull's edges right to left, the
    # lower hull's left to right, each as (dy, dx, vertex).  Past an upper
    # edge (i0, i1) the max term's maximizer is i0; past a lower edge the min
    # term's minimizer is i1; at the breakpoint both ends attain the extreme.
    upper = _hull_chain(pts, 1)
    lower = _hull_chain(pts, -1)
    ups = [(pts[i1] - pts[i0], i1 - i0, i0)
           for i0, i1 in zip(upper[-2::-1], upper[:0:-1])]
    lows = [(pts[i1] - pts[i0], i1 - i0, i1) for i0, i1 in zip(lower, lower[1:])]
    u, l = k - 1, 0
    nu = nl = 0
    best = None  # (numerator, dy, dx, u, l); margin = numerator / (2*q*dx)
    while nu < len(ups) or nl < len(lows):
        if nl == len(lows) or (
                nu < len(ups) and ups[nu][0] * lows[nl][1] <= lows[nl][0] * ups[nu][1]):
            dy, dx, u = ups[nu]
            nu += 1
        else:
            dy, dx, l = lows[nl]
            nl += 1
        num = dy * (p2 + q * (u - l)) - q * dx * (pts[u] - pts[l])
        if best is None or num * best[2] > best[0] * dx:
            best = (num, dy, dx, u, l)
        elif num * best[2] < best[0] * dx:
            break  # the margin is concave: past its peak it only falls

    num, dy, dx, u, l = best
    if num <= 0:
        return None
    return Witness1D(
        a=Fraction((pts[u] + pts[l]) * dx - (u + l) * dy, 2 * dx),
        d=Fraction(dy, dx),
        margin=Fraction(num, 2 * q * dx),
    )


def _unbounded_witness(pts: tuple, e: Fraction) -> Witness1D:
    """Canonical finite witness when eps > (k-1)/2 makes the slack unbounded.

    No maximizer exists (indexed recognition with a huge eps only), so the
    witness is the smallest pairwise slope with positive margin, else the
    point on the final ray where the margin reaches 1.
    """
    k = len(pts)
    breaks = sorted(
        {Fraction(pts[j] - pts[i], j - i) for i in range(k) for j in range(i + 1, k)}
    )
    for d in breaks:
        m, hi, lo = _margin_at(pts, e, d)
        if m > 0:
            break
    else:
        # Beyond the last breakpoint the extreme offsets are i=0 and i=k-1,
        # so the margin grows at rate eps - (k-1)/2.
        d0 = breaks[-1]
        m0, _, _ = _margin_at(pts, e, d0)
        d = d0 + (1 - m0) / (e - Fraction(k - 1, 2))
        m, hi, lo = _margin_at(pts, e, d)
    return Witness1D(a=Fraction(hi + lo, 2), d=d, margin=m)


# ---------------------------------------------------------------------------
# The integer interval of scales d
# ---------------------------------------------------------------------------

# A point x with index vector v of a progression (m = 1) or cube lies in the
# box |x_j - (a_j + d*v_j)| <= eps*d on each axis j.  Eliminating a_j
# (Fourier-Motzkin) against an earlier point y with index w leaves, with
# eps = p/q, dx = x_j - y_j and dv = v_j - w_j, scaled by q,
#     c*d <= q*dx <= a*d,   a = q*dv + 2p,   c = q*dv - 2p:
# one row (j, q*y_j, a, c).  Only dx depends on x, so a search builds the
# rows of a level once.  The d interval is kept as integer pairs (num, den),
# den > 0, compared by cross-multiplication; hi is None while unbounded.

def narrowed(rows, x, lo_n, lo_d, hi):
    """Intersect [lo_n/lo_d, hi] with the rows against the scaled candidate
    x; None as soon as the interval empties."""
    for axis, y, a, c in rows:
        gap = x[axis] - y
        if a > 0:
            if gap * lo_d > lo_n * a:
                lo_n, lo_d = gap, a
        elif a < 0:
            if hi is None or -gap * hi[1] < hi[0] * -a:
                hi = (-gap, -a)
        elif gap > 0:
            return None
        if c > 0:
            if hi is None or gap * hi[1] < hi[0] * c:
                hi = (gap, c)
        elif c < 0:
            if -gap * lo_d > lo_n * -c:
                lo_n, lo_d = -gap, -c
        elif gap < 0:
            return None
        if hi is not None and lo_n * hi[1] > hi[0] * lo_d:
            return None
    return lo_n, lo_d, hi


def window(rows, lo_n, lo_d, hi):
    """The scaled coordinates x[axis] that can keep [lo_n/lo_d, hi] nonempty
    under the rows, as integer ends (lower, upper); an end that needs hi is
    infinite while hi is None.

    Row (axis, y, a, c) asks c*d <= x[axis] - y <= a*d, so some d in the
    interval meets it only when x[axis] >= y + min(c*lo, c*hi) (ceil) and
    x[axis] <= y + max(a*lo, a*hi) (floor).  `narrowed` empties the interval
    on every x outside the window.
    """
    lower, upper = -math.inf, math.inf
    hi_n, hi_d = hi or (None, None)
    for _, y, a, c in rows:  # comparisons, not max and min: this runs per node
        if c >= 0:
            end = y - (-c * lo_n // lo_d)
            if end > lower:
                lower = end
        elif hi is not None:
            end = y - (-c * hi_n // hi_d)
            if end > lower:
                lower = end
        if a <= 0:
            end = y + a * lo_n // lo_d
            if end < upper:
                upper = end
        elif hi is not None:
            end = y + a * hi_n // hi_d
            if end < upper:
                upper = end
    return lower, upper


def _repeated_root(points) -> int:
    """The least index j >= 1 whose later gaps points[j+1] - points[j], ...
    also occur, in order, from some earlier index i < j; points[j:] -
    points[j] is then a prefix of points[i:] - points[i].

    Reversed, the gaps after j are the prefix of length L = n - 1 - j and
    their occurrence from i starts at shift j - i, so j qualifies exactly
    when the Z-function of the reversed gaps reaches L at some shift in
    1..j: one O(n) pass that stops at the first such j.
    """
    gaps = [b - a for a, b in zip(points, points[1:])]
    gaps.reverse()
    m = len(gaps)
    z = [0] * m
    left = right = reach = 0
    for j in range(1, m):
        length = min(right - j, z[j - left]) if j < right else 0
        while j + length < m and gaps[length] == gaps[j + length]:
            length += 1
        z[j] = length
        if j + length > right:
            left, right = j, j + length
        if length > reach:
            reach = length
        if reach >= m - j:
            return j
    return max(m, 1)  # the gaps after the last point are none


def _eps_aps(candidates, k, eps, budget, head=(), tail=None):
    """Lex-order stream of the approximate k-progressions among candidates.

    Each tuple starts with `head` (fewer than k points, below the
    candidates) and, when `tail` is given, ends with it (a point above the
    candidates).  A level tries only the candidates inside the window that
    its rows (built once per level from the prefix and the tail, whose
    index offset is negative) allow over the prefix's closed d interval
    (`window`): the candidates are sorted, so the window is a slice, found
    by bisection at both ends, and every candidate outside it would empty
    the interval.  Each candidate tried narrows the interval (`narrowed`).
    At a level j < last - 2 (levels h .. last - 1 are filled) a candidate
    at index idx that keeps it nonempty then looks ahead: the last level's
    rows (the prefix's and the tail's, built once per level, plus the
    candidate's own) give a window over the narrowed interval, and the
    candidate is dropped unless a candidate at an index
    >= idx + (last - 1 - j) lies inside it.  Every tuple through it puts
    its last point there: the interval that point meets lies inside this
    one, the window is monotone in the interval, and the rows of the
    levels between only narrow it.  The level before the last needs no
    lookahead, as the last level's own window is the same check.  A
    candidate kept becomes a node; a full tuple is yielded when the open
    interval is nonempty, which is the exact recognizer's verdict.
    Depth-first on an explicit stack of candidate streams, one per level
    being filled and none for a level whose window is empty; one budget
    unit per node, the root included.

    With no head and no tail, a progression shifted by t is one with the
    same d among the shifted candidates.  From the first repeated root R
    on (`_repeated_root`), the candidates from a root j >= R, less x_j, are
    a prefix of those from some earlier root i, less x_i, so every tuple
    rooted at j translates into one rooted at i.  While nothing has been
    yielded every earlier root came back empty, so the stream stops at
    root R; it never stops after a yield, so the stream it yields is the
    full one.  R is found, in O(n), only when the root level moves past
    its first root with nothing yielded.
    """
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

    def roots(tries):
        """The root level of a stream with no head and no tail, stopped at
        the first repeated root while nothing has been yielded."""
        for first in tries:
            yield first
            break
        cut = None
        for idx, shrunk in tries:
            if not found:
                cut = cut or _repeated_root(candidates)
                if idx >= cut:  # a translate of an earlier root, all empty
                    return
            yield idx, shrunk

    budget.spend()
    if h == last:  # nothing to fill: head and tail are the whole tuple
        if interval:
            lo_n, lo_d, hi = interval
            if hi is None or lo_n * hi[1] < hi[0] * lo_d:  # open: lo < hi
                yield tuple(chosen)
        return
    found = False
    tries = interval and fits(0, h, interval)
    stack = [tries if h or tail is not None else roots(tries)] if tries else []
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
                found = True
                yield tuple(chosen)
        else:
            stack.pop()


class FeasibleRegion2D(NamedTuple):
    """Closed relaxation of the witness constraints for a partial tuple.

    The set of (a, d), d >= 0, with a + (i - eps)*d <= x_i <= a + (i + eps)*d
    for every added (i, x_i), stored by its exact projection onto the d
    axis: the integer pairs lo and hi of `narrowed`, not reduced, so two
    equal regions may store different pairs.  degenerate_infeasible marks a
    region that some added point emptied; lo and hi then stay those from
    before that point.  Emptiness of the closed region is a sound prune.
    """

    k: int
    eps: Fraction
    points: tuple
    lo: tuple  # (num, den): d >= num/den
    hi: Optional[tuple]  # (num, den): d <= num/den; None means unbounded above
    degenerate_infeasible: bool = False

    # identity equality, as equal regions may store different pairs
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def region_new(k: int, eps) -> FeasibleRegion2D:
    e = check_epsilon(eps)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return FeasibleRegion2D(k=k, eps=e, points=(), lo=(0, 1), hi=None)


def region_add_point(region: FeasibleRegion2D, i: int, x_i: int) -> FeasibleRegion2D:
    """Intersect with the two closed half-planes for index i at point x_i."""
    if not 0 <= i < region.k:
        raise ValueError(f"index {i} out of range for k={region.k}")
    if region.points and i <= region.points[-1][0]:
        raise ValueError("indices must be added in increasing order")
    p2, q = 2 * region.eps.numerator, region.eps.denominator
    shrunk = None if region.degenerate_infeasible else narrowed(
        [(0, q * y, q * (i - j) + p2, q * (i - j) - p2) for j, y in region.points],
        (q * x_i,), *region.lo, region.hi)
    lo_n, lo_d, hi = shrunk or (*region.lo, region.hi)
    return FeasibleRegion2D(k=region.k, eps=region.eps,
                            points=region.points + ((i, x_i),), lo=(lo_n, lo_d),
                            hi=hi, degenerate_infeasible=shrunk is None)


def region_closed_empty(region: FeasibleRegion2D) -> bool:
    if region.degenerate_infeasible:
        return True
    hi = region.hi
    return hi is not None and hi[0] * region.lo[1] < region.lo[0] * hi[1]


# ---------------------------------------------------------------------------
# Smallest enclosing ball (Welzl) and the m-D recognizer
# ---------------------------------------------------------------------------

_WELZL_SEED = 0x5EB21  # fixed: results must not depend on interpreter hash state


def _circumsphere(boundary):
    """Ball through all boundary points, centered in their affine hull.

    Solves the Gram system G @ lam = |u_i|^2 / 2 with u_i = p_i - p_0;
    returns None if the points are (numerically) affinely dependent, that
    is when a pivot falls to 1e-12 of the largest diagonal entry of G, so
    the test does not depend on the spread of the points.
    """
    p0 = boundary[0]
    us = [[c - c0 for c, c0 in zip(p, p0)] for p in boundary[1:]]
    n = len(us)
    if n == 0:
        return p0, 0.0
    # Gaussian elimination with partial pivoting on the augmented rows [G | rhs].
    rows = [[math.fsum(map(mul, ur, uc)) for uc in us] for ur in us]
    for r, row in enumerate(rows):
        row.append(row[r] / 2.0)
    tiny = 1e-12 * max(row[r] for r, row in enumerate(rows))
    for col in range(n):
        piv = col
        for r in range(col + 1, n):
            if abs(rows[r][col]) > abs(rows[piv][col]):
                piv = r
        if abs(rows[piv][col]) <= tiny:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for row in rows[col + 1:]:
            f = row[col] / top[col]
            for c in range(col, n + 1):
                row[c] -= f * top[c]
    lam = [0.0] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        lam[r] = (row[n] - math.fsum(map(mul, row[r + 1:n], lam[r + 1:]))) / row[r]
    center = p0
    for weight, u in zip(lam, us):
        center = [c + weight * x for c, x in zip(center, u)]
    center = tuple(center)
    return center, math.dist(center, p0)


@functools.lru_cache(maxsize=16)
def _welzl_shuffle(n: int) -> tuple:
    order = list(range(n))
    random.Random(_WELZL_SEED).shuffle(order)
    return tuple(order)


def _welzl_order(n: int) -> list:
    """The default processing order: range(n) in a fixed-seed shuffle,
    shuffled once per n.  A fresh list, as _mtf_ball reorders it in place."""
    return list(_welzl_shuffle(n))


def _bound(radius: float) -> float:
    """Largest distance from the center that still counts as inside."""
    return radius * (1 + 1e-12) + 1e-12


def _mtf_ball(pts, order, end: int, support: list, dim: int):
    """Smallest ball holding pts[order[:end]] with `support` on its boundary.

    Welzl's move-to-front variant: every point found outside the current
    ball is a boundary point of the answer, so the ball is recomputed from
    the points before it plus the grown support, and the point moves to the
    front of `order`, where the next scan meets it first.  Each level adds a
    support point, so the depth is at most dim + 1.  Returns None when the
    support is numerically affinely dependent; a point whose support would be
    is left out (exact arithmetic never adds one).
    """
    if support:
        ball = _circumsphere(support)
        if ball is None or len(support) == dim + 1:
            return ball
        center, radius = ball
    else:
        center, radius = pts[order[0]], 0.0
    limit = _bound(radius)
    dist = math.dist
    for i in range(end):
        j = order[i]
        p = pts[j]
        if dist(center, p) > limit:
            ball = _mtf_ball(pts, order, i, support + [p], dim)
            if ball is None:
                continue
            center, radius = ball
            limit = _bound(radius)
            del order[i]
            order.insert(0, j)
    return center, radius


def min_enclosing_ball(points, order: Optional[list] = None):
    """Smallest enclosing Euclidean ball of a finite point list.

    Move-to-front Welzl (Welzl 1991; Gaertner 1999), with recursion depth at
    most dim + 1.  `order` is the processing order, a permutation of
    range(len(points)) that the move-to-front steps update in place; a caller
    that passes the same list to calls on similar point sets starts each one
    from the previous support.  Without it the order is a shuffle with a
    fixed seed, so repeated calls are deterministic.  Returns (center,
    radius) as floats; containment holds up to a slack of 1e-12, relative
    and absolute.  A coordinate that is not finite, or of magnitude
    2^_FLOAT_BITS or more, is refused, as its squared distances are not.
    """
    if not points:
        raise ValueError("need at least one point")
    if len(set(map(len, points))) != 1:
        raise ValueError("points must share one dimension")
    limit = 2.0 ** _FLOAT_BITS
    try:
        norm = math.hypot(*chain.from_iterable(points))  # one pass in C
    except OverflowError:  # an int past the float range
        norm = math.inf
    if not norm < limit:  # NaN, inf or large: look for a bad coordinate
        for i, p in enumerate(points):
            for j, c in enumerate(p):
                if not abs(c) < limit:
                    shown = f"a {c.bit_length()}-bit int" if isinstance(c, int) else c
                    raise ValueError(
                        f"coordinate {j} of point {i} is {shown}; min_enclosing_ball needs "
                        f"finite coordinates below 2^{_FLOAT_BITS} in magnitude")
    if order is None:
        order = _welzl_order(len(points))
    elif len(order) != len(points):
        raise ValueError(f"order has {len(order)} indices for {len(points)} points")
    center, radius = _mtf_ball(points, order, len(points), [], len(points[0]))
    return tuple(map(float, center)), float(radius)


class _GridFields(NamedTuple):
    m: int
    k: int
    assignment: Mapping


class IndexedGrid(_GridFields):
    """k^m integer points indexed by vectors v in {0..k-1}^m."""

    __slots__ = ()

    def __new__(cls, m: int, k: int, assignment: Mapping):
        if m < 1 or k < 2:
            raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
        if set(assignment) != set(product(range(k), repeat=m)):
            raise ValueError("assignment keys must be exactly {0..k-1}^m")
        if len(check_points(assignment.values(), m)) != len(assignment):
            raise ValueError("assignment must be injective (duplicate points)")
        return tuple.__new__(cls, (m, k, assignment))

    @classmethod
    def _make(cls, iterable):
        """Through __new__'s checks; _replace builds its grid here too."""
        return cls(*iterable)

    def items_in_index_order(self):
        slots = _index_order(self.m, self.k)[0]
        return list(zip(slots, map(self.assignment.__getitem__, slots)))


@functools.lru_cache(maxsize=16)
def _index_order(m: int, k: int) -> tuple:
    """The index vectors {0..k-1}^m in lex order, and their m columns."""
    slots = tuple(product(range(k), repeat=m))
    return slots, tuple(zip(*slots))


def _trusted_grid(m: int, k: int, assignment: Mapping) -> IndexedGrid:
    """An IndexedGrid built without __new__'s checks, for package code
    whose assignment already maps {0..k-1}^m one to one onto checked
    points."""
    return tuple.__new__(IndexedGrid, (m, k, assignment))


class WitnessMD(NamedTuple):
    """Numeric certificate for an approximate cube: center a, scale d.

    residual is eps*d less the largest distance from a + d*v to x_v, which
    for the center of the smallest enclosing ball of {x_v - d*v} is
    eps*d - R(d); a positive residual places every point strictly inside its
    ball, up to the recognizer's floating tolerance.
    """

    a: tuple
    d: float
    residual: float

    def certifies(self, grid: IndexedGrid, eps) -> bool:
        """Exact strict check of |x_v - a - d*v| < eps*d for every v.

        Every float is a dyadic rational, so a and d convert without loss;
        over their common denominator L the check is the integer inequality
        q^2 * |L*x_v - L*a - L*d*v|^2 < (p * L*d)^2 for eps = p/q.  The
        squared norms are summed one axis at a time, over whole columns,
        and only the largest is compared.
        """
        return _certifies(self, zip(*grid.assignment.values()), zip(*grid.assignment),
                          grid.k, check_epsilon(eps))


def _certifies(witness: WitnessMD, columns, index_columns, k: int, e: Fraction) -> bool:
    """WitnessMD.certifies on a grid's coordinate columns and index columns."""
    ratios = [c.as_integer_ratio() for c in (*witness.a, witness.d)]
    den = math.lcm(*(q for _, q in ratios))
    *a, d = [n * (den // q) for n, q in ratios]
    if d <= 0:
        return False
    norms = None
    for xs, vs, ac in zip(columns, index_columns, a):
        at = [ac + d * c for c in range(k)]  # L*a + L*d*v on this axis
        t = [den * x - at[c] for x, c in zip(xs, vs)]
        squares = list(map(mul, t, t))
        norms = squares if norms is None else list(map(add, norms, squares))
    return norms is None or max(norms) * e.denominator ** 2 < (e.numerator * d) ** 2


class CubeDecision(NamedTuple):
    """A cube verdict, with its witness when feasible.

    Every feasible verdict carries a witness that certifies, so it is exact.
    An infeasible verdict is exact when an empty scale interval proves it;
    the golden section's infeasible and boundary verdicts have exact False.
    """

    status: str  # "feasible" | "infeasible" | "boundary"
    witness: Optional[WitnessMD]
    exact: bool


_ROOT_BITS = 32  # square roots are bracketed to within 2^-32


def _corner_pair_bounds(grid: IndexedGrid, eps: Fraction):
    """Bounds (lo, hi) on d from every pair of corners of {0, k-1}^m, None
    when a pair allows no d.

    Points x, y with index vectors v, w lie within eps*d of a + d*v and
    a + d*w only if |y - x - d*(w - v)| < 2*eps*d.  With eps = p/q that is
    A*d^2 - 2*B*d + C < 0 for integers A = q^2*|w - v|^2 - 4p^2,
    B = q^2*(y - x).(w - v) and C = q^2*|y - x|^2.  Two corners differ by
    k - 1 > 2*eps in some coordinate, so A > 0 and d lies strictly between
    the roots (B -+ sqrt(B^2 - A*C)) / A.  The square root is rounded
    outwards, so the bounds stay sound.  This is the Euclidean test the axis
    lines lack: a rectangle too elongated for the ball passes every line but
    fails its diagonal.
    """
    pp, qq = eps.numerator ** 2, eps.denominator ** 2
    k = grid.k
    corners = [(v, grid.assignment[v]) for v in product((0, k - 1), repeat=grid.m)]
    for (v, x), (w, y) in combinations(corners, 2):
        dv = [b - a for a, b in zip(v, w)]
        dx = [b - a for a, b in zip(x, y)]
        a = qq * sum(c * c for c in dv) - 4 * pp
        b = qq * sum(map(mul, dx, dv))
        disc = b * b - a * qq * sum(c * c for c in dx)
        if disc <= 0:
            yield None
            return
        scaled = disc << 2 * _ROOT_BITS
        root = math.isqrt(scaled)
        root += root * root != scaled
        b <<= _ROOT_BITS
        a <<= _ROOT_BITS
        yield (b - root, a), (b + root, a)


def _scale_interval(grid: IndexedGrid, eps: Fraction) -> Optional[tuple]:
    """The open interval of scales d that a strict witness must lie in.

    Intersects the bounds of the axis lines and of the corner pairs, kept as
    integer pairs (num, den), den > 0.  Returns None once the intersection
    is empty, which proves the grid infeasible.

    A strict witness (a, d) of the grid is, on coordinate j of an axis-j
    line, a strict 1-D witness with the same d, so d meets the `narrowed`
    rows of every line read as a 1-D progression: one interval is carried
    through all of them.  It is bounded above once a line is read, since
    eps < (k-1)/2 bounds d by the ends of a line.
    """
    k, m = grid.k, grid.m
    points = grid.assignment
    p2, q = 2 * eps.numerator, eps.denominator
    interval = (0, 1, None)
    for j in range(m):
        for rest in product(range(k), repeat=m - 1):
            line = [q * points[rest[:j] + (i,) + rest[j:]][j] for i in range(k)]
            for i in range(1, k):
                rows = [(0, y, q * (i - h) + p2, q * (i - h) - p2)
                        for h, y in enumerate(line[:i])]
                interval = narrowed(rows, (line[i],), *interval)
                if interval is None:
                    return None
    lo_n, lo_d, hi = interval
    lo = (lo_n, lo_d)
    for bounds in _corner_pair_bounds(grid, eps):
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


def recognize_cube(grid: IndexedGrid, eps) -> CubeDecision:
    """Three-valued feasibility of an approximate cube witness, for an exact
    rational eps (check_epsilon: a float is refused).

    Three stages, each run only if the ones before it left the grid open:
    1. Probe: d0 is the least-squares scale of x_v ~ a + d*v; the mean a0
       of {x_v - d0*v}, the least-squares center, and only if it fails one
       ball of those points give candidate centers.  A witness that
       certifies exactly is returned as feasible.
    2. Exact interval: the d intervals of all axis lines and all corner
       pairs are intersected in integer arithmetic; an empty intersection
       proves the grid infeasible.
    3. Fallback: g(d) = R(d) - eps*d, with R(d) the smallest-enclosing-ball
       radius of {x_v - d*v}, is minimized by golden-section search over the
       interval of stage 2 clipped to (0, d_max], where
       d_max = max_j spread_j / (k - 1 - 2*eps) bounds every feasible scale.
       It stops at the first ball whose center certifies, feasible.  If none
       does, infeasible when min g > DEFAULT_TOL*d_max, boundary otherwise.
    Every ball goes through one probe, which checks its center exactly, so
    every feasible verdict is certified and carries exact=True, as does
    stage 2's; stage 3's infeasible and boundary verdicts carry False.
    A coordinate of 2^500 or more is refused before any float work, and a
    grid whose shifted points x_v - d*v would reach 2^500 at a scale a ball
    is built at is refused before that ball.
    """
    k, m = grid.k, grid.m
    exact_eps = _check_cube_eps(eps, k)
    slots, index_columns = _index_order(m, k)
    pts = list(map(grid.assignment.__getitem__, slots))
    columns = list(zip(*pts))  # integer coordinates, axis by axis, in index order
    ends = [(min(c), max(c)) for c in columns]
    widest = max(max(-lo, hi) for lo, hi in ends)
    if widest.bit_length() > _FLOAT_BITS:
        v, j = next((v, j) for v, p in zip(slots, pts) for j, x in enumerate(p)
                    if abs(x) == widest)
        raise ValueError(
            f"coordinate {j} of the point at index {v} has {widest.bit_length()} bits; "
            f"recognize_cube computes in floats and needs |x| < 2^{_FLOAT_BITS}")
    e = float(exact_eps)

    # One processing order serves every ball: nearby scales share most of
    # their support, so each call starts from the previous one's.
    order = _welzl_order(len(pts))
    axes = [(list(map(float, xs)), us) for xs, us in zip(columns, index_columns)]

    def shifted(d: float) -> list:
        return list(zip(*[[x - d * u for x, u in zip(xs, us)] for xs, us in axes]))

    def within_floats(top: float) -> None:
        """Refuse the grid when a ball at a scale d <= top could take a
        coordinate past the floats; each coordinate of x_v - d*v is monotone
        in d, so its values at d = 0 and d = top bound it."""
        limit = 2.0 ** _FLOAT_BITS
        if float(widest) + (k - 1) * top < limit:
            return
        reach = max(float(widest), *(abs(x - top * u) for xs, us in axes
                                     for x, u in zip(xs, us) if u))
        if not reach < limit:
            raise ValueError(
                f"x_v - d*v reaches {reach:.3g} at the scales d <= {top:.3g} it tries; "
                f"recognize_cube computes in floats and needs it below 2^{_FLOAT_BITS}")

    def settled(center, far, d):
        """The feasible verdict of (center, d) if it certifies; far is its
        largest distance from {x_v - d*v}."""
        if far < e * d:
            witness = WitnessMD(a=center, d=d, residual=e * d - far)
            if _certifies(witness, columns, index_columns, k, exact_eps):
                return CubeDecision("feasible", witness, exact=True)
        return None

    def probe(d: float):
        """The verdict that the center of the ball of {x_v - d*v} settles,
        or None, and g(d) = R(d) - eps*d."""
        center, radius = min_enclosing_ball(shifted(d), order)
        return settled(center, radius, d), radius - e * d

    # Stage 1: d0 = sum_v x_v.(v - c) / sum_v |v - c|^2 with c the center of
    # {0..k-1}^m.  The denominator is m*k^m*(k^2 - 1)/12, and the numerator
    # needs no mean of x because sum_v (v - c) = 0.  It is summed in
    # integers, column by column, against the weights 2*(v - c).
    weights = [2 * u - (k - 1) for u in range(k)]
    moment = sum(sum(map(mul, xs, map(weights.__getitem__, us)))
                 for xs, us in zip(columns, index_columns))
    d0 = 6 * moment / (m * k ** m * (k * k - 1))
    if d0 > 0:
        at_d0 = shifted(d0)
        a0 = tuple(math.fsum(c) / len(at_d0) for c in zip(*at_d0))
        # a0 settles most feasible grids; the ball is built only when it fails
        decision = settled(a0, max(map(math.dist, repeat(a0), at_d0)), d0)
        if decision is None:
            within_floats(d0)
            decision, _ = probe(d0)
        if decision is not None:
            return decision

    # Stage 2.
    interval = _scale_interval(grid, exact_eps)
    if interval is None:
        return CubeDecision("infeasible", None, exact=True)

    # Stage 3: golden section, stopped at the first ball that certifies.
    (lo_n, lo_d), (hi_n, hi_d) = interval
    d_max = max(hi - lo for lo, hi in ends) / ((k - 1) - 2 * e)
    lo = max(lo_n / lo_d, d_max * 2.0 ** -60)
    hi = min(hi_n / hi_d, d_max)
    within_floats(hi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    decision, f1 = probe(x1)
    if decision is None:
        decision, f2 = probe(x2)
    for _ in range(200):
        if decision is not None or hi - lo < DEFAULT_TOL * d_max:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            decision, f1 = probe(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            decision, f2 = probe(x2)
    if decision is not None:
        return decision
    # each step drops the higher of the two points, so min(f1, f2) is the
    # least g probed
    if min(f1, f2) > DEFAULT_TOL * d_max:
        return CubeDecision("infeasible", None, exact=False)
    return CubeDecision("boundary", None, exact=False)


def _check_cube_eps(eps, k: int) -> Fraction:
    """eps as a checked Fraction, refused when 2 eps >= k - 1, where
    recognize_cube has no scale bound, or when its float does, as it
    divides by k - 1 - 2 eps in floats: a cube search refuses it up front,
    whatever its points or cap."""
    e = check_epsilon(eps)
    p, q = e.numerator, e.denominator
    if 2 * p >= (k - 1) * q:
        raise ValueError(f"eps={e} too large; recognize_cube needs eps < (k-1)/2")
    if 2 * (p / q) >= k - 1:  # p / q is float(e)
        raise ValueError(f"eps={e} rounds to (k-1)/2 in floats; recognize_cube needs "
                         "it below")
    return e


def _cubes(points, m: int, k: int, e, budget):
    """Every approximate cube among `points` (distinct, sorted m-tuples), as
    (grid, CubeDecision), in lex order of assignments.

    DFS assigns points to index vectors in lex order.  Each partial
    assignment keeps the exact interval of scales d allowed by the
    per-axis box constraints |x_j - (a_j + d*v_j)| <= eps*d (a necessary
    consequence of the ball constraint), updated by `narrowed`; an empty
    interval prunes.  Only the points whose first coordinate lies in the
    window that the axis-0 constraints allow over the current interval
    (`window`) are tried: `points` are sorted, so the window is a
    slice, found by bisection, and every point outside it would empty the
    interval.
    Complete assignments are confirmed by recognize_cube; only a 'feasible'
    verdict, whose witness certifies, is yielded, so boundary candidates are
    skipped.  A point set fitting several assignments is yielded once per
    assignment.
    Each node spends one unit of `budget`, the root included.
    """
    total = k ** m
    slots = _index_order(m, k)[0]

    # Rows (axis, q*y_axis, a, c) of `narrowed`, over scaled points.
    p2, q = 2 * e.numerator, e.denominator
    scaled = [tuple(q * c for c in p) for p in points]
    firsts = [x[0] for x in scaled]  # sorted, as points are

    assigned: list = []
    used: set = set()

    def fits(lo_n, lo_d, hi):
        """The points that may fill the next slot, with the d interval each
        leaves.  Read lazily, so the rows and `used` are the ones in force
        whenever the search comes back to this slot."""
        v = slots[len(assigned)]
        rows = [
            (axis, y[axis], span + p2, span - p2)
            for v2, _, y in assigned
            for axis, span in enumerate([q * (c - c2) for c, c2 in zip(v, v2)])
        ]
        lower, upper = window(rows[::m], lo_n, lo_d, hi)  # axis 0: every m-th row
        for i in range(bisect_left(firsts, lower), bisect_right(firsts, upper)):
            p = points[i]
            if p in used:
                continue
            x = scaled[i]
            shrunk = narrowed(rows, x, lo_n, lo_d, hi)
            if shrunk is not None:
                yield (v, p, x), shrunk

    # Depth-first on an explicit stack of candidate streams, one per filled
    # slot plus the next, so the Python depth stays constant.
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
        # the points are checked and the slots are {0..k-1}^m, filled once
        grid = _trusted_grid(m, k, {v: p for v, p, _ in assigned})
        decision = recognize_cube(grid, e)
        if decision.status == "feasible":
            yield grid, decision
        used.discard(assigned.pop()[1])


def index_grid_points(point_set, m: int, k: int, eps) -> IndexedGrid:
    """Recover the index vectors of k^m points by per-axis clustering.

    For eps < 1/2 the balls around a + d*v are pairwise disjoint, so along
    each axis the coordinates split into k contiguous clusters of size
    k^(m-1) and the cluster rank is the index.  Ties straddling a cluster
    boundary make the split ambiguous and raise IndexingError; nothing is
    ever guessed.
    """
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    e = check_epsilon(eps)
    if 2 * e.numerator >= e.denominator:
        raise ValueError(f"index recovery requires eps < 1/2, got {e}")
    pts = check_points(point_set, m)
    if len(pts) != k ** m:
        raise ValueError(f"expected {k ** m} distinct points, got {len(pts)}")

    # Each axis sorts the point numbers by that coordinate (stable, and pts
    # is sorted) and gives every point its cluster rank; the rank columns
    # together are the index vectors.
    n, cluster = len(pts), k ** (m - 1)
    labels = [rank // cluster for rank in range(n)]
    ranks = []
    for axis, coords in enumerate(zip(*pts)):
        order = sorted(range(n), key=coords.__getitem__)
        for c in range(1, k):
            if coords[order[c * cluster - 1]] == coords[order[c * cluster]]:
                raise IndexingError(
                    f"axis {axis}: tied coordinate {coords[order[c * cluster]]} straddles "
                    f"the cluster boundary at rank {c}"
                )
        rank = [0] * n
        for i, label in zip(order, labels):
            rank[i] = label
        ranks.append(rank)

    assignment = dict(zip(zip(*ranks), pts))
    if len(assignment) != k ** m:
        raise IndexingError("per-axis clustering produced a non-injective indexing")
    return _trusted_grid(m, k, assignment)
