"""Exact desk-scale searches: hypergraph enumeration, least forcing N, max free sets.

Everything here is exhaustive and exact, on explicit stacks.  One lex-order
stream (_eps_aps) lists approximate progressions: each level tries only the
candidates inside the window that the closed d interval of the prefix
allows (geometry.window, as the cube search does), and every one outside it
would empty that interval (geometry.narrowed).  Without a fixed tail every
candidate tried becomes a node.  It accepts a full tuple exactly when its
open interval is nonempty, the exact recognizer's verdict, so pruned output
equals naive output.
On [N] the listing is translation invariant: |x_i - (a + i d)| < eps d holds
for x and a exactly when it holds for x + t and a + t.  So each progression
shape is searched once.  enumerate_eps_aps searches the progressions
starting at 1 (the shapes, _shapes) and shifts them to every start.  The
ladders (_edges_by_max) list rung n, the progressions of [n] ending at n, as
rung n - 1 shifted up by one plus the spans of n, the progressions from 1 to
n, searched with both ends fixed.  Coloring and subset searches are plain
backtracking with canonical tie-breaking, so results are deterministic;
exact_W and exact_f count the listing in `nodes`.  Every free-set search is
one include-first branch and bound on bit masks of chosen and blocked
indices (_max_free_edges): the 1-D ladder runs it once per rung, and exact_f
on m >= 2 once, over the listed cubes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product

from .errors import DEFAULT_WORK_CAP, Budget, SearchCapExceeded
from .geometry import (DEFAULT_TOL, check_epsilon, check_points_1d, narrowed, recognize_ap,
                       window)
# Not called here: the benchmark's tracer wraps them on this module by name.
from .geometry import region_add_point, region_closed_empty  # noqa: F401

__all__ = [
    "EpsApHypergraph",
    "SearchOutcome",
    "enumerate_eps_aps",
    "find_eps_ap_in_points",
    "exact_W",
    "exact_f",
    "max_exact_ap_free",
]


@dataclass(frozen=True)
class EpsApHypergraph:
    """All k-subsets of [N] accepted by the recognizer, in lex order."""

    N: int
    k: int
    eps: Fraction
    edges: tuple


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # "value" | "lower_bound_only"
    value: int
    witness: object
    nodes: int


def _eps_aps(candidates, k, eps, budget, head=(), tail=None):
    """Lex-order stream of the approximate k-progressions among candidates.

    Each tuple starts with `head` (fewer than k points, below the
    candidates) and, when `tail` is given, ends with it (a point above the
    candidates).  A level tries only the candidates inside the window that
    its rows (built once per level from the prefix and the tail, whose
    index offset is negative) allow over the prefix's closed d interval
    (geometry.window): the candidates are sorted, so the window is a slice,
    found by bisection at both ends, and every candidate outside it would
    empty the interval.  Each candidate tried narrows the interval
    (geometry.narrowed) and becomes a node when it stays nonempty; a full
    tuple is yielded when the open interval is nonempty, which is the exact
    recognizer's verdict.  Depth-first on an explicit stack of candidate
    streams, one per level being filled and none for a level whose window
    is empty; one budget unit per node, the root included.
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

    def rows(depth):  # the prefix and the tail against the point at index depth
        level = [(0, q * y, q * (depth - j) + p2, q * (depth - j) - p2)
                 for j, y in enumerate(chosen[:depth])]
        if tail is not None:
            level.append((0, q * tail, q * (depth - last) + p2, q * (depth - last) - p2))
        return level

    interval = (0, 1, None)
    for depth, x in enumerate(head):
        interval = interval and narrowed(rows(depth), (q * x,), *interval)

    def fits(start, depth, interval):
        """The indices from start on that may fill level depth, with the
        interval each leaves, or None when the window holds none."""
        level = rows(depth)
        lower, upper = window(level, *interval)
        # leave a candidate for each later level; bisect reads hi = -1 as len
        stop = max(start, n - (last - depth) + 1)
        begin = bisect_left(keys, lower, start, stop)
        end = bisect_right(keys, upper, begin, stop)
        if begin < end:
            return ((idx, shrunk) for idx in range(begin, end)
                    if (shrunk := narrowed(level, scaled[idx], *interval)) is not None)
        return None

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


def _shapes(N: int, k: int, eps, budget):
    """Lex-order stream of the approximate k-progressions in [N] starting at 1."""
    return _eps_aps(range(2, N + 1), k, eps, budget, head=(1,))


def enumerate_eps_aps(N: int, k: int, eps,
                      work_cap: int = DEFAULT_WORK_CAP) -> EpsApHypergraph:
    """Every approximate k-progression inside [N], identical to naive output.

    The shapes (the progressions starting at 1) are searched once; those
    starting at t + 1 are the shapes ending at most at N - t, shifted by t.
    The shapes are in lex order, so each shift's block is, and the blocks
    follow their starts: the edges come out in lex order.  The work is one
    budget unit per node of the shape search, the root included, plus one per
    listed edge, taken a shift's block at a time.
    """
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")
    e = check_epsilon(eps, set_level=True)
    budget = Budget(work_cap)
    shapes = list(_shapes(N, k, e, budget))
    edges = []
    for t in range(N):
        # a shape that ends past N at shift t does so at every later shift
        shapes = [s for s in shapes if s[-1] + t <= N]
        if not shapes:
            break
        budget.spend(len(shapes))
        edges += [tuple(map(t.__add__, s)) for s in shapes]
    return EpsApHypergraph(N=N, k=k, eps=e, edges=tuple(edges))


def find_eps_ap_in_points(points, k: int, eps,
                          work_cap: int = DEFAULT_WORK_CAP):
    """Lex-first approximate k-progression among sorted candidate points.

    Returns (subset, witness) or None.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    e = check_epsilon(eps, set_level=True)
    pts = tuple(points)
    if len(pts) < k:
        return None
    hit = next(_eps_aps(check_points_1d(pts), k, e, Budget(work_cap)), None)
    return None if hit is None else (hit, recognize_ap(hit, e))


# ---------------------------------------------------------------------------
# Least N forcing a monochromatic edge
# ---------------------------------------------------------------------------

def _good_coloring(N: int, r: int, by_max, budget):
    """Canonical r-coloring with no monochromatic edge of the longest [n], n <= N.

    by_max yields, for x = 1, 2, ..., the edges whose largest element is x,
    each without x.  It is read once per x, when the search first reaches x,
    so edges can be enumerated as they are needed; an exhausted by_max means
    no more edges.
    Backtracking in element order on an explicit stack.  Colors are
    propagated as per-element forbidden sets: color c is forbidden at x when
    some edge ending at x has all other elements colored c.  Symmetry is
    broken canonically: element 1 gets color 1 and a new color may only
    follow all smaller ones.

    The edges of [n] are the edges inside [n], so every coloring the search
    rejects before it first reaches x = n + 1 fails on [n] too, and the
    colors it holds then are the canonical good coloring of [n].  The search
    goes on from there to n + 1: one traversal settles every n <= N.
    Returns (colors, completed): the good coloring of the largest [n]
    reached, and False when the budget ran out.  A completed search with
    n < N proves that [n + 1] has no good coloring.
    """
    by_max = iter(by_max)
    # Indexed by element, and grown as the search first reaches one, so
    # memory follows the depth reached rather than N.
    rests = [()]  # rests[x]: the edges ending at x, without x
    colors = [0]  # 0 while uncolored
    used = [0]  # used[x]: the largest color on 1..x-1
    forbidden = [()]
    good = []
    x, entering = 1, True
    try:
        while x:
            if entering:
                budget.spend()
                if x == len(rests):
                    good = colors[1:]
                    if x > N:
                        break
                    rests.append(next(by_max, ()))
                    colors.append(0)
                    used.append(0)
                    forbidden.append(())
                used[x] = max(used[x - 1], colors[x - 1])
                banned = set()
                for rest in rests[x]:
                    c = colors[rest[0]]
                    for y in rest:
                        if colors[y] != c:
                            break
                    else:
                        banned.add(c)
                forbidden[x] = banned
            c = colors[x] + 1
            top = min(r, used[x] + 1)
            while c <= top and c in forbidden[x]:
                c += 1
            if c <= top:
                colors[x] = c
                x, entering = x + 1, True
            else:
                colors[x] = 0
                x, entering = x - 1, False
    except SearchCapExceeded:
        return good, False
    return good, True


def _edges_by_max(k: int, eps, budget, first: int = 1):
    """The by_max stream of _good_coloring for approximate k-progressions.

    For n = 1, 2, ...: those of [n] ending at n, without n, elements
    numbered from `first` (0 gives the ladder's indices).  Such an edge
    either starts at 1, a span of n, or is an edge of rung n - 1 shifted up
    by one (the listing is translation invariant).  So each rung shifts the
    previous one and adds the spans of n, found by one search with both
    ends fixed; no progression is searched twice.
    """
    rung = []
    for n in count(1):
        spans = _eps_aps(range(2, n), k, eps, budget, head=(1,), tail=n)
        rung = [tuple(x + 1 for x in rest) for rest in rung]
        rung += [tuple(x - 1 + first for x in s[:-1]) for s in spans]
        yield rung


def exact_W(k: int, r: int, eps, n_max: int,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Smallest N <= n_max whose every r-coloring has a monochromatic edge.

    One coloring search climbs N = 1, 2, ... (see _good_coloring), listing
    the edges that end at each N when it first gets there.  A value outcome
    carries the canonical good coloring of [value - 1].  When no N <= n_max
    is forcing, or the work cap is hit, the outcome is lower_bound_only with
    value = the largest N proven non-forcing and its good coloring as
    witness; a capped run is never reported as a value.
    """
    from .colorings import Coloring

    if k < 2 or r < 1 or n_max < 1:
        raise ValueError(f"need k >= 2, r >= 1, n_max >= 1, got {k}, {r}, {n_max}")
    e = check_epsilon(eps, set_level=True)
    budget = Budget(work_cap)
    good, completed = _good_coloring(n_max, r, _edges_by_max(k, e, budget), budget)
    forced = completed and len(good) < n_max
    return SearchOutcome("value" if forced else "lower_bound_only",
                         len(good) + forced, Coloring.from_list(good, r=r),
                         budget.spent)


# ---------------------------------------------------------------------------
# Maximum free subsets
# ---------------------------------------------------------------------------

def _max_free_edges(n: int, lowers, budget, incumbent, room):
    """Largest set of indices in range(n) containing no edge, lex-first
    among ties.

    Include-first branch and bound with one budget unit per node: the first
    leaf reached is the greedy set, incumbents (the preloaded one included)
    are replaced only on strict improvement, and a branch is pruned when it
    cannot strictly improve, so the lex-first optimum survives.  room[i]
    bounds how many of the indices i..n-1 a free set can hold, and room[n]
    is 0.  Returns (indices, completed); a capped search returns the best
    set found so far.

    Each edge, of two or more indices, is filed under its second largest
    index j (_file_edge): lowers[j] maps the bit mask of the edge's indices
    below j to the mask of the largest indices of the edges filed with it.
    In include-first order every chosen index is below the current one, so
    index i completes an edge exactly when it is the largest index of one
    whose other indices are chosen.  Choosing j, when the chosen indices
    cover such a mask, blocks those largest indices, so a node reads its
    verdict off one bit of `blocked`.  The state is two ints, saved whole on
    the stack at each choice, and the budget is counted locally and written
    back on return (nothing else may spend it meanwhile).
    """
    best = tuple(incumbent)
    best_size = len(best)
    left = budget.left
    i = size = chosen = blocked = 0  # chosen and blocked are index bit masks
    stack = []  # (node, size, chosen, blocked) of the exclude branches to visit
    push, pop = stack.append, stack.pop
    lowers = [tuple(by_below.items()) for by_below in lowers]
    while True:
        if left <= 0:  # as Budget.spend: raise, in effect, without taking
            budget.left = left
            return best, False
        left -= 1
        if size + room[i] > best_size:
            if i < n:
                if not blocked >> i & 1:
                    push((i + 1, size, chosen, blocked))
                    for below, tops in lowers[i]:
                        if chosen & below == below:
                            blocked |= tops
                    chosen |= 1 << i
                    size += 1
                i += 1
                continue
            best_size = size  # a leaf not pruned: room[n] is 0, so it improves
            best = tuple(j for j in range(n) if chosen >> j & 1)
        if not stack:
            break
        i, size, chosen, blocked = pop()
    budget.left = left
    return best, True


def _file_edge(lowers, rest, top: int) -> int:
    """File the edge rest + (top,) for _max_free_edges: rest is increasing,
    nonempty and below top.  Returns the bit mask of rest."""
    below = 0
    for j in rest[:-1]:
        below |= 1 << j
    tops = lowers[rest[-1]]
    tops[below] = tops.get(below, 0) | 1 << top
    return below | 1 << rest[-1]


def _greedy(n: int, k: int) -> tuple:
    """The first-fit subset of range(n) with no exact k-term progression:
    each index is kept unless it ends one whose other terms are kept."""
    chosen = [False] * n  # not a bit mask: testing a bit of a q-bit int is O(q)
    for x in range(n):
        for d in range(1, x // (k - 1) + 1):
            for y in range(x - d, x - k * d, -d):
                if not chosen[y]:
                    break
            else:
                break
        else:
            chosen[x] = True
    return tuple(x for x in range(n) if chosen[x])


def _ladder(N: int, rests_ending_at, budget, greedy=None):
    """Largest set of indices in range(N) containing no edge, solving [1],
    [2], ..., [N] in turn; returns (indices, completed), as _max_free_edges
    does.

    The edges must be translation invariant.  rests_ending_at(i) lists those
    whose largest index is i, without i, each in increasing order; it is
    called once per i, when rung i + 1 is reached, and may spend the budget.
    Each rung is one _max_free_edges search.  In rung n the indices
    i..n-1 are a translate of [n - i], so they hold at most f(n - i) chosen
    points, the value of an earlier rung (the suffix bound of Gasarch, Glenn
    and Kruskal, "Finding large 3-free sets I", 2008); rung n's own f(n) is
    bounded by n until it is solved.  greedy, the greedy set of [N] 0-based,
    is grown rung by rung when None; it is prefix consistent, so its part
    below n is rung n's incumbent.  All rungs share the budget, so `nodes`
    counts every rung.  A capped run returns the greedy set, or a larger
    set found on the way.
    """
    lowers = []  # the edges by second largest index, see _max_free_edges
    grow = greedy is None
    if grow:
        greedy = []
    in_greedy = 0  # the bit mask of the greedy set grown so far
    f = [0]  # f[n]: the largest free subset of [n], for the rungs solved
    prev, best, completed = (), (), True
    try:
        for n in range(1, N + 1):
            lowers.append({})
            closed = False  # does n - 1 end an edge inside the greedy set?
            for rest in rests_ending_at(n - 1):
                full = _file_edge(lowers, rest, n - 1)
                closed = closed or in_greedy & full == full
            if grow and not closed:
                greedy.append(n - 1)
                in_greedy |= 1 << (n - 1)
            f.append(n)
            prev = best
            best, completed = _max_free_edges(n, lowers, budget,
                                              greedy[:bisect_left(greedy, n)], f[::-1])
            if not completed:
                break
            f[n] = len(best)
    except SearchCapExceeded:  # raised by the listing, between rungs
        completed = False
    if not completed:
        best = max(greedy, prev, best, key=len)
    return best, completed


def max_exact_ap_free(N: int, k: int,
                      work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N] with no exact k-term progression.

    The progressions ending at each element are listed only when the search
    reaches it, and the greedy incumbent needs none, so a capped search holds
    O(N) memory plus the progressions of the rungs it reached.
    """
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")

    def rests_ending_at(i):
        return [tuple(range(i - (k - 1) * d, i, d))
                for d in range(i // (k - 1), 0, -1)]

    budget = Budget(work_cap)
    best, completed = _ladder(N, rests_ending_at, budget, _greedy(N, k))
    return SearchOutcome("value" if completed else "lower_bound_only", len(best),
                         tuple(i + 1 for i in best), budget.spent)


def exact_f(N: int, m: int, k: int, eps,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N]^m with no approximate cube (progression for m=1).

    Branch and bound in lex element order (_max_free_edges).  For m = 1 it
    climbs the rungs [1], ..., [N] with the suffix bound (see _ladder),
    seeded with the greedy set, listing the progressions ending at n on
    reaching rung n, as exact_W does.  The cube order of m >= 2 is not
    translation invariant, so there every cube of [N]^m is listed first
    (density._cubes), each point set once, and one count-bound search
    follows.  One budget serves the listing and the search, so `nodes`
    counts both.  Hitting the cap yields lower_bound_only carrying the best
    incumbent found so far, never a value, and at least the first
    min(N^m, k^m - 1) points of [N]^m, too few for a cube.
    """
    if N < 0 or m < 1 or k < 2:
        raise ValueError(f"need N >= 0, m >= 1, k >= 2, got {N}, {m}, {k}")
    budget = Budget(work_cap)
    if m == 1:
        e = check_epsilon(eps, set_level=True)
        points = range(1, N + 1)
        by_max = _edges_by_max(k, e, budget, first=0)
        # the ladder asks for i = 0, 1, ... in turn, as by_max yields them
        best, completed = _ladder(N, lambda _: next(by_max), budget)
    else:
        from .density import _cubes  # density imports this module

        e = check_epsilon(eps)
        points = tuple(product(range(1, N + 1), repeat=m))
        index = {p: i for i, p in enumerate(points)}
        n = len(points)
        best, completed = (), False
        try:
            # a set may fit two assignments
            cubes = {tuple(sorted(map(index.__getitem__, grid.assignment.values())))
                     for grid, _ in _cubes(points, m, k, e, DEFAULT_TOL, budget)}
            lowers = [{} for _ in points]
            for cube in cubes:
                _file_edge(lowers, cube[:-1], cube[-1])
            best, completed = _max_free_edges(n, lowers, budget, (), range(n, -1, -1))
        except SearchCapExceeded:  # raised by the listing
            pass
    if not completed:  # fewer than k^m points hold no cube (progression for m=1)
        best = max(best, tuple(range(min(len(points), k ** m - 1))), key=len)
    return SearchOutcome("value" if completed else "lower_bound_only", len(best),
                         tuple(points[i] for i in best), budget.spent)
