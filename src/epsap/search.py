"""Exact desk-scale searches: hypergraph enumeration, least forcing N, max free sets.

Everything here is exhaustive and exact, on explicit stacks, over the
listings of the geometry module: its lex-order stream of approximate
progressions (geometry._eps_aps) and its cube listing (geometry._cubes).
On [N] the listing is translation invariant: |x_i - (a + i d)| < eps d holds
for x and a exactly when it holds for x + t and a + t.  So each progression
shape is searched once.  enumerate_eps_aps searches the progressions
starting at 1 (the shapes, _shapes) and shifts them to every start.  The
ladders (_edges_by_max) list rung n, the progressions of [n] ending at n, as
rung n - 1 shifted up by one plus the spans of n, the progressions from 1 to
n, searched with both ends fixed.  Every edge a search reads is an int bit
mask, bit i for element i + 1 (index i), made where the edge is listed.
Coloring and subset searches are plain backtracking with canonical
tie-breaking, so results are deterministic; exact_W and exact_f count the
listing in `nodes`.  Every free-set search, in every dimension, is the
ladder (_ladder): one rung per prefix of the points in lex order, each one
include-first branch and bound on bit masks of chosen and blocked indices
(_max_free_edges), run as a decision.  f(n) is f(n - 1) or f(n - 1) + 1, so
rung n asks whether the first n points hold a free set of f(n - 1) + 1, and
stops at the first, the lex-first.  A cube moved along axis 0 is a cube, so
the ladder bounds each suffix of whole rows of N^(m-1) points.  The ladder
and the coloring search read one kind of stream, the rungs: for each index
in turn, the bit masks of the edges ending there, without it
(_edges_by_max for progressions, _cubes_by_max for cubes, which lists them
all on its first read).  The ladder makes every free-set outcome, capped
or not, but exact_f's answer to a cap that [N]^m's size alone proves too
small.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, product
from typing import NamedTuple

from .colorings import Coloring
from .errors import DEFAULT_WORK_CAP, Budget, SearchCapExceeded, check_work_cap, power_exceeds
from .geometry import (_check_cube_eps, _cubes, _eps_aps, check_epsilon, check_points_1d,
                       recognize_ap)
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


class EpsApHypergraph(NamedTuple):
    """All k-subsets of [N] accepted by the recognizer, in lex order."""

    N: int
    k: int
    eps: Fraction
    edges: tuple


class SearchOutcome(NamedTuple):
    kind: str  # "value" | "lower_bound_only"
    value: int
    witness: object
    nodes: int


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
    listed edge, taken a shift's block at a time.  The root and the exact
    progressions (t + 1, ..., t + k) alone take N - k + 2 units, so a cap
    below that is refused before the candidates are listed.
    """
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")
    e = check_epsilon(eps, set_level=True)
    budget = Budget(work_cap)
    if N - k + 2 > work_cap:
        budget.spend(N - k + 2)  # raises, as the listing would
    shapes = list(_shapes(N, k, e, budget))
    edges = []
    for t in range(N):
        # a shape that ends past N at shift t does so at every later shift
        shapes = [s for s in shapes if s[-1] + t <= N]
        if not shapes:
            break
        budget.spend(len(shapes))
        edges += zip(*[[x + t for x in col] for col in zip(*shapes)])
    return EpsApHypergraph(N=N, k=k, eps=e, edges=tuple(edges))


def find_eps_ap_in_points(points, k: int, eps,
                          work_cap: int = DEFAULT_WORK_CAP):
    """Lex-first approximate k-progression among sorted candidate points.

    Returns (subset, witness) or None, which fewer than k points give; a
    negative work_cap is refused either way.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    e = check_epsilon(eps, set_level=True)
    pts = check_points_1d(points, fewest=0)
    check_work_cap(work_cap)
    if len(pts) < k:
        return None
    hit = next(_eps_aps(pts, k, e, Budget(work_cap)), None)
    return None if hit is None else (hit, recognize_ap(hit, e))


# ---------------------------------------------------------------------------
# Least N forcing a monochromatic edge
# ---------------------------------------------------------------------------

def _good_coloring(N: int, r: int, by_max, budget):
    """Canonical r-coloring with no monochromatic edge of the longest [n], n <= N.

    by_max yields, for x = 1, 2, ..., the bit masks of the edges whose
    largest element is x, without x.  It is read once per x, when the search
    first reaches x, so edges are listed as they are needed; an exhausted
    by_max means no more edges.
    Backtracking in element order on an explicit stack, holding the bit mask
    of the elements of each color in use.  On entering x, color c is banned
    there when an edge ending at x has its other elements colored c: c is
    the color of the edge's least element, and the edge lies inside c's
    mask.  Symmetry is broken canonically: element 1 gets color 1 and a new
    color may only follow all smaller ones, so no state is sized by r.

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
    colors = [0, 0]  # 0 while uncolored; one slot past the last element reached
    banned = [0]  # banned[x]: bit c set when color c is banned at x
    members = [0]  # members[c]: the elements colored c, for c = 1, 2, ...
    good, x = [], 1
    try:
        while x:
            c = colors[x]
            if c:  # back from x + 1: uncolor x
                members[c] ^= 1 << x >> 1
                if not members[c]:  # c was new at x, so it is the last
                    members.pop()
            else:
                budget.spend()
                if x == len(rests):
                    good = colors[1:x]
                    if x > N:
                        break
                    rests.append(next(by_max, ()))
                    colors.append(0)
                    banned.append(0)
                banned[x] = 0
                for rest in rests[x]:
                    d = colors[(rest & -rest).bit_length()]
                    if members[d] & rest == rest:
                        banned[x] |= 1 << d
            c += 1
            top = min(r, len(members))
            while c <= top and banned[x] >> c & 1:
                c += 1
            if c <= top:
                colors[x] = c
                if c == len(members):
                    members.append(0)
                members[c] |= 1 << x >> 1
                x += 1
            else:
                colors[x] = 0
                x -= 1
    except SearchCapExceeded:
        return good, False
    return good, True


def _edges_by_max(k: int, eps, budget):
    """The by_max stream of _good_coloring for approximate k-progressions.

    For n = 1, 2, ...: the bit masks of those of [n] ending at n, without
    n.  Such an edge either starts at 1, a span of n, or is an edge of rung
    n - 1 shifted up by one bit (the listing is translation invariant).  So
    each rung shifts the previous one and adds the spans of n, found by one
    search with both ends fixed; no progression is searched twice.
    """
    rung = []
    for n in count(1):
        spans = _eps_aps(range(2, n), k, eps, budget, head=(1,), tail=n)
        rung = [rest << 1 for rest in rung]
        rung += [sum(1 << x for x in s[:-1]) >> 1 for s in spans]
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
    """First set of indices in range(n) containing no edge and reaching the
    target size room[0], in include-first order the lex-first; else the
    largest one, lex-first among ties.

    Include-first branch and bound with one budget unit per node: the first
    leaf reached is the greedy set, incumbents (the preloaded one included)
    are replaced only on strict improvement, and a branch is pruned when it
    cannot strictly improve, so the lex-first optimum survives.  room[i],
    for i >= 1, bounds how many of the indices i..n-1 a free set can hold,
    and room[n] is 0.  room[1] must also bound the indices 0..n-2 (_ladder's
    rooms do), so once it cannot beat the incumbent, index n-1 is forced:
    an include that blocks n-1 is pruned at once.  Returns (indices,
    completed); a capped search returns the best set found so far.

    Each edge, of two or more indices, is filed under its second largest
    index j (by _ladder): lowers[j] maps the bit mask of the edge's indices
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
    last = 1 << n >> 1  # the bit of index n - 1 (0 when n is 0)
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
                    grown = blocked
                    for below, tops in lowers[i]:
                        if chosen & below == below:
                            grown |= tops
                    if not (grown & last and room[1] <= best_size):
                        push((i + 1, size, chosen, blocked))
                        chosen |= 1 << i
                        blocked = grown
                        size += 1
                i += 1
                continue
            best_size = size  # a leaf not pruned: room[n] is 0, so it improves
            best = tuple(j for j in range(n) if chosen >> j & 1)
            if size >= room[0]:
                break
        if not stack:
            break
        i, size, chosen, blocked = pop()
    budget.left = left
    return best, True


def _ladder(points, rungs, budget, edge_size: int, width: int = 1) -> SearchOutcome:
    """Largest subset of `points` containing no edge, lex-first among ties,
    solving the prefixes points[:1], ..., points[:N] in turn.

    An edge is a set of edge_size indices into `points`.  rungs is the
    stream _good_coloring reads: next(rungs, ()) gives the bit masks of the
    edges whose largest index is i, without i.  It is read once per i, when
    rung i + 1 is reached, so it may list lazily and spend the budget.  The
    indices come in rows of `width`, and the edges must be translation
    invariant by whole rows.  The greedy set is grown as the edges are
    filed.  In rung n the indices from a row start s on are a translate of
    range(n - s), so they hold at most f(n - s) chosen points, the value of
    an earlier rung (the suffix bound of Gasarch, Glenn and Kruskal,
    "Finding large 3-free sets I", 2008): room[i] takes it from i's row
    start, or is n - i when lower.  f(n) is f(n - 1) or f(n - 1) + 1, so
    rung n is one _max_free_edges search that decides whether range(n)
    holds a free set of f(n - 1) + 1 points: room[0] is that size, the
    incumbent is the previous rung's set (or the greedy set of range(n),
    when that is as large), and the search stops at its first leaf of that
    size, the lex-first.  room[1] >= f(n - 1), so index n - 1 is forced
    once the incumbent has f(n - 1) points, and with width 1 index 0 is
    too.  Rung N starts a point lower, from the previous rung's set less its
    last point, unless the greedy set, the first leaf, holds f(N - 1)
    points: its first leaf of f(N - 1) points is then the lex-first, the
    witness if it answers no.  All searches share the budget, so `nodes`
    counts every rung.  A run capped in a search or in the listing is
    lower_bound_only, never a value: it keeps the greedy set of the rungs
    reached, the previous rung's set when larger, or the first
    edge_size - 1 points, too few for an edge, when more.
    """
    N = len(points)
    lowers = []  # the edges by second largest index, see _max_free_edges
    greedy, in_greedy = [], 0  # the greedy set grown so far, and its bit mask
    f = [0]  # f[n]: the largest free subset of range(n), for the rungs solved
    best, completed = (), True  # best: a largest free set of the last rung
    try:
        for n in range(1, N + 1):
            lowers.append({})
            closed = False  # does n - 1 end an edge inside the greedy set?
            for rest in next(rungs, ()):
                j = rest.bit_length() - 1  # filed under j, see _max_free_edges
                below = rest ^ 1 << j
                lowers[j][below] = lowers[j].get(below, 0) | 1 << (n - 1)
                closed = closed or in_greedy & rest == rest
            if not closed:
                greedy.append(n - 1)
                in_greedy |= 1 << (n - 1)
            seed = max(tuple(greedy), best, key=len)
            if n == N and len(greedy) < len(best):
                seed = best[:-1]
            f.append(f[-1] + 1)  # room[0] of rung n: the one size it asks for
            room = f[::-1] if width == 1 else [
                min(f[n - i // width * width], n - i) for i in range(n + 1)]
            found, completed = _max_free_edges(n, lowers, budget, seed, room)
            if not completed:
                break
            best = found
            f[n] = len(best)
    except SearchCapExceeded:  # raised by the listing, between rungs
        completed = False
    if not completed:
        best = max(tuple(greedy), best, tuple(range(min(N, edge_size - 1))), key=len)
    return SearchOutcome("value" if completed else "lower_bound_only", len(best),
                         tuple(points[i] for i in best), budget.spent)


def max_exact_ap_free(N: int, k: int,
                      work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N] with no exact k-term progression (see _ladder).

    The progressions ending at each element are listed, free of charge, only
    when the search reaches it, and the greedy incumbent is grown from them,
    so a capped search holds and does only the work of the rungs it
    reached.  It keeps at least the first k - 1 points, too few for a
    progression.
    """
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")

    def rests_ending_at(i):
        return [sum(1 << j for j in range(i - (k - 1) * d, i, d))
                for d in range(i // (k - 1), 0, -1)]

    return _ladder(range(1, N + 1), map(rests_ending_at, count()), Budget(work_cap), k)


def _cubes_by_max(points, m: int, k: int, e, budget):
    """The rungs of _ladder for the approximate cubes among `points`, the
    lex-ordered [N]^m: on the first read every cube is listed
    (geometry._cubes), each point set once, and filed by its largest point."""
    index = {p: i for i, p in enumerate(points)}
    rests = [[] for _ in points]  # rests[i]: the cubes ending at i, without i
    # a set may fit two assignments
    cubes = {sum(1 << index[p] for p in grid.assignment.values())
             for grid, _ in _cubes(points, m, k, e, budget)}
    for cube in cubes:
        top = cube.bit_length() - 1
        rests[top].append(cube ^ 1 << top)
    yield from rests


def exact_f(N: int, m: int, k: int, eps,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N]^m with no approximate cube (progression for m=1).

    The points of [N]^m are taken in lex order, and the ladder (_ladder)
    climbs their prefixes, one decision per point, in rows of N^(m-1)
    points: a cube shifted along axis 0 is a cube.  For m = 1 the
    progressions ending at n are listed on reaching rung n, as exact_W
    does; for m >= 2 the first rung lists every cube of [N]^m
    (_cubes_by_max).  One budget serves the listing and the ladder, so
    `nodes` counts both, and a capped run keeps at least the first
    min(N^m, k^m - 1) points of [N]^m, too few for a cube.  [0]^m has no
    rung, so it is the empty set at 0 nodes, whatever the cap.  Otherwise
    the cube listing's root and each point at its first slot are nodes, so
    a cap of at most N^m is answered so before [N]^m is built.
    """
    if N < 0 or m < 1 or k < 2:
        raise ValueError(f"need N >= 0, m >= 1, k >= 2, got {N}, {m}, {k}")
    budget = Budget(work_cap)
    if m == 1:
        points = range(1, N + 1)
        rungs = _edges_by_max(k, check_epsilon(eps, set_level=True), budget)
    else:
        e = _check_cube_eps(eps, k)  # refused before listing, whatever the cap
        if N and power_exceeds(N, m, work_cap - 1):
            # the first k^m - 1 points use no coordinate above k^m - 1
            side = range(1, min(N, k ** m - 1) + 1)
            floor = tuple(islice(product(side, repeat=m), k ** m - 1))
            return SearchOutcome("lower_bound_only", len(floor), floor, work_cap)
        points = tuple(product(range(1, N + 1), repeat=m))
        rungs = _cubes_by_max(points, m, k, e, budget)
    return _ladder(points, rungs, budget, k ** m, N ** (m - 1))
