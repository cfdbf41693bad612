"""Exact desk-scale searches: hypergraph enumeration, least forcing N, max free sets.

Everything here is exhaustive and exact.  Enumeration prunes k-tuples with
the closed (a, d) region from the geometry module and accepts a full tuple
exactly when its open region is nonempty, which is the exact recognizer's
verdict, so pruned output equals naive output.  Coloring
and subset searches are plain backtracking with canonical tie-breaking, so
results are deterministic and independent of any scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import Budget, SearchCapExceeded
from .geometry import (
    check_epsilon,
    recognize_ap,
    region_add_point,
    region_closed_empty,
    region_new,
    region_open_feasible,
)

__all__ = [
    "EpsApHypergraph",
    "SearchOutcome",
    "enumerate_eps_aps",
    "enumerate_exact_aps",
    "find_eps_ap_in_points",
    "arrow_decision",
    "exact_W",
    "exact_f",
    "max_exact_ap_free",
]

DEFAULT_WORK_CAP = 20_000_000


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
    seconds: float


def _dfs_eps_aps(candidates, k, eps, budget, first_only):
    """Lex DFS over increasing k-tuples of candidates with region pruning.

    Returns (tuple, witness) pairs; the witness is recognize_ap's for
    first_only searches and None for enumerations, which discard it.
    """
    found = []
    n = len(candidates)

    def recurse(start, chosen, region):
        budget.spend()
        depth = len(chosen)
        if depth == k:
            if region_open_feasible(region):
                found.append((tuple(chosen),
                              recognize_ap(chosen, eps) if first_only else None))
            return bool(found) and first_only
        seen = False
        for idx in range(start, n - (k - depth) + 1):
            x = candidates[idx]
            r2 = region_add_point(region, depth, x)
            if region_closed_empty(r2):
                # The x keeping the closed region nonempty form an interval
                # (projection of a convex set), and candidates increase.
                if seen:
                    break
                continue
            seen = True
            chosen.append(x)
            done = recurse(idx + 1, chosen, r2)
            chosen.pop()
            if done:
                return True
        return False

    recurse(0, [], region_new(k, eps))
    return found


def enumerate_eps_aps(N: int, k: int, eps,
                      work_cap: int = DEFAULT_WORK_CAP) -> EpsApHypergraph:
    """Every approximate k-progression inside [N], identical to naive output."""
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")
    e = check_epsilon(eps, set_level=True)
    budget = Budget(work_cap)
    hits = _dfs_eps_aps(tuple(range(1, N + 1)), k, e, budget, first_only=False)
    return EpsApHypergraph(N=N, k=k, eps=e, edges=tuple(s for s, _ in hits))


def enumerate_exact_aps(N: int, k: int) -> tuple:
    """All exact k-term progressions inside [N], lex sorted."""
    if N < 0 or k < 2:
        raise ValueError(f"need N >= 0 and k >= 2, got N={N}, k={k}")
    edges = []
    for a in range(1, N + 1):
        for d in range(1, (N - a) // (k - 1) + 1):
            edges.append(tuple(a + i * d for i in range(k)))
    return tuple(sorted(edges))


def find_eps_ap_in_points(points, k: int, eps,
                          work_cap: int = DEFAULT_WORK_CAP):
    """Lex-first approximate k-progression among sorted candidate points.

    Returns (subset, witness) or None.
    """
    e = check_epsilon(eps, set_level=True)
    pts = tuple(points)
    if len(pts) < k:
        return None
    if any(a >= b for a, b in zip(pts, pts[1:])):
        raise ValueError("candidate points must be strictly increasing")
    budget = Budget(work_cap)
    hits = _dfs_eps_aps(pts, k, e, budget, first_only=True)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Least N forcing a monochromatic edge
# ---------------------------------------------------------------------------

def _good_coloring(N: int, r: int, edges, budget) -> Optional[list]:
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


def arrow_decision(N: int, k: int, r: int, eps,
                   work_cap: int = DEFAULT_WORK_CAP):
    """Does every r-coloring of [N] contain a monochromatic edge?

    Returns (True, None) when forced, else (False, good Coloring).  This is
    the decision procedure exact_W iterates; it is exposed so minimality
    witnesses can be re-checked directly.
    """
    from .colorings import Coloring

    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    budget = Budget(work_cap)
    hits = _dfs_eps_aps(tuple(range(1, N + 1)), k,
                        check_epsilon(eps, set_level=True), budget, False)
    good = _good_coloring(N, r, tuple(s for s, _ in hits), budget)
    if good is None:
        return True, None
    return False, Coloring.from_list(good, r=r)


def exact_W(k: int, r: int, eps, n_max: int,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Smallest N <= n_max whose every r-coloring has a monochromatic edge.

    A value outcome carries the canonical good coloring of [value - 1].  When
    no N <= n_max is forcing, or the work cap is hit, the outcome is
    lower_bound_only with value = the largest N proven non-forcing and its
    good coloring as witness; a capped run is never reported as a value.
    """
    from .colorings import Coloring

    if k < 2 or r < 1 or n_max < 1:
        raise ValueError(f"need k >= 2, r >= 1, n_max >= 1, got {k}, {r}, {n_max}")
    e = check_epsilon(eps, set_level=True)
    t0 = time.perf_counter()
    budget = Budget(work_cap)
    last_good = Coloring.from_list([], r=r)
    for N in range(1, n_max + 1):
        try:
            hits = _dfs_eps_aps(tuple(range(1, N + 1)), k, e, budget, False)
            good = _good_coloring(N, r, tuple(s for s, _ in hits), budget)
        except SearchCapExceeded:
            return SearchOutcome("lower_bound_only", N - 1, last_good,
                                 budget.spent, time.perf_counter() - t0)
        if good is None:
            return SearchOutcome("value", N, last_good, budget.spent,
                                 time.perf_counter() - t0)
        last_good = Coloring.from_list(good, r=r)
    return SearchOutcome("lower_bound_only", n_max, last_good, budget.spent,
                         time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Maximum free subsets
# ---------------------------------------------------------------------------

def _max_free(n: int, closes, budget, incumbent=None):
    """Largest set of indices in range(n) closing no edge, lex-first among ties.

    closes(i, chosen) tells whether adding index i to the indices marked in
    the bool list `chosen` completes an edge.  Include-first branch and bound
    with one budget unit per node: the first leaf reached is the greedy set
    (also accepted as a preloaded incumbent), incumbents are replaced only on
    strict improvement, and the count bound prunes branches that cannot
    strictly improve, so the lex-first optimum survives.  An explicit stack
    keeps the Python depth constant.  Returns (indices, completed); a capped
    search returns the best set found so far.
    """
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
            if size + (n - i) <= best_size:
                continue
            if i == n:
                best_size = size
                best = tuple(j for j in range(n) if chosen[j])
                continue
            stack.append(i + 1)
            if not closes(i, chosen):
                chosen[i] = True
                size += 1
                stack.append(~i)
                stack.append(i + 1)
    except SearchCapExceeded:
        return best, False
    return best, True


def _greedy(n: int, closes) -> tuple:
    """The first leaf of _max_free: include every index that closes no edge."""
    chosen = [False] * n
    for i in range(n):
        if not closes(i, chosen):
            chosen[i] = True
    return tuple(i for i in range(n) if chosen[i])


def _max_free_in_interval(N: int, edges, work_cap: int, t0) -> SearchOutcome:
    """Largest subset of [N] containing no edge, seeded with the greedy set."""
    by_max = [[] for _ in range(N)]
    for edge in edges:
        by_max[edge[-1] - 1].append(tuple(p - 1 for p in edge[:-1]))

    def closes(i, chosen):
        # plain loops: nested any/all generators cost several times more here
        for rest in by_max[i]:
            for j in rest:
                if not chosen[j]:
                    break
            else:
                return True
        return False

    budget = Budget(work_cap)
    best, completed = _max_free(N, closes, budget, incumbent=_greedy(N, closes))
    return SearchOutcome("value" if completed else "lower_bound_only", len(best),
                         tuple(i + 1 for i in best), budget.spent,
                         time.perf_counter() - t0)


def max_exact_ap_free(N: int, k: int,
                      work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N] with no exact k-term progression."""
    t0 = time.perf_counter()
    return _max_free_in_interval(N, enumerate_exact_aps(N, k), work_cap, t0)


def exact_f(N: int, m: int, k: int, eps,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N]^m with no approximate cube (progression for m=1).

    Branch and bound in lex element order; for m = 1 it is seeded with the
    greedy set as a sound incumbent.  Hitting the work cap yields
    lower_bound_only carrying the best incumbent found so far, never a value.
    For m = 1 the edge enumeration gets its own budget of work_cap nodes; if
    it runs out, the outcome is lower_bound_only 0 with the empty set.
    """
    if N < 0 or m < 1 or k < 2:
        raise ValueError(f"need N >= 0, m >= 1, k >= 2, got {N}, {m}, {k}")
    t0 = time.perf_counter()
    if m == 1:
        try:
            edges = enumerate_eps_aps(N, k, eps, work_cap).edges
        except SearchCapExceeded:
            return SearchOutcome("lower_bound_only", 0, (), 0, time.perf_counter() - t0)
        return _max_free_in_interval(N, edges, work_cap, t0)

    from .density import verify_cube_free  # density imports this module

    e = check_epsilon(eps)
    points = tuple(product(range(1, N + 1), repeat=m))
    cube = k ** m
    budget = Budget(work_cap)

    def closes(i, chosen):
        picked = [p for p, c in zip(points, chosen) if c]
        if len(picked) + 1 < cube:
            return False
        return verify_cube_free(picked + [points[i]], m, k, e,
                                node_cap=max(budget.left, 1)) is not None

    best, completed = _max_free(len(points), closes, budget)
    return SearchOutcome("value" if completed else "lower_bound_only", len(best),
                         tuple(points[i] for i in best), budget.spent,
                         time.perf_counter() - t0)
