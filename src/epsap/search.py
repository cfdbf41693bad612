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
from typing import Optional

from .errors import SearchCapExceeded
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
    "export_hypergraph",
    "parse_hypergraph",
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


class _Budget:
    __slots__ = ("cap", "left")

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    @property
    def spent(self) -> int:
        return self.cap - self.left

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise SearchCapExceeded("search work cap exceeded")


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
    budget = _Budget(work_cap)
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
    budget = _Budget(work_cap)
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
    budget = _Budget(work_cap)
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
    budget = _Budget(work_cap)
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

def _max_independent(points, edges, budget, incumbent=None):
    """Largest subset of points containing no edge, lex-smallest among ties.

    Include-first branch and bound over the points in order; the first leaf
    reached is the greedy set (also accepted as a preloaded incumbent),
    incumbents are replaced only on strict improvement, and the count bound
    prunes branches that cannot strictly improve, so the lex-first optimum
    survives.
    """
    n = len(points)
    index_of = {p: i for i, p in enumerate(points)}
    by_max = [[] for _ in range(n)]
    for edge in edges:
        by_max[index_of[edge[-1]]].append(tuple(index_of[p] for p in edge[:-1]))
    chosen = [False] * n
    if incumbent is None:
        best = {"size": -1, "set": ()}
    else:
        best = {"size": len(incumbent), "set": tuple(incumbent)}

    def recurse(i: int, size: int, picked: list):
        budget.spend()
        if size + (n - i) <= best["size"]:
            return
        if i == n:
            best["size"] = size
            best["set"] = tuple(points[j] for j in picked)
            return
        if not any(all(chosen[j] for j in rest) for rest in by_max[i]):
            chosen[i] = True
            picked.append(i)
            recurse(i + 1, size + 1, picked)
            picked.pop()
            chosen[i] = False
        recurse(i + 1, size, picked)

    try:
        recurse(0, 0, [])
        completed = True
    except SearchCapExceeded:
        completed = False
    return best["set"], best["size"], completed


def max_exact_ap_free(N: int, k: int,
                      work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N] with no exact k-term progression."""
    t0 = time.perf_counter()
    budget = _Budget(work_cap)
    points = tuple(range(1, N + 1))
    edges = enumerate_exact_aps(N, k)
    subset, size, completed = _max_independent(points, edges, budget,
                                               incumbent=_greedy_free(points, edges))
    kind = "value" if completed else "lower_bound_only"
    return SearchOutcome(kind, size, subset, budget.spent,
                         time.perf_counter() - t0)


def _greedy_free(points, edges) -> tuple:
    index_of = {p: i for i, p in enumerate(points)}
    by_max = {}
    for edge in edges:
        by_max.setdefault(edge[-1], []).append(edge[:-1])
    chosen = set()
    for p in points:
        if not any(all(q in chosen for q in rest) for rest in by_max.get(p, ())):
            chosen.add(p)
    return tuple(sorted(chosen))


def exact_f(N: int, m: int, k: int, eps,
            work_cap: int = DEFAULT_WORK_CAP) -> SearchOutcome:
    """Largest subset of [N]^m with no approximate cube (progression for m=1).

    Branch and bound in lex element order, seeded with the greedy set as a
    sound incumbent.  Hitting the work cap yields lower_bound_only carrying
    the best incumbent found so far, never a value.
    """
    if N < 0 or m < 1 or k < 2:
        raise ValueError(f"need N >= 0, m >= 1, k >= 2, got {N}, {m}, {k}")
    t0 = time.perf_counter()
    budget = _Budget(work_cap)
    if m == 1:
        h = enumerate_eps_aps(N, k, eps)
        points = tuple(range(1, N + 1))
        greedy = _greedy_free(points, h.edges)
        subset, size, completed = _max_independent(points, h.edges, budget,
                                                   incumbent=greedy)
        kind = "value" if completed else "lower_bound_only"
        return SearchOutcome(kind, size, subset, budget.spent,
                             time.perf_counter() - t0)
    return _exact_f_md(N, m, k, eps, budget, t0)


def _exact_f_md(N, m, k, eps, budget, t0):
    from itertools import product

    from .density import verify_cube_free

    e = check_epsilon(eps)
    points = tuple(product(range(1, N + 1), repeat=m))
    n = len(points)
    best = {"size": -1, "set": ()}

    def recurse(i: int, chosen: list):
        budget.spend()
        if len(chosen) + (n - i) <= best["size"]:
            return
        if i == n:
            best["size"] = len(chosen)
            best["set"] = tuple(chosen)
            return
        extended = chosen + [points[i]]
        if len(extended) < k ** m or verify_cube_free(
            extended, m, k, e, node_cap=max(budget.left, 1)
        ) is None:
            recurse(i + 1, extended)
        recurse(i + 1, chosen)

    try:
        recurse(0, [])
        kind = "value"
    except SearchCapExceeded:
        kind = "lower_bound_only"
    return SearchOutcome(kind, best["size"], best["set"], budget.spent,
                         time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Hypergraph serialization
# ---------------------------------------------------------------------------

def export_hypergraph(h: EpsApHypergraph, fmt: str = "text") -> str:
    """Line-based edge listing so external solvers can cross-check decisions."""
    from .formats import write_hypergraph

    if fmt != "text":
        raise ValueError(f"unknown hypergraph format {fmt!r}")
    return write_hypergraph(h)


def parse_hypergraph(text: str) -> EpsApHypergraph:
    from .formats import read_hypergraph

    return read_hypergraph(text)
