"""Density-side constructions: progression-free alphabets, digit sets, blow-ups.

The digit construction confines every non-leading base-q digit to the middle
band [2q/5, 3q/5], so consecutive-element gaps are dominated by the leading
distinct digit; combined with progression-free digit alphabets this kills
every approximate progression.  The cube blow-up and the translation
averaging step are the two halves of the density upper bound machinery.
The cube search (_cubes) prunes with the integer d interval update of the
geometry module, the one the 1-D progression stream uses, and tries at each
slot only the points inside the window that the axis-0 constraints allow;
verify_cube_free returns its first cube, and search.exact_f (m >= 2) lists
them all.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .colorings import DEFAULT_MATERIALIZE_CAP
from .errors import (
    DEFAULT_WORK_CAP,
    Budget,
    MemoryGuardExceeded,
    SearchCapExceeded,
    check_cap,
)
from .geometry import (
    DEFAULT_TOL,
    _trusted_grid,
    check_epsilon,
    check_points,
    check_tol,
    narrowed,
    recognize_cube,
    window,
)
from .rational import ceil_frac, floor_frac, to_fraction
from .search import _greedy, max_exact_ap_free

__all__ = [
    "ApkFreeProvider",
    "DigitConstruction",
    "CubeBlowupSpec",
    "TranslateResult",
    "apk_free_set",
    "build_behrend_digit_set",
    "product_free_set",
    "build_cube_blowup",
    "find_dense_translate",
    "verify_cube_free",
]


@dataclass(frozen=True)
class ApkFreeProvider:
    """Source of k-progression-free subsets of an interval.

    modes: "exact" (maximum set by branch and bound, lex-smallest tie; the
    search is capped by errors.DEFAULT_WORK_CAP nodes and raises
    SearchCapExceeded rather than return a set not known to be maximum),
    "behrend3" (sphere digit construction, k = 3 only), "greedy", or "auto"
    which picks exact up to EXACT_CAP elements, then behrend3 for k = 3,
    else greedy.
    """

    mode: str = "auto"

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "behrend3", "greedy"):
            raise ValueError(f"unknown provider mode {self.mode!r}")


DEFAULT_PROVIDER = ApkFreeProvider()
EXACT_CAP = 60  # the most elements the exact provider takes
CUBE_BLOWUP_CAP = 200_000  # the most points build_cube_blowup materializes


def _behrend3(n: int) -> tuple:
    """Sphere digit construction inside {0..n-1}, 3-progression-free.

    Digits bounded by (b-1)//2 make x + z = 2y carry-free and digitwise, and
    a fixed digit-square-sum then forces x = z.  Tries a few digit counts and
    keeps the largest sphere.
    """
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


def apk_free_set(lo: int, hi: int, k: int,
                 provider: ApkFreeProvider = DEFAULT_PROVIDER) -> tuple:
    """A subset of [lo, hi] with no exact k-term progression.

    Computed canonically on {0..hi-lo} and shifted, so translated intervals
    give translated sets.
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    n = hi - lo + 1
    mode = provider.mode
    if mode == "auto":
        mode = "exact" if n <= EXACT_CAP else ("behrend3" if k == 3 else "greedy")
    if mode == "exact":
        if n > EXACT_CAP:
            raise ValueError(f"exact mode capped at {EXACT_CAP} elements, interval has {n}")
        outcome = max_exact_ap_free(n, k)
        if outcome.kind != "value":
            raise SearchCapExceeded(f"exact provider hit the work cap on {n} elements")
        base = tuple(x - 1 for x in outcome.witness)
    elif mode == "behrend3":
        if k != 3:
            raise ValueError(f"behrend3 provider is only valid for k=3, got k={k}")
        base = _behrend3(n)
    else:
        base = _greedy(n, k)
    return tuple(x + lo for x in base)


# ---------------------------------------------------------------------------
# Digit sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DigitConstruction:
    """Parameters of the base-q digit set: head alphabet for the leading digit,
    middle-band tail alphabet for all others."""

    q: int
    h: int
    k: int
    head: tuple
    tail: tuple

    @property
    def N(self) -> int:
        return self.q ** self.h

    @property
    def size(self) -> int:
        return len(self.head) * len(self.tail) ** (self.h - 1)


def build_behrend_digit_set(eps, h: int, k: int = 3,
                            provider: ApkFreeProvider = DEFAULT_PROVIDER,
                            one_based: bool = False):
    """Digit set in [0, q^h - 1] free of approximate k-progressions.

    q = floor(1/(25 eps)); the leading digit ranges over a progression-free
    subset of [0, q-1], every other digit over one of [ceil(2q/5),
    floor(3q/5)].  Requires 0 < eps <= 1/125 so q >= 5.  Raises
    MemoryGuardExceeded when q or the member count exceeds
    colorings.DEFAULT_MATERIALIZE_CAP, or, before building the members, when
    the largest member has more decimal digits than an int may turn into
    text (sys.get_int_max_str_digits, or its default when unlimited).
    Members are built by Horner's rule, one base-q digit per level.
    """
    e = check_epsilon(eps)
    if e > Fraction(1, 125):
        raise ValueError(f"digit construction needs eps <= 1/125, got {e}")
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    q, cap = floor_frac(1 / (25 * e)), DEFAULT_MATERIALIZE_CAP
    if q > cap:
        raise MemoryGuardExceeded(f"digit base q exceeds materialize cap {cap}")
    head = apk_free_set(0, q - 1, k, provider)
    tail = apk_free_set(ceil_frac(Fraction(2 * q, 5)), floor_frac(Fraction(3 * q, 5)),
                        k, provider)
    # The largest member, by the Horner steps that build the members below:
    # from 10^digits on, an int has more decimal digits than may be printed.
    # It grows q >= 5 times a step, so the loop stops within 1.5 * digits
    # steps, whatever h is.
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    largest, limit = head[-1], 10 ** digits - one_based
    for _ in range(h - 1):
        largest = largest * q + tail[-1]
        if largest >= limit:
            raise MemoryGuardExceeded(
                f"digit set member of {h} base-{q} digits exceeds materialize cap "
                f"of {digits} decimal digits")
    # Two or more tail digits pass the cap within its bit length: clip h there.
    if len(head) * len(tail) ** min(h - 1, cap.bit_length()) > cap:
        raise MemoryGuardExceeded(f"digit set size exceeds materialize cap {cap}")
    # The h - 1 low digits, by Horner's rule; both alphabets are sorted, so
    # every level, and then the members, come out sorted.
    lows = [0]
    for _ in range(h - 1):
        lows = [low * q + dg for low in lows for dg in tail]
    scale = q ** (h - 1)
    members = tuple(top * scale + low for top in head for low in lows)
    spec = DigitConstruction(q=q, h=h, k=k, head=head, tail=tail)
    if one_based:
        members = tuple(x + 1 for x in members)
    return spec, members


def product_free_set(A, m: int, N: int) -> tuple:
    """A x [N]^(m-1) as sorted m-tuples; freeness projects to the first axis."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    avals = [a for a, in check_points([(a,) for a in A], 1)]
    if avals and not 1 <= avals[0] <= avals[-1] <= N:
        raise ValueError("A must lie inside [1, N]")
    return tuple(sorted(
        (a,) + rest for a in avals for rest in product(range(1, N + 1), repeat=m - 1)
    ))


# ---------------------------------------------------------------------------
# Cube blow-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeBlowupSpec:
    """m-fold product of the 1-D blow-up with scale t = ceil(k sqrt(m)/eps)."""

    m: int
    k: int
    eps: Fraction
    alpha: Fraction
    r: int
    t: int
    elements: tuple  # sorted m-tuples
    n0_bound: int  # bounding box: elements fit in [0, n0_bound - 1]^m

    def blocks(self):
        """The k^m translated copies of the (r-1)-fold blow-up, keyed by u."""
        step = self.t ** (self.r - 1)
        if self.r == 1:
            prefix = [(0,) * self.m]
        else:
            axis = [
                sum(b * self.t ** p for p, b in enumerate(bs))
                for bs in product(range(self.k), repeat=self.r - 1)
            ]
            prefix = list(product(axis, repeat=self.m))
        out = []
        for u in product(range(self.k), repeat=self.m):
            shift = tuple(step * c for c in u)
            out.append((u, tuple(sorted(
                tuple(w + s for w, s in zip(p, shift)) for p in prefix
            ))))
        return out


def build_cube_blowup(m: int, k: int, eps, alpha,
                      cap: int = CUBE_BLOWUP_CAP) -> CubeBlowupSpec:
    """Blow-up iterated r = ceil(log(1/alpha) / log(k^m/(k^m-1))) times."""
    check_cap(cap)
    if m < 1 or k < 3:
        raise ValueError(f"need m >= 1 and k >= 3, got m={m}, k={k}")
    e = check_epsilon(eps)
    a = to_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"need 0 < alpha < 1, got {a}")
    loss = math.log(k ** m / (k ** m - 1))
    r = max(1, math.ceil(math.log(1 / float(a)) / loss))
    count = k ** (r * m)
    if count > cap:
        raise MemoryGuardExceeded(
            f"blow-up needs r={r} iterations, k^(r*m) = {count} exceeds cap {cap}"
        )
    root = math.isqrt(m)
    if root * root == m:
        t = ceil_frac(Fraction(k * root) / e)
    else:
        t = math.ceil(k * math.sqrt(m) / float(e))
    axis = [
        sum(b * t ** p for p, b in enumerate(bs))
        for bs in product(range(k), repeat=r)
    ]
    elements = tuple(sorted(product(sorted(axis), repeat=m)))
    return CubeBlowupSpec(m=m, k=k, eps=e, alpha=a, r=r, t=t,
                          elements=elements, n0_bound=k * t ** (r - 1))


# ---------------------------------------------------------------------------
# Translation averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslateResult:
    shift: tuple
    count: int
    bound: Fraction  # the guaranteed average |X||A| / (2N)^m
    mode: str


def find_dense_translate(A, X, N: int, m: int, mode: str = "auto",
                         seed: int = 0, shift_cap: int = 1_000_000,
                         max_draws: int = 10_000_000) -> TranslateResult:
    """A shift u in [-N+1, N]^m with |X intersect (A+u)| at least the average.

    Either mode returns a count that meets the bound.  Deterministic mode
    scans all (2N)^m shifts and returns the maximizer (lex-smallest among
    ties), which is at least their average, the bound; it refuses to run
    past shift_cap shifts.  Randomized mode samples shifts uniformly with the
    given seed until one meets the bound, and raises SearchCapExceeded after
    max_draws misses.
    """
    a_pts = _check_grid_points(A, m, N, "A")
    x_set = set(_check_grid_points(X, m, N, "X"))
    if not a_pts:
        raise ValueError("A must be nonempty")
    total_shifts = (2 * N) ** m
    bound = Fraction(len(x_set) * len(a_pts), total_shifts)
    if mode == "auto":
        mode = "deterministic" if total_shifts <= shift_cap else "randomized"
    if mode not in ("deterministic", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")

    def count_at(u):
        return sum(
            1 for p in a_pts if tuple(c + s for c, s in zip(p, u)) in x_set
        )

    if mode == "deterministic":
        if total_shifts > shift_cap:
            raise SearchCapExceeded(
                f"deterministic scan over {total_shifts} shifts exceeds cap {shift_cap}"
            )
        best_u, best_c = None, -1
        for u in product(range(-N + 1, N + 1), repeat=m):
            c = count_at(u)
            if c > best_c:
                best_u, best_c = u, c
        return TranslateResult(shift=best_u, count=best_c, bound=bound,
                               mode="deterministic")

    rng = random.Random(seed)
    for _ in range(max_draws):
        u = tuple(rng.randint(-N + 1, N) for _ in range(m))
        c = count_at(u)
        if c >= bound:
            return TranslateResult(shift=u, count=c, bound=bound, mode="randomized")
    raise SearchCapExceeded(f"no shift met the bound within {max_draws} draws")


def _check_grid_points(pts, m: int, N: int, name: str) -> tuple:
    pts = check_points(pts, m)
    for p in pts:
        if not all(1 <= c <= N for c in p):
            raise ValueError(f"{name} must lie inside [1, {N}]^{m}, got {p}")
    return pts


# ---------------------------------------------------------------------------
# Cube search
# ---------------------------------------------------------------------------

def verify_cube_free(S, m: int, k: int, eps, tol: float = DEFAULT_TOL,
                     node_cap: int = DEFAULT_WORK_CAP) -> Optional[tuple]:
    """First approximate cube found in S (lex order of assignments) as
    (grid, CubeDecision), or None: the first item of _cubes, on a fresh
    Budget(node_cap); SearchCapExceeded is raised once it is spent.

    Because every injective index assignment is tried explicitly, no sorted-
    order disambiguation is needed and any eps accepted by the recognizer is
    allowed (in particular eps = 1/2).
    """
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    e = check_epsilon(eps)
    check_tol(tol)
    points = check_points(S, m)
    if len(points) < k ** m:
        return None
    return next(_cubes(points, m, k, e, tol, Budget(node_cap)), None)


def _cubes(points, m: int, k: int, e, tol: float, budget):
    """Every approximate cube among `points` (distinct, sorted m-tuples), as
    (grid, CubeDecision), in lex order of assignments.

    DFS assigns points to index vectors in lex order.  Each partial
    assignment keeps the exact interval of scales d allowed by the
    per-axis box constraints |x_j - (a_j + d*v_j)| <= eps*d (a necessary
    consequence of the ball constraint), updated by geometry.narrowed; an
    empty interval prunes.  Only the points whose first coordinate lies in
    the window that the axis-0 constraints allow over the current interval
    (geometry.window) are tried: `points` are sorted, so the window is a
    slice, found by bisection, and every point outside it would empty the
    interval.
    Complete assignments are confirmed by the numeric ball recognizer; only
    a 'feasible' verdict is yielded, so boundary candidates are skipped.  A
    point set fitting several assignments is yielded once per assignment.
    Each node spends one unit of `budget`, the root included.
    """
    total = k ** m
    slots = sorted(product(range(k), repeat=m))

    # Rows (axis, q*y_axis, a, c) of geometry.narrowed, over scaled points.
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
        decision = recognize_cube(grid, e, tol=tol)
        if decision.status == "feasible":
            yield grid, decision
        used.discard(assigned.pop()[1])
