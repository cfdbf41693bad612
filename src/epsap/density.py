"""Density-side constructions: progression-free alphabets, digit sets, blow-ups.

The digit construction confines every non-leading base-q digit to the middle
band [2q/5, 3q/5], so consecutive-element gaps are dominated by the leading
distinct digit; combined with progression-free digit alphabets this kills
every approximate progression.  The cube blow-up and the translation
averaging step are the two halves of the density upper bound machinery.
Both digit constructions come from the one builder of colorings: the digit
set's members are colorings._digit_set over the head and tail alphabets,
and the cube blow-up is the m-fold product of the 1-D blow-up
(colorings._blowup_blocks, which refuses a base t < k when r > 1), its
block u the product of the 1-D blocks u_1, ..., u_m.
verify_cube_free returns the first cube of the geometry module's cube
listing (geometry._cubes), and search.exact_f (m >= 2) lists them all
before its free-set ladder.
Below eps = 1/2, verify_cube_free first asks each axis for a 1-D
progression (geometry._eps_aps) and answers None without the listing when
one has none, as for the products A x [N]^(m-1) of a free A.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from itertools import groupby, product
from operator import itemgetter
from typing import NamedTuple, Optional

from .colorings import DEFAULT_MATERIALIZE_CAP, _blowup_blocks, _digit_set
from .errors import (
    DEFAULT_WORK_CAP,
    Budget,
    MemoryGuardExceeded,
    SearchCapExceeded,
    check_cap,
    check_work_cap,
    power_exceeds,
)
from .geometry import (_check_cube_eps, _cubes, _eps_aps, check_epsilon, check_points,
                       to_fraction)
# Not called here: bench/tracer.py wraps it on this module by name.
from .geometry import recognize_cube  # noqa: F401
from .search import max_exact_ap_free

__all__ = [
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


EXACT_CAP = 60  # the most elements the exact provider takes
CUBE_BLOWUP_CAP = 200_000  # the most points build_cube_blowup materializes


def _behrend3(n: int) -> tuple:
    """Sphere digit construction inside {0..n-1}, 3-progression-free.

    Digits bounded by (b-1)//2 make x + z = 2y carry-free and digitwise, and
    a fixed digit-square-sum then forces x = z.  Tries a few digit counts and
    keeps the largest sphere.  It starts at two digits: a one-digit sphere
    is a single point, which never beats the starting (0,).
    """
    if n <= 2:
        return tuple(range(n))
    best: tuple = (0,)
    for ndig in range(2, int(math.log2(n)) + 1):
        base = math.ceil(n ** (1.0 / ndig))
        while base ** ndig < n:
            base += 1
        dmax = (base - 1) // 2
        if dmax < 1:
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


def apk_free_set(lo: int, hi: int, k: int) -> tuple:
    """A subset of [lo, hi] with no exact k-term progression.

    Computed canonically on {0..hi-lo} and shifted, so translated intervals
    give translated sets.  The provider is picked by the interval's size n:
    up to EXACT_CAP elements, the maximum set by branch and bound
    (search.max_exact_ap_free, lex-smallest tie; capped by
    errors.DEFAULT_WORK_CAP nodes, it raises SearchCapExceeded rather than
    return a set not known to be maximum); past it, the sphere digit
    construction (_behrend3) for k = 3, else first fit (_greedy, which
    raises SearchCapExceeded past errors.DEFAULT_WORK_CAP differences tried).
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    n = hi - lo + 1
    if n <= EXACT_CAP:
        outcome = max_exact_ap_free(n, k)
        if outcome.kind != "value":
            raise SearchCapExceeded(f"exact provider hit the work cap on {n} elements")
        base = tuple(x - 1 for x in outcome.witness)
    elif k == 3:
        base = _behrend3(n)
    else:
        try:
            base = _greedy(n, k, Budget(DEFAULT_WORK_CAP))
        except SearchCapExceeded:
            raise SearchCapExceeded(
                f"greedy provider hit the work cap of {DEFAULT_WORK_CAP} differences "
                f"tried on {n} elements") from None
    return tuple(x + lo for x in base)


def _greedy(n: int, k: int, budget) -> tuple:
    """The first-fit subset of range(n) with no exact k-term progression:
    each index is kept unless it ends one whose other terms are kept.  One
    budget unit per difference tried."""
    chosen = [False] * n  # not a bit mask: testing a bit of a q-bit int is O(q)
    for x in range(n):
        d = 0  # the differences tried: up to the one that closes a progression
        for d in range(1, x // (k - 1) + 1):
            for y in range(x - d, x - k * d, -d):
                if not chosen[y]:
                    break
            else:
                break
        else:
            chosen[x] = True
        budget.spend(d)
    return tuple(x for x in range(n) if chosen[x])


# ---------------------------------------------------------------------------
# Digit sets
# ---------------------------------------------------------------------------

class DigitConstruction(NamedTuple):
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


def build_behrend_digit_set(eps, h: int, k: int = 3, one_based: bool = False):
    """Digit set in [0, q^h - 1] free of approximate k-progressions.

    q = floor(1/(25 eps)); the leading digit ranges over a progression-free
    subset of [0, q-1], every other digit over one of [ceil(2q/5),
    floor(3q/5)], both from apk_free_set.
    Requires 0 < eps <= 1/125 so q >= 5.  Raises MemoryGuardExceeded when q
    or the member count exceeds colorings.DEFAULT_MATERIALIZE_CAP, or,
    before building the members, when the largest member has more decimal
    digits than an int may turn into text (sys.get_int_max_str_digits, or
    its default when unlimited).  Members are built by Horner's rule, one
    base-q digit per level (colorings._digit_set).
    """
    e = check_epsilon(eps)
    if e > Fraction(1, 125):
        raise ValueError(f"digit construction needs eps <= 1/125, got {e}")
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    q, cap = math.floor(1 / (25 * e)), DEFAULT_MATERIALIZE_CAP
    if q > cap:
        raise MemoryGuardExceeded(f"digit base q exceeds materialize cap {cap}")
    head = apk_free_set(0, q - 1, k)
    tail = apk_free_set(math.ceil(Fraction(2 * q, 5)), math.floor(Fraction(3 * q, 5)), k)
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
    members = _digit_set(q, [head] + [tail] * (h - 1))
    spec = DigitConstruction(q=q, h=h, k=k, head=head, tail=tail)
    if one_based:
        members = tuple(x + 1 for x in members)
    return spec, members


def product_free_set(A, m: int, N: int) -> tuple:
    """A x [N]^(m-1) as sorted m-tuples; freeness projects to the first axis:
    below eps = 1/2 an axis-0 line of a cube is an eps-progression in A, so
    when A holds none, verify_cube_free answers without a cube search.

    Raises MemoryGuardExceeded, before building any, when the |A| N^(m-1)
    tuples exceed colorings.DEFAULT_MATERIALIZE_CAP."""
    if m < 1 or N < 0:
        raise ValueError(f"need m >= 1 and N >= 0, got m={m}, N={N}")
    avals = [a for a, in check_points([(a,) for a in A], 1)]
    if avals and not 1 <= avals[0] <= avals[-1] <= N:
        raise ValueError("A must lie inside [1, N]")
    cap = DEFAULT_MATERIALIZE_CAP
    if avals and power_exceeds(N, m - 1, cap // len(avals)):
        raise MemoryGuardExceeded(
            f"product size |A|*N^(m-1) = {len(avals)}*{N}^{m - 1} exceeds materialize "
            f"cap {cap}")
    return tuple(sorted(
        (a,) + rest for a in avals for rest in product(range(1, N + 1), repeat=m - 1)
    ))


# ---------------------------------------------------------------------------
# Cube blow-up
# ---------------------------------------------------------------------------

class CubeBlowupSpec(NamedTuple):
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
        """The k^m translated copies of the (r-1)-fold blow-up, keyed by u:
        block u is the product of the 1-D blocks u_1, ..., u_m."""
        line = _blowup_blocks(self.k, self.r, self.t, self.eps)
        return [(u, tuple(product(*(line[c] for c in u))))
                for u in product(range(self.k), repeat=self.m)]


def build_cube_blowup(m: int, k: int, eps, alpha,
                      cap: int = CUBE_BLOWUP_CAP) -> CubeBlowupSpec:
    """Blow-up iterated r = ceil(log(1/alpha) / log(k^m/(k^m-1))) times,
    that is the fewest r >= 1 with (1 - 1/k^m)^r <= alpha, found in integers.

    Refuses k^m > cap before it looks for r, and k^(r*m) > cap, without
    building a power past the cap.  Refuses a digit base t < k when r > 1,
    as build_blowup_1d does."""
    check_cap(cap)
    if m < 1 or k < 3:
        raise ValueError(f"need m >= 1 and k >= 3, got m={m}, k={k}")
    e = check_epsilon(eps)
    a = to_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"need 0 < alpha < 1, got {a}")
    if power_exceeds(k, m, cap):
        raise MemoryGuardExceeded(f"blow-up size k^m = {k}^{m} exceeds cap {cap}")
    size = k ** m
    r = 1
    while (size - 1) ** r * a.denominator > a.numerator * size ** r:
        r += 1
        if power_exceeds(k, r * m, cap):
            # r now only names the refusal: the logarithms give it, no power
            loss = -math.log1p(-1 / size)
            r = max(r, math.ceil((math.log(a.denominator) - math.log(a.numerator)) / loss))
            raise MemoryGuardExceeded(
                f"blow-up needs r={r} iterations, k^(r*m) = {k}^{r * m} exceeds cap {cap}")
    # the least t with t^2 p^2 >= k^2 m q^2 for eps = p/q: t*p is an
    # integer, so t*p >= k*q*sqrt(m) is t*p >= ceil(k*q*sqrt(m))
    square = k * k * m * e.denominator ** 2
    root = math.isqrt(square)
    t = -(-(root + (root * root < square)) // e.numerator)
    axis = [x for block in _blowup_blocks(k, r, t, e) for x in block]
    elements = tuple(product(axis, repeat=m))
    return CubeBlowupSpec(m=m, k=k, eps=e, alpha=a, r=r, t=t,
                          elements=elements, n0_bound=k * t ** (r - 1))


# ---------------------------------------------------------------------------
# Translation averaging
# ---------------------------------------------------------------------------

class TranslateResult(NamedTuple):
    shift: tuple
    count: int
    bound: Fraction  # the guaranteed average |X||A| / (2N)^m


def find_dense_translate(A, X, N: int, m: int,
                         work_cap: int = DEFAULT_WORK_CAP) -> TranslateResult:
    """The shift u in [-N+1, N]^m with the most points of X in A + u, the
    lex-smallest among ties; its count is at least their average, the bound.

    Each pair (a, x) of A x X votes for u = x - a, and u's count is its
    votes.  A vote is an integer key: u_j + N - 1 lies in [0, 2N - 2], so
    the key sum_j (u_j + N - 1) * (2N - 1)^(m-1-j) numbers the shifts in lex
    order, and the key of x - a is key(x) - key(a) plus a constant.  The
    streams of keys over the sorted X are sorted too, so one merge of them
    brings each shift's votes together; only the winner's key is turned
    back into a shift.  With no vote (X empty) the answer is
    (-N+1, ..., -N+1) with count 0.  One unit of Budget(work_cap) per pair,
    spent before the first vote, so more than work_cap pairs are refused at
    once.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    a_pts = _check_grid_points(A, m, N, "A")
    x_pts = _check_grid_points(X, m, N, "X")
    if not a_pts:
        raise ValueError("A must be nonempty")
    Budget(work_cap).spend(len(a_pts) * len(x_pts))
    base = 2 * N - 1
    x_keys = [_shift_key(x, base) for x in x_pts]
    origin = _shift_key((N - 1,) * m, base)  # the key of the zero shift
    votes = heapq.merge(*(_votes(origin - _shift_key(a, base), x_keys) for a in a_pts))
    # max keeps the first of equal counts, the lex-smallest shift
    count, key = max(((len(list(run)), u) for u, run in groupby(votes)),
                     key=itemgetter(0), default=(0, 0))
    shift = []
    for _ in range(m):
        key, digit = divmod(key, base)
        shift.append(digit - (N - 1))
    return TranslateResult(shift=tuple(reversed(shift)), count=count,
                           bound=Fraction(len(x_pts) * len(a_pts), (2 * N) ** m))


def _shift_key(p, base: int) -> int:
    """p read as the digits of a base-`base` integer, first coordinate first."""
    key = 0
    for c in p:
        key = key * base + c
    return key


def _votes(offset: int, x_keys):
    """The keys of the shifts x - a that a votes for, in the order of X:
    each key of x plus a's offset."""
    return map(offset.__add__, x_keys)


def _check_grid_points(pts, m: int, N: int, name: str) -> tuple:
    """check_points, then [1, N]^m tested by each column's least and
    greatest value; the first point outside is named."""
    pts = check_points(pts, m)
    if not all(1 <= min(col) and max(col) <= N for col in zip(*pts)):
        bad = next(p for p in pts if not all(1 <= c <= N for c in p))
        raise ValueError(f"{name} must lie inside [1, {N}]^{m}, got {bad}")
    return pts


# ---------------------------------------------------------------------------
# Cube search
# ---------------------------------------------------------------------------

def verify_cube_free(S, m: int, k: int, eps,
                     work_cap: int = DEFAULT_WORK_CAP) -> Optional[tuple]:
    """First approximate cube found in S (lex order of assignments) as
    (grid, CubeDecision), or None: the first item of _cubes, on a fresh
    Budget(work_cap); SearchCapExceeded is raised once it is spent.  The
    decision is feasible and its witness certifies the grid exactly, so
    recognize_cube's fixed tolerance (geometry.DEFAULT_TOL) never decides a
    hit; eps is an exact rational, as everywhere.

    For m >= 2 and eps < 1/2, each axis is first asked for a 1-D
    eps-progression among its distinct coordinates (_eps_aps, on the same
    budget).  The axis-j coordinates of an axis-j line of a cube strictly
    increase there and form one, so an axis with none answers None before
    _cubes starts; otherwise _cubes decides, and its first cube is the hit.

    Because every injective index assignment is tried explicitly, no sorted-
    order disambiguation is needed and any eps accepted by the recognizer is
    allowed (in particular eps = 1/2); one it refuses (2 eps >= k - 1) is
    refused before the points are counted.
    """
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    e = _check_cube_eps(eps, k)
    points = check_points(S, m)
    check_work_cap(work_cap)
    if len(points) < k ** m:
        return None
    budget = Budget(work_cap)
    if m >= 2 and 2 * e < 1:
        for coords in zip(*points):
            if next(_eps_aps(sorted(set(coords)), k, e, budget), None) is None:
                return None
    return next(_cubes(points, m, k, e, budget), None)
