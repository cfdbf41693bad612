"""Ramsey-side generators and verifiers.

Covers the blow-up sets that force monochromatic approximate progressions,
periodic two-label block colorings, the short 2-color construction they
yield, and the recursive inductive coloring that realizes the lower bound,
with its parameter schedule.  Large recursive colorings are function-backed
so that structure can be checked without materializing billions of entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import geometry
from .errors import DEFAULT_WORK_CAP, Budget, MemoryGuardExceeded, check_cap, power_exceeds
from .geometry import Witness1D, _eps_aps, check_epsilon, to_fraction

__all__ = [
    "Coloring",
    "AlternateLabeling",
    "BlowupSpec",
    "LowerBoundParams",
    "MonochromeWitness",
    "build_blowup_1d",
    "build_alternate_labeling",
    "build_simple_r2_coloring",
    "lower_bound_params",
    "hypothesis_threshold",
    "build_lower_bound_coloring",
    "verify_no_mono_ap",
]

DEFAULT_EPS0 = Fraction(1, 1000)
DEFAULT_MATERIALIZE_CAP = 50_000_000
BLOWUP_CAP = 1_000_000  # the most elements build_blowup_1d materializes


class Coloring:
    """Total map {1..N} -> {1..r}, list-backed or function-backed.

    Function backing keeps huge recursive colorings usable: single entries
    are computed on demand and full materialization is guarded by a cap.
    Instances are treated as immutable.
    """

    __slots__ = ("N", "r", "_colors", "_fn")

    def __init__(self, N: int, r: int, colors: Optional[Sequence[int]] = None,
                 fn: Optional[Callable[[int], int]] = None):
        if N < 0 or r < 1:
            raise ValueError(f"need N >= 0 and r >= 1, got N={N}, r={r}")
        if (colors is None) == (fn is None):
            raise ValueError("exactly one of colors/fn must be given")
        self.N = N
        self.r = r
        self._fn = fn
        if colors is not None:
            cols = tuple(colors)
            if len(cols) != N:
                raise ValueError(f"expected {N} colors, got {len(cols)}")
            for c in cols:
                if not 1 <= c <= r:
                    raise ValueError(f"color {c} out of range 1..{r}")
            self._colors = cols
        else:
            self._colors = None

    @classmethod
    def from_list(cls, colors: Sequence[int], r: Optional[int] = None) -> "Coloring":
        cols = tuple(colors)
        return cls(N=len(cols), r=r if r is not None else max(cols, default=1),
                   colors=cols)

    def color(self, x: int) -> int:
        if not 1 <= x <= self.N:
            raise ValueError(f"x={x} outside domain 1..{self.N}")
        if self._colors is not None:
            return self._colors[x - 1]
        c = self._fn(x)
        if not 1 <= c <= self.r:
            raise ValueError(f"backing function returned color {c} at x={x}")
        return c

    def to_list(self, cap: int = DEFAULT_MATERIALIZE_CAP) -> list:
        if self.N > cap:
            raise MemoryGuardExceeded(
                f"coloring domain N={self.N} exceeds materialize cap {cap}"
            )
        if self._colors is not None:
            return list(self._colors)
        return [self._fn(x) for x in range(1, self.N + 1)]

    def classes(self, cap: int = DEFAULT_MATERIALIZE_CAP) -> dict:
        """Color -> sorted points of that color."""
        out = {c: [] for c in range(1, self.r + 1)}
        for x, c in enumerate(self.to_list(cap=cap), start=1):
            out[c].append(x)
        return out


# ---------------------------------------------------------------------------
# Blow-ups
# ---------------------------------------------------------------------------

def _digit_set(base: int, alphabets) -> tuple:
    """Every number whose base-`base` digits, most significant first, come
    from `alphabets` in turn, by Horner's rule.  The alphabets are sorted and
    every one after the first lies in [0, base), so no digit carries and the
    numbers come out increasing."""
    out = [0]
    for digits in alphabets:
        out = [x * base + dg for x in out for dg in digits]
    return tuple(out)


def _blowup_blocks(k: int, r: int, t: int, eps) -> list:
    """The r-fold base-t blow-up of {0..k-1} as its k blocks: block i holds
    the members with leading digit i, a translate of the (r-1)-fold blow-up.
    Refuses t < k when r > 1, where digits would collide; one digit cannot."""
    if r > 1 and t < k:
        raise ValueError(
            f"eps={eps} gives digit base t={t} < k={k}; blow-up digits would collide"
        )
    return [_digit_set(t, [(i,)] + [range(k)] * (r - 1)) for i in range(k)]


class BlowupSpec(NamedTuple):
    """Iterated base-t digit expansion of {0..k-1}, one digit per color round."""

    k: int
    r: int
    eps: Fraction
    t: int
    elements: tuple  # 0-based, sorted

    @property
    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    def one_based(self) -> tuple:
        return tuple(e + 1 for e in self.elements)

    def blocks(self) -> list:
        """Partition into the k translated copies of the (r-1)-fold blow-up."""
        return list(enumerate(_blowup_blocks(self.k, self.r, self.t, self.eps)))


def build_blowup_1d(k: int, r: int, eps, cap: int = BLOWUP_CAP) -> BlowupSpec:
    """The r-fold blow-up of {0..k-1} with scale t = ceil(k/eps).

    Element count k^r is capped, checked without building a power past the
    cap; digit collisions (possible only for r > 1 and eps large enough that
    t < k) are rejected so |elements| = k^r always holds.
    """
    check_cap(cap)
    if k < 2 or r < 1:
        raise ValueError(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    e = check_epsilon(eps)
    if power_exceeds(k, r, cap):
        raise MemoryGuardExceeded(f"blow-up size k^r = {k}^{r} exceeds cap {cap}")
    t = math.ceil(Fraction(k) / e)
    elements = tuple(x for block in _blowup_blocks(k, r, t, e) for x in block)
    return BlowupSpec(k=k, r=r, eps=e, t=t, elements=elements)


# ---------------------------------------------------------------------------
# Alternate labelings
# ---------------------------------------------------------------------------

class AlternateLabeling(NamedTuple):
    """Periodic +-1 labeling: r-1 blocks of +1 of length D, then one of -1.

    offset selects which of the r distinct phase shifts (in multiples of D)
    is used.  The domain is [1, r*t*D]; label_at extends the labeling to
    every integer by the same period.
    """

    r: int
    D: int
    t: int
    offset: int

    @property
    def domain_size(self) -> int:
        return self.r * self.t * self.D

    def label_at(self, x: int) -> int:
        """Label of an integer on the extended periodic labeling: +1 on the
        first (r-1)*D of each period that starts at offset*D + 1, -1 on the
        last D."""
        rep = (x - 1 - self.offset * self.D) % (self.r * self.D)  # in [0, r*D)
        return 1 if rep < (self.r - 1) * self.D else -1

    def label(self, x: int) -> int:
        if not 1 <= x <= self.domain_size:
            raise ValueError(f"x={x} outside domain 1..{self.domain_size}")
        return self.label_at(x)

    def labels(self, cap: int = DEFAULT_MATERIALIZE_CAP) -> tuple:
        if self.domain_size > cap:
            raise MemoryGuardExceeded(
                f"labeling domain r*t*D={self.domain_size} exceeds materialize cap {cap}"
            )
        return tuple(self.label(x) for x in range(1, self.domain_size + 1))


def build_alternate_labeling(r: int, D: int, t: int, offset: int) -> AlternateLabeling:
    if r < 2 or D < 1 or t < 1:
        raise ValueError(f"need r >= 2, D >= 1, t >= 1, got r={r}, D={D}, t={t}")
    if not 0 <= offset < r:
        raise ValueError(f"offset must be in 0..{r - 1}, got {offset}")
    return AlternateLabeling(r=r, D=D, t=t, offset=offset)


def build_simple_r2_coloring(k: int) -> Coloring:
    """2-coloring of [2*floor((k-2)/3)*(k-1)] by a (1,1;k-1)-alternate labeling.

    Color 1 on +1 blocks, color 2 on -1 blocks, block length k-1.
    """
    if k < 4:
        raise ValueError(f"need k >= 4, got k={k}")
    t = (k - 2) // 3
    if t == 0:
        raise ValueError(f"k={k} gives an empty domain (floor((k-2)/3) = 0)")
    labeling = build_alternate_labeling(2, k - 1, t, 0)
    colors = [1 if lab == 1 else 2 for lab in labeling.labels()]
    return Coloring.from_list(colors, r=2)


# ---------------------------------------------------------------------------
# Recursive lower-bound coloring
# ---------------------------------------------------------------------------

class LowerBoundParams(NamedTuple):
    """Rounded parameter schedule for one level of the recursive coloring.

    At the base level (r = 1) only n1 = k - 1 is meaningful.  Above it,
    s = ceil(ln(1/(5 eps)) / 0.9),   t = ceil(k / (2 r s)),
    w = ceil(e^(0.9 s) / (s (r-1)!)),  D_j = ceil((s - j + 1) n0 / s)
    for j = 1..floor(s/2), n0 is the child's domain size at
    k' = ceil(k / (r s)), and n1 = r * w * t * (D_1 + ... + D_floor(s/2)).
    """

    r: int
    k: int
    eps: Fraction
    s: int
    w: int
    t: int
    blocks: tuple  # (D_1, ..., D_floor(s/2))
    n0: int
    n1: int
    child: Optional["LowerBoundParams"]

    @property
    def block_sum(self) -> int:
        return sum(self.blocks)

    # Closed-form interval offsets of the four-level partition (1-based i,j,u,v).
    def alpha(self, i: int) -> int:
        return (i - 1) * self.r * self.t * self.block_sum

    def beta(self, i: int, j: int) -> int:
        return self.alpha(i) + self.r * self.t * sum(self.blocks[: j - 1])

    def gamma(self, i: int, j: int, u: int) -> int:
        return self.beta(i, j) + (u - 1) * self.r * self.blocks[j - 1]

    def sigma(self, i: int, j: int, u: int, v: int) -> int:
        return self.gamma(i, j, u) + (v - 1) * self.blocks[j - 1]


def hypothesis_threshold(r: int, eps) -> float:
    """Smallest admissible k at level r: 2^r * r! * ln^r(1/(5 eps)) / eps.

    math.inf when that passes every float, for large r or tiny eps.
    """
    e = to_fraction(eps)
    try:
        return 2.0 ** r * math.factorial(r) * math.log(1 / (5 * float(e))) ** r / float(e)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def lower_bound_params(k: int, r: int, eps,
                       eps0=DEFAULT_EPS0) -> LowerBoundParams:
    """Compute the full rounded parameter schedule, validating hypotheses.

    Every level above the base checks eps <= eps0 and the admissibility
    inequality for its own (k, r); a violation raises naming the level and
    the failed bound.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    e = check_epsilon(eps)
    e0 = to_fraction(eps0)
    if r == 1:
        if k < 2:
            raise ValueError(f"need k >= 2 at the base level, got k={k}")
        return LowerBoundParams(r=1, k=k, eps=e, s=0, w=0, t=0, blocks=(),
                                n0=0, n1=k - 1, child=None)
    if e > e0:
        raise ValueError(f"hypothesis eps <= eps0 fails: {e} > {e0}")
    need = hypothesis_threshold(r, e)
    if k < need:
        raise ValueError(
            f"hypothesis k >= 2^r r! eps^-1 ln^r(1/(5 eps)) fails at level r={r}: "
            f"k={k} < {need:.1f}"
        )
    s = math.ceil(math.log(1 / (5 * float(e))) / 0.9)
    if s < 2:
        raise ValueError(f"schedule needs s >= 2, got s={s} (eps={e} too close to 1/5)")
    t = -(-k // (2 * r * s))
    w = math.ceil(math.exp(0.9 * s) / (s * math.factorial(r - 1)))
    k_child = -(-k // (r * s))
    child = lower_bound_params(k_child, r - 1, e, eps0=e0)
    n0 = child.n1
    blocks = tuple(-(-((s - j + 1) * n0) // s) for j in range(1, s // 2 + 1))
    n1 = r * w * t * sum(blocks)
    return LowerBoundParams(r=r, k=k, eps=e, s=s, w=w, t=t, blocks=blocks,
                            n0=n0, n1=n1, child=child)


def _color_at(node: LowerBoundParams, palette: tuple, x: int) -> int:
    if node.child is None:
        return palette[0]
    blocks = node.blocks
    r, t = node.r, node.t
    rem = x - 1
    rem %= r * t * node.block_sum  # position inside its Y_i
    for D in blocks:
        size = r * t * D
        if rem < size:
            break
        rem -= size
    rem %= r * D  # position inside its Z_u
    v = rem // D  # 0-based omitted color slot
    p = rem % D + 1
    return _color_at(node.child, palette[:v] + palette[v + 1:], p)


def build_lower_bound_coloring(k: int, r: int, eps, eps0=DEFAULT_EPS0,
                               dense: bool = False,
                               cap: int = DEFAULT_MATERIALIZE_CAP) -> Coloring:
    """The recursive coloring of [n1] built from the four-level partition.

    Each bottom interval Z_{u,v} of length D_j carries the length-D_j prefix
    of the recursively built coloring on the r-1 colors other than v.  The
    result is function-backed; pass dense=True to materialize (guarded by
    cap, since n1 grows very fast).
    """
    check_cap(cap)
    params = lower_bound_params(k, r, eps, eps0=eps0)
    palette = tuple(range(1, r + 1))
    coloring = Coloring(N=params.n1, r=r, fn=lambda x: _color_at(params, palette, x))
    if dense:
        coloring = Coloring(N=params.n1, r=r, colors=coloring.to_list(cap=cap))
    return coloring


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class MonochromeWitness(NamedTuple):
    color: int
    points: tuple
    witness: Witness1D


def verify_no_mono_ap(coloring: Coloring, k: int, eps,
                      cap: int = DEFAULT_MATERIALIZE_CAP,
                      work_cap: int = DEFAULT_WORK_CAP) -> Optional[MonochromeWitness]:
    """Search every color class for an approximate progression.

    Returns the lexicographically smallest (color, point set) hit with its
    exact witness, or None when the coloring is free of them.  One
    Budget(work_cap) serves every class, so the cap bounds the whole call.
    The classes are searched in color order and the first hit returns, so
    every class searched before is free; a class that translates one of
    them is free too (a shifted progression is one with the same d) and is
    not searched again.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    e = check_epsilon(eps, set_level=True)
    budget = Budget(work_cap)
    free = set()  # the shapes, points minus the least one, of the classes searched
    for c, pts in sorted(coloring.classes(cap=cap).items()):
        if len(pts) < k:
            continue
        shape = tuple(x - pts[0] for x in pts)
        if shape in free:
            continue
        free.add(shape)
        hit = next(_eps_aps(tuple(pts), k, e, budget), None)
        if hit is not None:
            # through the module, where bench/tracer.py wraps recognize_ap
            return MonochromeWitness(color=c, points=hit,
                                     witness=geometry.recognize_ap(hit, e))
    return None

