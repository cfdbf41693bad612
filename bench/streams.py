"""Seeded query streams for the epsap benchmark.

A stream is a list of units.  A unit is a short list of CLI queries that
must run in order, because a later query reads a file that an earlier one
wrote (``construct ... --out`` and then ``verify``), or that the harness
wrote from an earlier answer.  The seed picks parameters from fixed, narrow
ranges, the noise of generated points, and the order of the units.  The
ranges are narrow so that the cost of a pass barely depends on the seed.

Every query carries its own answer check.  A verdict is known either by
construction, and then checked for any seed, or from ``expected.json``,
which pins the answer of every parameter cell that any seed can draw.
Witnesses of 1-D progressions are re-checked in exact ``Fraction``
arithmetic here, independently of the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("enumerate-1d", "certify-1d", "cube-md")
PINS_PATH = Path(__file__).with_name("expected.json")
# Answer fields that are pinned per cell; the rest of the JSON is covered
# by the per-workload stdout hash.
PINNED_FIELDS = ("accepted", "status", "free", "free_of_monochromatic_ap",
                 "kind", "value", "edge_count")

Check = Callable[[int, Optional[dict]], Optional[str]]


@dataclass
class Query:
    """One CLI call: its argv, its answer check, and optional glue.

    ``check(exit_code, parsed_json)`` returns None for a correct answer and a
    one-line reason otherwise.  ``then(parsed_json)`` writes the input file of
    a later query in the same unit.
    """

    argv: list
    check: Check
    then: Optional[Callable[[dict], None]] = None


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build_stream(workload: str, seed: int, workdir: Path, pins: dict) -> list:
    """The units of one pass, with their input files written into workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    makers = {"enumerate-1d": _enumerate_1d, "certify-1d": _certify_1d,
                "cube-md": _cube_md}
    units = makers[workload](rng, workdir, pins["cells"])
    rng.shuffle(units)
    return units


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _expect(code: int, **fields) -> Check:
    def check(rc, out):
        if rc != code:
            return f"exit code {rc}, expected {code}"
        if out is None:
            return "no JSON answer"
        for key, want in fields.items():
            if out.get(key) != want:
                return f"{key} = {out.get(key)!r}, expected {want!r}"
        return None
    return check


def _both(first: Check, second: Check) -> Check:
    def check(rc, out):
        return first(rc, out) or second(rc, out)
    return check


def _pinned(cells: dict, argv: list, key: Optional[str] = None) -> Check:
    want = cells[key or " ".join(argv)]
    return _expect(want["rc"], **{f: want[f] for f in PINNED_FIELDS if f in want})


def _frac(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def witness_error(points, witness: dict, eps: Fraction) -> Optional[str]:
    """Exact re-check of |x_i - a - i*d| < eps*d for a 1-D witness."""
    a, d = _frac(witness["a"]), _frac(witness["d"])
    if d <= 0:
        return f"witness scale d = {d} is not positive"
    for i, x in enumerate(points):
        if not abs(x - a - i * d) < eps * d:
            return f"witness (a={a}, d={d}) misses point {i} = {x}"
    return None


def _ap_hit(members, k: int, eps: Fraction) -> Check:
    """A found k-progression drawn from members, certified exactly."""
    allowed = set(members)

    def check(rc, out):
        hit = out["witness"]
        pts = hit["points"]
        if len(pts) != k or any(a >= b for a, b in zip(pts, pts[1:])):
            return f"hit {pts} is not {k} increasing points"
        if not set(pts) <= allowed:
            return f"hit {pts} is not inside the checked set"
        return witness_error(pts, hit["witness"], eps)
    return check


def _read_coloring(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [int(tok) for tok in lines[1:] if tok.strip()]


def _mono_hit(path: Path, k: int, eps: Fraction) -> Check:
    """A reported monochromatic hit lies in one color class of the file."""
    def check(rc, out):
        hit = out["witness"]
        if hit is None:
            return None
        colors = _read_coloring(path)
        members = [x for x, c in enumerate(colors, start=1) if c == hit["color"]]
        return _ap_hit(members, k, eps)(rc, {"witness": {
            "points": hit["points"], "witness": hit["witness"]}})
    return check


def _cube_hit(members, m: int, k: int) -> Check:
    """A found approximate cube uses k^m distinct points of the set."""
    allowed = {tuple(p) for p in members}

    def check(rc, out):
        hit = out["witness"]
        pts = [tuple(p) for p in hit["grid"].values()]
        if len(set(pts)) != k ** m or not set(pts) <= allowed:
            return "cube hit is not k^m distinct points of the set"
        if not float(hit["witness"]["residual"]) > 0:
            return "cube witness has no positive residual"
        return None
    return check


def _write_set(path: Path, points) -> None:
    rows = sorted(tuple(p) if isinstance(p, (list, tuple)) else (p,) for p in points)
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows),
                    encoding="utf-8")


def _eps_text(e: Fraction) -> str:
    return f"{e.numerator}/{e.denominator}"


# ---------------------------------------------------------------------------
# enumerate-1d: exhaustive exact 1-D searches, no numeric code
# ---------------------------------------------------------------------------

def _hypergraph(N, k, eps):
    return ["hypergraph", "--N", str(N), "--k", str(k), "--eps", eps, "--json"]


def _wnumber(k, r, eps, nmax):
    return ["wnumber", "--k", str(k), "--r", str(r), "--eps", eps,
            "--nmax", str(nmax), "--json"]


def _density_1d(N, k, eps):
    return ["density", "--N", str(N), "--m", "1", "--k", str(k), "--eps", eps,
            "--json"]


def _exact_aps(N, k):
    return ["density", "--N", str(N), "--k", str(k), "--exact-aps", "--json"]


# One slot is one query: (argv function, the parameter tuples the seed picks
# from).  The tuples of a slot cost about the same (within ~20% on a 2-CPU
# host), so the seed changes the inputs but barely the cost of a pass.  Twelve
# ~0.07 s queries hold the median and seven ~0.3 s ones the 90th percentile,
# so that neither sits on a gap between costs.
_W32 = [(3, 2, e, 40) for e in ("1/10", "1/8", "1/6", "1/5", "1/4")]
_X1 = [(18, 3), (19, 3), (20, 3), (19, 4), (18, 4), (22, 5)]
_X2 = [(22, 3), (22, 4), (23, 4), (23, 5), (24, 5), (25, 5)]
_X3 = [(23, 3), (25, 3), (26, 3), (24, 4), (25, 4), (26, 5)]
_D1 = [(17, 3, "1/10"), (16, 3, "1/10"), (16, 3, "1/12"), (15, 3, "1/6")]
_D2 = [(20, 3, "1/10"), (19, 3, "1/12"), (19, 3, "1/8"), (19, 3, "1/6")]
_H1 = [(24, 3, e) for e in ("1/10", "1/8", "1/12", "1/20")] + [(26, 3, "1/10")]
_H2 = [(30, 3, "1/10"), (30, 3, "1/12"), (30, 3, "1/20"), (32, 3, "1/20"),
       (28, 3, "1/6")]
_H3 = [(32, 3, "1/10"), (32, 3, "1/12"), (30, 3, "1/8"), (32, 3, "1/8"), (30, 3, "1/6")]
_K1 = [(24, 4, "1/10"), (26, 4, "1/10"), (22, 4, "1/12"), (24, 4, "1/12")]
_ENUMERATE_SLOTS = (
    [(_exact_aps, _X1)] * 5 + [(_wnumber, _W32)] * 5
    + [(_exact_aps, _X2)] * 6 + [(_density_1d, _D1)] * 6
    + [(_hypergraph, _H1)] * 3 + [(_density_1d, _D2)] * 2
    + [(_wnumber, [(3, 3, e, 60) for e in ("1/6", "1/5", "1/4")])] * 2
    + [(_exact_aps, _X3)] * 2 + [(_hypergraph, _H2)] * 2
    + [(_hypergraph, _H3)] * 4 + [(_hypergraph, _K1)] * 3
)


def _enumerate_1d(rng, workdir, cells) -> list:
    units = []
    for build, choices in _ENUMERATE_SLOTS:
        argv = build(*rng.choice(choices))
        check = _pinned(cells, argv)
        if build is _exact_aps:
            check = _both(check, _no_exact_ap(int(argv[2]), int(argv[4])))
        units.append([Query(argv, check)])
    return units


def _no_exact_ap(N: int, k: int) -> Check:
    """An exact-progression-free witness set, checked by brute force."""
    def check(rc, out):
        chosen = out["witness_set"]
        members = set(chosen)
        if len(chosen) != out["value"] or not members <= set(range(1, N + 1)):
            return "witness set does not match the value or leaves [N]"
        for a in chosen:
            for d in range(1, N):
                if all(a + i * d in members for i in range(k)):
                    return f"witness set holds the progression {a}+{d}i"
        return None
    return check


# ---------------------------------------------------------------------------
# certify-1d: check given 1-D objects
# ---------------------------------------------------------------------------

_RECOGNIZE_K = (10, 20, 30, 40, 50, 60, 70, 80)
_RECOGNIZE_EPS = (Fraction(1, 8), Fraction(1, 10), Fraction(1, 20))
# Fixed sizes: simple-r2 colors [2*floor((k-2)/3)*(k-1)], so its verify time
# jumps between neighbouring k.  k = 11 and 12 twice each, with recognize ap
# at k ~ 80, make the plateau of heavy queries that p90 falls in.
_SIMPLE_R2_K = (9, 11, 12, 11, 12)
# (k, nmax of the pinned wnumber cell, sizes N to draw from), twice each.
# The pinned forcing number W(k, 2, 1/10) is at most every N drawn, and every
# 2-coloring of [N] with N >= W has a monochromatic approximate k-progression.
_FORCED = ((3, 40, range(12, 41)), (4, 60, range(24, 51)), (5, 60, range(40, 61))) * 2


def near_ap(rng, k: int, d: int, eps: Fraction, spread: Fraction) -> list:
    """a + i*d plus integer noise of size <= spread*eps*d < eps*d."""
    r = math.floor(spread * eps * d)
    a = rng.randint(0, 10 * d)
    return [a + i * d + rng.randint(-r, r) for i in range(k)]


def broken_ap(rng, k: int, d: int, eps: Fraction) -> list:
    """A near-progression with one interior point moved until two
    consecutive gaps have ratio >= (1+2eps)/(1-2eps).  Any witness (a', d')
    puts every gap strictly inside (d'(1-2eps), d'(1+2eps)), so none exists.
    """
    pts = near_ap(rng, k, d, eps, Fraction(1, 10))
    j = rng.randint(1, k - 2)
    bound = (1 + 2 * eps) / (1 - 2 * eps)
    g1, g2 = pts[j] - pts[j - 1], pts[j + 1] - pts[j]
    pts[j] += math.ceil((bound * g2 - g1) / (1 + bound))
    assert Fraction(pts[j] - pts[j - 1], pts[j + 1] - pts[j]) >= bound
    return pts


def _certify_1d(rng, workdir, cells) -> list:
    units = []
    for i, k0 in enumerate(_RECOGNIZE_K):
        k = k0 + rng.randint(-1, 1)
        eps = rng.choice(_RECOGNIZE_EPS)
        d = rng.randint(800, 1200)
        mode = ("clear", "near", "broken")[i % 3]
        if mode == "broken":
            pts = broken_ap(rng, k, d, eps)
            check = _expect(1, accepted=False)
        else:
            spread = Fraction(2, 5) if mode == "clear" else Fraction(49, 50)
            pts = near_ap(rng, k, d, eps, spread)
            check = _both(_expect(0, accepted=True), _fits(pts, eps))
        argv = ["recognize", "ap", "--points=" + ",".join(map(str, pts)),
                "--eps", _eps_text(eps), "--json"]
        units.append([Query(argv, check)])

    for n, k in enumerate(_SIMPLE_R2_K):
        eps = Fraction(1, 5 * k)
        path = workdir / f"simple-r2-{n}.coloring"
        build = ["construct", "simple-r2", "--k", str(k), "--eps", _eps_text(eps),
                 "--out", str(path), "--json"]
        verify = ["verify", "coloring", "--file", str(path), "--json"]
        size = 2 * ((k - 2) // 3) * (k - 1)
        units.append([
            Query(build, _expect(0, N=size, r=2, out=str(path))),
            Query(verify, _both(_pinned(cells, verify, _simple_r2_key(k, eps)),
                                _mono_hit(path, k, eps))),
        ])

    eps = Fraction(1, 10)
    for n, (k, nmax, sizes) in enumerate(_FORCED):
        forcing = cells[" ".join(_wnumber(k, 2, "1/10", nmax))]["value"]
        N = rng.choice(sizes)
        assert N >= forcing
        path = workdir / f"forced-{n}.coloring"
        colors = [rng.randint(1, 2) for _ in range(N)]
        path.write_text(f"# N={N} r=2 eps=1/10 k={k}\n"
                        + "".join(f"{c}\n" for c in colors), encoding="utf-8")
        verify = ["verify", "coloring", "--file", str(path), "--json"]
        units.append([Query(verify, _both(
            _expect(1, free_of_monochromatic_ap=False), _mono_hit(path, k, eps)))])

    for n in range(2):
        k = rng.randint(5, 12)
        path = workdir / f"lowerbound-{n}.coloring"
        units.append([
            Query(["construct", "lowerbound", "--k", str(k), "--r", "1", "--eps",
                   "1/100", "--out", str(path), "--json"],
                  _expect(0, N=k - 1, r=1, out=str(path))),
            # k - 1 points hold no k-progression at all
            Query(["verify", "coloring", "--file", str(path), "--json"],
                  _expect(0, free_of_monochromatic_ap=True)),
        ])

    blowups = ((3, 3, Fraction(1, 3)), (4, 2, Fraction(1, 4)), (5, 2, Fraction(1, 5)),
               (3, 2, Fraction(1, 10)), (4, 3, Fraction(1, 4)), (3, 4, Fraction(1, 5)))
    for n in range(4):
        k, r, eps = rng.choice(blowups)
        units.append(_blowup_unit(workdir / f"blowup-{n}.set", k, r, eps))

    # h = 4 at eps = 1/250 costs twice as much as at 1/125, so it is left out
    for n, (h, choices) in enumerate(((3, (125, 250)), (4, (125,)))):
        eps = Fraction(1, rng.choice(choices))
        units.append(_behrend_unit(workdir / f"behrend-{n}.set", h, eps))
    return units


def _fits(pts, eps: Fraction) -> Check:
    def check(rc, out):
        return witness_error(pts, out["witness"], eps)
    return check


def _simple_r2_key(k: int, eps: Fraction) -> str:
    return f"verify coloring of simple-r2 --k {k} --eps {_eps_text(eps)}"


def blowup_elements(k: int, r: int, t: int) -> list:
    return sorted(sum(b * t ** p for p, b in enumerate(bs))
                  for bs in product(range(k), repeat=r))


def _blowup_unit(path: Path, k: int, r: int, eps: Fraction) -> list:
    """The r-fold blow-up of {0..k-1} holds a progression by construction."""
    elements = blowup_elements(k, r, math.ceil(k / eps))

    def built(rc, out):
        if out.get("elements") != elements:
            return "blow-up elements differ from the base-t digit construction"
        return None

    build = ["construct", "blowup", "--k", str(k), "--r", str(r), "--eps",
             _eps_text(eps), "--json"]
    verify = ["verify", "set", "--file", str(path), "--m", "1", "--k", str(k),
              "--eps", _eps_text(eps), "--json"]
    return [Query(build, _both(_expect(0), built),
                  then=lambda out: _write_set(path, out["elements"])),
            Query(verify, _both(_expect(1, free=False), _ap_hit(elements, k, eps)))]


def _behrend_unit(path: Path, h: int, eps: Fraction) -> list:
    """Digit sets with eps <= 1/125 are free of approximate 3-progressions."""
    def built(rc, out):
        size = len(out["head"]) * len(out["tail"]) ** (h - 1)
        elements = out["elements"]
        if len(elements) != size or elements != sorted(set(elements)):
            return "digit set is not |head|*|tail|^(h-1) sorted elements"
        return None

    build = ["construct", "behrend", "--eps", _eps_text(eps), "--h", str(h),
             "--one-based", "--json"]
    verify = ["verify", "set", "--file", str(path), "--m", "1", "--k", "3",
              "--eps", _eps_text(eps), "--json"]
    return [Query(build, _both(_expect(0), built),
                  then=lambda out: _write_set(path, out["elements"])),
            Query(verify, _expect(0, free=True))]


# ---------------------------------------------------------------------------
# cube-md: numeric m-D recognition and cube search, no 1-D Fraction kernels
# ---------------------------------------------------------------------------

_CUBE_D = 1000
_DENSITY_MD_EPS = ("1/10", "1/8", "1/6", "1/5")  # density --N 3 --m 2 --k 2
# (m, k, kind, eps) per recognize-cube slot; 2-D k=32 is the 1,024-point
# grid.  eps is fixed per slot because it changes the cost of one grid up to
# fourfold.  3-D grids stay small: the cost of 3-D enclosing balls varies
# several-fold between inputs of one size.  The 26 nine-point grids put the
# median latency inside a plateau of like queries, and the ten 256-point
# grids form the plateau that p90 falls in.
_CUBE_SLOTS = (
    tuple((2, 3, kind, eps) for kind in ("clear", "near", "broken")
          for eps in ("1/5", "1/4", "1/3", "1/6")) * 2 + ((2, 3, "clear", "1/7"),) * 2
    + ((2, 4, "near", "1/3"), (2, 4, "near", "1/4"), (2, 8, "broken", "1/5"),
       (3, 3, "clear", "1/5"), (2, 10, "clear", "1/4"))
    + ((2, 16, "near", "1/3"),) * 10 + ((2, 32, "clear", "1/5"),))
# A grid takes its noise from a generator fixed per slot and its position
# (and, if broken, its broken line) from the seed: the noise decides how often
# the enclosing ball changes, so a seeded noise would make the cost of a pass
# depend on the seed.


def _noise(rng, m: int, radius: int) -> tuple:
    while True:
        v = tuple(rng.randint(-radius, radius) for _ in range(m))
        if sum(c * c for c in v) <= radius * radius:
            return v


def cube_grid(rng, m: int, k: int, eps: Fraction, kind: str, noise_rng) -> list:
    """k^m integer points near base + d*v.

    clear / near: every point within 0.3 / 0.95 of eps*d of base + d*v, so
    (base, d) is a strict witness and the grid is feasible.
    broken: small noise, then the middle point of one axis-0 line moves until
    its two axis-0 gaps have ratio >= 5/4 * (1+2eps)/(1-2eps).  Any witness
    projects onto axis 0 as a 1-D witness for those three points, whose gap
    ratio would be below (1+2eps)/(1-2eps); so the grid is infeasible.
    All noise stays below d/2, so per-axis index recovery is unambiguous.
    noise_rng draws the noise, rng the position and the broken line.
    """
    d = _CUBE_D
    spread = {"clear": Fraction(3, 10), "near": Fraction(19, 20),
              "broken": Fraction(1, 10)}[kind]
    radius = math.floor(spread * eps * d)
    base = [rng.randint(0, 5 * d) for _ in range(m)]
    grid = {v: tuple(b + d * c + n for b, c, n in zip(base, v, _noise(noise_rng, m, radius)))
            for v in product(range(k), repeat=m)}
    if kind == "broken":
        rest = tuple(rng.randrange(k) for _ in range(m - 1))
        x0, x1, x2 = (grid[(i,) + rest][0] for i in range(3))
        bound = Fraction(5, 4) * (1 + 2 * eps) / (1 - 2 * eps)
        shift = math.ceil((bound * (x2 - x1) - (x1 - x0)) / (1 + bound))
        moved = grid[(1,) + rest]
        grid[(1,) + rest] = (moved[0] + shift,) + moved[1:]
        assert Fraction(x1 + shift - x0, x2 - x1 - shift) >= bound
        assert x1 + shift < min(p[0] for v, p in grid.items() if v[0] == 2)
    return list(grid.values())


def _cube_md(rng, workdir, cells) -> list:
    units = []
    for n, (m, k, kind, eps_text) in enumerate(_CUBE_SLOTS):
        eps = Fraction(eps_text)
        path = workdir / f"grid-{n}.set"
        noise = random.Random(f"noise/{n}")
        _write_set(path, cube_grid(rng, m, k, eps, kind, noise))
        argv = ["recognize", "cube", "--file", str(path), "--m", str(m), "--k",
                str(k), "--eps", _eps_text(eps), "--json"]
        if kind == "broken":
            check = _expect(1, status="infeasible")
        else:
            check = _both(_expect(0, status="feasible"), _residual_positive)
        units.append([Query(argv, check)])

    for n, (m, N) in enumerate(((2, rng.choice((5, 6))), (3, 4))):
        units.append(_product_unit(workdir, n, m, N))

    # eps = 1/2 is also valid, but its weak box pruning makes the search
    # run for minutes on some subsets.
    for n, eps in enumerate((Fraction(1, 3), Fraction(1, 4))):
        units.append(_cube_blowup_unit(workdir, n, eps, rng))

    for _ in range(2):
        eps = rng.choice(_DENSITY_MD_EPS)
        argv = ["density", "--N", "3", "--m", "2", "--k", "2", "--eps", eps, "--json"]
        units.append([Query(argv, _pinned(cells, argv))])
    return units


def _residual_positive(rc, out):
    if not float(out["witness"]["residual"]) > 0:
        return "feasible verdict without a positive residual"
    return None


def _product_unit(workdir: Path, n: int, m: int, N: int) -> list:
    """A x [N]^(m-1) for a progression-free A is free: a cube's axis-0
    projection would be an approximate progression inside A."""
    a_path = workdir / f"product-{n}-a.set"
    p_path = workdir / f"product-{n}.set"
    eps = "1/125"
    behrend = ["construct", "behrend", "--eps", eps, "--h", "1", "--one-based",
               "--json"]
    build = ["construct", "product", "--set", str(a_path), "--m", str(m), "--N",
             str(N), "--out", str(p_path), "--json"]
    verify = ["verify", "set", "--file", str(p_path), "--m", str(m), "--k", "3",
              "--eps", eps, "--json"]
    members = []

    def keep(out):
        members[:] = [x for x in out["elements"] if x <= N]
        _write_set(a_path, members)

    def built(rc, out):
        if out["size"] != len(members) * N ** (m - 1):
            return "product size is not |A| * N^(m-1)"
        return None

    return [Query(behrend, _expect(0), then=keep),
            Query(build, _both(_expect(0, m=m, N=N), built)),
            Query(verify, _expect(0, free=True))]


def _cube_blowup_unit(workdir: Path, n: int, eps: Fraction, rng) -> list:
    """Every transversal of the k^m blocks of the blow-up is an approximate
    cube, so a subset keeping at least one point per block holds one."""
    m, k = 2, 3
    t = math.ceil(k * math.sqrt(m) / float(eps))
    axis = blowup_elements(k, 2, t)
    elements = [list(p) for p in product(axis, repeat=m)]
    full = workdir / f"cube-blowup-{n}.set"
    part = workdir / f"cube-blowup-{n}-subset.set"
    members = []
    for _, block in sorted(_by_block(elements, t).items()):
        members.extend([p for p in block if rng.random() < 0.5] or [rng.choice(block)])

    def built(rc, out):
        if out["t"] != t or out["r"] != 2 or out["elements"] != elements:
            return "cube blow-up differs from the product digit construction"
        return None

    def keep(out):
        kept = {tuple(p) for p in members}
        _write_set(part, [p for p in out["elements"] if tuple(p) in kept])

    build = ["construct", "cube-blowup", "--m", str(m), "--k", str(k), "--eps",
             _eps_text(eps), "--alpha", "4/5", "--out", str(full), "--json"]
    verify = ["verify", "set", "--file", str(part), "--m", str(m), "--k", str(k),
              "--eps", _eps_text(eps), "--json"]
    return [Query(build, _both(_expect(0, size=k ** (2 * m)), built), then=keep),
            Query(verify, _both(_expect(1, free=False), _cube_hit(members, m, k)))]


def _by_block(elements, t: int) -> dict:
    """Points keyed by their top base-t digit per axis, i.e. their block."""
    blocks = {}
    for p in elements:
        blocks.setdefault(tuple(c // t for c in p), []).append(p)
    return blocks


# ---------------------------------------------------------------------------
# The pinned cells: every parameter cell a seed can draw
# ---------------------------------------------------------------------------

def pinned_cells(workdir: Path) -> list:
    """(key, [argv, ...]) for each pinned cell; the last argv is pinned."""
    cells = []
    for build, choices in _ENUMERATE_SLOTS:
        for params in choices:
            key = " ".join(build(*params))
            if all(key != known for known, _ in cells):
                cells.append((key, [build(*params)]))
    for k, nmax, _ in _FORCED:
        argv = _wnumber(k, 2, "1/10", nmax)
        if all(key != " ".join(argv) for key, _ in cells):
            cells.append((" ".join(argv), [argv]))
    for k in sorted(set(_SIMPLE_R2_K)):
        eps = Fraction(1, 5 * k)
        path = Path(workdir) / f"simple-r2-{k}.coloring"
        cells.append((_simple_r2_key(k, eps), [
            ["construct", "simple-r2", "--k", str(k), "--eps", _eps_text(eps),
             "--out", str(path), "--json"],
            ["verify", "coloring", "--file", str(path), "--json"]]))
    for eps in _DENSITY_MD_EPS:
        argv = ["density", "--N", "3", "--m", "2", "--k", "2", "--eps", eps, "--json"]
        cells.append((" ".join(argv), [argv]))
    return cells
