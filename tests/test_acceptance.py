"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from epsap.colorings import (
    Coloring,
    build_blowup_1d,
    build_lower_bound_coloring,
    hypothesis_threshold,
    lower_bound_params,
    verify_no_mono_ap,
)
from epsap.errors import MemoryGuardExceeded
from epsap.geometry import (
    IndexedGrid,
    Witness1D,
    recognize_ap,
    recognize_cube,
)
from epsap.density import (
    build_behrend_digit_set,
    build_cube_blowup,
    find_dense_translate,
)
from epsap.search import enumerate_eps_aps, exact_W, exact_f, max_exact_ap_free
from oracles import gap_ratio_filter, lp_vertex_accepts

F = Fraction

pytestmark = pytest.mark.acceptance


def report(n: int, ok: bool, detail: str):
    print(f"CRITERION {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_published_example():
    t0 = time.perf_counter()
    mine = recognize_ap((1, 3, 6), F(1, 3))
    published = Witness1D(a=F(4, 5), d=F(12, 5), margin=F(0))
    residuals = published.residuals((1, 3, 6))
    ok = (
        mine is not None
        and mine.margin > 0
        and mine.certifies((1, 3, 6), F(1, 3))
        and residuals == (F(1, 5), F(1, 5), F(2, 5))
        and all(r < F(4, 5) for r in residuals)
    )
    report(1, ok, f"{{1,3,6}} accepted at eps=1/3; published witness "
                  f"(a=4/5, d=12/5) has residuals {tuple(map(str, residuals))} "
                  f"all < 4/5 [{time.perf_counter() - t0:.2f}s]")


def test_criterion_02_recognizer_exactness():
    t0 = time.perf_counter()
    total = mismatches = 0
    for k in (3, 4, 5):
        for eps in (F(1, 10), F(1, 4), F(1, 3)):
            for pts in combinations(range(1, 13), k):
                total += 1
                got = recognize_ap(pts, eps) is not None
                if got != lp_vertex_accepts(pts, eps):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    report(2, ok, f"recognizer vs LP vertex oracle on {total} instances "
                  f"(k in 3..5, all subsets of [12], 3 eps values): "
                  f"{mismatches} mismatches [{elapsed:.1f}s < 60s]")


def test_criterion_03_blowup_ramsey_exhaustive():
    t0 = time.perf_counter()
    spec = build_blowup_1d(3, 2, F(1, 3))
    elems = spec.elements
    edge_masks = []
    for tri in combinations(range(9), 3):
        if recognize_ap(tuple(elems[i] for i in tri), F(1, 3)) is not None:
            edge_masks.append(sum(1 << i for i in tri))
    bad = 0
    for coloring in range(2 ** 9):
        classes = (coloring, (2 ** 9 - 1) ^ coloring)
        if not any(mask & cls == mask for mask in edge_masks for cls in classes):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = spec.t == 9 and len(elems) == 9 and bad == 0 and elapsed < 10
    report(3, ok, f"all 512 2-colorings of the 9-element double blow-up "
                  f"(t={spec.t}) contain a monochromatic hit; "
                  f"{bad} exceptions [{elapsed:.1f}s < 10s]")


def test_criterion_04_upper_bound_consistency():
    t0 = time.perf_counter()
    out = exact_W(3, 2, F(1, 3), 60)
    bound = 2 * 3 ** 2 * 3  # 2 k^r / eps^(r-1)
    witness_good = (
        out.witness.N == out.value - 1
        and verify_no_mono_ap(out.witness, 3, F(1, 3)) is None
    )
    # independent exhaustive cross-check over all 2^value colorings
    edges = enumerate_eps_aps(out.value, 3, F(1, 3)).edges
    exhaustive = all(
        any(set(e) <= {x + 1 for x in range(out.value) if bits >> x & 1}
            or set(e) <= {x + 1 for x in range(out.value) if not bits >> x & 1}
            for e in edges)
        for bits in range(2 ** out.value)
    )
    elapsed = time.perf_counter() - t0
    ok = (out.kind == "value" and out.value <= bound and witness_good
          and exhaustive and elapsed < 600)
    report(4, ok, f"least forcing N for k=3, r=2, eps=1/3 is {out.value} <= {bound}; "
                  f"good coloring at {out.value - 1} verified, forcing at "
                  f"{out.value} re-checked exhaustively [{elapsed:.1f}s < 600s]")


def test_criterion_05_trivial_exact_values():
    t0 = time.perf_counter()
    ok = True
    for eps in (F(1, 3), F(1, 7)):
        for k in range(2, 9):
            out = exact_W(k, 1, eps, 12)
            ok = ok and out.kind == "value" and out.value == k
        for r in range(1, 6):
            out = exact_W(2, r, eps, 10)
            ok = ok and out.kind == "value" and out.value == r + 1
    elapsed = time.perf_counter() - t0
    report(5, ok, f"single-color value = k for k <= 8 and pair value = r+1 "
                  f"for r <= 5, at two eps values [{elapsed:.1f}s]")


def test_criterion_06_filter_necessity():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    eps = F(1, 20)
    counterexamples = 0
    filtered = 0
    trials = 10_000
    for _ in range(trials):
        k = rng.randint(3, 6)
        n = rng.randint(k, 50)
        pts = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if not gap_ratio_filter(pts, eps):
            filtered += 1
            if recognize_ap(pts, eps) is not None:
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and filtered > 0
    report(6, ok, f"gap-ratio filter rejected {filtered} of {trials} random "
                  f"subsets at eps=1/20; recognizer confirmed every rejection "
                  f"({counterexamples} counterexamples) [{elapsed:.1f}s]")


def test_criterion_07_digit_set_freeness():
    t0 = time.perf_counter()
    eps = F(1, 125)
    sizes = {}
    found = 0
    head = tail = None
    for h in (1, 2, 3):
        spec, members = build_behrend_digit_set(eps, h)
        head, tail = spec.head, spec.tail
        sizes[h] = len(members)
        for sub in combinations(members, 3):
            if recognize_ap(sub, eps) is not None:
                found += 1
    elapsed = time.perf_counter() - t0
    ok = (sizes == {1: 4, 2: 8, 3: 16} and len(head) == 4 and len(tail) == 2
          and found == 0 and elapsed < 60)
    report(7, ok, f"digit sets at eps=1/125 have sizes {sizes} "
                  f"(head {len(head)}, tail {len(tail)}); exhaustive search "
                  f"found {found} approximate progressions [{elapsed:.1f}s < 60s]")


def test_criterion_08_cube_transversals():
    t0 = time.perf_counter()
    eps = F(1, 2)
    spec = build_cube_blowup(2, 3, eps, F(4, 5))  # alpha chosen to force r=2
    blocks = spec.blocks()
    rng = random.Random(88)
    failures = 0
    for _ in range(100):
        assignment = {u: rng.choice(pts) for u, pts in blocks}
        grid = IndexedGrid(m=2, k=3, assignment=assignment)
        decision = recognize_cube(grid, eps)
        if decision.status != "feasible" or not decision.witness.certifies(grid, eps):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = (spec.r == 2 and spec.t == 9 and len(spec.elements) == 81
          and failures == 0 and elapsed < 60)
    report(8, ok, f"100 random transversals of the 9 blocks (t={spec.t}, "
                  f"|A_2|={len(spec.elements)}) all recognized feasible at "
                  f"the fixed tol=1e-9 and certified exactly; {failures} failures "
                  f"[{elapsed:.1f}s < 60s]")


def test_criterion_09_averaging_identity():
    t0 = time.perf_counter()
    rng = random.Random(99)
    n, m = 6, 2
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    ok = True
    for _ in range(5):
        a_pts = rng.sample(grid, rng.randint(1, 6))
        x_pts = rng.sample(grid, rng.randint(6, 30))
        x_set = set(x_pts)
        total = 0
        for u1 in range(-n + 1, n + 1):
            for u2 in range(-n + 1, n + 1):
                total += sum(1 for p in a_pts if (p[0] + u1, p[1] + u2) in x_set)
        ok = ok and total == len(a_pts) * len(x_pts)
        res = find_dense_translate(a_pts, x_pts, n, m)
        ok = ok and F(res.count) >= res.bound
    elapsed = time.perf_counter() - t0
    report(9, ok, f"shift-sum identity and average-meeting translate verified "
                  f"on 5 random instances in [6]^2 [{elapsed:.1f}s]")


def test_criterion_10_monotonicity_suite():
    t0 = time.perf_counter()
    ladder = (F(1, 5), F(1, 4), F(1, 3))
    w_vals = [exact_W(3, 2, eps, 90).value for eps in ladder]
    w_monotone = w_vals == sorted(w_vals, reverse=True)
    f_ok = True
    exact_max = {n: max_exact_ap_free(n, 3).value for n in range(3, 16)}
    prev = None
    for eps in ladder:
        f_vals = {n: exact_f(n, 1, 3, eps).value for n in range(3, 16)}
        f_ok = f_ok and all(f_vals[n] <= exact_max[n] for n in f_vals)
        if prev is not None:
            f_ok = f_ok and all(f_vals[n] <= prev[n] for n in f_vals)
        prev = f_vals
    elapsed = time.perf_counter() - t0
    ok = w_monotone and f_ok and elapsed < 600
    report(10, ok, f"forcing values {w_vals} nonincreasing along eps "
                   f"{tuple(map(str, ladder))}; free-set sizes nonincreasing "
                   f"in eps and below the exact-progression maximum for "
                   f"N <= 15 [{elapsed:.1f}s < 600s]")


def test_criterion_11_recursive_coloring_structure():
    t0 = time.perf_counter()
    eps = F(1, 1000)  # the default eps0 ceiling
    k = math.ceil(hypothesis_threshold(2, eps))
    while True:
        try:
            params = lower_bound_params(k, 2, eps)
            break
        except ValueError:
            k += 1
    coloring = build_lower_bound_coloring(k, 2, eps)

    cap = 50_000_000
    materializable = params.n1 <= cap
    if not materializable:
        cap_note = (f"n1 = {params.n1} exceeds materialize cap {cap}: full "
                    f"dense construction skipped, structure checked lazily")
        try:
            coloring.to_list(cap=cap)
            guard_fired = False
        except MemoryGuardExceeded:
            guard_fired = True
    else:
        cap_note = f"n1 = {params.n1} materialized"
        guard_fired = True  # not applicable

    # (a) the four-level offsets tile [n1] exactly
    tiling = params.alpha(params.w) + params.r * params.t * sum(params.blocks) \
        == params.n1
    for i in range(1, params.w + 1):
        tiling = tiling and params.beta(i, 1) == params.alpha(i)
        for j in range(1, len(params.blocks) + 1):
            d_j = params.blocks[j - 1]
            end = params.gamma(i, j, params.t) + params.r * d_j
            nxt = params.beta(i, j + 1) if j < len(params.blocks) else (
                params.alpha(i + 1) if i < params.w else params.n1)
            tiling = tiling and end == nxt

    # (b, c) sampled bottom blocks: designated color absent, block equals the
    # child prefix (r=2 child is monochromatic, so blocks are constant)
    rng = random.Random(4)
    samples = [(rng.randint(1, params.w), rng.randint(1, len(params.blocks)),
                rng.randint(1, params.t), v)
               for _ in range(12) for v in (1, 2)]
    blocks_ok = True
    for i, j, u, v in samples:
        start = params.sigma(i, j, u, v)
        expect = 2 if v == 1 else 1
        for x in range(start + 1, start + params.blocks[j - 1] + 1):
            if coloring.color(x) != expect:
                blocks_ok = False
                break

    # supplementary: a relaxed-threshold instance small enough to check densely
    small_eps = F(1, 30)
    ks = math.ceil(hypothesis_threshold(2, small_eps))
    while True:
        try:
            small = lower_bound_params(ks, 2, small_eps, eps0=small_eps)
            break
        except ValueError:
            ks += 1
    dense = build_lower_bound_coloring(ks, 2, small_eps, eps0=small_eps,
                                       dense=True).to_list()
    dense_ok = len(dense) == small.n1
    for i in range(1, small.w + 1):
        for j in range(1, len(small.blocks) + 1):
            d_j = small.blocks[j - 1]
            for u in range(1, small.t + 1):
                for v in (1, 2):
                    seg = dense[small.sigma(i, j, u, v):
                                small.sigma(i, j, u, v) + d_j]
                    dense_ok = dense_ok and v not in seg and len(set(seg)) == 1

    elapsed = time.perf_counter() - t0
    ok = tiling and blocks_ok and guard_fired and dense_ok and elapsed < 300
    report(11, ok, f"smallest admissible k={k} at eps=1/1000: {cap_note}; "
                   f"offset tiling exact, {len(samples)} sampled blocks "
                   f"verified exhaustively; relaxed instance (k={ks}, "
                   f"n1={small.n1}) verified densely on every block "
                   f"[{elapsed:.1f}s < 300s]")
