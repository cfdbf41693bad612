import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epsap import geometry, search
from epsap.colorings import build_simple_r2_coloring, verify_no_mono_ap
from epsap.errors import DEFAULT_WORK_CAP, Budget, MemoryGuardExceeded, SearchCapExceeded
from epsap.formats import write_hypergraph
from epsap.density import _greedy, build_behrend_digit_set
from epsap.geometry import _eps_aps, _repeated_root, narrowed, recognize_ap
from epsap.search import (
    SearchOutcome,
    enumerate_eps_aps,
    exact_W,
    exact_f,
    find_eps_ap_in_points,
    max_exact_ap_free,
)
from epsap.search import (
    _edges_by_max,
    _good_coloring,
    _max_free_edges,
)
from oracles import (
    brute_force_cubes,
    count_bound_free_set,
    count_bound_max_free,
    direct_eps_aps_listing,
    edge_closes,
    enumerate_exact_aps,
    every_root_eps_aps,
    first_fit,
    gap_ratio_filter,
    greedy_free_set,
    has_exact_ap,
    lex_first_max_free_set,
    naive_eps_ap_subsets,
    naive_repeated_root,
    per_n_least_forcing,
    read_hypergraph,
    recursive_good_coloring,
    unwindowed_eps_aps,
)

F = Fraction


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_single_triple():
    h = enumerate_eps_aps(3, 3, F(3, 10))
    assert h.edges == ((1, 2, 3),)


def test_stream_with_fewer_points_than_k_builds_nothing_of_size_k():
    # No k-tuple fits, so the stream spends its root node and stops before
    # it builds a k-slot tuple: a k past any memory answers at once.
    k = 10 ** 12
    budget = Budget(5)
    assert list(_eps_aps(tuple(range(1, 6)), k, F(1, 10), budget)) == []
    assert budget.spent == 1
    assert enumerate_eps_aps(5, k, F(1, 10)).edges == ()
    assert exact_W(k, 2, F(1, 10), n_max=5).kind == "lower_bound_only"


def test_enumerate_contains_known_edges():
    h = enumerate_eps_aps(6, 3, F(1, 3))
    for edge in ((1, 3, 6), (1, 4, 6), (1, 2, 4)):
        assert edge in h.edges


def test_enumerate_equals_naive():
    epsilons = (F(1, 20), F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(49, 100))
    for n, k, eps in product(range(2, 11), (2, 3, 4, 5), epsilons):
        pruned = enumerate_eps_aps(n, k, eps).edges
        naive = naive_eps_ap_subsets(range(1, n + 1), k, eps, recognize_ap)
        assert pruned == naive, (n, k, eps)


@st.composite
def _listing_inputs(draw):
    k = draw(st.integers(2, 5))
    den = draw(st.integers(3, 60))
    eps = F(draw(st.integers(1, (den - 1) // 2)), den)  # below 1/2
    return draw(st.integers(0, 40)), k, eps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_listing_inputs())
@example((0, 3, F(1, 10)))
@example((1, 2, F(1, 3)))
@example((3, 4, F(1, 4)))  # N = k - 1
@example((1, 2, F(49, 100)))  # N = k - 1 at k = 2
@example((40, 2, F(49, 100)))
@example((40, 5, F(1, 20)))
def test_enumerate_equals_direct_listing(inputs):
    # the shifted shapes against a lex search from every start of [N]
    N, k, eps = inputs
    assert enumerate_eps_aps(N, k, eps).edges == direct_eps_aps_listing(N, k, eps)


@st.composite
def _span_inputs(draw):
    k = draw(st.integers(2, 5))
    den = draw(st.integers(3, 60))
    eps = F(draw(st.integers(1, 9 * den // 20)), den)  # up to 9/20
    return draw(st.integers(1, 30)), k, eps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_span_inputs())
@example((1, 2, F(1, 3)))  # the tail is the head
@example((2, 2, F(9, 20)))  # nothing between the ends
@example((30, 5, F(9, 20)))
@example((30, 3, F(1, 60)))
def test_spans_equal_direct_listing(inputs):
    # both ends fixed: the progressions of [n] from 1 to n, in lex order
    n, k, eps = inputs
    spans = _eps_aps(range(2, n), k, eps, Budget(10 ** 9), head=(1,), tail=n)
    assert tuple(spans) == tuple(e for e in direct_eps_aps_listing(n, k, eps)
                                 if e[0] == 1 and e[-1] == n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_span_inputs())
@example((30, 4, F(9, 20)))
@example((30, 2, F(1, 3)))
def test_edges_by_max_rungs_equal_direct_listing(inputs):
    # rung n: the progressions of [n] ending at n, without n, as bit masks
    # (bit i for element i + 1)
    N, k, eps = inputs
    edges = direct_eps_aps_listing(N, k, eps)
    for n, rung in zip(range(1, N + 1), _edges_by_max(k, eps, Budget(10 ** 9))):
        assert sorted(rung) == sorted(sum(1 << (x - 1) for x in e[:-1])
                                      for e in edges if e[-1] == n)


_CAPS = (5000, 600, 100, 20, 5, 2, 1)
# a color class with no 14-progression at eps = 1/70: every node a dead end
_SIMPLE_R2_CLASS = tuple(build_simple_r2_coloring(14).classes()[1])


@st.composite
def _stream_inputs(draw):
    """Sparse sorted points in [-60, 60], split into a head, the candidates
    and an optional tail, with k in 2..6, eps < 1/2 and a work cap."""
    k = draw(st.integers(2, 6))
    den = draw(st.integers(3, 80))
    eps = F(draw(st.integers(1, (den - 1) // 2)), den)
    size = draw(st.integers(0, 40))
    points = sorted(draw(st.sets(st.integers(-60, 60), min_size=size, max_size=size)))
    tail = points.pop() if points and draw(st.booleans()) else None
    last = k if tail is None else k - 1
    h = draw(st.integers(0, min(last, len(points))))
    cap = draw(st.sampled_from(_CAPS))
    return tuple(points[h:]), k, eps, cap, tuple(points[:h]), tail


def _stream(stream, candidates, k, eps, cap, head, tail):
    """The tuples a stream yields, then the error that ends it, if any, with
    the nodes it spent."""
    budget = Budget(cap)
    out = []
    try:
        out.extend(stream(candidates, k, eps, budget, head, tail))
    except SearchCapExceeded as exc:
        out.append((type(exc), str(exc)))
    return out, budget.spent


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stream_inputs())
@example(((-20, -10, -1, 0, 1, 11), 3, F(1, 10), 5000, (), None))
@example(((0,), 3, F(1, 3), 1, (), None))  # fewer candidates than levels
@example(((), 2, F(1, 3), 1, (-1,), 0))  # nothing between the ends
# a node on the tail's lower end, then on its upper end
@example(((-30, -10, 20), 5, F(1, 6), 5000, (-60,), 60))
@example(((-41, 15, 47), 4, F(3, 8), 5000, (), 55))
@example((_SIMPLE_R2_CLASS, 14, F(1, 70), 5000, (), None))
# last points on the lookahead window's closed ends
@example(((-11, 2, 3, 7, 9, 20), 5, F(1, 3), 5000, (), 23))
@example(((-23, -13, -12, 4, 7, 8, 9, 13, 16, 22, 23, 25), 4, F(1, 3), 5000, (), None))
# repeated roots with a head or a tail, whose first tuples, (0, 6, 11) and
# (10, 20, 30), translate no tuple of an earlier root
@example(((1, 6, 11), 3, F(1, 20), 5000, (0,), None))
@example(((0, 1, 10, 11, 20, 21), 3, F(1, 10), 5000, (), 30))
def test_window_matches_unwindowed_stream(case):
    # The window skips only candidates the interval update would refuse, and
    # the lookahead only those that leave the last level none, so the same
    # tuples come out after at most the oracle's nodes.  Every cap is
    # checked, the drawn one included: a capped stream yields a prefix of
    # them, then its cap error.
    candidates, k, eps, _, head, tail = case
    full, spent = _stream(_eps_aps, candidates, k, eps, 10 ** 9, head, tail)
    oracle, oracle_spent = _stream(unwindowed_eps_aps, candidates, k, eps, 10 ** 9, head,
                                   tail)
    assert full == oracle and spent <= oracle_spent
    for cap in _CAPS:
        out, capped = _stream(_eps_aps, candidates, k, eps, cap, head, tail)
        assert capped <= min(cap, oracle_spent)  # the oracle's spent at this cap
        if cap >= spent:
            assert out == full
        else:
            assert out[:-1] == full[:len(out) - 1]
            assert out[-1][0] is SearchCapExceeded


@st.composite
def _repeating_points(draw):
    """Sorted points that repeat under translation: copies of a random
    block's first few points at random shifts and one whole copy above
    them, or else sparse random points, which rarely repeat a gap."""
    if draw(st.booleans()):
        return tuple(sorted(draw(st.sets(st.integers(-60, 60), max_size=30))))
    block = sorted(draw(st.sets(st.integers(0, 11), min_size=1, max_size=6)))
    shifts = draw(st.lists(st.integers(0, 80), min_size=1, max_size=6))
    cut = draw(st.integers(1, len(block)))
    return tuple(sorted({x + shift for shift in shifts for x in block[:cut]}
                        | {x + max(shifts) + 12 for x in block}))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_repeating_points())
@example(())
@example((5,))
@example((1, 2))
@example(_SIMPLE_R2_CLASS)
def test_repeated_root_matches_pairwise_oracle(points):
    assert _repeated_root(points) == naive_repeated_root(points)


@pytest.mark.parametrize("h, den", [(2, 125), (3, 125), (3, 250), (4, 125)])
def test_repeated_root_of_digit_sets(h, den):
    members = build_behrend_digit_set(F(1, den), h, one_based=True)[1]
    root = _repeated_root(members)
    assert root == naive_repeated_root(members) and root < len(members) - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_repeating_points(), st.integers(2, 6), st.integers(3, 80), st.integers(1, 39))
@example(_SIMPLE_R2_CLASS, 14, 70, 1)
@example(tuple(3 ** i for i in range(14)), 3, 10, 1)
def test_headless_stream_equals_every_root_stream(points, k, den, num):
    # A stream with no head and no tail stops at the first repeated root
    # only while nothing has been yielded, so its tuples, all of them or the
    # first, are the every-root stream's; a cap raises before it would
    # answer otherwise, and never turns a hit into None.
    eps = F(min(num, (den - 1) // 2), den)  # below 1/2
    full, spent = _stream(_eps_aps, points, k, eps, 10 ** 9, (), None)
    oracle, oracle_spent = _stream(every_root_eps_aps, points, k, eps, 10 ** 9, (), None)
    assert full == oracle and spent <= oracle_spent
    first = oracle[0] if oracle else None
    for cap in _CAPS:
        out, _ = _stream(_eps_aps, points, k, eps, cap, (), None)
        assert out == full or (out[:-1] == full[:len(out) - 1]
                               and out[-1][0] is SearchCapExceeded)
        budget = Budget(cap)
        try:
            assert next(_eps_aps(points, k, eps, budget), None) == first
        except SearchCapExceeded:
            assert budget.spent == cap


def test_headless_stream_skips_a_translated_root():
    # the class is four blocks of 13; from the second block's first point
    # on, each root is a translate of an earlier one, which came back empty
    first = Budget(10 ** 9)
    assert next(_eps_aps(_SIMPLE_R2_CLASS, 14, F(1, 70), first), None) is None
    every = Budget(10 ** 9)
    assert next(every_root_eps_aps(_SIMPLE_R2_CLASS, 14, F(1, 70), every), None) is None
    assert _repeated_root(_SIMPLE_R2_CLASS) == 13
    assert (first.spent, every.spent) == (41, 85)


@pytest.mark.parametrize("k", (3, 4, 5))
@pytest.mark.parametrize("eps", (F(1, 100), F(1, 10), F(1, 4), F(9, 20)))
def test_rungs_search_no_more_than_one_shape_listing(k, eps):
    # Rung n reuses rung n - 1 and searches only the spans of n, so N rungs
    # cost at most one unpruned search over the shapes of [N] (the oracle's:
    # the lookahead prunes the spans and the shapes differently), plus one
    # root per rung.  A search of all of [n] at every rung exceeds this bound.
    for N in (10, 20, 40):
        rungs, shapes = Budget(10 ** 9), Budget(10 ** 9)
        for _ in zip(range(N), _edges_by_max(k, eps, rungs)):
            pass
        for _ in unwindowed_eps_aps(range(2, N + 1), k, eps, shapes, head=(1,)):
            pass
        assert rungs.spent <= shapes.spent + N, (N, rungs.spent, shapes.spent)


def test_enumerate_edges_sorted_unique():
    h = enumerate_eps_aps(10, 3, F(1, 12))
    assert list(h.edges) == sorted(set(h.edges))


def test_enumerate_edges_pass_gap_filter_below_tenth():
    h = enumerate_eps_aps(14, 3, F(1, 12))
    assert h.edges and all(gap_ratio_filter(e, F(1, 12)) for e in h.edges)


def test_enumerate_rejects_set_level_half():
    with pytest.raises(ValueError):
        enumerate_eps_aps(6, 3, F(1, 2))


def test_enumerate_work_cap():
    with pytest.raises(SearchCapExceeded):
        enumerate_eps_aps(20, 4, F(1, 4), work_cap=50)


def test_negative_work_cap_is_refused():
    # refused, not answered as a capped run (lower_bound_only 0)
    assert Budget(0).spent == 0
    with pytest.raises(ValueError, match="work cap must be >= 0, got -1"):
        Budget(-1)
    for search_call in (lambda: exact_W(3, 2, F(1, 3), 20, work_cap=-1),
                        lambda: exact_f(6, 1, 3, F(1, 10), work_cap=-1),
                        lambda: enumerate_eps_aps(6, 3, F(1, 10), work_cap=-4)):
        with pytest.raises(ValueError, match="work cap must be >= 0"):
            search_call()


def test_exact_aps_listing():
    assert enumerate_exact_aps(6, 3) == (
        (1, 2, 3), (1, 3, 5), (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6)
    )


def test_find_in_points_lex_first():
    hit = find_eps_ap_in_points((1, 2, 3, 4, 5), 3, F(1, 4))
    assert hit is not None and hit[0] == (1, 2, 3)
    assert find_eps_ap_in_points((1, 2, 10), 3, F(1, 10)) is None
    for too_few in ((), (7,), (1, 5)):
        assert find_eps_ap_in_points(too_few, 3, F(1, 10)) is None


@pytest.mark.parametrize("points, error", [
    ([3, 1], ValueError), ([2, 2], ValueError), ([1.5, 2], TypeError),
    ([True, 2], TypeError), ([1.0], TypeError), ([3, 1, 2], ValueError),
    ([True, 2, 3], TypeError),
])
def test_find_in_points_checks_every_length(points, error):
    # fewer points than k hold no progression, but are still checked
    with pytest.raises(error):
        find_eps_ap_in_points(points, 3, F(1, 10))


# ---------------------------------------------------------------------------
# Search-tree pins: the node counts of the lex DFS.  Kernel changes may make
# a node cheaper but must visit exactly the same nodes.
# ---------------------------------------------------------------------------

def _assert_spends_exactly(search_call, nodes):
    """The call fits a work cap of `nodes` but not one of `nodes - 1`.

    Not fitting means raising SearchCapExceeded, or, for a search that keeps
    an incumbent, reporting lower_bound_only where the full cap gives a value
    that spent exactly `nodes`.
    """
    result = search_call(work_cap=nodes)
    if isinstance(result, SearchOutcome):
        assert (result.kind, result.nodes) == ("value", nodes)
        assert search_call(work_cap=nodes - 1).kind == "lower_bound_only"
    else:
        with pytest.raises(SearchCapExceeded):
            search_call(work_cap=nodes - 1)
    return result


@pytest.mark.parametrize("N, k, eps, nodes, edges", [
    (30, 3, F(1, 10), 945, 824),  # 121 shape nodes + 824 listed edges
    (20, 4, F(1, 4), 1412, 1060),
    (16, 5, F(2, 5), 3030, 2106),
])
def test_enumerate_search_tree_is_pinned(N, k, eps, nodes, edges):
    # the nodes of the search for the progressions starting at 1, plus one
    # unit per edge listed by shifting them
    h = _assert_spends_exactly(lambda work_cap: enumerate_eps_aps(N, k, eps, work_cap),
                               nodes)
    assert len(h.edges) == edges


@pytest.mark.parametrize("points, k, eps, nodes, hit", [
    (tuple(3 ** i for i in range(14)), 3, F(1, 10), 91, None),
    ((1, 2, 4, 8, 9, 13, 17, 30, 31, 33, 50), 4, F(1, 5), 5,
     ((1, 4, 8, 13), (F(1, 2), F(4), F(3, 10)))),
    (tuple(i ** 3 for i in range(1, 30)), 4, F(1, 20), 12,
     ((1, 1331, 2744, 4096), (F(-79, 4), F(2743, 2), F(1913, 40)))),
])
def test_find_search_tree_is_pinned(points, k, eps, nodes, hit):
    found = _assert_spends_exactly(
        lambda work_cap: find_eps_ap_in_points(points, k, eps, work_cap), nodes)
    if hit is None:
        assert found is None
    else:
        subset, w = found
        assert (subset, (w.a, w.d, w.margin)) == hit


def test_window_cuts_interval_updates():
    # The unwindowed stream made 458,412 narrowed calls here, and the window
    # alone 24,542 for 24,544 nodes.  The lookahead drops the candidates
    # that leave the last level no candidate before they become nodes: 740
    # nodes.  The second color class translates the first, and the stream
    # stops at the first root that translates an earlier one: 113.
    counted = []

    def counting(*args):
        counted.append(None)
        return narrowed(*args)

    coloring = build_simple_r2_coloring(20)

    def verify(work_cap):
        return verify_no_mono_ap(coloring, 20, F(1, 100), work_cap=work_cap)

    with mock.patch.object(geometry, "narrowed", counting):
        assert verify(10 ** 6) is None
    assert len(counted) <= 10_000
    _assert_spends_exactly(verify, 113)


@pytest.mark.parametrize("k, r, eps, value, nodes", [
    (3, 2, F(1, 3), 5, 21),
    (4, 2, F(1, 5), 17, 341),
])
def test_w_search_tree_is_pinned(k, r, eps, value, nodes):
    out = _assert_spends_exactly(lambda work_cap: exact_W(k, r, eps, 60, work_cap),
                                 nodes)
    assert out.value == value


@pytest.mark.parametrize("N, k, nodes, witness", [
    (25, 3, 5083, (1, 2, 4, 10, 11, 14, 15, 22, 23, 25)),
    (24, 5, 6370, (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 18, 20, 21, 22, 24)),
    # 52,979 nodes when every rung was solved as a full optimisation
    (35, 3, 20839, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 32)),
])
def test_max_exact_ap_free_search_tree_is_pinned(N, k, nodes, witness):
    out = _assert_spends_exactly(lambda work_cap: max_exact_ap_free(N, k, work_cap),
                                 nodes)
    assert (out.value, out.witness) == (len(witness), witness)


def test_f_search_tree_is_pinned():
    # 61 of the nodes list the progressions ending at each n, rung by rung
    out = _assert_spends_exactly(lambda work_cap: exact_f(20, 1, 3, F(1, 10), work_cap),
                                 475)
    assert (out.value, out.witness) == (8, (1, 2, 4, 5, 11, 12, 14, 15))


@pytest.mark.parametrize("eps, nodes", [
    (F(1, 10), 70), (F(1, 8), 70), (F(1, 6), 82), (F(1, 5), 82),
])
def test_f_two_dimensional_search_tree_is_pinned(eps, nodes):
    # The last 41 nodes are the ladder's own, over its nine rungs; the cube
    # listing spends the rest (29 at eps 1/10 and 1/8, 41 at 1/6 and 1/5)
    # from the same budget, before the first rung.
    out = _assert_spends_exactly(lambda work_cap: exact_f(3, 2, 2, eps, work_cap), nodes)
    assert (out.value, out.witness) == (
        7, ((1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)))


@pytest.mark.parametrize("N, eps, nodes, witness", [
    # 76,975 nodes when the cubes were searched with the count bound
    (5, F(1, 10), 12743,
     ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 5), (3, 1),
      (3, 2), (3, 5), (4, 1), (4, 5), (5, 1), (5, 2), (5, 3), (5, 4))),
    # 7,119,344 nodes with the count bound
    (6, F(1, 10), 377015,
     ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 5), (2, 6),
      (3, 1), (3, 2), (3, 6), (4, 1), (4, 5), (4, 6), (5, 1), (5, 2), (5, 4),
      (5, 6), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6))),
    # bounding a suffix that starts inside a row by the value of the prefix
    # as long, as on the line, keeps only 9 points here
    (4, F(1, 4), 5138,
     ((1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (3, 4), (4, 2),
      (4, 3))),
])
def test_f_two_dimensional_ladder_is_pinned(N, eps, nodes, witness):
    # Only a suffix of whole rows of N points is a translate of a prefix.
    out = _assert_spends_exactly(lambda work_cap: exact_f(N, 2, 2, eps, work_cap), nodes)
    assert (out.value, out.witness) == (len(witness), witness)


# ---------------------------------------------------------------------------
# Least forcing N
# ---------------------------------------------------------------------------

def test_w_single_color_is_k():
    for k in range(2, 8):
        out = exact_W(k, 1, F(1, 5), 10)
        assert out.kind == "value" and out.value == k


def test_w_pairs_is_pigeonhole():
    for r in range(1, 6):
        out = exact_W(2, r, F(1, 4), 10)
        assert out.kind == "value" and out.value == r + 1


def test_w_value_witnesses_check_out():
    out = exact_W(3, 2, F(1, 3), 60)
    assert out.kind == "value"
    assert out.value <= 54  # 2 * k^r / eps^(r-1)
    # (a) returned coloring of [value-1] is good
    assert out.witness.N == out.value - 1
    assert verify_no_mono_ap(out.witness, 3, F(1, 3)) is None
    # (b) independent exhaustive check over all colorings at value and value-1
    edges = enumerate_eps_aps(out.value, 3, F(1, 3)).edges
    for bits in range(2 ** out.value):
        classes = ([x + 1 for x in range(out.value) if bits >> x & 1],
                   [x + 1 for x in range(out.value) if not bits >> x & 1])
        assert any(set(e) <= set(cls) for e in edges for cls in classes)
    prev_edges = enumerate_eps_aps(out.value - 1, 3, F(1, 3)).edges
    witness_classes = out.witness.classes()
    assert not any(
        set(e) <= set(cls) for e in prev_edges for cls in witness_classes.values()
    )


def test_w_monotone_in_eps():
    values = [exact_W(3, 2, eps, 60).value for eps in (F(1, 5), F(1, 4), F(1, 3))]
    assert values == sorted(values, reverse=True)


def test_w_monotone_in_k_and_r():
    eps = F(1, 3)
    by_k = [exact_W(k, 2, eps, 60).value for k in (2, 3, 4)]
    assert by_k == sorted(by_k)
    by_r = [exact_W(3, r, eps, 60).value for r in (1, 2, 3)]
    assert by_r == sorted(by_r)


def test_w_lower_bound_only_when_capped():
    out = exact_W(3, 2, F(1, 5), 3)
    assert out.kind == "lower_bound_only" and out.value == 3
    assert out.witness.N == 3


def test_w_cap_never_reports_value():
    cap = 15
    assert cap < exact_W(3, 2, F(1, 3), 60).nodes  # the cap cuts the search
    out = exact_W(3, 2, F(1, 3), 60, work_cap=cap)
    assert out.kind == "lower_bound_only"


def test_good_coloring_depth_does_not_grow_with_n():
    n = 2000  # far beyond the interpreter's recursion limit
    assert _good_coloring(n, 2, (), Budget(10 ** 6)) == ([1] * n, True)


def test_good_coloring_is_not_sized_by_r():
    # The search holds one entry per color in use, never one per color
    # allowed: r = 10^12 walks the 244 nodes that r = 8 walks, and its good
    # coloring of [40] is r = 8's, on colors 1..8.
    out = exact_W(3, 10 ** 12, F(1, 10), 40)
    assert (out.kind, out.value, out.nodes) == ("lower_bound_only", 40, 244)
    assert out.witness.to_list() == exact_W(3, 8, F(1, 10), 40).witness.to_list()
    assert max(out.witness.to_list()) == 8


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.sampled_from((3, 4)), r=st.sampled_from((2, 3, 4)),
       eps=st.sampled_from((F(1, 20), F(1, 10), F(1, 6), F(1, 5))),
       n_max=st.integers(1, 30), cap_seed=st.integers(0, 2 ** 20))
def test_w_traversal_matches_per_n_search(k, r, eps, n_max, cap_seed):
    """One resumed traversal gives the value and canonical good coloring that
    solving every N afresh gives; a capped run stops at a canonical good
    coloring of a smaller N and is never a value."""
    def edges_of(n):
        return enumerate_eps_aps(n, k, eps).edges

    full = exact_W(k, r, eps, n_max)
    assert (full.kind, full.value, full.witness.to_list()) == per_n_least_forcing(
        r, edges_of, n_max)
    cap = cap_seed % (full.nodes + 2)
    out = exact_W(k, r, eps, n_max, work_cap=cap)
    if cap >= full.nodes:
        assert (out.kind, out.value, out.witness.to_list(), out.nodes) == (
            full.kind, full.value, full.witness.to_list(), full.nodes)
        return
    assert (out.kind, out.nodes) == ("lower_bound_only", cap)
    assert out.value <= full.value - (full.kind == "value")
    assert out.witness.to_list() == recursive_good_coloring(
        out.value, r, edges_of(out.value), Budget(10 ** 8))


# ---------------------------------------------------------------------------
# Largest free subsets
# ---------------------------------------------------------------------------

def test_f_too_few_points():
    for k in (3, 4):
        out = exact_f(k - 1, 1, k, F(1, 4))
        assert out.value == k - 1
        assert out.witness == tuple(range(1, k))


def test_f_matches_naive_subset_sweep():
    eps = F(1, 3)
    out = exact_f(6, 1, 3, eps)
    edges = enumerate_eps_aps(6, 3, eps).edges
    best = 0
    for bits in range(2 ** 6):
        s = {x + 1 for x in range(6) if bits >> x & 1}
        if not any(set(e) <= s for e in edges):
            best = max(best, len(s))
    assert out.kind == "value" and out.value == best
    assert not any(set(e) <= set(out.witness) for e in edges)


def test_f_monotone_in_n_and_eps():
    for eps in (F(1, 5), F(1, 4)):
        vals = [exact_f(n, 1, 3, eps).value for n in range(3, 10)]
        assert vals == sorted(vals)
    by_eps = [exact_f(9, 1, 3, eps).value for eps in (F(1, 10), F(1, 5), F(1, 3))]
    assert by_eps == sorted(by_eps, reverse=True)


def test_f_bounded_by_exact_ap_free():
    for n in range(3, 16):
        exact_max = max_exact_ap_free(n, 3).value
        for eps in (F(1, 5), F(1, 3)):
            assert exact_f(n, 1, 3, eps).value <= exact_max


def test_f_witness_is_lex_smallest_maximum():
    out = exact_f(5, 1, 3, F(1, 10))
    edges = enumerate_eps_aps(5, 3, F(1, 10)).edges
    best = []
    for size in range(5, 0, -1):
        for sub in combinations(range(1, 6), size):
            if not any(set(e) <= set(sub) for e in edges):
                best.append(sub)
        if best:
            break
    assert out.witness == min(best)


def test_f_cap_reports_lower_bound_with_incumbent():
    out = exact_f(12, 1, 3, F(1, 10), work_cap=40)
    assert out.kind == "lower_bound_only"
    edges = enumerate_eps_aps(12, 3, F(1, 10)).edges
    assert not any(set(e) <= set(out.witness) for e in edges)


def test_f_two_dimensional_tiny():
    out = exact_f(2, 2, 2, F(1, 4))
    # the only 2x2 grid in [2]^2 is the exact square; removing any one point
    # leaves a cube-free set of size 3
    assert out.kind == "value" and out.value == 3


def test_f_two_dimensional_matches_naive():
    from itertools import product as iproduct

    from epsap.density import verify_cube_free

    eps = F(1, 4)
    out = exact_f(3, 2, 2, eps)
    points = list(iproduct(range(1, 4), repeat=2))
    best = 0
    for bits in range(2 ** 9):
        subset = [p for i, p in enumerate(points) if bits >> i & 1]
        if len(subset) <= best or len(subset) < 4:
            continue
        if verify_cube_free(subset, 2, 2, eps) is None:
            best = len(subset)
    assert out.kind == "value" and out.value == max(best, 3)
    assert verify_cube_free(out.witness, 2, 2, eps) is None


# Every grid with N^m <= 16; eps must stay below (k - 1) / 2.
_SMALL_GRIDS = ((1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (2, 4, 2),
                (2, 2, 3), (3, 2, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=st.sampled_from(_SMALL_GRIDS),
       eps=st.sampled_from((F(1, 10), F(1, 3), F(9, 10))))
@example(grid=(4, 2, 2), eps=F(1, 3))  # 206 cubes
@example(grid=(3, 2, 3), eps=F(9, 10))  # one cube, 37 assignments
def test_f_two_dimensional_is_the_lex_first_maximum(grid, eps):
    N, m, k = grid
    assume(2 * eps < k - 1)
    points = tuple(product(range(1, N + 1), repeat=m))
    want = lex_first_max_free_set(len(points), brute_force_cubes(N, m, k, eps))
    out = exact_f(N, m, k, eps)
    assert (out.kind, out.value, out.witness) == (
        "value", len(want), tuple(points[i] for i in want))


def test_f_two_dimensional_capped_runs_are_sound():
    # Caps below the full spend stop the cube listing (the first 41 nodes)
    # or the search after it; either way the run keeps a cube-free set, and
    # a larger cap never keeps a smaller one.
    from epsap.density import verify_cube_free

    eps = F(1, 5)
    full = exact_f(3, 2, 2, eps)
    values = []
    for cap in range(full.nodes):
        out = exact_f(3, 2, 2, eps, work_cap=cap)
        assert (out.kind, out.nodes) == ("lower_bound_only", cap)
        assert out.value == len(out.witness) <= full.value
        assert verify_cube_free(out.witness, 2, 2, eps) is None
        values.append(out.value)
    assert values == sorted(values)


def test_f_two_dimensional_k3_full_grid_only():
    # in [3]^2 the only 3x3 grid is the whole square, so dropping one point
    # is optimal
    out = exact_f(3, 2, 3, F(1, 4))
    assert out.kind == "value" and out.value == 8


def test_f_enumeration_is_capped():
    # The progressions of [400] are listed rung by rung on the search's
    # budget: rungs [1]..[33] take 9,791 nodes, listing included, and [34]
    # does not fit, so the run keeps the witness of [33].
    out = exact_f(400, 1, 3, F(1, 10), work_cap=10 ** 4)
    assert (out.kind, out.value, out.witness, out.nodes) == (
        "lower_bound_only", 10, (1, 2, 4, 5, 11, 12, 29, 30, 32, 33), 10 ** 4)


def test_f_cap_after_enumeration_keeps_the_greedy_incumbent():
    # Rungs [1]..[8] take 52 nodes, listing included, and [1]..[9] 86, of
    # which rung 9's search takes the last 32.  A cap of 70 stops in that
    # search, and the run keeps the greedy set of the listed prefix, also
    # the optimum of [8]; the larger greedy set (1, 2, 4, 5, 11, 12) of [12]
    # would need edges it never listed.
    out = exact_f(12, 1, 3, F(1, 10), work_cap=70)
    assert (out.kind, out.value, out.witness, out.nodes) == (
        "lower_bound_only", 4, (1, 2, 4, 5), 70)


@pytest.mark.parametrize("cap, listed", [(38, 7), (45, 8)])
def test_f_cap_while_listing_keeps_the_listed_prefix(cap, listed):
    # [1]..[7] take 36 nodes; rung 8 lists its edges in the next 3 and
    # searches in the 13 after.  A cap of 38 runs out while listing rung 8,
    # one of 45 in its search: either way the run keeps at least the
    # greedy set of the prefix whose edges were all listed.
    out = exact_f(12, 1, 3, F(1, 10), work_cap=cap)
    edges = enumerate_eps_aps(12, 3, F(1, 10)).edges
    greedy = greedy_free_set(listed, [e for e in edges if e[-1] <= listed])
    assert (out.kind, out.value, out.witness, out.nodes) == (
        "lower_bound_only", 4, (1, 2, 4, 5), cap)
    assert len(greedy) <= out.value
    assert not any(set(e) <= set(out.witness) for e in edges)


@pytest.mark.parametrize("N, m, k, floor", [
    (12, 1, 3, (1, 2)), (1, 1, 3, (1,)), (12, 1, 5, (1, 2, 3, 4)),
    (3, 2, 2, ((1, 1), (1, 2), (1, 3)))])
def test_f_cap_keeps_the_first_points_too_few_for_a_hit(N, m, k, floor):
    # Fewer than k^m points hold no progression or cube, so a run capped
    # before it lists anything still keeps the first min(N^m, k^m - 1);
    # so does a capped run on exact progressions.
    runs = [exact_f(N, m, k, F(1, 10), work_cap=0)]
    if m == 1:
        runs.append(max_exact_ap_free(N, k, work_cap=0))
    for out in runs:
        assert (out.kind, out.value, out.witness, out.nodes) == (
            "lower_bound_only", len(floor), floor, 0)


@pytest.mark.parametrize("N, m, k", [(3, 40, 2), (10 ** 9, 1, 10 ** 9)])
def test_f_refuses_a_floor_past_the_materialize_cap(N, m, k):
    # The floor's size follows from N, m and k alone, so a floor of more
    # points than the materialize cap is refused before any point is built.
    runs = [lambda: exact_f(N, m, k, F(1, 10), work_cap=5)]
    if m == 1:
        runs.append(lambda: max_exact_ap_free(N, k, work_cap=0))
    for run in runs:
        start = time.perf_counter()
        with pytest.raises(MemoryGuardExceeded) as err:
            run()
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == ("a capped run's floor, min(N^m, k^m - 1) points at "
                                  f"N={N}, m={m}, k={k}, exceeds materialize cap 50000000")


def test_f_floor_may_fill_the_materialize_cap(monkeypatch):
    # at the cap a floor is kept, one point past it is refused
    monkeypatch.setattr(search, "DEFAULT_MATERIALIZE_CAP", 3)
    assert exact_f(3, 2, 2, F(1, 10), work_cap=0).value == 3
    assert max_exact_ap_free(12, 4, work_cap=0).value == 3
    with pytest.raises(MemoryGuardExceeded):
        exact_f(2, 2, 3, F(1, 10), work_cap=0)  # min(2^2, 3^2 - 1) = 4
    with pytest.raises(MemoryGuardExceeded):
        max_exact_ap_free(12, 5, work_cap=0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_f_caps_within_the_grid_answer_before_listing(N, m, k):
    # The listing's root and each point at its first slot are nodes, so a
    # cap of at most N^m stops it: the answer built without the grid equals
    # the one the capped listing gives.
    for cap in range(N ** m + 1):
        early = exact_f(N, m, k, F(1, 4), work_cap=cap)
        with mock.patch.object(search, "power_exceeds", lambda *args: False):
            assert early == exact_f(N, m, k, F(1, 4), work_cap=cap)
        assert (early.kind, early.nodes) == ("lower_bound_only", cap)


@pytest.mark.parametrize("cap", [0, DEFAULT_WORK_CAP])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_f_of_the_empty_grid_is_a_value_at_every_cap(k, m, cap):
    # [0]^m has no point, so the ladder reads no rung: in every dimension
    # the answer is the empty set at 0 nodes, a cap of 0 included.
    assert exact_f(0, m, k, F(1, 4), work_cap=cap) == ("value", 0, (), 0)


@pytest.mark.parametrize("N, k, eps", [
    (N, k, eps) for N in range(5) for k in (2, 3, 4) for eps in (F(1, 10), F(2, 5))])
def test_enumerate_caps_below_the_exact_progressions_answer_before_listing(N, k, eps):
    # The root and the N - k + 1 exact progressions spend N - k + 2 units,
    # so every cap below that raises, as the full listing would, with the
    # budget's message.
    budgets = []

    class Recorded(Budget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    with mock.patch.object(search, "Budget", Recorded):
        enumerate_eps_aps(N, k, eps, work_cap=10 ** 6)
    assert budgets[0].spent >= N - k + 2
    for cap in range(N - k + 2):
        with pytest.raises(SearchCapExceeded) as err:
            enumerate_eps_aps(N, k, eps, work_cap=cap)
        assert str(err.value) == f"search work cap of {cap} exceeded"


@st.composite
def _hypergraphs(draw):
    n = draw(st.integers(0, 10))
    if n == 0:
        return 0, []
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    edges = [tuple(sorted(e)) for e in draw(st.lists(edge, max_size=12))]
    return n, edges


def _lowers(n, edges):
    """The edges of two or more indices, filed as the ladder files them:
    under the second largest index j, the bit mask of the indices below j
    maps to the bit mask of the largest ones."""
    lowers = [{} for _ in range(n)]
    for *rest, top in edges:
        below = sum(1 << i for i in rest[:-1])
        lowers[rest[-1]][below] = lowers[rest[-1]].get(below, 0) | 1 << top
    return lowers


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_hypergraphs())
def test_max_free_is_the_lex_first_maximum(graph):
    n, edges = graph
    edges = [e for e in edges if len(e) >= 2]
    lowers, room = _lowers(n, edges), range(n, -1, -1)
    want = lex_first_max_free_set(n, edges)
    budget = Budget(10 ** 6)
    assert _max_free_edges(n, lowers, budget, (), room) == (want, True)
    spent = budget.spent
    greedy = first_fit(n, edge_closes(n, edges))
    assert _max_free_edges(n, lowers, Budget(10 ** 6), greedy, room) == (want, True)
    # the greedy set is the first leaf, n + 1 nodes in: free, and every
    # skipped index closes an edge among the indices kept before it; the
    # search stops there when it holds all n, room[0]
    assert _max_free_edges(n, lowers, Budget(n + 1), (), room) == (greedy, len(greedy) == n)
    kept = set(greedy)
    assert not any(kept.issuperset(e) for e in edges)
    for i in set(range(n)) - kept:
        assert any(e[-1] == i and kept.issuperset(e[:-1]) for e in edges)
    # one node short of the full search, the best set found so far is free
    best, completed = _max_free_edges(n, lowers, Budget(spent - 1), (), room)
    assert not completed and len(best) <= len(want)
    assert not any(set(best).issuperset(e) for e in edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_hypergraphs())
def test_max_free_edges_walks_the_max_free_tree(graph):
    """The ladder's bit-mask search visits the nodes of the count-bound
    reference in tests/oracles.py: the same answer and the same spend, in
    full and at caps that stop it part way."""
    n, edges = graph
    edges = [e for e in edges if len(e) >= 2]
    closes, lowers = edge_closes(n, edges), _lowers(n, edges)
    # the count bound, and a smaller one that prunes more (room[n] is 0)
    for room in (range(n, -1, -1), [(n - i + 1) // 2 for i in range(n + 1)]):
        for incumbent in ((), first_fit(n, closes)):
            full = Budget(10 ** 6)
            count_bound_max_free(n, closes, full, incumbent, room)
            spent = full.spent
            for cap in {0, spent - 1, spent, *range(1, spent, max(1, spent // 12))}:
                mine, theirs = Budget(cap), Budget(cap)
                assert (_max_free_edges(n, lowers, mine, incumbent, room)
                        == count_bound_max_free(n, closes, theirs, incumbent, room))
                assert mine.left == theirs.left


def test_max_free_depth_does_not_grow_with_n():
    n = 5000  # far beyond the interpreter's recursion limit
    budget = Budget(10 ** 6)
    best, completed = _max_free_edges(n, [{}] * n, budget, (), range(n, -1, -1))
    assert completed and best == tuple(range(n))
    assert budget.spent == n + 1  # the first leaf reaches room[0]: it stops there


@pytest.mark.parametrize("n, k", [(0, 3), (1, 3), (30, 3), (40, 4), (25, 5)])
def test_greedy_is_the_first_fit_of_the_exact_progressions(n, k):
    edges = [tuple(x - 1 for x in e) for e in enumerate_exact_aps(n, k)]
    assert _greedy(n, k, Budget(10 ** 6)) == first_fit(n, edge_closes(n, edges))


@pytest.mark.parametrize("n, k", [(1, 3), (30, 3), (40, 4), (25, 5)])
def test_greedy_spends_one_unit_per_difference_tried(n, k):
    # each index tries the differences up to the first that closes a
    # progression on kept indices, or all of them when it is kept
    chosen = set(_greedy(n, k, Budget(10 ** 6)))
    tried = 0
    for x in range(n):
        ds = range(1, x // (k - 1) + 1)
        closing = [d for d in ds if all(x - i * d in chosen for i in range(1, k))]
        tried += closing[0] if closing else len(ds)
    budget = Budget(tried)
    _greedy(n, k, budget)
    assert budget.left == 0
    if tried:
        with pytest.raises(SearchCapExceeded):
            _greedy(n, k, Budget(tried - 1))


def _listed_prefix(run, N, cap):
    """The largest n <= N whose run fits the cap: a run on [N] capped at
    cap solved the rungs [1]..[n] too, so it listed their edges."""
    return max(n for n in range(N + 1) if run(n, work_cap=cap).kind == "value")


def _assert_capped_run_is_sound(out, full, cap, greedy, edges):
    """A run capped below the full search is a lower bound at least as large
    as the greedy set, with a free witness; otherwise it is the full run."""
    if cap >= full.nodes:
        assert (out.kind, out.value, out.witness, out.nodes) == (
            full.kind, full.value, full.witness, full.nodes)
        return
    assert (out.kind, out.nodes) == ("lower_bound_only", cap)
    assert len(greedy) <= out.value == len(out.witness) <= full.value
    assert not any(set(e) <= set(out.witness) for e in edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(N=st.integers(0, 24), k=st.sampled_from((3, 4, 5)),
       cap_seed=st.integers(0, 2 ** 20))
def test_exact_ap_ladder_matches_count_bound_search(N, k, cap_seed):
    edges = enumerate_exact_aps(N, k)
    full = max_exact_ap_free(N, k)
    assert (full.kind, full.value, full.witness) == count_bound_free_set(N, edges)
    cap = cap_seed % (full.nodes + 2)
    # The progressions are filed as the rungs are reached, and the greedy
    # incumbent is grown from them.
    n = _listed_prefix(lambda n, work_cap: max_exact_ap_free(n, k, work_cap), N, cap)
    _assert_capped_run_is_sound(max_exact_ap_free(N, k, work_cap=cap), full, cap,
                                greedy_free_set(n, [e for e in edges if e[-1] <= n]),
                                edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(N=st.integers(0, 20), k=st.sampled_from((3, 4)),
       eps=st.sampled_from((F(1, 20), F(1, 12), F(1, 10), F(1, 6), F(1, 4))),
       cap_seed=st.integers(0, 2 ** 20))
def test_eps_ladder_matches_count_bound_search(N, k, eps, cap_seed):
    edges = enumerate_eps_aps(N, k, eps).edges
    full = exact_f(N, 1, k, eps)
    assert (full.kind, full.value, full.witness) == count_bound_free_set(N, edges)
    cap = cap_seed % (full.nodes + 2)
    out = exact_f(N, 1, k, eps, work_cap=cap)
    # The edges are listed on the search's budget as the rungs are reached,
    # so a capped run has listed [n] only for the n whose rungs fit the cap.
    n = _listed_prefix(lambda n, work_cap: exact_f(n, 1, k, eps, work_cap), N, cap)
    _assert_capped_run_is_sound(out, full, cap,
                                greedy_free_set(n, [e for e in edges if e[-1] <= n]),
                                edges)


def test_max_exact_ap_free_memory_stays_flat_when_capped():
    # The progressions ending at n are listed only when the search reaches
    # n, so a capped search on [1200] holds only those of the first rungs.
    tracemalloc.start()
    try:
        out = max_exact_ap_free(1200, 3, work_cap=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the witness of the last rung solved, [20]
    assert (out.kind, out.value, out.witness, out.nodes) == (
        "lower_bound_only", 9, (1, 2, 6, 7, 9, 14, 15, 18, 20), 3000)
    assert not has_exact_ap(out.witness, 3)
    assert peak < 5 * 2 ** 20


def test_max_exact_ap_free_cap_bounds_all_its_work():
    # The greedy incumbent is grown rung by rung, so a capped run on [10^6]
    # does only the work of the rungs its cap reaches.
    start = time.perf_counter()
    out = max_exact_ap_free(10 ** 6, 3, work_cap=100)
    assert time.perf_counter() - start < 0.5
    assert (out.kind, out.nodes) == ("lower_bound_only", 100)
    assert not has_exact_ap(out.witness, 3)


@pytest.mark.parametrize("N, grows, greedy_is_optimal", [
    (20, True, False),  # f(20) = f(19) + 1: rung 20 finds the witness
    (19, False, True),  # f(19) = f(18), and the greedy set is that large
    (25, False, False),  # f(25) = f(24), the greedy set is smaller
])
def test_last_rung_ends_each_way(N, grows, greedy_is_optimal):
    # One search per rung, the last one included, whichever way it answers.
    searches = mock.Mock(wraps=search._max_free_edges)
    with mock.patch.object(search, "_max_free_edges", searches):
        out = max_exact_ap_free(N, 3)
    edges = enumerate_exact_aps(N, 3)
    greedy = tuple(x + 1 for x in _greedy(N, 3, Budget(10 ** 6)))
    assert (out.kind, out.value, out.witness) == count_bound_free_set(N, edges)
    assert out.value == max_exact_ap_free(N - 1, 3).value + grows
    assert (out.witness == greedy) == greedy_is_optimal
    assert [c.args[0] for c in searches.call_args_list] == list(range(1, N + 1))


def test_cap_in_the_last_rung_keeps_the_previous_rungs_set():
    # Rungs [1]..[24] take 3,201 nodes and [25] the next 1,882.  Rung 25's
    # search starts from f(24) - 1 = 9 points, but a cap that stops it
    # keeps the 10 points of [24].
    out = max_exact_ap_free(25, 3, work_cap=3211)
    before = max_exact_ap_free(24, 3)
    assert (out.kind, out.value, out.witness, out.nodes) == (
        "lower_bound_only", before.value, before.witness, 3211)


def test_max_exact_ap_free_small_values():
    # largest 3-progression-free subsets of [1..n]
    known = {4: 3, 5: 4, 8: 4, 9: 5}
    for n, want in known.items():
        assert max_exact_ap_free(n, 3).value == want


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_export_empty_hypergraph():
    h = enumerate_eps_aps(2, 3, F(1, 4))
    assert write_hypergraph(h) == "# N=2 k=3 eps=1/4\n"


def test_export_single_edge():
    h = enumerate_eps_aps(3, 3, F(3, 10))
    assert write_hypergraph(h) == "# N=3 k=3 eps=3/10\n1 2 3\n"


def test_export_round_trip():
    h = enumerate_eps_aps(9, 3, F(1, 4))
    assert read_hypergraph(write_hypergraph(h)) == h
