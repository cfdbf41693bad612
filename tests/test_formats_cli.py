import json
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epsap import cli, density, formats, geometry
from epsap.cli import main
from epsap.colorings import Coloring, build_simple_r2_coloring, verify_no_mono_ap
from epsap.search import EpsApHypergraph, enumerate_eps_aps
from oracles import has_exact_ap, line_read_set, read_hypergraph
from test_cli_golden import CASES, HUGE_CASES

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_set_round_trip():
    pts = [(3, 1), (1, 2), (1, 1)]
    text = formats.write_set(pts)
    assert text == "1 1\n1 2\n3 1\n"
    # comment lines come from files written elsewhere; the reader skips them
    assert formats.read_set("# three points\n" + text, m=2) == ((1, 1), (1, 2), (3, 1))


def test_set_rejects_ragged_rows():
    with pytest.raises(ValueError):
        formats.read_set("1 2\n3\n", m=2)


@pytest.mark.parametrize("m", (0, -1, -2))
@pytest.mark.parametrize("text", ("", "1\n", "x y\n"))
def test_set_refuses_m_below_one_before_any_line(m, text):
    with pytest.raises(ValueError, match=fr"^need m >= 1, got m={m}$"):
        formats.read_set(text, m=m)


def test_coloring_names_a_color_line_that_is_no_integer():
    with pytest.raises(ValueError, match=r"^coloring file line 4: ' x' is not an integer$"):
        formats.read_coloring("# N=3 r=2 eps=1/3 k=3\n1\n\n x\n")


def test_coloring_round_trip():
    coloring = Coloring.from_list([1, 2, 1, 2, 2], r=2)
    text = formats.write_coloring(coloring, F(1, 3), 3)
    assert text.splitlines()[0] == "# N=5 r=2 eps=1/3 k=3"
    back, eps, k = formats.read_coloring(text)
    assert back.to_list() == coloring.to_list()
    assert (eps, k) == (F(1, 3), 3)


def test_coloring_header_mismatch():
    with pytest.raises(ValueError):
        formats.read_coloring("# N=3 r=2 eps=1/3 k=3\n1\n2\n")


_EPS = st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), data=st.data(), comment=st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), max_size=20))
def test_set_round_trip_property(m, data, comment):
    pts = data.draw(st.lists(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * m),
                             max_size=12))
    text = formats.write_set(pts)
    head = "".join(f"# {part}\n" for part in comment.splitlines())
    back = formats.read_set(head + text, m=m)
    assert back == tuple(sorted(set(pts)))
    assert formats.write_set(back) == formats.write_set(sorted(set(pts)))


# Whitespace that str.split and str.strip both skip, a fullwidth digit that
# int reads, and tokens that are no integer, '#' ones among them.
_SPACE = st.sampled_from([" ", "  ", "\t", " \t", "\x0c", "\u3000"])
_INT_TOKEN = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]),
                       st.sampled_from(["", "0", "1_0", "\uff11"]),
                       st.integers(0, 10 ** 12))
_BAD_TOKEN = st.sampled_from(["x", "1.5", "True", "#2", "--3", "1e3", "0x10", "_1"])


@st.composite
def _set_texts(draw):
    """(text, m): a SET file whose lines are points (repeated and out of
    order), comments, blank or whitespace-only lines, rows one token short
    or long, and rows holding a bad token."""
    m = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(_INT_TOKEN, min_size=m, max_size=m),
                         min_size=1, max_size=4))
    lines = []
    for kind in draw(st.lists(st.sampled_from(
            ["point"] * 6 + ["comment", "blank", "space", "short", "long", "bad"]),
            max_size=12)):
        row = list(draw(st.sampled_from(pool)))
        if kind == "comment":
            row = [draw(st.sampled_from(["#", "#x", "# 1 2", "#3"]))]
        elif kind in ("blank", "space"):
            row = []
        elif kind == "short":
            row = row[:-1]
        elif kind == "long":
            row.append(draw(_INT_TOKEN))
        elif kind == "bad":
            row[draw(st.integers(0, m - 1))] = draw(_BAD_TOKEN)
        line = draw(_SPACE) if kind == "space" or draw(st.booleans()) else ""
        for i, token in enumerate(row):
            line += (draw(_SPACE) if i else "") + token
        lines.append(line + (draw(_SPACE) if draw(st.booleans()) else ""))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else ""), m


def _read_outcome(read, text, m):
    try:
        return read(text, m)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_set_texts())
@example(("1 2\n3\n# 4 5\n", 2))  # a short row before a comment
@example(("2 1\n1 x\n3\n", 2))  # a bad token after a short row
@example(("5\n\n  \t\n-3\n+5\n", 1))  # blank lines, signs, a repeat
def test_set_reader_equals_the_line_reader(case):
    # one pass over the whole file gives the points or the error text that
    # reading it line by line gives
    text, m = case
    assert _read_outcome(formats.read_set, text, m) == _read_outcome(line_read_set, text, m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(r=st.integers(1, 5), data=st.data(), eps=_EPS, k=st.integers(2, 50))
def test_coloring_round_trip_property(r, data, eps, k):
    colors = data.draw(st.lists(st.integers(1, r), max_size=30))
    text = formats.write_coloring(Coloring.from_list(colors, r=r), eps, k)
    back, eps_back, k_back = formats.read_coloring(text)
    assert (back.N, back.r, back.to_list(), eps_back, k_back) == (
        len(colors), r, colors, eps, k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), k=st.integers(2, 4), eps=_EPS, data=st.data())
def test_hypergraph_round_trip_property(n, k, eps, data):
    edges = data.draw(st.lists(
        st.lists(st.integers(1, max(n, 1)), min_size=k, max_size=k, unique=True)
        .map(lambda e: tuple(sorted(e))), max_size=8, unique=True)) if n >= k else []
    h = EpsApHypergraph(N=n, k=k, eps=eps, edges=tuple(sorted(edges)))
    assert read_hypergraph(formats.write_hypergraph(h)) == h


_BAD_FIELD = st.sampled_from(("", "x", "1/0", "0/0", "1.5/2", "--1", "1/", "/3"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_headers_are_one_line_errors(data):
    keys = ("N", "r", "eps", "k")
    good = {"N": "3", "r": "2", "eps": "1/4", "k": "3"}
    spoiled = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    dropped = data.draw(st.booleans())
    fields = {key: data.draw(_BAD_FIELD) if key in spoiled else good[key]
              for key in keys if not (dropped and key == spoiled[0])}
    text = "# " + " ".join(f"{key}={val}" for key, val in fields.items()) + "\n"
    with pytest.raises(ValueError, match="^malformed coloring header: .*$"):
        formats.read_coloring(text + "1\n2\n1\n")


# ---------------------------------------------------------------------------
# CLI behavior (in-process)
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_recognize_accept(capsys):
    code, out, _ = run_cli(capsys, "recognize", "ap", "--points", "1,3,6",
                           "--eps", "1/3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True
    assert payload["witness"]["a"] == {"num": 3, "den": 4}
    assert payload["witness"]["margin"]["num"] > 0


def test_cli_recognize_reject(capsys):
    code, out, _ = run_cli(capsys, "recognize", "ap", "--points", "1,3,6",
                           "--eps", "1/100")
    assert code == 1 and out.strip() == "rejected"


def test_cli_rejects_decimal_eps(capsys):
    code, _, _ = run_cli(capsys, "recognize", "ap", "--points", "1,3,6",
                         "--eps", "0.333")
    assert code == 2


@pytest.mark.parametrize("eps", ["1/0", "0", "0/5", "-1/3", "abc"])
def test_cli_rejects_bad_eps_in_one_line(capsys, eps):
    code, out, err = run_cli(capsys, "recognize", "ap", "--points", "1,3,6",
                             f"--eps={eps}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--eps" in err


def test_cli_alternate_is_capped(capsys):
    code, out, err = run_cli(capsys, "construct", "alternate", "--r", "2",
                             "--D", "1000000", "--t", "1000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds materialize cap" in err


@pytest.mark.parametrize("eps, h", [
    ("1/1" + "0" * 400, "1"),  # q = 4 * 10^398: no float holds it
    ("1/125", "10000"),  # 4 * 2^9999 members
    ("1/150", "1000000"),  # a one-digit tail: 4 members of ~778,000 digits
    ("1/150", "5527"),  # the largest member has 4301 digits, one too many
    ("1/150", "6000"),
])
def test_cli_behrend_is_capped(capsys, eps, h):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "behrend", "--eps", eps, "--h", h)
    assert time.perf_counter() - start < 1  # refused before anything is built
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds materialize cap" in err


def test_cli_behrend_greedy_alphabet_is_capped(capsys, monkeypatch):
    # q = 10^6 and k = 4: the leading digit's alphabet is the first-fit set
    # of [0, q - 1], whose differences tried are charged to the work cap.
    # 10^5 of them run out near n = 1,000; the default 2 * 10^7 near 16,000.
    monkeypatch.setattr(density, "DEFAULT_WORK_CAP", 10 ** 5)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "behrend", "--eps", "1/25000000",
                             "--h", "1", "--k", "4")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "work cap of 100000" in err


def test_cli_behrend_prints_members_up_to_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "construct", "behrend", "--eps", "1/150",
                             "--h", "5526")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-2] == "size = 4"
    assert [len(member) for member in lines[-1].split()] == [4300] * 4


def test_cli_wnumber_pigeonhole(capsys):
    code, out, _ = run_cli(capsys, "wnumber", "--k", "2", "--r", "3",
                           "--eps", "1/4", "--nmax", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "value" and payload["value"] == 4


def test_cli_unknown_command(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_cli_json_deterministic(capsys):
    args = ("wnumber", "--k", "3", "--r", "2", "--eps", "1/3",
            "--nmax", "20", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_construct_verify_coloring_round_trip(tmp_path, capsys):
    path = tmp_path / "coloring.txt"
    code, _, _ = run_cli(capsys, "construct", "simple-r2", "--k", "7",
                         "--eps", "1/5", "--out", str(path))
    assert code == 0
    coloring, eps, k = formats.read_coloring(path.read_text())
    assert coloring.to_list() == build_simple_r2_coloring(7).to_list()
    code, out, _ = run_cli(capsys, "verify", "coloring", "--file", str(path),
                           "--json")
    expected = verify_no_mono_ap(coloring, k, eps) is None
    assert (code == 0) == expected
    assert json.loads(out)["free_of_monochromatic_ap"] is expected


def test_cli_hypergraph_file_round_trip(tmp_path, capsys):
    path = tmp_path / "hg.txt"
    code, _, _ = run_cli(capsys, "hypergraph", "--N", "6", "--k", "3",
                         "--eps", "1/3", "--out", str(path))
    assert code == 0
    parsed = read_hypergraph(path.read_text())
    assert parsed == enumerate_eps_aps(6, 3, F(1, 3))


def test_cli_verify_set_product(tmp_path, capsys):
    a_path = tmp_path / "a.txt"
    s_path = tmp_path / "s.txt"
    a_path.write_text(formats.write_set([(x,) for x in (3, 4, 8, 9)]))
    code, _, _ = run_cli(capsys, "construct", "product", "--set", str(a_path),
                         "--m", "2", "--N", "9", "--out", str(s_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "set", "--file", str(s_path),
                           "--m", "2", "--k", "3", "--eps", "1/125")
    assert code == 0 and out.strip() == "free"


def test_cli_verify_set_catches_lattice(tmp_path, capsys):
    path = tmp_path / "cube.txt"
    path.write_text(formats.write_set(
        [(a, b) for a in range(3) for b in range(3)]))
    code, out, _ = run_cli(capsys, "verify", "set", "--file", str(path),
                           "--m", "2", "--k", "3", "--eps", "1/4", "--json")
    assert code == 1
    assert json.loads(out)["witness"]["witness"]["certified"] is True


@pytest.mark.parametrize("k, hit", [(3, [-20, -10, -1]), (4, [-20, -10, -1, 11])])
def test_cli_verify_set_finds_the_lex_first_hit_through_zero(tmp_path, capsys, k, hit):
    # negative and zero coordinates: the candidate window rounds both ways
    path = tmp_path / "set.txt"
    path.write_text("".join(f"{x}\n" for x in (-20, -10, -1, 0, 1, 11)))
    code, out, _ = run_cli(capsys, "verify", "set", "--file", str(path),
                           "--m", "1", "--eps", "1/10", "--k", str(k))
    assert code == 1
    assert out.strip() == f"contains approximate structure: {hit}"


def test_cli_recognize_cube_from_file(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(formats.write_set(
        [(10 * a + 1, 10 * b + 2) for a in range(2) for b in range(2)]))
    code, out, _ = run_cli(capsys, "recognize", "cube", "--file", str(path),
                           "--m", "2", "--k", "2", "--eps", "1/4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "feasible"
    assert payload["witness"]["certified"] is True


def test_cli_recognize_cube_repeats_byte_for_byte(tmp_path, capsys):
    # The ball search reorders its processing order in place; on this grid
    # a call that started from the order a previous call left would print
    # other last digits in the witness.
    path = tmp_path / "grid.txt"
    path.write_text(formats.write_set([(-5, 64), (-3, 25), (2, -4), (25, -2), (32, 63),
                                       (35, 25), (59, 56), (60, 35), (64, 2)]))
    argv = ("recognize", "cube", "--file", str(path), "--m", "2", "--k", "3",
            "--eps", "1/5", "--json")
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and run_cli(capsys, *argv) == first


def test_cli_translate(tmp_path, capsys):
    a_path = tmp_path / "a.txt"
    x_path = tmp_path / "x.txt"
    a_path.write_text(formats.write_set([(1, 1), (2, 2)]))
    x_path.write_text(formats.write_set(
        [(i, j) for i in range(1, 5) for j in range(1, 5) if (i + j) % 2 == 0]))
    code, out, _ = run_cli(capsys, "translate", "--set-a", str(a_path),
                           "--set-x", str(x_path), "--N", "4", "--m", "2",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] * payload["bound"]["den"] >= payload["bound"]["num"]


def test_cli_translate_refuses_a_dense_cell_at_once_and_answers_under_work_cap(
        tmp_path, capsys):
    # [5000] against itself is 25,000,000 pairs, past the default cap: refused
    # before any vote is counted
    dense = tmp_path / "dense.txt"
    dense.write_text(formats.write_set([(i,) for i in range(1, 5001)]))
    argv = ("translate", "--set-a", str(dense), "--set-x", str(dense), "--m", "1")
    start = time.perf_counter()
    assert run_cli(capsys, *argv, "--N", "5000") == (
        2, "", "error: search work cap of 20000000 exceeded\n")
    assert time.perf_counter() - start < 1.0
    # [300] against itself is 90,000 pairs: --work-cap 90000 answers
    dense.write_text(formats.write_set([(i,) for i in range(1, 301)]))
    assert run_cli(capsys, *argv, "--N", "300", "--work-cap", "89999") == (
        2, "", "error: search work cap of 89999 exceeded\n")
    assert run_cli(capsys, *argv, "--N", "300", "--work-cap", "90000") == (
        0, "shift = [0]\ncount = 300 (bound 150)\n", "")


def test_cli_construct_cube_blowup(tmp_path, capsys):
    path = tmp_path / "blowup.txt"
    code, _, _ = run_cli(capsys, "construct", "cube-blowup", "--m", "2",
                         "--k", "3", "--eps", "1/2", "--alpha", "4/5",
                         "--out", str(path))
    assert code == 0
    pts = formats.read_set(path.read_text(), m=2)
    assert len(pts) == 81


def test_cli_cube_blowup_takes_an_eps_past_floats(capsys):
    # 1/10^400 is 0.0 as a float; the digit base is found in integers
    code, out, err = run_cli(capsys, "construct", "cube-blowup", "--m", "2",
                             "--k", "3", "--eps", f"1/{10 ** 400}",
                             "--alpha", "17/18", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    t, q = payload["t"], 10 ** 400
    assert (payload["r"], payload["size"]) == (1, 9)
    assert (t - 1) ** 2 < 9 * 2 * q * q <= t * t


def test_cli_lowerbound_full_coloring(tmp_path, capsys):
    path = tmp_path / "lb.txt"
    code, _, _ = run_cli(capsys, "construct", "lowerbound", "--k", "771",
                         "--r", "2", "--eps", "1/30", "--eps0", "1/30",
                         "--out", str(path))
    assert code == 0
    coloring, eps, k = formats.read_coloring(path.read_text())
    assert (coloring.N, coloring.r, eps, k) == (148992, 2, F(1, 30), 771)


def test_cli_recognize_cube_infeasible(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(formats.write_set([(0, 0), (1, 5), (9, 1), (10, 9)]))
    code, out, _ = run_cli(capsys, "recognize", "cube", "--file", str(path),
                           "--m", "2", "--k", "2", "--eps", "1/5", "--json")
    assert code == 1
    payload = json.loads(out)
    # the pair (1, 5), (9, 1) on the anti-diagonal allows no scale at all
    assert (payload["status"], payload["exact"]) == ("infeasible", True)


def _certifies_spy():
    """The exact certificate kernel that WitnessMD.certifies and
    recognize_cube share, wrapped so that its calls are counted."""
    return mock.patch.object(geometry, "_certifies", side_effect=geometry._certifies)


def test_cli_verify_set_certifies_an_exact_cube_hit_once(tmp_path, capsys):
    # the recognizer's probe proves this witness; the reply reuses the proof
    path = tmp_path / "grid.txt"
    path.write_text("0 0\n0 10\n10 0\n10 10\n")
    with _certifies_spy() as certifies:
        code, out, _ = run_cli(capsys, "verify", "set", "--file", str(path),
                               "--m", "2", "--k", "2", "--eps", "1/4", "--json")
    assert code == 1
    assert json.loads(out)["witness"]["witness"]["certified"] is True
    assert certifies.call_count == 1


def test_cli_verify_coloring_overrides(tmp_path, capsys):
    path = tmp_path / "c.txt"
    coloring = Coloring.from_list([1, 1, 1], r=1)
    path.write_text(formats.write_coloring(coloring, F(1, 5), 4))
    # header k=4 is good for this tiny domain, override k=3 finds the hit
    assert run_cli(capsys, "verify", "coloring", "--file", str(path))[0] == 0
    assert run_cli(capsys, "verify", "coloring", "--file", str(path),
                   "--k", "3")[0] == 1


def test_cli_coloring_header_dividing_by_zero_is_exit_2(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("# N=3 r=2 eps=1/0 k=3\n1\n2\n1\n")
    code, out, err = run_cli(capsys, "verify", "coloring", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed coloring header: '# N=3 r=2 eps=1/0 k=3'\n"


@pytest.mark.parametrize("argv, message", [
    ("verify set --file line.txt --m 1 --eps 1/4 --k 0", "need k >= 2, got k=0"),
    ("verify set --file line.txt --m 1 --eps 1/4 --k -1", "need k >= 2, got k=-1"),
    ("verify set --file line.txt --m 1 --eps 1/4 --k 1", "need k >= 2, got k=1"),
    ("verify coloring --file coloring.txt --k 0", "need k >= 2, got k=0"),
    ("verify coloring --file coloring.txt --k 1", "need k >= 2, got k=1"),
    ("verify set --file grid.txt --m 2 --eps 1/4 --k 0",
     "need m >= 1 and k >= 2, got m=2, k=0"),
])
def test_cli_k_below_2_is_a_one_line_exit_2(tmp_path, monkeypatch, capsys, argv,
                                            message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "line.txt").write_text("1\n2\n4\n")
    (tmp_path / "grid.txt").write_text("0 0\n0 10\n10 0\n10 10\n")
    (tmp_path / "coloring.txt").write_text("# N=3 r=1 eps=1/5 k=3\n1\n1\n1\n")
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_cli_lowerbound_params_only(capsys):
    code, out, _ = run_cli(capsys, "construct", "lowerbound", "--k", "771",
                           "--r", "2", "--eps", "1/30", "--eps0", "1/30",
                           "--params-only", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"][0]["n1"] == 148992


def test_cli_lowerbound_params_only_refuses_out(tmp_path, capsys):
    # the schedule is printed, never written, so --out would be ignored
    path = tmp_path / "coloring.txt"
    code, out, err = run_cli(capsys, "construct", "lowerbound", "--k", "771",
                             "--r", "2", "--eps", "1/30", "--eps0", "1/30",
                             "--params-only", "--out", str(path))
    assert (code, out, err) == (2, "", "error: --params-only takes no --out\n")
    assert not path.exists()


@pytest.mark.parametrize("option", ["--provider exact", "--provider=greedy"])
def test_cli_behrend_takes_no_provider(capsys, option):
    # the interval's size picks the provider (a stray --tol is in the fuzz below)
    code, out, err = run_cli(capsys, "construct", "behrend", "--eps", "1/125", "--h", "2",
                             *option.split())
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {option}\n")
    assert err.count("\n") == 1


def test_cli_density_exact_aps(capsys):
    code, out, _ = run_cli(capsys, "density", "--N", "9", "--k", "3",
                           "--exact-aps", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_cli_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "epsap", "recognize", "ap",
         "--points", "5,7,9", "--eps", "1/10"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "accepted" in result.stdout


def test_cli_module_reports_what_no_command_parser_takes_from_the_tree():
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "epsap", *argv], capture_output=True,
            text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    extra = run("recognize", "ap", "--points", "1,3,6", "--eps", "1/3", "extra")
    assert (extra.returncode, extra.stdout, extra.stderr) == (
        2, "", "epsap: error: unrecognized arguments: extra\n")
    usage = run("-h")
    assert (usage.returncode, usage.stderr) == (0, "")
    assert usage.stdout.startswith("usage: epsap")


# ---------------------------------------------------------------------------
# Parsing: a well-formed call is read from the table, the tree takes the rest
# ---------------------------------------------------------------------------

MALFORMED_ARGVS = [
    "",
    "-h",
    "recognize -h",
    "recognize ap -h",
    "density -h",
    "recognize",
    "frobnicate",
    "--json recognize ap --points 1,3,6 --eps 1/3",
    "recognize ap --points 1,3,6",
    "recognize ap --points 1,3,6 --eps 1/3 --frob 1",
    "recognize ap --points 1,3,6 --eps 1/3 extra",
    "recognize ap --points 1,3,6 --eps 1/3 --",
    "recognize ap -- --points 1,3,6 --eps 1/3",
    "recognize ap --points 1,3,6 --eps 1/3 --js",
    "recognize ap --points 1,3,6 --eps=1/3",
    "recognize cube --file grid.txt --m -1 --k 3 --eps 1/4",
    "recognize ap --points 1,3,6 --eps 1/3 --eps 1/4",
    "recognize ap --points 1,3,6 --eps 1/3 --format xml",
    "recognize ap --points 1,3,6 --eps 1/3 --format=json",
    "recognize ap --format json --points 1,3,6 --eps 1/3",
    "recognize ap --points 1,3,6 --eps 1/3 --json --json",
    "translate --set-a a.txt --set-x x.txt --N 3 --m 2 --mode rand",
    "recognize cube --file grid.txt --m 2 --k 2 --eps 1/4 --tol 1e-9",
    "verify set --file grid.txt --m 2 --k 2 --eps 1/4 --tol=0.001",
    "construct behrend --eps 1/125 --h 2 --provider exact",
    "wnumber wnumber --k 3",
]


def _parsed(capsys, parse, argv):
    """The exit code (None: none), namespace, stdout and stderr of a parse."""
    try:
        code, namespace = None, vars(parse(argv))
    except SystemExit as exc:
        code, namespace = exc.code, None
    captured = capsys.readouterr()
    return code, namespace, captured.out, captured.err


@pytest.mark.parametrize("argv", [case[0] for case in CASES + HUGE_CASES]
                         + MALFORMED_ARGVS)
def test_cli_command_parser_reads_argv_as_the_whole_tree_does(capsys, argv):
    """The table's reader, with the tree as fallback, gives what the tree
    alone gives.  CI runs this on every supported Python, as argparse's
    behaviour differs between versions."""
    tokens = argv.split()
    assert (_parsed(capsys, cli._parse, tokens)
            == _parsed(capsys, cli.build_parser().parse_args, tokens))


# option values by type: those its type takes, then those it refuses or
# the fast path leaves to the tree
_VALUES = {
    int: (["0", "3", "12", "1_0"], ["-1", "-40", "x", "", "2.5"]),
    cli._parse_eps: (["1/3", "1/10", "2"], ["-1/4", "0", "0.25", "1/0", "x"]),
    str: (["1,3,6", "grid.txt", "a b", "x=y"], ["", "-", "-1,3"]),
}
_STRAYS = ["-h", "--help", "--", "extra", "--frob", "-1", "--json=1", "--format="]


_FAULTS = ("drop", "repeat", "abbreviate", "bad", "missing", "stray", "word")


@st.composite
def _command_argvs(draw):
    """An argv for a command of the table.  It starts well formed: every
    required option and up to three others, in any order, as `--opt value`
    or `--opt=value` with values the types take.  Then up to two faults are
    made in it: an option dropped or repeated, a name abbreviated, a value
    the type refuses or that starts with "-", a value or the last command
    word left out, a flag given a value, or a stray token added."""
    command = draw(st.sampled_from(cli.COMMANDS))

    def given(option, bad=False):
        """[option, name, value, form]; form is " " or "=", value None for none."""
        if option.const is not None:
            return [option, option.name, "x" if bad else None, "="]
        good, refused = _VALUES[option.type]
        return [option, option.name, draw(st.sampled_from(refused if bad else good)),
                draw(st.sampled_from(" ="))]

    optional = [o for o in command.options if not o.required]
    options = [o for o in command.options if o.required]
    options += draw(st.lists(st.sampled_from(optional), max_size=3, unique=True))
    groups = [given(o) for o in draw(st.permutations(options))]
    strays = []
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        at = draw(st.integers(0, len(groups)))
        if fault == "repeat":
            groups.insert(at, given(draw(st.sampled_from(command.options))))
        elif fault in ("stray", "word"):
            strays.append(fault)
        elif at < len(groups):
            group = groups[at]
            if fault == "drop":
                del groups[at]
            elif fault == "abbreviate":
                group[1] = group[1][:-1]  # a prefix, or "--" itself
            elif fault == "missing":
                group[2] = None
            else:
                group[2:] = given(group[0], bad=True)[2:]
    tokens = list(command.words)
    for _, name, value, form in groups:
        tokens += ([name] if value is None else [name, value] if form == " "
                   else [f"{name}={value}"])
    for fault in strays:
        if fault == "stray":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_STRAYS)))
        elif len(command.words) == 2:
            del tokens[1]
    return tokens


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=_command_argvs())
def test_cli_command_parser_reads_generated_argv_as_the_whole_tree_does(capsys, tokens):
    """As above, over generated calls of every command in the table: the
    table's reader takes the well-formed ones, and the tree the rest."""
    assert (_parsed(capsys, cli._parse, tokens)
            == _parsed(capsys, cli.build_parser().parse_args, tokens))


def _readme_cli_lines() -> list:
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    return readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_lines_parse(line):
    """Every call the README shows names a command and only options it takes."""
    assert line.startswith("epsap ")
    try:
        args = cli._parse(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")
    assert callable(args.handler)


# ---------------------------------------------------------------------------
# Repeated calls in one process (the parser is built once and shared)
# ---------------------------------------------------------------------------

def test_cli_call_after_a_usage_error_matches_a_fresh_process(capsys):
    code, out, err = run_cli(capsys, "recognize", "ap", "--points", "1,3,6")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    argv = ["recognize", "ap", "--points", "1,3,6", "--eps", "1/3", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "epsap", *argv], capture_output=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert (code, out.encode()) == (fresh.returncode, fresh.stdout)


def test_cli_json_does_not_carry_over_to_the_next_call(capsys):
    argv = ("recognize", "ap", "--points", "1,3,6", "--eps", "1/3")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["accepted"] is True
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines() == ["accepted", "a = 3/4", "d = 5/2",
                                              "margin = 7/12"]


def test_cli_left_out_options_take_their_defaults(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(formats.write_set(
        [(10 * a + 1, 10 * b + 2) for a in range(2) for b in range(2)]))
    cube = ("recognize", "cube", "--file", str(path), "--m", "2", "--k", "2",
            "--eps", "1/4", "--json")
    _, out, _ = run_cli(capsys, *cube)
    assert json.loads(out)["witness"]["tol"] == repr(geometry.DEFAULT_TOL) == "1e-09"
    density = ("density", "--N", "12", "--k", "3", "--eps", "1/10", "--json")
    code, out, _ = run_cli(capsys, *density, "--work-cap", "5")
    assert (code, json.loads(out)["kind"]) == (1, "lower_bound_only")
    code, out, _ = run_cli(capsys, *density)
    payload = json.loads(out)
    assert (code, payload["kind"], payload["value"]) == (0, "value", 6)


def test_cli_recognizes_a_1024_point_grid(tmp_path):
    # k^m = 1024 points is beyond the interpreter's recursion limit
    rng = random.Random(9)
    path = tmp_path / "grid.txt"
    path.write_text(formats.write_set(
        [(1000 * a + rng.randint(-60, 60), 1000 * b + rng.randint(-60, 60))
         for a in range(32) for b in range(32)]))
    done = subprocess.run(
        [sys.executable, "-m", "epsap", "recognize", "cube", "--file", str(path),
         "--m", "2", "--k", "32", "--eps", "1/5", "--json"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["status"] == "feasible" and payload["witness"]["certified"] is True


def test_cli_finds_the_cube_of_a_32x32_lattice(tmp_path):
    # the cube search fills k^m = 1024 slots, beyond the recursion limit
    path = tmp_path / "lattice.txt"
    path.write_text(formats.write_set([(7 * a, 7 * b)
                                       for a in range(32) for b in range(32)]))
    done = subprocess.run(
        [sys.executable, "-m", "epsap", "verify", "set", "--file", str(path),
         "--m", "2", "--k", "32", "--eps", "1/5", "--json"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["free"] is False
    assert payload["witness"]["witness"]["certified"] is True


def test_cli_density_deep_exact_aps_is_capped_not_crashed(capsys):
    code, out, err = run_cli(capsys, "density", "--N", "1200", "--k", "3",
                             "--exact-aps", "--work-cap", "3000", "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["kind"] == "lower_bound_only"
    assert payload["nodes"] == 3000  # the cap, not one node past it
    assert not has_exact_ap(payload["witness_set"], 3)


# run_cli drains capsys on every call, so sharing the fixture is safe
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("density", "hypergraph")),
       n=st.one_of(st.integers(-1, 24), st.just(1200)), m=st.integers(0, 3),
       k=st.integers(1, 5), exact_aps=st.booleans(),
       cap=st.sampled_from((-1, 0, 1, 40, 3000)),
       eps=st.sampled_from((None, "1/10", "1/6", "1/4", "1/2", "2", "0", "x")))
@example(command="density", n=1200, m=1, k=3, exact_aps=True, cap=3000, eps=None)
@example(command="density", n=1200, m=1, k=3, exact_aps=False, cap=3000, eps="1/10")
def test_cli_density_and_hypergraph_fuzz(capsys, command, n, m, k, exact_aps,
                                         cap, eps):
    """Exit 0, 1 or 2, never an uncaught exception, and exit 2 in one line.

    Cube searches (m >= 2) stay inside [3]^m and the deep N = 1200 runs use
    k >= 3, so that every example is cheap; the cap bounds the rest.
    """
    if n == 1200:
        k = max(k, 3)
    argv = [command, "--N", str(n), "--k", str(k), "--work-cap", str(cap), "--json"]
    if eps is not None:
        argv += ["--eps", eps]
    if command == "density":
        if m != 1:
            argv[2] = str(min(n, 3))
            argv += ["--m", str(m)]
        if exact_aps:
            argv.append("--exact-aps")
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.count("\n") == 1, (argv, err)


# Progressions of 1050 terms are deeper than the interpreter's recursion
# limit; every 1-D search runs on an explicit stack.
def test_cli_hypergraph_of_deep_k(capsys):
    code, out, err = run_cli(capsys, "hypergraph", "--N", "1050", "--k", "1050",
                             "--eps", "1/3", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["edges"] == [list(range(1, 1051))]


def test_cli_wnumber_of_deep_k(capsys):
    code, out, err = run_cli(capsys, "wnumber", "--k", "1050", "--r", "1",
                             "--eps", "1/3", "--nmax", "1050", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["kind"], payload["value"]) == ("value", 1050)


def test_cli_verify_set_of_deep_k(tmp_path, capsys):
    path = tmp_path / "line.txt"
    path.write_text(formats.write_set([(x,) for x in range(1, 1101)]))
    code, out, err = run_cli(capsys, "verify", "set", "--file", str(path),
                             "--m", "1", "--k", "1050", "--eps", "1/3", "--json")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["witness"]["points"] == list(range(1, 1051))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("recognize cube", "verify set", "verify coloring",
                                "construct lowerbound")),
       m=st.integers(1, 3), k=st.sampled_from((1, 2, 3, 1050)),
       r=st.sampled_from((1, 2, 200, 10 ** 4)),
       eps=st.sampled_from(("1/4", "1/1000", "1/10000", "1/0", "0/0", "0", "x",
                            "1/" + "9" * 400)),
       tol=st.none() | st.sampled_from(("1e-9", "0.5", "nan", "-inf", "-1", "x")))
@example(command="recognize cube", m=2, k=2, r=1, eps="1/4", tol=None)
@example(command="recognize cube", m=2, k=2, r=1, eps="1/4", tol="1e-9")
@example(command="verify set", m=2, k=2, r=1, eps="1/4", tol="-inf")
@example(command="verify coloring", m=1, k=3, r=2, eps="1/0", tol=None)
@example(command="construct lowerbound", m=1, k=10, r=200, eps="1/1000", tol=None)
def test_cli_files_and_constructions_fuzz(tmp_path, capsys, command, m, k, r,
                                          eps, tol):
    """Bad headers and level parameters: exit 0, 1 or 2, never an uncaught
    exception, and exit 2 in one line.  A stray --tol, which no command
    takes (the cube tolerance is fixed), always ends in a one-line exit 2.

    The files are a 2x2 grid, the line 1..1100 and a 3-point coloring, so
    every example is cheap; k = 1050 reaches past the recursion limit.
    """
    if command == "construct lowerbound":
        argv = ["construct", "lowerbound", "--k", str(k), "--r", str(r),
                "--eps", eps, "--params-only", "--json"]
    elif command == "verify coloring":
        path = tmp_path / "coloring.txt"
        path.write_text(f"# N=3 r={r} eps={eps} k={k}\n1\n2\n1\n")
        argv = ["verify", "coloring", "--file", str(path), "--json"]
    else:
        path = tmp_path / "points.txt"
        path.write_text(formats.write_set(
            [(x,) for x in range(1, 1101)] if m == 1
            else [(10 * a, 10 * b) for a in range(2) for b in range(2)]))
        argv = [*command.split(), "--file", str(path), "--m", str(m), "--k", str(k),
                "--eps", eps, "--json"]
    if tol is not None:
        argv += ["--tol", tol]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2) if tol is None else code == 2, argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.count("\n") == 1, (argv, err)
    else:
        assert len(out.splitlines()) == 1, argv
