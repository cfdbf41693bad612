"""Bit-exact text formats for sets, colorings, hypergraphs, and JSON witnesses.

SET        optional '#' comment lines, then one point per line as m
           whitespace-separated base-10 integers, sorted lexicographically,
           newline-terminated.  Read and written; the writer adds no
           comments.
COLORING   header '# N=<N> r=<r> eps=<p>/<q> k=<k>', then N lines, line i
           holding the color of integer i.  Read and written.
HYPERGRAPH header '# N=<N> k=<k> eps=<p>/<q>', then one edge per line as k
           sorted integers.  Written only, for external solvers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .colorings import Coloring
from .geometry import DEFAULT_TOL, Witness1D, WitnessMD, check_points, to_fraction

__all__ = [
    "write_set",
    "read_set",
    "write_coloring",
    "read_coloring",
    "write_hypergraph",
    "fraction_json",
    "witness1d_json",
    "witness_md_json",
    "eps_header",
]


def eps_header(eps) -> str:
    e = to_fraction(eps)
    return f"{e.numerator}/{e.denominator}"


def write_set(points) -> str:
    """The SET file of the points, one line each, in sorted order."""
    rows = sorted(tuple(p) for p in points)
    return "\n".join(" ".join(str(c) for c in row) for row in rows) + "\n"


def read_set(text: str, m: int) -> tuple:
    """The validated m-D points of a SET file (geometry.check_points), with
    its '#' comment lines and blank lines skipped; m < 1 is refused before
    any line is read.

    The file is read in one pass: each line is split once, and when every
    point line holds m tokens, all tokens go through int together and are
    grouped into points.  Only a file that fails this is read again line by
    line, for the message naming its first bad line or point."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    rows = list(filter(None, map(str.split, text.splitlines())))
    if "#" in text:
        rows = [row for row in rows if not row[0].startswith("#")]
    if all(map(m.__eq__, map(len, rows))):
        try:
            coords = list(map(int, chain.from_iterable(rows)))
        except ValueError:
            pass
        else:
            return check_points(list(zip(*[iter(coords)] * m)), m)
    return _read_set_lines(text, m)


def _read_set_lines(text: str, m: int) -> tuple:
    """read_set one line at a time, raising on its first bad line: a token
    that is no integer, then a point of the wrong dimension."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise ValueError(f"set file line {ln}: {raw!r} is not integers") from exc
        rows.append(row)
    return check_points(rows, m)


def _read_header(lines, kind: str, fields: dict) -> list:
    """The values of a '# key=value ...' first line, converted per `fields`
    (key -> type) and in its order; any missing or bad one is a one-line
    ValueError naming the header."""
    if not lines or not lines[0].startswith("#"):
        first, second = list(fields)[:2]
        raise ValueError(f"{kind} file must start with its "
                         f"'# {first}=.. {second}=..' header")
    found = {}
    for tok in lines[0].lstrip("#").split():
        key, _, val = tok.partition("=")
        found[key] = val
    try:
        return [convert(found[key]) for key, convert in fields.items()]
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind} header: {lines[0]!r}") from exc


def write_coloring(coloring, eps, k: int) -> str:
    head = f"# N={coloring.N} r={coloring.r} eps={eps_header(eps)} k={k}"
    body = "\n".join(str(coloring.color(x)) for x in range(1, coloring.N + 1))
    return head + ("\n" + body if coloring.N else "") + "\n"


def read_coloring(text: str):
    """Returns (Coloring, eps, k)."""
    lines = text.splitlines()
    n, r, eps, k = _read_header(lines, "coloring",
                                {"N": int, "r": int, "eps": Fraction, "k": int})
    colors = []
    for ln, raw in enumerate(lines[1:], start=2):
        if raw.strip():
            try:
                colors.append(int(raw))
            except ValueError as exc:
                raise ValueError(f"coloring file line {ln}: {raw!r} "
                                 "is not an integer") from exc
    if len(colors) != n:
        raise ValueError(f"coloring header says N={n} but file has {len(colors)} colors")
    return Coloring(N=n, r=r, colors=colors), eps, k


def write_hypergraph(h) -> str:
    head = f"# N={h.N} k={h.k} eps={eps_header(h.eps)}"
    body = "\n".join(" ".join(str(x) for x in edge) for edge in h.edges)
    return head + ("\n" + body if h.edges else "") + "\n"


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def witness1d_json(w: Witness1D) -> dict:
    return {
        "a": fraction_json(w.a),
        "d": fraction_json(w.d),
        "margin": fraction_json(w.margin),
    }


def witness_md_json(w: WitnessMD) -> dict:
    """A feasible cube verdict's witness; recognize_cube certified it.  "tol"
    records the recognizer's fixed tolerance, geometry.DEFAULT_TOL."""
    return {
        "a": [repr(c) for c in w.a],
        "d": repr(w.d),
        "residual": repr(w.residual),
        "tol": repr(DEFAULT_TOL),
        "certified": True,
    }
