"""Command-line front end.

Exit codes: 0 = found / true / value computed, 1 = not found / false,
2 = usage or runtime error.  No command draws at random and JSON output
carries no timing, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import colorings, density, formats, geometry, search
from .errors import DEFAULT_WORK_CAP, MemoryGuardExceeded, SearchCapExceeded

__all__ = ["main"]


def _parse_eps(text: str) -> Fraction:
    """An exact positive rational; argparse turns a refusal into exit 2."""
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"must be an exact rational like 1/3 (got {text!r}); "
            "decimal floats are rejected to keep the arithmetic exact"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"must be an exact rational like 1/3 (got {text!r})") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {text!r})")
    return value


def _parse_points(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--points must be comma-separated integers, got {text!r}") from exc


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Command handlers.  Each returns its reply (exit code, JSON payload, text
# lines, CSV rows); main names the command in the payload and prints the one
# part that --format picks.  Rows with one per item are generators, so a view
# that is not printed is not built.
# ---------------------------------------------------------------------------

def _cmd_recognize_ap(args):
    witness = geometry.recognize_ap(_parse_points(args.points), args.eps)
    accepted = witness is not None
    payload = {
        "accepted": accepted,
        "witness": formats.witness1d_json(witness) if accepted else None,
    }
    if not accepted:
        return 1, payload, ["rejected"], ["rejected,,,"]
    a, d, margin = map(str, (witness.a, witness.d, witness.margin))
    text = ["accepted", f"a = {a}", f"d = {d}", f"margin = {margin}"]
    return 0, payload, text, [f"accepted,{a},{d},{margin}"]


def _cmd_recognize_cube(args):
    points = formats.read_set(_read_text(args.file), m=args.m)
    grid = geometry.index_grid_points(points, args.m, args.k, args.eps)
    decision = geometry.recognize_cube(grid, args.eps)
    payload = {"status": decision.status, "exact": decision.exact, "witness": None}
    if decision.status != "feasible":
        return 1, payload, [decision.status], [f"{decision.status},,"]
    payload["witness"] = formats.witness_md_json(decision.witness)
    d, residual = decision.witness.d, decision.witness.residual
    text = [decision.status, f"d = {d!r}", f"residual = {residual!r}"]
    return 0, payload, text, [f"{decision.status},{d},{residual}"]


def _cmd_construct_blowup(args):
    spec = colorings.build_blowup_1d(args.k, args.r, args.eps, cap=args.cap)
    elements = spec.one_based() if args.one_based else spec.elements
    payload = {
        "k": spec.k, "r": spec.r, "t": spec.t,
        "diameter": spec.diameter,
        "elements": list(elements),
    }
    text = [f"t = {spec.t}", f"size = {len(elements)}", f"diameter = {spec.diameter}",
            " ".join(str(e) for e in elements)]
    return 0, payload, text, (str(e) for e in elements)


def _cmd_construct_alternate(args):
    lab = colorings.build_alternate_labeling(args.r, args.D, args.t, args.offset)
    labels = lab.labels()
    payload = {
        "r": lab.r, "D": lab.D, "t": lab.t, "offset": lab.offset,
        "labels": list(labels),
    }
    text = [" ".join(f"{v:+d}" for v in labels)]
    return 0, payload, text, [",".join(str(v) for v in labels)]


def _file_reply(args, write, note, payload, head=(), csv=None):
    """A reply whose text shows the `head` lines and then a file body, and
    whose CSV is `csv` or else the body.  With --out the body is written there
    instead, and the one-line note is both views.  write() builds the body,
    only when --out or a printed view needs it."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write())
        return 0, payload, [note], [note]

    def lines():
        yield from head
        yield from write().splitlines()

    return 0, payload, lines(), lines() if csv is None else csv


def _coloring_reply(args, coloring, eps, k):
    """A COLORING file; the JSON names the --out path instead of the colors."""
    payload = {"N": coloring.N, "r": coloring.r}
    if args.out:
        payload["out"] = args.out
    else:
        payload["colors"] = coloring.to_list()
    return _file_reply(args, lambda: formats.write_coloring(coloring, eps, k),
                       f"wrote coloring of [{coloring.N}] to {args.out}", payload)


def _cmd_construct_simple_r2(args):
    coloring = colorings.build_simple_r2_coloring(args.k)
    return _coloring_reply(args, coloring, args.eps, args.k)


def _cmd_construct_lowerbound(args):
    if args.params_only and args.out:
        raise ValueError("--params-only takes no --out")
    if args.params_only and args.cap is not None:
        raise ValueError("--params-only takes no --cap")
    params = colorings.lower_bound_params(args.k, args.r, args.eps, eps0=args.eps0)
    if args.params_only:
        schedule = []
        node = params
        while node is not None:
            schedule.append({"r": node.r, "k": node.k, "s": node.s, "w": node.w,
                             "t": node.t, "blocks": list(node.blocks),
                             "n0": node.n0, "n1": node.n1})
            node = node.child
        payload = {"params": schedule}
        text = [f"level r={lvl['r']}: k={lvl['k']} s={lvl['s']} w={lvl['w']} "
                f"t={lvl['t']} blocks={lvl['blocks']} n1={lvl['n1']}"
                for lvl in schedule]
        csv = [f"{lvl['r']},{lvl['k']},{lvl['s']},{lvl['w']},{lvl['t']},{lvl['n1']}"
               for lvl in schedule]
        return 0, payload, text, csv
    cap = colorings.DEFAULT_MATERIALIZE_CAP if args.cap is None else args.cap
    coloring = colorings.build_lower_bound_coloring(
        args.k, args.r, args.eps, eps0=args.eps0, dense=True, cap=cap)
    return _coloring_reply(args, coloring, args.eps, args.k)


def _cmd_construct_behrend(args):
    spec, members = density.build_behrend_digit_set(args.eps, args.h, args.k,
                                                    one_based=args.one_based)
    payload = {
        "q": spec.q, "h": spec.h, "k": spec.k,
        "head": list(spec.head), "tail": list(spec.tail),
        "size": len(members), "elements": list(members),
    }
    text = [f"q = {spec.q}", f"head = {list(spec.head)}", f"tail = {list(spec.tail)}",
            f"size = {len(members)}", " ".join(str(x) for x in members)]
    return 0, payload, text, (str(x) for x in members)


def _set_reply(args, payload, points, head=(), detail=""):
    """A SET file, shown after the `head` lines in text and one point per
    CSV row."""
    csv = (",".join(str(c) for c in p) for p in points)
    return _file_reply(args, lambda: formats.write_set(points),
                       f"wrote {len(points)} points to {args.out}{detail}",
                       payload, head, csv)


def _cmd_construct_cube_blowup(args):
    spec = density.build_cube_blowup(args.m, args.k, args.eps, args.alpha,
                                     cap=args.cap)
    payload = {
        "m": spec.m, "k": spec.k, "r": spec.r, "t": spec.t,
        "n0_bound": spec.n0_bound, "size": len(spec.elements),
        "elements": [list(p) for p in spec.elements],
    }
    return _set_reply(args, payload, spec.elements,
                      [f"r = {spec.r}", f"t = {spec.t}", f"n0_bound = {spec.n0_bound}"],
                      f" (r={spec.r}, t={spec.t})")


def _cmd_construct_product(args):
    a_rows = formats.read_set(_read_text(args.set), m=1)
    product_set = density.product_free_set([r[0] for r in a_rows], args.m, args.N)
    payload = {
        "m": args.m, "N": args.N, "size": len(product_set),
        "elements": [list(p) for p in product_set],
    }
    return _set_reply(args, payload, product_set)


def _cmd_verify_coloring(args):
    coloring, eps, k = formats.read_coloring(_read_text(args.file))
    if args.eps is not None:
        eps = args.eps
    if args.k is not None:
        k = args.k
    hit = colorings.verify_no_mono_ap(coloring, k, eps, work_cap=args.work_cap)
    payload = {"free_of_monochromatic_ap": hit is None, "witness": None}
    if hit is None:
        return 0, payload, ["good: no monochromatic approximate progression"], ["good"]
    payload["witness"] = {
        "color": hit.color,
        "points": list(hit.points),
        "witness": formats.witness1d_json(hit.witness),
    }
    text = [f"monochromatic: color {hit.color} on {list(hit.points)}"]
    csv = [f"monochromatic,{hit.color}," + " ".join(map(str, hit.points))]
    return 1, payload, text, csv


def _cmd_verify_set(args):
    points = formats.read_set(_read_text(args.file), m=args.m)
    if args.m == 1:
        hit = search.find_eps_ap_in_points(tuple(p[0] for p in points),
                                           args.k, args.eps, work_cap=args.work_cap)
    else:
        hit = density.verify_cube_free(points, args.m, args.k, args.eps,
                                       work_cap=args.work_cap)
    payload = {"free": hit is None, "witness": None}
    if hit is None:
        return 0, payload, ["free"], ["free"]
    if args.m == 1:
        found = list(hit[0])
        payload["witness"] = {"points": found,
                              "witness": formats.witness1d_json(hit[1])}
    else:
        grid = hit[0].items_in_index_order()
        found = [p for _, p in grid]
        payload["witness"] = {
            "grid": {str(v): list(p) for v, p in grid},
            "witness": formats.witness_md_json(hit[1].witness),
        }
    return 1, payload, [f"contains approximate structure: {found}"], ["contains"]


def _outcome_reply(outcome, witness_key: str, witness, witness_line: str):
    """An exact search's kind, value and node count; exit 0 only for a value."""
    payload = {
        "kind": outcome.kind,
        "value": outcome.value,
        "nodes": outcome.nodes,
        witness_key: witness,
    }
    text = [f"{outcome.kind} {outcome.value}", witness_line]
    csv = [f"{outcome.kind},{outcome.value}"]
    return 0 if outcome.kind == "value" else 1, payload, text, csv


def _cmd_wnumber(args):
    outcome = search.exact_W(args.k, args.r, args.eps, args.nmax,
                             work_cap=args.work_cap)
    colors = outcome.witness.to_list()
    return _outcome_reply(outcome, "witness_coloring", colors,
                          f"good coloring of [{outcome.witness.N}]: {colors}")


def _cmd_density(args):
    if not args.exact_aps and args.eps is None:
        raise ValueError("density needs --eps unless --exact-aps is given")
    if args.exact_aps and args.m != 1:
        raise ValueError("--exact-aps only applies to m=1")
    if args.exact_aps and args.eps is not None:
        raise ValueError("--exact-aps takes no --eps")
    if args.exact_aps:
        outcome = search.max_exact_ap_free(args.N, args.k, work_cap=args.work_cap)
    else:
        outcome = search.exact_f(args.N, args.m, args.k, args.eps,
                                 work_cap=args.work_cap)
    witness = [list(p) if isinstance(p, tuple) else p for p in outcome.witness]
    return _outcome_reply(outcome, "witness_set", witness,
                          f"witness: {list(outcome.witness)}")


def _cmd_hypergraph(args):
    h = search.enumerate_eps_aps(args.N, args.k, args.eps, work_cap=args.work_cap)
    payload = {
        "N": h.N, "k": h.k,
        "edge_count": len(h.edges),
        "edges": h.edges,  # json writes the edge tuples as lists
    }
    return _file_reply(args, lambda: formats.write_hypergraph(h),
                       f"wrote {len(h.edges)} edges to {args.out}", payload,
                       csv=(",".join(map(str, e)) for e in h.edges))


def _cmd_translate(args):
    a_pts = formats.read_set(_read_text(args.set_a), m=args.m)
    x_pts = formats.read_set(_read_text(args.set_x), m=args.m)
    result = density.find_dense_translate(a_pts, x_pts, args.N, args.m,
                                          work_cap=args.work_cap)
    payload = {
        "shift": list(result.shift),
        "count": result.count,
        "bound": formats.fraction_json(result.bound),
        "bound_met": True,  # find_dense_translate returns no count below it
    }
    text = [f"shift = {list(result.shift)}",
            f"count = {result.count} (bound {result.bound})"]
    csv = [",".join(map(str, result.shift)) + f",{result.count}"]
    return 0, payload, text, csv


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", help="shorthand for --format json")


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other bad input: one line, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    in the same process (parse_args fills a fresh namespace each time).

    Its `commands` maps the words of each command, such as ("recognize",
    "ap") or ("density",), to that command's own parser: the leaf of the
    tree that reads the command's options."""
    parser = _Parser(
        prog="epsap",
        description="Recognize, construct, and exactly measure approximate "
                    "arithmetic progressions and cubes.")
    parser.commands = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, *words, **kwargs):
        """Add the command named by `words` and record its parser."""
        leaf = parser.commands[words] = subparsers.add_parser(words[-1], **kwargs)
        return leaf

    rec = sub.add_parser("recognize", help="decide approximate structure")
    rec_sub = rec.add_subparsers(dest="what", required=True)
    p = add(rec_sub, "recognize", "ap", help="1-D recognizer (exact)")
    p.add_argument("--points", required=True, help="comma-separated integers, increasing")
    p.add_argument("--eps", type=_parse_eps, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_recognize_ap)
    p = add(
        rec_sub, "recognize", "cube",
        help="m-D recognizer (numeric); needs eps < 1/2 to recover the grid "
             "indexing from an unordered file, use `verify set` otherwise")
    p.add_argument("--file", required=True, help="SET file with k^m points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_recognize_cube)

    con = sub.add_parser("construct", help="build the explicit objects")
    con_sub = con.add_subparsers(dest="what", required=True)
    p = add(con_sub, "construct", "blowup", help="iterated 1-D blow-up")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--cap", type=int, default=colorings.BLOWUP_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_blowup)
    p = add(con_sub, "construct", "alternate", help="periodic +-1 block labeling")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_alternate)
    p = add(con_sub, "construct", "simple-r2", help="two-color block coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True,
                   help="recorded in the coloring header for later verification")
    p.add_argument("--out", help="write COLORING file here instead of stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_simple_r2)
    p = add(con_sub, "construct", "lowerbound", help="recursive lower-bound coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--eps0", type=_parse_eps, default=colorings.DEFAULT_EPS0)
    p.add_argument("--cap", type=int,
                   help="most colors to build (default "
                        f"{colorings.DEFAULT_MATERIALIZE_CAP}); not with --params-only")
    p.add_argument("--params-only", action="store_true",
                   help="print the parameter schedule without building")
    p.add_argument("--out", help="write COLORING file here instead of stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_lowerbound)
    p = add(con_sub, "construct", "behrend", help="base-q digit set")
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--one-based", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_behrend)
    p = add(con_sub, "construct", "cube-blowup", help="iterated m-D blow-up")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--alpha", type=_parse_eps, required=True,
                   help="density threshold as an exact rational p/q")
    p.add_argument("--cap", type=int, default=density.CUBE_BLOWUP_CAP)
    p.add_argument("--out", help="write SET file here")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_cube_blowup)
    p = add(con_sub, "construct", "product", help="A x [N]^(m-1)")
    p.add_argument("--set", required=True, help="SET file holding A (one column)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", help="write SET file here")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_product)

    ver = sub.add_parser("verify", help="check built objects")
    ver_sub = ver.add_subparsers(dest="what", required=True)
    p = add(ver_sub, "verify", "coloring", help="coloring free of monochromatic hits?")
    p.add_argument("--file", required=True, help="COLORING file")
    p.add_argument("--k", type=int, help="override the header k")
    p.add_argument("--eps", type=_parse_eps, help="override the header eps")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP,
                   help="cap on the search nodes over all color classes")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_coloring)
    p = add(ver_sub, "verify", "set", help="set free of approximate structure?")
    p.add_argument("--file", required=True, help="SET file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP,
                   help="cap on the search nodes")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_set)

    p = add(sub, "wnumber", help="least forcing N, exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_wnumber)

    p = add(sub, "density", help="largest free subset, exactly")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps,
                   help="omit together with --exact-aps for the exact-progression case")
    p.add_argument("--exact-aps", action="store_true",
                   help="measure exact progressions instead (m=1 only)")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_density)

    p = add(sub, "hypergraph", help="enumerate all approximate progressions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--out", help="write HYPERGRAPH file here")
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP,
                   help="cap on the search nodes plus the listed edges")
    _add_common(p)
    p.set_defaults(handler=_cmd_hypergraph)

    p = add(sub, "translate", help="dense translate of a configuration")
    p.add_argument("--set-a", required=True, help="SET file for A")
    p.add_argument("--set-x", required=True, help="SET file for X")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_translate)

    return parser


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed by its command's own parser, with `command` and `what`
    set as the tree's subparsers set them.  The whole tree parses argv only
    when its first words name no command or the command's parser leaves
    arguments over, so help, unknown commands and stray arguments are
    reported by the tree, as a single parser would report them."""
    parser = build_parser()
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = parser.commands.get(words)
        if leaf is None:
            continue
        args, rest = leaf.parse_known_args(argv[len(words):])
        if rest:
            break
        args.command = words[0]
        if len(words) == 2:
            args.what = words[1]
        return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  A call is parsed by its command's own parser, and by the
    whole parser tree only for help and usage errors; the parsers are built
    on the first call and reused."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text, csv = args.handler(args)
        if args.format == "json":
            words = (args.command, getattr(args, "what", None))
            payload["command"] = " ".join(w for w in words if w)
            lines = [json.dumps(payload, sort_keys=True)]
        else:
            lines = csv if args.format == "csv" else text
        sys.stdout.write("".join(line + "\n" for line in lines))
    except (ValueError, TypeError, OSError, MemoryGuardExceeded,
            SearchCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
