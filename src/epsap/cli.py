"""Command-line front end.

Exit codes: 0 = found / true / value computed, 1 = not found / false,
2 = usage or runtime error.  The one randomized mode (translate) is pinned
by its --seed and JSON output carries no timing, so identical invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import colorings, density, formats, geometry, search
from .errors import MemoryGuardExceeded, SearchCapExceeded
from .rational import format_fraction

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


def _emit(args, payload: dict, text_lines, csv_lines) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "csv":
        for row in csv_lines:
            sys.stdout.write(row + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Command handlers (each returns the exit code)
# ---------------------------------------------------------------------------

def _cmd_recognize_ap(args) -> int:
    witness = geometry.recognize_ap(_parse_points(args.points), args.eps)
    accepted = witness is not None
    payload = {
        "command": "recognize ap",
        "accepted": accepted,
        "witness": formats.witness1d_json(witness) if accepted else None,
    }
    if accepted:
        text = [
            "accepted",
            f"a = {format_fraction(witness.a)}",
            f"d = {format_fraction(witness.d)}",
            f"margin = {format_fraction(witness.margin)}",
        ]
        csv = [f"accepted,{format_fraction(witness.a)},"
               f"{format_fraction(witness.d)},{format_fraction(witness.margin)}"]
    else:
        text = ["rejected"]
        csv = ["rejected,,,"]
    _emit(args, payload, text, csv)
    return 0 if accepted else 1


def _cmd_recognize_cube(args) -> int:
    points = formats.read_set(_read_text(args.file), m=args.m)
    grid = geometry.index_grid_points(points, args.m, args.k, args.eps)
    decision = geometry.recognize_cube(grid, args.eps, tol=args.tol)
    feasible = decision.status == "feasible"
    payload = {
        "command": "recognize cube",
        "status": decision.status,
        "exact": decision.exact,
        "witness": formats.witness_md_json(
            decision.witness, args.tol,
            decision.exact or decision.witness.certifies(grid, args.eps))
        if feasible else None,
    }
    text = [decision.status]
    if feasible:
        text.append(f"d = {decision.witness.d!r}")
        text.append(f"residual = {decision.witness.residual!r}")
    csv = [f"{decision.status},"
           f"{decision.witness.d if feasible else ''},"
           f"{decision.witness.residual if feasible else ''}"]
    _emit(args, payload, text, csv)
    return 0 if feasible else 1


def _cmd_construct_blowup(args) -> int:
    spec = colorings.build_blowup_1d(args.k, args.r, args.eps, cap=args.cap)
    elements = spec.one_based() if args.one_based else spec.elements
    payload = {
        "command": "construct blowup",
        "k": spec.k, "r": spec.r, "t": spec.t,
        "diameter": spec.diameter,
        "elements": list(elements),
    }
    text = [f"t = {spec.t}", f"size = {len(elements)}", f"diameter = {spec.diameter}",
            " ".join(str(e) for e in elements)]
    csv = [str(e) for e in elements]
    _emit(args, payload, text, csv)
    return 0


def _cmd_construct_alternate(args) -> int:
    lab = colorings.build_alternate_labeling(args.r, args.D, args.t, args.offset)
    labels = lab.labels()
    payload = {
        "command": "construct alternate",
        "r": lab.r, "D": lab.D, "t": lab.t, "offset": lab.offset,
        "labels": list(labels),
    }
    text = [" ".join(f"{v:+d}" for v in labels)]
    csv = [",".join(str(v) for v in labels)]
    _emit(args, payload, text, csv)
    return 0


def _coloring_output(args, coloring, eps, k, command: str) -> int:
    body = formats.write_coloring(coloring, eps, k)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        note = f"wrote coloring of [{coloring.N}] to {args.out}"
        _emit(args, {"command": command, "N": coloring.N, "r": coloring.r,
                     "out": args.out}, [note], [note])
    else:
        if args.format == "json":
            _emit(args, {"command": command, "N": coloring.N, "r": coloring.r,
                         "colors": coloring.to_list()}, [], [])
        else:
            sys.stdout.write(body)
    return 0


def _cmd_construct_simple_r2(args) -> int:
    coloring = colorings.build_simple_r2_coloring(args.k)
    return _coloring_output(args, coloring, args.eps, args.k, "construct simple-r2")


def _cmd_construct_lowerbound(args) -> int:
    params = colorings.lower_bound_params(args.k, args.r, args.eps, eps0=args.eps0)
    if args.params_only:
        schedule = []
        node = params
        while node is not None:
            schedule.append({"r": node.r, "k": node.k, "s": node.s, "w": node.w,
                             "t": node.t, "blocks": list(node.blocks),
                             "n0": node.n0, "n1": node.n1})
            node = node.child
        payload = {"command": "construct lowerbound", "params": schedule}
        text = [f"level r={lvl['r']}: k={lvl['k']} s={lvl['s']} w={lvl['w']} "
                f"t={lvl['t']} blocks={lvl['blocks']} n1={lvl['n1']}"
                for lvl in schedule]
        csv = [f"{lvl['r']},{lvl['k']},{lvl['s']},{lvl['w']},{lvl['t']},{lvl['n1']}"
               for lvl in schedule]
        _emit(args, payload, text, csv)
        return 0
    coloring = colorings.build_lower_bound_coloring(
        args.k, args.r, args.eps, eps0=args.eps0, dense=True, cap=args.cap)
    return _coloring_output(args, coloring, args.eps, args.k, "construct lowerbound")


def _cmd_construct_behrend(args) -> int:
    provider = density.ApkFreeProvider(mode=args.provider)
    spec, members = density.build_behrend_digit_set(
        args.eps, args.h, args.k, provider, one_based=args.one_based)
    payload = {
        "command": "construct behrend",
        "q": spec.q, "h": spec.h, "k": spec.k,
        "head": list(spec.head), "tail": list(spec.tail),
        "size": len(members), "elements": list(members),
    }
    text = [f"q = {spec.q}", f"head = {list(spec.head)}", f"tail = {list(spec.tail)}",
            f"size = {len(members)}", " ".join(str(x) for x in members)]
    csv = [str(x) for x in members]
    _emit(args, payload, text, csv)
    return 0


def _cmd_construct_cube_blowup(args) -> int:
    spec = density.build_cube_blowup(args.m, args.k, args.eps, args.alpha,
                                     cap=args.cap)
    payload = {
        "command": "construct cube-blowup",
        "m": spec.m, "k": spec.k, "r": spec.r, "t": spec.t,
        "n0_bound": spec.n0_bound, "size": len(spec.elements),
        "elements": [list(p) for p in spec.elements],
    }
    set_text = formats.write_set(spec.elements)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(set_text)
        line = f"wrote {len(spec.elements)} points to {args.out} (r={spec.r}, t={spec.t})"
        _emit(args, payload, [line], [line])
    else:
        text = [f"r = {spec.r}", f"t = {spec.t}", f"n0_bound = {spec.n0_bound}"]
        text.extend(set_text.splitlines())
        csv = [",".join(str(c) for c in p) for p in spec.elements]
        _emit(args, payload, text, csv)
    return 0


def _cmd_construct_product(args) -> int:
    a_rows = formats.read_set(_read_text(args.set), m=1)
    product_set = density.product_free_set([r[0] for r in a_rows], args.m, args.N)
    payload = {
        "command": "construct product",
        "m": args.m, "N": args.N, "size": len(product_set),
        "elements": [list(p) for p in product_set],
    }
    set_text = formats.write_set(product_set)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(set_text)
        line = f"wrote {len(product_set)} points to {args.out}"
        _emit(args, payload, [line], [line])
    else:
        csv = [",".join(str(c) for c in p) for p in product_set]
        _emit(args, payload, set_text.splitlines(), csv)
    return 0


def _cmd_verify_coloring(args) -> int:
    coloring, eps, k = formats.read_coloring(_read_text(args.file))
    if args.eps is not None:
        eps = args.eps
    if args.k is not None:
        k = args.k
    hit = colorings.verify_no_mono_ap(coloring, k, eps)
    good = hit is None
    payload = {
        "command": "verify coloring",
        "free_of_monochromatic_ap": good,
        "witness": None if good else {
            "color": hit.color,
            "points": list(hit.points),
            "witness": formats.witness1d_json(hit.witness),
        },
    }
    if good:
        text = ["good: no monochromatic approximate progression"]
        csv = ["good"]
    else:
        text = [f"monochromatic: color {hit.color} on {list(hit.points)}"]
        csv = [f"monochromatic,{hit.color}," + " ".join(map(str, hit.points))]
    _emit(args, payload, text, csv)
    return 0 if good else 1


def _cmd_verify_set(args) -> int:
    points = formats.read_set(_read_text(args.file), m=args.m)
    if args.m == 1:
        hit = search.find_eps_ap_in_points(tuple(p[0] for p in points),
                                           args.k, args.eps)
        free = hit is None
        witness_payload = None if free else {
            "points": list(hit[0]),
            "witness": formats.witness1d_json(hit[1]),
        }
        found_str = "" if free else str(list(hit[0]))
    else:
        hit = density.verify_cube_free(points, args.m, args.k, args.eps,
                                       tol=args.tol)
        free = hit is None
        witness_payload = None if free else {
            "grid": {str(v): list(p) for v, p in hit[0].items_in_index_order()},
            "witness": formats.witness_md_json(
                hit[1], args.tol, hit[1].certifies(hit[0], args.eps)),
        }
        found_str = "" if free else str([p for _, p in hit[0].items_in_index_order()])
    payload = {
        "command": "verify set",
        "free": free,
        "witness": witness_payload,
    }
    text = ["free" if free else f"contains approximate structure: {found_str}"]
    csv = ["free" if free else "contains"]
    _emit(args, payload, text, csv)
    return 0 if free else 1


def _cmd_wnumber(args) -> int:
    outcome = search.exact_W(args.k, args.r, args.eps, args.nmax,
                             work_cap=args.work_cap)
    payload = {
        "command": "wnumber",
        "kind": outcome.kind,
        "value": outcome.value,
        "nodes": outcome.nodes,
        "witness_coloring": outcome.witness.to_list(),
    }
    text = [f"{outcome.kind} {outcome.value}",
            f"good coloring of [{outcome.witness.N}]: {outcome.witness.to_list()}"]
    csv = [f"{outcome.kind},{outcome.value}"]
    _emit(args, payload, text, csv)
    return 0 if outcome.kind == "value" else 1


def _cmd_density(args) -> int:
    if args.exact_aps:
        outcome = search.max_exact_ap_free(args.N, args.k, work_cap=args.work_cap)
    else:
        outcome = search.exact_f(args.N, args.m, args.k, args.eps,
                                 work_cap=args.work_cap)
    witness = [list(p) if isinstance(p, tuple) else p for p in outcome.witness]
    payload = {
        "command": "density",
        "kind": outcome.kind,
        "value": outcome.value,
        "nodes": outcome.nodes,
        "witness_set": witness,
    }
    text = [f"{outcome.kind} {outcome.value}", f"witness: {list(outcome.witness)}"]
    csv = [f"{outcome.kind},{outcome.value}"]
    _emit(args, payload, text, csv)
    return 0 if outcome.kind == "value" else 1


def _cmd_hypergraph(args) -> int:
    h = search.enumerate_eps_aps(args.N, args.k, args.eps, work_cap=args.work_cap)
    body = formats.write_hypergraph(h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    payload = {
        "command": "hypergraph",
        "N": h.N, "k": h.k,
        "edge_count": len(h.edges),
        "edges": [list(e) for e in h.edges],
    }
    if args.format == "json":
        _emit(args, payload, [], [])
    elif args.format == "csv":
        _emit(args, payload, [], [",".join(map(str, e)) for e in h.edges])
    elif not args.out:
        sys.stdout.write(body)
    else:
        sys.stdout.write(f"wrote {len(h.edges)} edges to {args.out}\n")
    return 0


def _cmd_translate(args) -> int:
    a_pts = formats.read_set(_read_text(args.set_a), m=args.m)
    x_pts = formats.read_set(_read_text(args.set_x), m=args.m)
    result = density.find_dense_translate(a_pts, x_pts, args.N, args.m,
                                          mode=args.mode, seed=args.seed)
    met = Fraction(result.count) >= result.bound
    payload = {
        "command": "translate",
        "shift": list(result.shift),
        "count": result.count,
        "bound": {"num": result.bound.numerator, "den": result.bound.denominator},
        "mode": result.mode,
        "bound_met": met,
    }
    text = [f"shift = {list(result.shift)}",
            f"count = {result.count} (bound {result.bound})"]
    csv = [",".join(map(str, result.shift)) + f",{result.count}"]
    _emit(args, payload, text, csv)
    return 0 if met else 1


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
    in the same process (parse_args fills a fresh namespace each time)."""
    parser = _Parser(
        prog="epsap",
        description="Recognize, construct, and exactly measure approximate "
                    "arithmetic progressions and cubes.")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="decide approximate structure")
    rec_sub = rec.add_subparsers(dest="what", required=True)
    p = rec_sub.add_parser("ap", help="1-D recognizer (exact)")
    p.add_argument("--points", required=True, help="comma-separated integers, increasing")
    p.add_argument("--eps", type=_parse_eps, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_recognize_ap)
    p = rec_sub.add_parser(
        "cube",
        help="m-D recognizer (numeric); needs eps < 1/2 to recover the grid "
             "indexing from an unordered file, use `verify set` otherwise")
    p.add_argument("--file", required=True, help="SET file with k^m points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(handler=_cmd_recognize_cube)

    con = sub.add_parser("construct", help="build the explicit objects")
    con_sub = con.add_subparsers(dest="what", required=True)
    p = con_sub.add_parser("blowup", help="iterated 1-D blow-up")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--cap", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_blowup)
    p = con_sub.add_parser("alternate", help="periodic +-1 block labeling")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_alternate)
    p = con_sub.add_parser("simple-r2", help="two-color block coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True,
                   help="recorded in the coloring header for later verification")
    p.add_argument("--out", help="write COLORING file here instead of stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_simple_r2)
    p = con_sub.add_parser("lowerbound", help="recursive lower-bound coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--eps0", type=_parse_eps, default=colorings.DEFAULT_EPS0)
    p.add_argument("--cap", type=int, default=colorings.DEFAULT_MATERIALIZE_CAP)
    p.add_argument("--params-only", action="store_true",
                   help="print the parameter schedule without building")
    p.add_argument("--out", help="write COLORING file here instead of stdout")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_lowerbound)
    p = con_sub.add_parser("behrend", help="base-q digit set")
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--provider", default="auto",
                   choices=("auto", "exact", "behrend3", "greedy"))
    p.add_argument("--one-based", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_behrend)
    p = con_sub.add_parser("cube-blowup", help="iterated m-D blow-up")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--alpha", type=_parse_eps, required=True,
                   help="density threshold as an exact rational p/q")
    p.add_argument("--cap", type=int, default=200_000)
    p.add_argument("--out", help="write SET file here")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_cube_blowup)
    p = con_sub.add_parser("product", help="A x [N]^(m-1)")
    p.add_argument("--set", required=True, help="SET file holding A (one column)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", help="write SET file here")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_product)

    ver = sub.add_parser("verify", help="check built objects")
    ver_sub = ver.add_subparsers(dest="what", required=True)
    p = ver_sub.add_parser("coloring", help="coloring free of monochromatic hits?")
    p.add_argument("--file", required=True, help="COLORING file")
    p.add_argument("--k", type=int, help="override the header k")
    p.add_argument("--eps", type=_parse_eps, help="override the header eps")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_coloring)
    p = ver_sub.add_parser("set", help="set free of approximate structure?")
    p.add_argument("--file", required=True, help="SET file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_set)

    p = sub.add_parser("wnumber", help="least forcing N, exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--work-cap", type=int, default=search.DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_wnumber)

    p = sub.add_parser("density", help="largest free subset, exactly")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps,
                   help="omit together with --exact-aps for the exact-progression case")
    p.add_argument("--exact-aps", action="store_true",
                   help="measure exact progressions instead (m=1 only)")
    p.add_argument("--work-cap", type=int, default=search.DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("hypergraph", help="enumerate all approximate progressions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True)
    p.add_argument("--out", help="write HYPERGRAPH file here")
    p.add_argument("--work-cap", type=int, default=search.DEFAULT_WORK_CAP)
    _add_common(p)
    p.set_defaults(handler=_cmd_hypergraph)

    p = sub.add_parser("translate", help="dense translate of a configuration")
    p.add_argument("--set-a", required=True, help="SET file for A")
    p.add_argument("--set-x", required=True, help="SET file for X")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", default="auto",
                   choices=("auto", "deterministic", "randomized"))
    p.add_argument("--seed", type=int, default=0, help="seed for --mode randomized")
    _add_common(p)
    p.set_defaults(handler=_cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "density":
        if not args.exact_aps and args.eps is None:
            sys.stderr.write("error: density needs --eps unless --exact-aps is given\n")
            return 2
        if args.exact_aps and args.m != 1:
            sys.stderr.write("error: --exact-aps only applies to m=1\n")
            return 2
    try:
        return args.handler(args)
    except (ValueError, TypeError, OSError, MemoryGuardExceeded,
            SearchCapExceeded, geometry.IndexingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
