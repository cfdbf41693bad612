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
from typing import Any, Callable, NamedTuple, Optional

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
# lines); main names the command in the payload and prints it as JSON with
# --json, else the text.  A file body's text lines are a generator, so under
# --json they are not built.
# ---------------------------------------------------------------------------

def _cmd_recognize_ap(args):
    witness = geometry.recognize_ap(_parse_points(args.points), args.eps)
    accepted = witness is not None
    payload = {
        "accepted": accepted,
        "witness": formats.witness1d_json(witness) if accepted else None,
    }
    if not accepted:
        return 1, payload, ["rejected"]
    return 0, payload, ["accepted", f"a = {witness.a}", f"d = {witness.d}",
                        f"margin = {witness.margin}"]


def _cmd_recognize_cube(args):
    points = formats.read_set(_read_text(args.file), m=args.m)
    grid = geometry.index_grid_points(points, args.m, args.k, args.eps)
    decision = geometry.recognize_cube(grid, args.eps)
    payload = {"status": decision.status, "exact": decision.exact, "witness": None}
    if decision.status != "feasible":
        return 1, payload, [decision.status]
    payload["witness"] = formats.witness_md_json(decision.witness)
    d, residual = decision.witness.d, decision.witness.residual
    return 0, payload, [decision.status, f"d = {d!r}", f"residual = {residual!r}"]


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
    return 0, payload, text


def _cmd_construct_alternate(args):
    lab = colorings.build_alternate_labeling(args.r, args.D, args.t, args.offset)
    labels = lab.labels()
    payload = {
        "r": lab.r, "D": lab.D, "t": lab.t, "offset": lab.offset,
        "labels": list(labels),
    }
    return 0, payload, [" ".join(f"{v:+d}" for v in labels)]


def _file_reply(args, write, note, payload, head=()):
    """A reply whose text shows the `head` lines and then a file body.  With
    --out the body is written there instead, and the text is the one-line
    note.  write() builds the body, only when --out or the text needs it."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write())
        return 0, payload, [note]

    def lines():
        yield from head
        yield from write().splitlines()

    return 0, payload, lines()


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
        return 0, payload, text
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
    return 0, payload, text


def _set_reply(args, payload, points, head=(), detail=""):
    """A SET file, shown after the `head` lines."""
    return _file_reply(args, lambda: formats.write_set(points),
                       f"wrote {len(points)} points to {args.out}{detail}",
                       payload, head)


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
        return 0, payload, ["good: no monochromatic approximate progression"]
    payload["witness"] = {
        "color": hit.color,
        "points": list(hit.points),
        "witness": formats.witness1d_json(hit.witness),
    }
    return 1, payload, [f"monochromatic: color {hit.color} on {list(hit.points)}"]


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
        return 0, payload, ["free"]
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
    return 1, payload, [f"contains approximate structure: {found}"]


def _outcome_reply(outcome, witness_key: str, witness, witness_line: str):
    """An exact search's kind, value and node count; exit 0 only for a value."""
    payload = {
        "kind": outcome.kind,
        "value": outcome.value,
        "nodes": outcome.nodes,
        witness_key: witness,
    }
    text = [f"{outcome.kind} {outcome.value}", witness_line]
    return 0 if outcome.kind == "value" else 1, payload, text


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
                       f"wrote {len(h.edges)} edges to {args.out}", payload)


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
    return 0, payload, [f"shift = {list(result.shift)}",
                        f"count = {result.count} (bound {result.bound})"]


# ---------------------------------------------------------------------------
# Parser: every command and its options are declared once, in COMMANDS
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    """One option, as add_argument takes it; a row with a const takes no value."""

    name: str
    type: Callable = str
    default: Any = None
    required: bool = False
    const: Any = None
    help: Optional[str] = None


class Command:
    """A command: words, handler, help and options, the shared --json last."""

    def __init__(self, words: tuple, handler, help: str, *options: Option):
        self.words, self.handler, self.help = words, handler, help
        self.options = options + (_JSON,)

    @functools.cached_property
    def _reader(self) -> tuple:
        """name -> (dest, option), the required dests and the defaults."""
        dests = {o.name: (o.name[2:].replace("-", "_"), o) for o in self.options}
        defaults = {dest: o.default for dest, o in dests.values()}
        defaults.update(zip(("command", "what"), self.words), handler=self.handler)
        return dests, [dest for dest, o in dests.values() if o.required], defaults

    def read(self, tokens: list) -> Optional[argparse.Namespace]:
        """The namespace of well-formed option tokens, else None: exact names
        as `--opt value`, `--opt=value` or a flag, each option once, no value
        starting with "-", all required options and values their types take."""
        dests, required, defaults = self._reader
        values = {}
        tokens = iter(tokens)
        for token in tokens:
            name, eq, value = token.partition("=")
            dest, option = dests.get(name, (None, None))
            if option is None or dest in values:
                return None
            if option.const is not None:
                if eq:
                    return None
                values[dest] = option.const
                continue
            if not eq:
                value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                value = option.type(value)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            values[dest] = value
        if not all(dest in values for dest in required):
            return None
        return argparse.Namespace(**{**defaults, **values})


_EPS = Option("--eps", _parse_eps, required=True)
_WORK_CAP = Option("--work-cap", int, DEFAULT_WORK_CAP)


def _required_int(name: str) -> Option:
    return Option(name, int, required=True)


def _flag(name: str, help: Optional[str] = None) -> Option:
    return Option(name, default=False, const=True, help=help)


_JSON = _flag("--json", "print the whole answer as one JSON object instead of text")
_GROUPS = {"recognize": "decide approximate structure",
           "construct": "build the explicit objects",
           "verify": "check built objects"}
COMMANDS = (
    Command(("recognize", "ap"), _cmd_recognize_ap, "1-D recognizer (exact)",
            Option("--points", required=True, help="comma-separated integers, increasing"),
            _EPS),
    Command(("recognize", "cube"), _cmd_recognize_cube,
            "m-D recognizer (numeric); needs eps < 1/2 to recover the grid "
            "indexing from an unordered file, use `verify set` otherwise",
            Option("--file", required=True, help="SET file with k^m points"),
            _required_int("--m"), _required_int("--k"), _EPS),
    Command(("construct", "blowup"), _cmd_construct_blowup, "iterated 1-D blow-up",
            _required_int("--k"), _required_int("--r"), _EPS, _flag("--one-based"),
            Option("--cap", int, colorings.BLOWUP_CAP)),
    Command(("construct", "alternate"), _cmd_construct_alternate,
            "periodic +-1 block labeling",
            _required_int("--r"), _required_int("--D"), _required_int("--t"),
            Option("--offset", int, 0)),
    Command(("construct", "simple-r2"), _cmd_construct_simple_r2,
            "two-color block coloring",
            _required_int("--k"),
            _EPS._replace(help="recorded in the coloring header for later verification"),
            Option("--out", help="write COLORING file here instead of stdout")),
    Command(("construct", "lowerbound"), _cmd_construct_lowerbound,
            "recursive lower-bound coloring",
            _required_int("--k"), _required_int("--r"), _EPS,
            Option("--eps0", _parse_eps, colorings.DEFAULT_EPS0),
            Option("--cap", int, help="most colors to build (default "
                   f"{colorings.DEFAULT_MATERIALIZE_CAP}); not with --params-only"),
            _flag("--params-only", "print the parameter schedule without building"),
            Option("--out", help="write COLORING file here instead of stdout")),
    Command(("construct", "behrend"), _cmd_construct_behrend, "base-q digit set",
            _EPS, _required_int("--h"), Option("--k", int, 3), _flag("--one-based")),
    Command(("construct", "cube-blowup"), _cmd_construct_cube_blowup,
            "iterated m-D blow-up",
            _required_int("--m"), _required_int("--k"), _EPS,
            Option("--alpha", _parse_eps, required=True,
                   help="density threshold as an exact rational p/q"),
            Option("--cap", int, density.CUBE_BLOWUP_CAP),
            Option("--out", help="write SET file here")),
    Command(("construct", "product"), _cmd_construct_product, "A x [N]^(m-1)",
            Option("--set", required=True, help="SET file holding A (one column)"),
            _required_int("--m"), _required_int("--N"),
            Option("--out", help="write SET file here")),
    Command(("verify", "coloring"), _cmd_verify_coloring,
            "coloring free of monochromatic hits?",
            Option("--file", required=True, help="COLORING file"),
            Option("--k", int, help="override the header k"),
            Option("--eps", _parse_eps, help="override the header eps"),
            _WORK_CAP._replace(help="cap on the search nodes over all color classes")),
    Command(("verify", "set"), _cmd_verify_set, "set free of approximate structure?",
            Option("--file", required=True, help="SET file"),
            _required_int("--m"), _required_int("--k"), _EPS,
            _WORK_CAP._replace(help="cap on the search nodes")),
    Command(("wnumber",), _cmd_wnumber, "least forcing N, exactly",
            _required_int("--k"), _required_int("--r"), _EPS, _required_int("--nmax"),
            _WORK_CAP),
    Command(("density",), _cmd_density, "largest free subset, exactly",
            _required_int("--N"), Option("--m", int, 1), _required_int("--k"),
            Option("--eps", _parse_eps,
                   help="omit together with --exact-aps for the exact-progression case"),
            _flag("--exact-aps", "measure exact progressions instead (m=1 only)"),
            _WORK_CAP),
    Command(("hypergraph",), _cmd_hypergraph, "enumerate all approximate progressions",
            _required_int("--N"), _required_int("--k"), _EPS,
            Option("--out", help="write HYPERGRAPH file here"),
            _WORK_CAP._replace(help="cap on the search nodes plus the listed edges")),
    Command(("translate",), _cmd_translate, "dense translate of a configuration",
            Option("--set-a", required=True, help="SET file for A"),
            Option("--set-x", required=True, help="SET file for X"),
            _required_int("--N"), _required_int("--m"), _WORK_CAP),
)
_BY_WORDS = {command.words: command for command in COMMANDS}


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other bad input: one line, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS, built on first use and shared by later
    calls in the same process (parse_args fills a fresh namespace each time)."""
    parser = _Parser(
        prog="epsap",
        description="Recognize, construct, and exactly measure approximate "
                    "arithmetic progressions and cubes.")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {(): sub}
    for word, help in _GROUPS.items():
        group = sub.add_parser(word, help=help)
        subs[(word,)] = group.add_subparsers(dest="what", required=True)
    for command in COMMANDS:
        leaf = subs[command.words[:-1]].add_parser(command.words[-1], help=command.help)
        for o in command.options:
            takes = ({"action": "store_const", "const": o.const} if o.const is not None
                     else {"type": o.type, "required": o.required})
            leaf.add_argument(o.name, default=o.default, help=o.help, **takes)
        leaf.set_defaults(handler=command.handler)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """argv read by Command.read when its first one or two words name a
    command and the rest is well formed, else parsed by the whole tree: help,
    abbreviations, repeats, `--`, negative values and every usage error."""
    n = 2 if tuple(argv[:2]) in _BY_WORDS else 1
    command = _BY_WORDS.get(tuple(argv[:n]))
    args = command and command.read(argv[n:])
    return args or build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  A well-formed call is read from COMMANDS, and the argparse
    tree, built on the first call that needs it and reused, parses the rest."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.handler(args)
        if args.json:
            words = (args.command, getattr(args, "what", None))
            payload["command"] = " ".join(w for w in words if w)
            text = [json.dumps(payload, sort_keys=True)]
        sys.stdout.write("".join(line + "\n" for line in text))
    except (ValueError, TypeError, OSError, MemoryGuardExceeded,
            SearchCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
