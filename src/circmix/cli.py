"""Command-line surface: generation, reports, scans, certificates, fixtures.

Every report is deterministic: identical inputs and limits produce
byte-identical JSON regardless of the requested thread count.  Exit codes:
0 success, 1 usage or domain error, 2 cap exceeded, 3 verdict mismatch
against --expect.  ``main`` parses a request of exact ``--flag value``
words in one pass and leaves every other request, help and usage errors
included, to argparse; it turns the ``--graph`` and ``--target`` specs
into graphs once the cap is checked, so every subcommand body gets graphs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote

from . import config
from .circular import lower_parent, mixing_scan
from .errors import CapExceededError, CircmixError
from .fixtures import REGISTRY, resolve_graph_spec
from .extension import PrecolouringInstance, extend
from .graphs import (circular_clique, clique_number, colouring_number,
                     complete_graph, cycle_graph, format_graph,
                     frozen_regular_graph, path_graph, write_graph)
from .homgraph import components, is_frozen, is_mixing
from .homs import Hom, first_hom, format_image, parse_image
from .structure import (core_of, is_dismantlable, is_rigid, self_mixing,
                        stiff_reduction)
from .winding import (cycle_trace, is_constricting, nonmixing_certificate,
                      reflect_colouring)


def _parse_frac(text: str) -> tuple[int, int]:
    num, slash, den = text.partition("/")
    try:
        k = int(num)
        q = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad fraction {text!r}, want k/q") from None
    return k, q


def _parse_pin(text: str) -> tuple[int, int]:
    v, _, c = text.partition("=")
    try:
        return int(v), int(c)  # with no "=", c is "" and int("") raises
    except ValueError:
        raise ValueError(f"bad pin {text!r}, want v=c") from None


_SCALARS = frozenset((str, int, bool, type(None)))
_LONG = 16  # items; a shorter list is written faster item by item from a cold cache


@functools.cache
def _flat_writer(inner: str):
    """The C encoder that splits items by ``"," + inner``, if there is one."""
    return c_make_encoder and c_make_encoder(None, None, _quote, None, ": ",
                                             "," + inner, True, False, False)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the report
    types: str, int, bool, None, and lists, tuples and str-keyed dicts of
    them.  It keys on exact types, so a bool is never written as an int,
    and spares the pure-Python encoder that ``indent`` selects.  A list of
    ``_LONG`` or more non-empty dicts of scalars is written in one C call,
    which puts one separator between the items at both depths; as no
    written string holds a raw newline, "}", that separator and "{" mark
    where one dict ends and the next begins."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _quote(key) + ": " + _json(value[key], inner) for key in sorted(value)
        ]) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if (len(value) >= _LONG and {*map(type, value)} == {dict} and all(value)
                and {*map(type, chain.from_iterable(value))} == {str}
                and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value))))
                and (flat := _flat_writer(deeper := inner + "  "))):
            return "[" + inner + "{" + deeper + "".join(flat(value, 0))[2:-2].replace(
                "}," + deeper + "{", inner + "}," + inner + "{" + deeper) + inner + "}" + indent + "]"
        return "[" + inner + ("," + inner).join(
            [_json(item, inner) for item in value]) + indent + "]"
    raise TypeError(f"{kind.__name__} is not a report type")


def _emit(payload: dict, args, text_lines) -> None:
    """Write the report: ``payload`` as JSON, or the lines that
    ``text_lines()`` builds, which only ``--output text`` calls for."""
    if args.output == "json":
        sys.stdout.write(_json(payload) + "\n")
    else:
        for line in text_lines():
            sys.stdout.write(line + "\n")


def _check_expect(expect: str | None, verdict: str) -> int:
    if expect is not None and expect != verdict:
        sys.stderr.write(f"expected {expect}, got {verdict}\n")
        return 3
    return 0


# --- subcommand bodies --------------------------------------------------


def _cmd_gen(args) -> int:
    params = args.params
    kind = args.kind
    want = 2 if kind in ("circular-clique", "frozen-regular") else 1
    if len(params) != want:
        raise ValueError(f"gen {kind} takes {want} parameter(s), got {len(params)}")
    if kind == "circular-clique":
        k, q = int(params[0]), int(params[1])
        g = circular_clique(k, q)
    elif kind == "clique":
        g = complete_graph(int(params[0]))
    elif kind == "cycle":
        g = cycle_graph(int(params[0]), reflexive=args.reflexive)
    elif kind == "path":
        g = path_graph(int(params[0]), reflexive=args.reflexive)
    elif kind == "frozen-regular":
        g = frozen_regular_graph(int(params[0]), int(params[1]))
    else:  # gadget
        g = resolve_graph_spec(f"gadget:{params[0]}")
    if args.out:
        write_graph(g, args.out)
    else:
        sys.stdout.write(format_graph(g))
    return 0


def _cmd_hom(args) -> int:
    pins: dict[int, int] = {}
    for v, c in map(_parse_pin, args.pin):
        if pins.setdefault(v, c) != c:
            raise ValueError(f"vertex {v} pinned to two colours")
    hom = first_hom(args.graph, args.target, pins=pins or None, budget=args.cap)
    payload = {"exists": hom is not None,
               "hom": None if hom is None else format_image(hom.image)}
    _emit(payload, args, lambda: [payload["hom"] if hom else "none"])
    return 0


def _cmd_mixing(args) -> int:
    verdict = is_mixing(args.graph, args.target, cap=args.cap)
    name = verdict.name
    payload = {
        "verdict": name,
        "hom_count": verdict.hom_count,
        "class_count": verdict.class_count,
        "witnesses": (None if verdict.witness is None else
                      [format_image(w.image) for w in verdict.witness]),
    }
    _emit(payload, args, lambda: [
        f"{name} ({verdict.hom_count} homs, {verdict.class_count} classes)"])
    return _check_expect(args.expect, name)


def _cmd_components(args) -> int:
    report = components(args.graph, args.target, kind=args.kind, cap=args.cap)
    _emit(report.to_json_dict(), args, lambda: [
        f"{report.kind}: {report.total} homs, {report.class_count} classes",
        *(f"  size {c.size} rep {format_image(c.rep.image)}" for c in report.classes)])
    return 0


def _cmd_frozen(args) -> int:
    g, h = args.graph, args.target
    f = Hom(g.n, h.n, parse_image(args.colouring))
    value = is_frozen(f, g, h)
    _emit({"frozen": value}, args, lambda: ["frozen" if value else "not frozen"])
    return 0


def _cmd_lower_parent(args) -> int:
    parent = lower_parent(args.k, args.q)
    payload = {"k'": parent.parent_k, "q'": parent.parent_q}
    _emit(payload, args, lambda: [f"{parent.parent_k}/{parent.parent_q}"])
    return 0


def _cmd_structure(args) -> int:
    g = args.graph
    op = args.op
    if op == "col":
        payload = {"op": op, "value": colouring_number(g)}
    elif op == "omega":
        payload = {"op": op, "value": clique_number(g, args.cap)}
    elif op == "stiff":
        red = stiff_reduction(g)
        payload = {
            "op": op,
            "steps": [{"removed": s.removed, "absorber": s.absorber}
                      for s in red.steps],
            "terminal": {"n": red.terminal.n,
                         "edges": sorted(red.terminal.edges())},
        }
    elif op == "core":
        result = core_of(g, cap=args.cap)
        payload = {"op": op, "vertices": list(result.vertices),
                   "n": result.core.n}
    elif op == "dismantlable":
        payload = {"op": op, "value": is_dismantlable(g, cap=args.cap).dismantlable}
    elif op == "rigid":
        payload = {"op": op, "value": is_rigid(g, cap=args.cap)}
    else:  # self-mixing
        result = self_mixing(g, cap=args.cap)
        payload = {"op": op, "value": result.mixing, "method": result.method}
    value = payload.get("value")
    _emit(payload, args, lambda: [f"{op}: {'done' if value is None else value}"])
    return _check_expect(args.expect, str(value))


def _cmd_sigma(args) -> int:
    g = args.graph
    k, q = _parse_frac(args.frac)
    try:
        cycle = [int(t) for t in args.cycle.split(",")]
    except ValueError:
        raise ValueError(f"bad cycle {args.cycle!r}, want v0,v1,...") from None
    f = Hom(g.n, k, parse_image(args.colouring))
    trace = cycle_trace(f, cycle, g, k, q)
    reflected = reflect_colouring(f, k)
    back = cycle_trace(reflected, cycle, g, k, q)
    payload = {
        "cycle": list(trace.cycle),
        "taus": list(trace.taus),
        "sigma": trace.sigma,
        "sigma_reflection": back.sigma,
        "constricting": is_constricting(f, g, k, q).constricting,
    }
    _emit(payload, args, lambda: [f"sigma {trace.sigma} taus {list(trace.taus)}"])
    return 0


def _cmd_certify(args) -> int:
    k, q = _parse_frac(args.frac)
    cert = nonmixing_certificate(args.graph, k, q, cap=args.cap)
    payload = {
        "certified": True,
        "kind": cert.kind,
        "subgraph": list(cert.subgraph),
        "cycle": list(cert.cycle),
        "colouring": format_image(cert.colouring.image),
        "reflection": format_image(cert.reflection.image),
        "sigma": cert.sigma,
        "sigma_reflection": cert.sigma_reflection,
    }
    _emit(payload, args, lambda: [
        f"NotMixing: {cert.kind} sigma {cert.sigma} vs {cert.sigma_reflection}"])
    return _check_expect(args.expect, "Certified")


def _cmd_extend(args) -> int:
    pins = tuple(_parse_pin(p) for p in args.pin)
    instance = PrecolouringInstance(args.graph, args.target, pins)
    result = extend(instance, cap=args.cap)
    payload = {
        "status": result.status,
        "extension": (None if result.extension is None
                      else format_image(result.extension.image)),
        "certificate": ("exhausted backtracking over all completions"
                        if result.extension is None else None),
    }
    _emit(payload, args, lambda: [f"{result.status}: {payload['extension']}"])
    return _check_expect(args.expect, result.status)


def _cmd_scan(args) -> int:
    fracs = [_parse_frac(t) for t in args.fracs.split(",")]
    report = mixing_scan(args.graph, fracs, cap=args.cap)
    payload = {
        "graph": report.graph_name,
        "rows": [
            {
                "k": r.k, "q": r.q, "value": f"{r.k}/{r.q}",
                "verdict": r.verdict,
                "hom_count": r.hom_count, "class_count": r.class_count,
                "witnesses": [format_image(w) for w in r.witnesses],
            }
            for r in report.rows
        ],
        "bounds": [
            {
                "quantity": b.quantity, "relation": b.relation,
                "value": str(b.value), "source": b.source,
                "certified": b.certified,
            }
            for b in report.bounds
        ],
    }
    _emit(payload, args, lambda: [
        *(f"{r.k}/{r.q}: {r.verdict}" for r in report.rows),
        *(f"{b.quantity} {b.relation} {b.value} [{b.certified}: {b.source}]"
          for b in report.bounds)])
    return 0


def _cmd_fixtures(args) -> int:
    rows = [{"name": name, "n": REGISTRY[name]().n} for name in sorted(REGISTRY)]
    _emit({"fixtures": rows}, args,
          lambda: [f"{r['name']} ({r['n']} vertices)" for r in rows])
    return 0


# --- parser -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that can also build the Namespace of the plainest
    requests itself, in one pass.

    argparse matches every word of a request against every pattern that its
    actions allow, which costs more than most requests' search.  A request
    of exact ``--flag value`` words needs none of that, so each parser
    keeps, as its arguments are declared, what ``parse_exact`` reads: its
    flags by option string (``store`` and ``append`` flags of one value and
    ``store_true`` switches; never the help flag), its defaults, those of
    ``set_defaults`` included, its required flags, and whether it is plain:
    no positional and no string default that ``type`` would convert.  A
    parser made with ``parents`` starts from theirs, as argparse's own
    tables do, and the top level keeps its subcommands.  Only the
    documented ``Action`` attributes are read.
    """

    def __init__(self, *args, parents=(), **kwargs):
        # set before argparse's __init__, which declares the help flag
        self.flags: dict[str, tuple[argparse.Action, str]] = {}
        self.defaults: dict = {}
        self.required: list[argparse.Action] = []
        self.plain = True
        self.commands = None
        for p in parents:
            self.flags.update(p.flags)
            self.defaults.update(p.defaults)
            self.required += p.required
            self.plain = self.plain and p.plain
        super().__init__(*args, parents=parents, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        kind = kwargs.get("action", "store")
        if action.default is not argparse.SUPPRESS:
            self.defaults[action.dest] = action.default
        if action.required:
            self.required.append(action)
        if not action.option_strings or (
                isinstance(action.default, str) and action.type is not None):
            self.plain = False
        elif kind == "store_true" or (kind in ("store", "append")
                                      and action.nargs is None):
            self.flags.update(dict.fromkeys(action.option_strings, (action, kind)))
        return action

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self.defaults.update(kwargs)

    def add_subparsers(self, **kwargs):
        self.commands = super().add_subparsers(**kwargs)
        return self.commands

    def parse_exact(self, argv: list[str]) -> argparse.Namespace | None:
        """The Namespace ``parse_args(argv)`` returns, or None to leave argv
        to ``parse_args``.

        Takes an argv whose first word names a plain subcommand and whose
        other words are that subcommand's kept flags, each but a switch
        followed by one value that does not start with "-", converts by
        the flag's ``type`` and lies in its ``choices``, with every required
        flag present.  As in argparse, a repeated flag keeps its last value,
        and an ``append`` flag appends to a fresh copy of its default, so
        the shared default is never touched.  Everything else goes to
        argparse: help, abbreviations, ``--flag=value``, positionals, values
        that start with "-", and every usage error.
        """
        sub = self.commands.choices.get(argv[0]) if argv else None
        if sub is None or not sub.plain:
            return None
        values = {**self.defaults, self.commands.dest: argv[0], **sub.defaults}
        seen = set()
        words = iter(argv[1:])
        for word in words:
            action, kind = sub.flags.get(word, (None, None))
            if action is None:
                return None
            if kind == "store_true":
                value = action.const
            else:
                text = next(words, "-")  # a missing value fails as "-" does
                if text.startswith("-"):
                    return None
                try:
                    value = text if action.type is None else action.type(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
                if kind == "append":
                    items = values.get(action.dest)
                    if action not in seen:
                        items = list(items or ())
                    items.append(value)
                    value = items
            values[action.dest] = value
            seen.add(action)
        if not seen.issuperset(sub.required):
            return None
        return argparse.Namespace(**values)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and then shared by every main call.

    Parsing leaves it unchanged, by either path: flags land on a fresh
    namespace, append defaults are copied before use, and help width and
    the environment are read when they are needed.
    """
    common = _Parser(add_help=False)
    common.add_argument("--cap", type=int, default=None,
                        help="budget of every search: maps enumerated or walked, "
                             "partial assignments and clique-search nodes")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; output is identical for any value")
    common.add_argument("--output", choices=("json", "text"), default="json")
    # graph specs, resolved by main once the cap is checked
    one_graph = _Parser(add_help=False, parents=[common])
    one_graph.add_argument("--graph", required=True)
    two_graphs = _Parser(add_help=False, parents=[one_graph])
    two_graphs.add_argument("--target", required=True)

    parser = _Parser(
        prog="circmix",
        description="decide and certify mixing of graph colourings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a generated graph")
    p.add_argument("kind", choices=("circular-clique", "clique", "cycle",
                                    "path", "frozen-regular", "gadget"))
    p.add_argument("params", nargs="+")
    p.add_argument("--reflexive", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hom", parents=[two_graphs],
                       help="least homomorphism, optionally pinned")
    p.add_argument("--pin", action="append", default=[], metavar="v=c")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("mixing", parents=[two_graphs],
                       help="connectivity verdict for the colour graph")
    p.add_argument("--expect", default=None,
                   help="exit 3 unless the verdict matches")
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("components", parents=[two_graphs],
                       help="full class report for HOM(G, H)")
    p.add_argument("--kind", choices=("colour", "homomorphism"),
                   default="colour")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("frozen", parents=[two_graphs],
                       help="is the given colouring frozen?")
    p.add_argument("--colouring", required=True)
    p.set_defaults(func=_cmd_frozen)

    p = sub.add_parser("lower-parent", parents=[common],
                       help="Farey predecessor of k/q")
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_lower_parent)

    p = sub.add_parser("structure", parents=[one_graph],
                       help="structural reports on one graph")
    p.add_argument("--op", required=True,
                   choices=("col", "omega", "stiff", "core", "dismantlable",
                            "rigid", "self-mixing"))
    p.add_argument("--expect", default=None)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("sigma", parents=[one_graph],
                       help="winding totals of a colouring around a cycle")
    p.add_argument("--cycle", required=True, metavar="v0,v1,...")
    p.add_argument("--colouring", required=True, metavar="c0,c1,...")
    p.add_argument("--frac", required=True, metavar="k/q")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("certify-nonmixing", parents=[one_graph],
                       help="winding certificate that mixing fails")
    p.add_argument("--frac", required=True, metavar="k/q")
    p.add_argument("--expect", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("extend", parents=[two_graphs],
                       help="extend pinned colours to a full homomorphism")
    p.add_argument("--pin", action="append", default=[], metavar="v=c")
    p.add_argument("--expect", default=None)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("scan", parents=[one_graph],
                       help="mixing verdicts over a fraction list, with bounds")
    p.add_argument("--fracs", required=True, metavar="k1/q1,k2/q2,...")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fixtures", parents=[common],
                       help="list the named gadgets")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_exact(argv)
        if args is None:
            args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        if args.cap is not None and args.cap <= 0:
            raise ValueError(f"--cap must be positive, got {args.cap}")
        args.cap = config.hom_cap(args.cap)
        for name in ("graph", "target"):
            if name in vars(args):
                setattr(args, name, resolve_graph_spec(getattr(args, name)))
        return args.func(args)
    except CapExceededError as e:
        sys.stderr.write(f"cap exceeded: {e}\n")
        return 2
    except (CircmixError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def run() -> None:
    raise SystemExit(main())
