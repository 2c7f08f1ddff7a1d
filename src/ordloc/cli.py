"""Command line front end: instance (de)serialization, check orchestration
and reports.

Exit codes: 0 all checks passed / computation done, 1 a check failed
(witness printed), 2 invalid input, 3 inconclusive (coverage bound or
certification exhausted).

A process loads only what its subcommand runs: `gen`, `derived`,
`duality` and `coverage` are imported by the subcommands that call them,
and only the invoked subparser is given its options (see `build_parser`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import olocale as ol
from . import ospace as osp
from .errors import OrdlocError, ParseError, ValidationError
from .lattice import FiniteFrame, bits, mask_of_iter
from .olocale import OrderedLocale
from .ospace import OrderedSpace


class Document:
    __slots__ = ("name", "payload", "raw")

    def __init__(self, name: str, payload: object, raw: dict):
        self.name = name
        self.payload = payload    # OrderedSpace | OrderedLocale
        self.raw = raw            # the JSON object; its "kind" names the payload


# schema of the --json check reports; also documented in the README
REPORT_SCHEMA = {
    "type": "object",
    "required": ["reports", "exit"],
    "properties": {
        "exit": {"type": "integer", "minimum": 0, "maximum": 3},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["law", "verdict", "witness", "note"],
                "properties": {
                    "law": {"type": "string"},
                    "verdict": {"enum": ["pass", "fail"]},
                    "witness": {"type": ["array", "null"]},
                    "note": {"type": "string"},
                },
            },
        },
    },
}


# -- frame <-> json -----------------------------------------------------------


def _frame_to_json(frame: FiniteFrame) -> dict:
    out = {"base": frame.base_size,
           "points": [str(x) for x in (frame.labels or
                                       [str(i) for i in range(frame.base_size)])]}
    if frame.kind == "powerset":
        out["opens"] = "discrete"
    else:
        out["opens"] = [sorted(bits(frame.mask_of(i))) for i in frame.elements()]
    return out


def _id(x, n: int, path: str) -> int:
    """An integer id in 0..n-1 from a JSON integer; a string, a bool or a
    float is refused, not parsed or truncated."""
    if type(x) is not int:
        raise ParseError(f"{x!r} is not an integer id", path)
    if not 0 <= x < n:
        raise ParseError(f"id {x} out of range 0..{n - 1}", path)
    return x


def _decimal_id(s: str, n: int, path: str) -> int:
    """An id in 0..n-1 from a decimal string, as --region and --target give it."""
    try:
        return _id(int(s), n, path)
    except ValueError:
        raise ParseError(f"{s!r} is not an integer id", path) from None


def _ids(seq, n: int, path: str) -> list[int]:
    if not isinstance(seq, list):
        raise ParseError(f"expected a list of ids, got {seq!r}", path)
    return [_id(x, n, path) for x in seq]


def _pairs(seq, n: int, path: str) -> list[tuple[int, int]]:
    if not isinstance(seq, list) or not all(isinstance(p, list) and len(p) == 2
                                            for p in seq):
        raise ParseError("expected a list of [a, b] pairs", path)
    return [(_id(a, n, path), _id(b, n, path)) for a, b in seq]


def _opens(opens, n: int, path: str):
    """"discrete", "codiscrete", or point masks from lists of point ids."""
    if opens in ("discrete", "codiscrete"):
        return opens
    if not isinstance(opens, list):
        raise ParseError('opens must be "discrete", "codiscrete" or a list of '
                         f"point-id lists, got {opens!r}", path)
    return [mask_of_iter(_ids(fam, n, path)) for fam in opens]


def _frame_from_json(obj: dict, path: str) -> FiniteFrame:
    try:
        base = obj["base"]
        if type(base) is not int:
            raise ValueError(f"base {base!r} is not an integer")
        if base < 0:
            raise ValueError(f"negative base {base}")
        labels = [str(s) for s in obj.get("points", range(base))]
        if len(labels) != base:
            raise ValueError(f"{len(labels)} point names for base {base}")
        opens = _opens(obj["opens"], base, path + ".opens")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed frame: {e}", path)
    return osp.topology(base, opens, labels)


def _space_order_pairs(space: OrderedSpace) -> list[list[int]]:
    return [[p, q] for p in range(space.n) for q in bits(space.up[p]) if p != q]


def doc_of_space(space: OrderedSpace, name: str = "") -> Document:
    raw = {"kind": "space", "name": name or space.name,
           "points": [str(l) for l in space.labels],
           "order": _space_order_pairs(space),
           "opens": _frame_to_json(space.frame)["opens"]}
    return Document(raw["name"], space, raw)


def doc_of_locale(olx: OrderedLocale, name: str = "") -> Document:
    rows = olx.rel_rows()
    raw = {"kind": "locale", "name": name or olx.meta.get("name", ""),
           "frame": _frame_to_json(olx.frame),
           "rel": [[u, v] for u in olx.frame.elements() for v in bits(rows[u])
                   if u != v]}
    return Document(raw["name"], olx, raw)


def parse(text: str, strict: bool = False) -> Document:
    """Parse a JSON document; auto-closes non-closed orders with a notice
    (an error under strict)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg} at line {e.lineno} column {e.colno}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("document must be an object with a 'kind'")
    kind = obj["kind"]
    name = str(obj.get("name", ""))
    if kind == "space":
        if not isinstance(obj.get("points", []), list):
            raise ParseError("expected a list of point names", "points")
        pts = [str(p) for p in obj.get("points", [])]
        n = len(pts)
        pairs = _pairs(obj.get("order", []), n, "order")
        opens = _opens(obj.get("opens", "discrete"), n, "opens")
        space = OrderedSpace.build(n, pairs, opens=opens, labels=pts, name=name)
        given = set(pairs) | {(p, p) for p in range(n)}
        closed = {(p, q) for p in range(n) for q in bits(space.up[p])}
        if closed != given:
            if strict:
                raise ParseError("order is not reflexively/transitively closed",
                                 "order")
            print("notice: order closed transitively "
                  f"(+{len(closed) - len(given)} pairs)", file=sys.stderr)
        return Document(name, space, obj)
    if kind == "locale":
        frame = _frame_from_json(obj.get("frame", {}), "frame")
        pairs = _pairs(obj.get("rel", []), frame.m, "rel")
        olx = ol.ordered_locale_from_relation(frame, pairs, strict=strict)
        if "join_saturated" in olx.meta and not strict:
            print("notice: relation join-saturated, witness "
                  f"{olx.meta['join_saturated']}", file=sys.stderr)
        return Document(name, olx, obj)
    if kind == "cones":
        frame = _frame_from_json(obj.get("frame", {}), "frame")
        up = _ids(obj.get("up"), frame.m, "up")
        down = _ids(obj.get("down"), frame.m, "down")
        olx = ol.ordered_locale_from_monads(ol.ConePair(frame, up, down))
        return Document(name, olx, obj)
    raise ParseError(f"unknown document kind {kind!r}")


def serialize(doc: Document) -> str:
    if isinstance(doc.payload, OrderedSpace) and doc.raw.get("kind") != "space":
        doc = doc_of_space(doc.payload, doc.name)
    return json.dumps(doc.raw, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


# -- command plumbing -----------------------------------------------------------


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    with open(arg, "r", encoding="utf-8") as fh:
        return fh.read()


def _as_locale(doc: Document, variant: str) -> OrderedLocale:
    if isinstance(doc.payload, OrderedSpace):
        return osp.induced_locale(doc.payload, variant)
    return doc.payload


def _region_elem(doc: Document, region: str, option: str = "--region") -> int:
    """A region given as a comma-separated list of point ids."""
    olx_frame = doc.payload.frame
    if not region:
        raise ValidationError(f"{option} required")
    pts = [_decimal_id(p, olx_frame.base_size, option) for p in region.split(",") if p != ""]
    mask = mask_of_iter(pts)
    if not olx_frame.has_mask(mask):
        raise ValidationError(f"point set {pts} is not an open of the frame")
    return olx_frame.id_of_mask(mask)


def _emit(args, payload_text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload_text)
    else:
        sys.stdout.write(payload_text)


def _finish(args, frame, reports) -> int:
    code = int(any(r.verdict == "fail" for r in reports))
    if args.json:
        blob = {"reports": [
            {"law": r.law, "verdict": r.verdict,
             "witness": list(r.witness) if r.witness is not None else None,
             "note": r.note} for r in reports], "exit": code}
        _emit(args, json.dumps(blob, sort_keys=True, indent=1) + "\n")
    else:
        _emit(args, "\n".join(r.pretty(frame) for r in reports) + "\n")
    return code


# -- subcommands ------------------------------------------------------------------


def _number(kind, text: str, option: str):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{text!r} is not a valid value", option) from None


def _defect(text: str) -> tuple[int, int]:
    cell = tuple(_number(int, c, "--defect") for c in text.split(","))
    if len(cell) != 2:
        raise ParseError(f"expected a t,x cell, got {text!r}", "--defect")
    return cell


# generator -> its flags and their defaults; another flag given to it exits 2
GEN_FLAGS = {"minkowski": {"t": 3, "x": 3, "slope": "1", "topology": "discrete", "defect": ()},
             "two-speed": {"t": 3, "x": 3, "up": "1", "down": "1", "topology": "discrete"},
             "vertical": {"t": 3, "x": 3}, "bowtie": {}, "non-oc": {},
             "suite": {"name": "m33"}}


def _cmd_gen(args) -> int:
    from fractions import Fraction

    from . import gen
    kind = args.what
    for flag in ("t", "x", "slope", "up", "down", "topology", "defect", "name"):
        given = getattr(args, flag)
        if given is not None and flag not in GEN_FLAGS[kind]:
            raise ParseError(f"not a flag of gen {kind}", f"--{flag}")
        setattr(args, flag, GEN_FLAGS[kind].get(flag) if given is None else given)
    if kind == "minkowski":
        slope = _number(Fraction, args.slope, "--slope")
        spec = gen.GridSpec(args.t, args.x, slope, slope, topology=args.topology,
                            defects=tuple(map(_defect, args.defect)))
        doc = doc_of_space(gen.minkowski_grid(spec))
    elif kind == "two-speed":
        spec = gen.GridSpec(args.t, args.x, _number(Fraction, args.up, "--up"),
                            _number(Fraction, args.down, "--down"), topology=args.topology)
        doc = doc_of_locale(gen.two_speed_grid(spec))
    elif kind == "vertical":
        doc = doc_of_space(gen.vertical_grid(args.t, args.x))
    elif kind == "bowtie":
        doc = doc_of_space(gen.bowtie())
    elif kind == "non-oc":
        doc = doc_of_space(gen.non_OC_example())
    else:
        try:
            inst = gen.suite_instance(args.name)
        except KeyError:
            raise ValidationError(f"unknown suite instance {args.name!r}") from None
        doc = doc_of_space(inst) if isinstance(inst, OrderedSpace) \
            else doc_of_locale(inst, args.name)
    _emit(args, serialize(doc))
    return 0


def _cmd_check(args, doc: Document) -> int:
    olx = _as_locale(doc, args.variant)
    laws = list(ol.ALL_AXIOMS) if args.axiom == "all" else [args.axiom]
    reports = [ol.check_axiom(olx, law) for law in laws]
    return _finish(args, olx.frame, reports)


def _cmd_unary(args, doc: Document, name: str) -> int:
    from . import derived
    olx = _as_locale(doc, args.variant)
    u = _region_elem(doc, args.region)
    res = getattr(derived, name)(olx, u)
    _emit(args, f"{olx.frame.pretty(res)}\n")
    return 0


def _cmd_points(args, doc: Document) -> int:
    from . import duality as dua
    olx = _as_locale(doc, args.variant)
    pts = dua.points_space(olx)
    lines = [f"points: {pts.n}"]
    for i in range(pts.n):
        lines.append(f"  F{i} = prime {olx.frame.pretty(pts.prime_ids[i])}, "
                     f"above: {[f'F{j}' for j in bits(pts.up[i]) if j != i]}")
    rep = dua.counit_check(olx)
    lines.append(rep.pretty(olx.frame))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def _cmd_ips(args, doc: Document) -> int:
    from . import duality as dua
    olx = _as_locale(doc, args.variant)
    ips = dua.ideal_points(olx)
    f = olx.frame
    lines = [f"IPs ({len(ips.ips)}):"]
    lines += [f"  {f.pretty(p)}" for p in ips.ips]
    lines.append(f"IFs ({len(ips.ifs)}):")
    lines += [f"  {f.pretty(p)}" for p in ips.ifs]
    lines.append(f"future points: {len(ips.future_points)}, "
                 f"past points: {len(ips.past_points)}, "
                 f"negation bijection: {ips.negation_bijection}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_cone_frames(args, doc: Document, which) -> int:
    from . import derived
    olx = _as_locale(doc, args.variant)
    frame, _ = (derived.futures_frame(olx) if which == "futures"
                else derived.pasts_frame(olx))
    lines = [f"{which} frame: {frame.m} elements"
             + (" (ambient bottom adjoined)" if frame.meta.get("adjoined_bottom")
                else "")]
    lines += [f"  {frame.pretty(i)}" for i in frame.elements()]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_dod(args, doc: Document) -> int:
    from . import coverage as cov
    olx = _as_locale(doc, args.variant)
    a = _region_elem(doc, args.region)
    res = cov.domain_of_dependence(olx, a, args.direction)
    _emit(args, f"D{'+' if args.direction == 'future' else '-'}"
                f"({olx.frame.pretty(a)}) = {olx.frame.pretty(res.region)} "
                f"[{'exact' if res.exact else f'{res.unresolved} unresolved'}]\n")
    return 0 if res.exact else 3


def _cmd_cov(args, doc: Document) -> int:
    from . import coverage as cov
    olx = _as_locale(doc, args.variant)
    a = _region_elem(doc, args.region)
    u = _region_elem(doc, args.target, "--target")
    fn = cov.covers_below if args.direction == "future" else cov.covers_above
    v = fn(olx, a, u, args.max_path_len)
    f = olx.frame
    wit = ""
    if isinstance(v.witness, cov.Path):
        wit = " witness path " + " -> ".join(f.pretty(s) for s in v.witness.steps)
    _emit(args, f"{v.status}{wit} ({v.note})\n")
    return {"yes": 0, "no": 1, "inconclusive": 3}[v.status]


def _cmd_grothendieck(args, doc: Document) -> int:
    from . import coverage as cov
    olx = _as_locale(doc, args.variant)
    rep = cov.check_down_grothendieck(olx)
    _emit(args, rep.pretty(olx.frame) + "\n")
    return 0 if rep.ok else 1


def _cmd_ideals(args, doc: Document) -> int:
    from . import duality as dua
    if not isinstance(doc.payload, OrderedSpace):
        raise ValidationError("ideals wants a space document")
    space = doc.payload
    rel = [space.up[p] & ~(1 << p) for p in range(space.n)] \
        if args.strict_rel else list(space.up)
    ideals = dua.triangle_ideals(space.n, rel)
    psf = dua.is_past_semi_full(space.n, rel)
    lines = [f"ideals ({len(ideals)}):"]
    lines += ["  " + space.pretty_points(i.mask) for i in ideals]
    lines.append(psf.pretty())
    _emit(args, "\n".join(lines) + "\n")
    return 0 if psf.ok else 1


def _cmd_dot(args, doc: Document) -> int:
    from . import derived
    m = doc.payload.frame.m         # known before the em locale is built
    if m > args.dot_limit:
        raise ValidationError(f"frame has {m} elements; DOT export limited to "
                              f"{args.dot_limit} (raise with --dot-limit)")
    _emit(args, derived.export_dot(_as_locale(doc, "em"), args.what))
    return 0


def _cmd_cones(args, doc: Document) -> int:
    olx = _as_locale(doc, args.variant)
    u = _region_elem(doc, args.region)
    _emit(args, f"up: {olx.frame.pretty(olx.up(u))}\n"
                f"down: {olx.frame.pretty(olx.down(u))}\n")
    return 0


# subcommand -> (help, handler, the shared options it reads), in the order
# `ordloc -h` lists them; every subcommand but gen also takes the document
# (input), --strict and --out, and its handler is given the parsed document
COMMANDS = {
    "gen": ("generate a standard instance", _cmd_gen, ()),
    "check": ("run axiom checks", _cmd_check, ("--variant", "--axiom", "--json")),
    "cones": ("compute cones of --region", _cmd_cones, ("--variant", "--region")),
    "hull": ("compute hull of --region", lambda a, d: _cmd_unary(a, d, "convex_hull"),
             ("--variant", "--region")),
    "complement": ("compute complement of --region",
                   lambda a, d: _cmd_unary(a, d, "causal_complement"),
                   ("--variant", "--region")),
    "diamond": ("compute diamond of --region", lambda a, d: _cmd_unary(a, d, "diamond"),
                ("--variant", "--region")),
    "points": ("space of points + counit report", _cmd_points, ("--variant",)),
    "ips": ("ideal points", _cmd_ips, ("--variant",)),
    "futures": ("frame of futures", lambda a, d: _cmd_cone_frames(a, d, "futures"),
                ("--variant",)),
    "pasts": ("frame of pasts", lambda a, d: _cmd_cone_frames(a, d, "pasts"),
              ("--variant",)),
    "dod": ("domain of dependence of --region", _cmd_dod,
            ("--variant", "--region", "--direction")),
    "cov": ("does --region cover --target", _cmd_cov,
            ("--variant", "--region", "--target", "--direction", "--max-path-len")),
    "grothendieck": ("sieve axioms of the coverage", _cmd_grothendieck, ("--variant",)),
    "ideals": ("relation ideals of a space", _cmd_ideals, ("--strict-rel",)),
    "dot": ("DOT export of the frame", _cmd_dot, ("--what", "--dot-limit")),
}

# shared option -> its add_argument keywords
OPTIONS = {
    "--variant": {"default": "em", "choices": ["em", "upper", "lower"]},
    "--axiom": {"default": "all", "choices": ["all", *ol.ALL_AXIOMS]},
    "--json": {"action": "store_true"},
    "--region": {"default": ""},
    "--target": {"default": ""},
    "--direction": {"default": "future", "choices": ["future", "past"]},
    "--max-path-len": {"type": int, "default": None},
    "--strict-rel": {"action": "store_true",
                     "help": "drop reflexive pairs before ideal enumeration"},
    "--what": {"default": "hasse", "choices": ["hasse", "cones", "hulls"]},
    "--dot-limit": {"type": int, "default": 128},
}


def _add_options(name: str, p: argparse.ArgumentParser) -> None:
    """Give subparser `name` the options its handler reads, and no other."""
    if name == "gen":
        p.add_argument("what", choices=list(GEN_FLAGS))
        p.add_argument("--t", type=int)
        p.add_argument("--x", type=int)
        p.add_argument("--slope")
        p.add_argument("--up")
        p.add_argument("--down")
        p.add_argument("--topology", choices=["discrete", "diamond_basis", "codiscrete"])
        p.add_argument("--defect", action="append")
        p.add_argument("--name")
    else:
        p.add_argument("input", help="document file or - for stdin")
        p.add_argument("--strict", action="store_true")
        for flag in COMMANDS[name][2]:
            p.add_argument(flag, **OPTIONS[flag])
    p.add_argument("--out", default=None)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The `ordloc` parser for `argv`.  Every subparser is added, so the
    top-level help, usage and errors do not depend on `argv`, but only the
    one named by argv[0] gets its options; all of them do when argv is None
    or argv[0] names no subcommand."""
    ap = argparse.ArgumentParser(prog="ordloc",
                                 description="finite ordered locale workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if invoked in (None, name):
            _add_options(name, p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    handler = COMMANDS[args.cmd][1]
    try:
        if args.cmd == "gen":
            return handler(args)
        return handler(args, parse(_read_input(args.input), strict=args.strict))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (OrdlocError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
