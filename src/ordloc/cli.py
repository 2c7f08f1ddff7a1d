"""Command line front end: instance (de)serialization, check orchestration,
reports, DOT export.

Exit codes: 0 all checks passed / computation done, 1 a check failed
(witness printed), 2 invalid input, 3 inconclusive (coverage bound or
certification exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import coverage as cov
from . import duality as dua
from . import gen
from . import olocale as ol
from . import ospace as osp
from .errors import OrdlocError, ParseError, ValidationError
from .lattice import FiniteFrame, bits, mask_of_iter
from .olocale import OrderedLocale
from .ospace import OrderedSpace


@dataclass
class Document:
    kind: str                  # space | locale | cones | coverage-table
    name: str
    payload: object            # OrderedSpace | OrderedLocale | (frame, tables)
    raw: dict


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
    """An integer id in 0..n-1."""
    try:
        i = int(x)
    except (TypeError, ValueError):
        raise ParseError(f"{x!r} is not an integer id", path) from None
    if not 0 <= i < n:
        raise ParseError(f"id {i} out of range 0..{n - 1}", path)
    return i


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
        base = int(obj["base"])
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
    return Document("space", raw["name"], space, raw)


def doc_of_locale(olx: OrderedLocale, name: str = "") -> Document:
    rows = olx.rel_rows()
    raw = {"kind": "locale", "name": name or olx.meta.get("name", ""),
           "frame": _frame_to_json(olx.frame),
           "rel": [[u, v] for u in olx.frame.elements() for v in bits(rows[u])
                   if u != v]}
    return Document("locale", raw["name"], olx, raw)


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
        return Document("space", name, space, obj)
    if kind == "locale":
        frame = _frame_from_json(obj.get("frame", {}), "frame")
        pairs = _pairs(obj.get("rel", []), frame.m, "rel")
        olx = ol.ordered_locale_from_relation(frame, pairs, strict=strict)
        if "join_saturated" in olx.meta and not strict:
            print("notice: relation join-saturated, witness "
                  f"{olx.meta['join_saturated']}", file=sys.stderr)
        return Document("locale", name, olx, obj)
    if kind == "cones":
        frame = _frame_from_json(obj.get("frame", {}), "frame")
        up = _ids(obj.get("up"), frame.m, "up")
        down = _ids(obj.get("down"), frame.m, "down")
        olx = ol.ordered_locale_from_monads(ol.ConePair(frame, up, down))
        return Document("cones", name, olx, obj)
    if kind == "coverage-table":
        frame = _frame_from_json(obj.get("frame", {}), "frame")
        try:
            minus, plus = ({int(u): [int(a) for a in row] for u, row in obj[key]}
                           for key in ("cov_minus", "cov_plus"))
        except (KeyError, TypeError, ValueError):
            raise ParseError("cov_minus and cov_plus must be lists of "
                             "[open, [ids]] rows") from None
        return Document("coverage-table", name, (frame, minus, plus), obj)
    raise ParseError(f"unknown document kind {kind!r}")


def serialize(doc: Document) -> str:
    if isinstance(doc.payload, OrderedSpace) and doc.raw.get("kind") != "space":
        doc = doc_of_space(doc.payload, doc.name)
    return json.dumps(doc.raw, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


# -- dot export ---------------------------------------------------------------


def export_dot(doc: Document, what: str = "hasse", limit: int = 128) -> str:
    """Hasse diagram of the frame as a DOT digraph, with optional coloring
    of cone images (what=cones) or convex elements (what=hulls)."""
    olx = _as_locale(doc, "em")
    frame = olx.frame
    if frame.m > limit:
        raise ValidationError(
            f"frame has {frame.m} elements; DOT export limited to {limit} "
            "(raise with --dot-limit)")
    color = {}
    if what == "cones":
        for u in frame.elements():
            color.setdefault(olx.up_map[u], []).append("up")
            color.setdefault(olx.down_map[u], []).append("down")
    elif what == "hulls":
        for u in frame.elements():
            if ol.is_convex_open(olx, u):
                color.setdefault(u, []).append("convex")
    lines = ["digraph frame {", "  rankdir=BT;", "  node [shape=box];"]
    palette = {"up": "#ffd0d0", "down": "#d0d0ff", "updown": "#e8c8f0",
               "convex": "#d0ffd0"}
    for i in frame.elements():
        label = frame.pretty(i).replace('"', "'")
        attrs = [f'label="{label}"']
        tags = sorted(set(color.get(i, [])))
        if tags:
            key = "updown" if tags == ["down", "up"] else tags[0]
            attrs.append(f'style=filled fillcolor="{palette[key]}"')
        lines.append(f"  e{i} [{' '.join(attrs)}];")
    for i in frame.elements():
        for j in frame.upper_covers(i):
            lines.append(f"  e{i} -> e{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- command plumbing -----------------------------------------------------------


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    with open(arg, "r", encoding="utf-8") as fh:
        return fh.read()


def _as_locale(doc: Document, variant: str) -> OrderedLocale:
    if isinstance(doc.payload, OrderedLocale):
        return doc.payload
    if isinstance(doc.payload, OrderedSpace):
        return osp.induced_locale(doc.payload, variant)
    raise ValidationError(f"cannot treat a {doc.kind} document as a locale")


def _region_elem(doc: Document, region: str, option: str = "--region") -> int:
    """A region given as a comma-separated list of point ids."""
    olx_frame = (doc.payload.frame if not isinstance(doc.payload, tuple)
                 else doc.payload[0])
    if not region:
        raise ValidationError(f"{option} required")
    pts = [_id(p, olx_frame.base_size, option) for p in region.split(",") if p != ""]
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


def _report_lines(frame, reports) -> list[str]:
    return [r.pretty(frame) for r in reports]


def _finish(args, frame, reports, extra=None) -> int:
    code = 0
    for r in reports:
        if getattr(r, "verdict", "pass") == "fail":
            code = 1
    if args.json:
        blob = {"reports": [
            {"law": r.law, "verdict": r.verdict,
             "witness": list(r.witness) if r.witness is not None else None,
             "note": r.note} for r in reports]}
        if extra:
            blob.update(extra)
        blob["exit"] = code
        _emit(args, json.dumps(blob, sort_keys=True, indent=1) + "\n")
    else:
        lines = _report_lines(frame, reports)
        if extra:
            lines += [f"{k}: {v}" for k, v in extra.items()]
        _emit(args, "\n".join(lines) + "\n")
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


def _cmd_gen(args) -> int:
    kind = args.what
    if kind == "minkowski":
        slope = _number(Fraction, args.slope, "--slope")
        spec = gen.GridSpec(args.t, args.x, slope, slope, topology=args.topology,
                            defects=tuple(map(_defect, args.defect)))
        doc = doc_of_space(gen.minkowski_grid(spec))
    elif kind == "two-speed":
        spec = gen.GridSpec(args.t, args.x, _number(Fraction, args.up, "--up"),
                            _number(Fraction, args.down, "--down"))
        doc = doc_of_locale(gen.two_speed_grid(spec))
    elif kind == "vertical":
        doc = doc_of_space(gen.vertical_grid(args.t, args.x))
    elif kind == "bowtie":
        doc = doc_of_space(gen.bowtie())
    elif kind == "non-oc":
        doc = doc_of_space(gen.non_OC_example())
    elif kind == "suite":
        inst = gen.suite_instance(args.name)
        doc = doc_of_space(inst) if isinstance(inst, OrderedSpace) \
            else doc_of_locale(inst, args.name)
    else:
        raise ValidationError(f"unknown generator {kind!r}")
    _emit(args, serialize(doc))
    return 0


def _cmd_check(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    olx = _as_locale(doc, args.variant)
    laws = list(ol.ALL_AXIOMS) if args.axiom == "all" else [args.axiom]
    reports = [ol.check_axiom(olx, law) for law in laws]
    return _finish(args, olx.frame, reports)


def _cmd_unary(args, fn) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    olx = _as_locale(doc, args.variant)
    u = _region_elem(doc, args.region)
    res = fn(olx, u)
    _emit(args, f"{olx.frame.pretty(res)}\n")
    return 0


def _cmd_points(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
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


def _cmd_ips(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
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


def _cmd_cone_frames(args, which) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    olx = _as_locale(doc, args.variant)
    frame, _ = (ol.futures_frame(olx) if which == "futures"
                else ol.pasts_frame(olx))
    lines = [f"{which} frame: {frame.m} elements"
             + (" (ambient bottom adjoined)" if frame.meta.get("adjoined_bottom")
                else "")]
    lines += [f"  {frame.pretty(i)}" for i in frame.elements()]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_dod(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    olx = _as_locale(doc, args.variant)
    a = _region_elem(doc, args.region)
    res = cov.domain_of_dependence(olx, a, args.direction)
    _emit(args, f"D{'+' if args.direction == 'future' else '-'}"
                f"({olx.frame.pretty(a)}) = {olx.frame.pretty(res.region)} "
                f"[{'exact' if res.exact else f'{res.unresolved} unresolved'}]\n")
    return 0 if res.exact else 3


def _cmd_cov(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
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


def _cmd_grothendieck(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    olx = _as_locale(doc, args.variant)
    rep = cov.check_down_grothendieck(olx)
    _emit(args, rep.pretty(olx.frame) + "\n")
    return 0 if rep.ok else 1


def _cmd_ideals(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
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


def _cmd_dot(args) -> int:
    doc = parse(_read_input(args.input), strict=args.strict)
    _emit(args, export_dot(doc, what=args.what, limit=args.dot_limit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordloc",
                                 description="finite ordered locale workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="document file or - for stdin")
        p.add_argument("--variant", default="em", choices=["em", "upper", "lower"])
        p.add_argument("--strict", action="store_true")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
        p.add_argument("--region", default="")
        p.add_argument("--target", default="")
        p.add_argument("--direction", default="future", choices=["future", "past"])
        p.add_argument("--max-path-len", type=int, default=None)
        p.add_argument("--dot-limit", type=int, default=128)
        p.add_argument("--strict-rel", action="store_true",
                       help="drop reflexive pairs before ideal enumeration")

    g = sub.add_parser("gen", help="generate a standard instance")
    g.add_argument("what", choices=["minkowski", "two-speed", "vertical",
                                    "bowtie", "non-oc", "suite"])
    g.add_argument("--t", type=int, default=3)
    g.add_argument("--x", type=int, default=3)
    g.add_argument("--slope", default="1")
    g.add_argument("--up", default="1")
    g.add_argument("--down", default="1")
    g.add_argument("--topology", default="discrete",
                   choices=["discrete", "diamond_basis", "codiscrete"])
    g.add_argument("--defect", action="append", default=[])
    g.add_argument("--name", default="m33")
    g.add_argument("--out", default=None)
    g.add_argument("--json", action="store_true")

    c = sub.add_parser("check", help="run axiom checks")
    common(c)
    c.add_argument("--axiom", default="all",
                   choices=["all", *ol.ALL_AXIOMS])

    for name in ("cones", "hull", "complement", "diamond"):
        p = sub.add_parser(name, help=f"compute {name} of --region")
        common(p)

    common(sub.add_parser("points", help="space of points + counit report"))
    common(sub.add_parser("ips", help="ideal points"))
    common(sub.add_parser("futures", help="frame of futures"))
    common(sub.add_parser("pasts", help="frame of pasts"))
    common(sub.add_parser("dod", help="domain of dependence of --region"))
    common(sub.add_parser("cov", help="does --region cover --target"))
    common(sub.add_parser("grothendieck", help="sieve axioms of the coverage"))
    common(sub.add_parser("ideals", help="relation ideals of a space"))
    d = sub.add_parser("dot", help="DOT export of the frame")
    common(d)
    d.add_argument("--what", default="hasse", choices=["hasse", "cones", "hulls"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "cones":
            doc = parse(_read_input(args.input), strict=args.strict)
            olx = _as_locale(doc, args.variant)
            u = _region_elem(doc, args.region)
            _emit(args, f"up: {olx.frame.pretty(olx.up(u))}\n"
                        f"down: {olx.frame.pretty(olx.down(u))}\n")
            return 0
        if args.cmd == "hull":
            return _cmd_unary(args, ol.convex_hull)
        if args.cmd == "complement":
            return _cmd_unary(args, ol.causal_complement)
        if args.cmd == "diamond":
            return _cmd_unary(args, ol.diamond)
        if args.cmd == "points":
            return _cmd_points(args)
        if args.cmd == "ips":
            return _cmd_ips(args)
        if args.cmd == "futures":
            return _cmd_cone_frames(args, "futures")
        if args.cmd == "pasts":
            return _cmd_cone_frames(args, "pasts")
        if args.cmd == "dod":
            return _cmd_dod(args)
        if args.cmd == "cov":
            return _cmd_cov(args)
        if args.cmd == "grothendieck":
            return _cmd_grothendieck(args)
        if args.cmd == "ideals":
            return _cmd_ideals(args)
        if args.cmd == "dot":
            return _cmd_dot(args)
        raise ValidationError(f"unknown command {args.cmd!r}")
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OrdlocError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
