"""Derived structures: what the law checks never run.

The paper's layer above the laws (L3), and the builders only it uses:

* subframes built on their join-irreducibles (Birkhoff), frame maps and
  their right adjoints, the double-negation and ideal frames;
* monotone locale maps, convex hulls, causal complements and diamonds,
  the futures and pasts frames, the biframe and convexity predicates,
  the causal Heyting implication and the regular-cones check;
* space properties: open cones, T0 and sober, ordered T0 and pointwise
  convexity;
* the DOT export of a locale's frame.

`lattice`, `olocale` and `ospace` hold what `check` runs, and none of
them imports this module at load time, so a CLI process that checks laws,
generates, or answers coverage and domains of dependence never compiles
it.  `cli` imports it in the subcommands that draw on it, and `duality`
at load.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from . import olocale as ol
from .errors import (
    ConesDoNotPreserveJoins,
    FrameTooLarge,
    NotAFrameMap,
    NotClosedUnderJoin,
    NotClosedUnderMeet,
    NotDistributive,
    ValidationError,
)
from .lattice import (SUBSET_LIMIT, FiniteFrame, PointSet, _closed_nbhds, _fold_failure, bits,
                      inclusion_rows, join_failure, transpose_rows)
from .olocale import CheckReport, OrderedLocale, _fail, _ok, check_axiom
from .ospace import OrderedSpace


# -- frames on their join-irreducibles ----------------------------------------


def subframe(ambient: FiniteFrame, elem_ids: Iterable[int], irreducibles: Iterable[int], *,
             meta=None) -> tuple[FiniteFrame, list[int]]:
    """Frame on a set of ambient elements, ordered by the ambient order,
    given its join-irreducibles J' (ambient ids, all kept).  Returns (frame,
    inclusion), inclusion[i] the ambient id of subframe element i.

    Kept element x is carried by car[x] = {b : J'[b] <= x}, k = |J'| bits,
    J' in id order.  J' lemma: in a finite lattice every x is the join of
    the J' below it, so x <= y iff car[x] <= car[y], and car is one to one;
    meets and joins are those of the kept set, not the ambient ones (the
    join of two regular elements is not their ambient join).  Topology
    lemma (Birkhoff; Davey & Priestley, ch. 5): the lattice is distributive
    iff every j in J' is join-prime iff the carriers are closed under
    union, and then they are exactly the down-sets of J' under the induced
    order: the opens of a topology on k points.  So the frame is checked by
    `frame_from_topology`'s closure check on the carriers
    (`lattice._closed_nbhds`: the indicator up to 2^20 subsets, the
    per-open scan above), and meets and joins are carrier ANDs and ORs.
    The caller supplies J' by a lemma of its own; distinct carriers and
    bottom's carrier 0 are checked.  The carriers are the rows of
    `lattice.inclusion_rows` of the J' carriers in the kept ones, so no
    m x m order matrix is built.

    Where the carriers are not closed, some car[x] | car[j] (j in J') is not
    a carrier; at the first such (x, j) some j' in car[x | j] lies below
    neither x nor j, and j' & (x | j) = j' is not (j' & x) | (j' & j),
    which lies below the join-irreducible j' strictly: NotDistributive
    names (j', x, j), kept ids.
    """
    ids = sorted(set(elem_ids))
    ext = [ambient.mask_of(i) for i in ids] if ambient.realized else None
    return _carrier_frame(ambient, ids, irreducibles, ext, ambient.base_size,
                          ambient.labels, meta), ids


def _carrier_frame(ambient, ids, irreducibles, ext, base_size, labels, meta) -> FiniteFrame:
    """`subframe`'s frame on the kept ids, with the given extents."""
    car, pos = ambient.carriers(), {a: i for i, a in enumerate(ids)}
    js = sorted(pos[a] for a in irreducibles)
    full = (1 << len(js)) - 1
    cars = inclusion_rows([car[ids[j]] for j in js], [car[a] for a in ids])
    id_of = {c: x for x, c in enumerate(cars)}
    if len(id_of) != len(ids) or 0 not in id_of:
        raise ValidationError("the join-irreducibles do not carry the kept elements "
                              "one to one with bottom empty")
    try:
        _closed_nbhds(len(js), sorted(id_of), id_of)
    except (NotClosedUnderJoin, NotClosedUnderMeet):
        x, j = next((x, j) for x, c in enumerate(cars) for j in js if c | cars[j] not in id_of)
        u = cars[x] | cars[j]
        z = reduce(and_, (c for c in cars if u & ~c == 0), full)      # car[x | j]
        raise NotDistributive(f"a&(b|c) != (a&b)|(a&c) at {(js[next(bits(z & ~u))], x, j)}") \
            from None
    f = FiniteFrame(kind="mask", m=len(ids), bottom=id_of[0], top=id_of[full], ext=ext,
                    car=cars, base_size=base_size, labels=labels, meta=meta)
    f._coprimes = js
    return f


# -- frame maps ---------------------------------------------------------------


def meet_failure(frame: FiniteFrame, t: Sequence[int],
                 into: FiniteFrame) -> Optional[tuple[int, int]]:
    """A pair (a, b) with t(a & b) != t(a) & t(b), or None: the dual of
    `join_failure`.  The primes P of a finite frame are meet-prime and every
    a is the meet of the p above it, so t preserves binary meets iff
    t(a) = t(top) & meet{t(p) : p in P, a <= p} for every a: O(m |P|)."""
    gens = [(p, frame.down_row(p)) for p in frame.primes()]
    return _fold_failure(t, gens, frame.top, frame.meet, into.meet)


class FrameMap:
    """A locale map source -> target carried by its frame map `preimage`.

    preimage[v] is the source element f^{-1}(V) for each target element V.
    """

    __slots__ = ("source", "target", "preimage")

    def __init__(self, source: FiniteFrame, target: FiniteFrame, preimage: list[int]):
        self.source = source
        self.target = target
        self.preimage = preimage

    def validate(self) -> None:
        """NotAFrameMap unless bottom, top, binary meets and joins are kept:
        `join_failure` and `meet_failure` on the target, O(m (|J| + |P|));
        only a failure scans the pairs a <= b in id order, for the least one."""
        src, tgt, pre = self.source, self.target, self.preimage
        if len(pre) != tgt.m:
            raise NotAFrameMap("preimage must be total on the target frame")
        if pre[tgt.bottom] != src.bottom:
            raise NotAFrameMap("preimage does not preserve bottom")
        if pre[tgt.top] != src.top:
            raise NotAFrameMap("preimage does not preserve top")
        if join_failure(tgt, pre, src) is None and meet_failure(tgt, pre, src) is None:
            return
        for a in range(tgt.m):
            for b in range(a, tgt.m):
                if pre[tgt.meet(a, b)] != src.meet(pre[a], pre[b]):
                    raise NotAFrameMap(f"meet not preserved at {(a, b)}")
                if pre[tgt.join(a, b)] != src.join(pre[a], pre[b]):
                    raise NotAFrameMap(f"join not preserved at {(a, b)}")


def identity_map(frame: FiniteFrame) -> FrameMap:
    return FrameMap(frame, frame, list(frame.elements()))


def right_adjoint(fmap: FrameMap, u: int) -> int:
    """f_*(u) = join{V in target : f^{-1}(V) <= u}."""
    tgt, src, pre = fmap.target, fmap.source, fmap.preimage
    return tgt.join_all(v for v in tgt.elements() if src.leq(pre[v], u))


def galois_law_holds(fmap: FrameMap) -> bool:
    """f^{-1}(V) <= U  iff  V <= f_*(U), over all pairs."""
    src, tgt = fmap.source, fmap.target
    for u in src.elements():
        fu = right_adjoint(fmap, u)
        for v in tgt.elements():
            if src.leq(fmap.preimage[v], u) != tgt.leq(v, fu):
                return False
    return True


# -- derived frames -----------------------------------------------------------


def double_negation_frame(frame: FiniteFrame) -> tuple[FiniteFrame, FrameMap]:
    """Frame of regular elements (fixed points of double negation).

    Returns the Boolean subframe together with the sublocale map
    X_regular >-> X, whose frame map sends U to not-not-U.  Its
    join-irreducibles are its atoms, the minimal nonzero not-not-j over the
    ambient j in J (`_regular_atoms`).
    """
    if frame.is_boolean():
        # every element is regular: the sublocale is the identity
        return frame, identity_map(frame)
    regular = [x for x in frame.elements() if frame.neg(frame.neg(x)) == x]
    sub, incl = subframe(frame, regular, _regular_atoms(frame),
                         meta={"construction": "double-negation"})
    pos = {amb: i for i, amb in enumerate(incl)}
    pre = [pos[frame.neg(frame.neg(u))] for u in frame.elements()]
    fmap = FrameMap(source=sub, target=frame, preimage=pre)
    fmap.validate()
    if not sub.is_boolean():
        raise ValidationError("double-negation frame failed to be Boolean")
    return sub, fmap


def _regular_atoms(frame: FiniteFrame) -> list[int]:
    """The atoms of the regular elements: the minimal nonzero not-not-j, j in J.

    Not-not preserves order, and every regular r is the regular join of the
    not-not-j over the j <= r (r = not-not r and r is the join of those j).
    So an atom a is some not-not-j, as a nonzero r has a j below it, and
    not-not-j <= a; and a minimal nonzero not-not-j lies above an atom,
    which is one of them.  No j has not-not-j = bottom, as j != bottom."""
    nn = {frame.neg(frame.neg(j)) for j in frame.coprimes()}
    return [a for a in nn if not any(b != a and frame.leq(b, a) for b in nn)]


def ideal_frame(frame: FiniteFrame) -> tuple[FiniteFrame, list[int]]:
    """Frame of ideals of a finite frame, with the principal-ideal iso.

    In a finite lattice every ideal is principal (an ideal is closed under
    finite joins, so it contains its own join), hence Idl(L) is just L
    again; the returned witness maps x to the element of Idl(L) carrying
    the ideal down(x).  Built as the subframe on every element and J, with
    the principal ideals as extents over the base L.
    """
    m = frame.m
    f = _carrier_frame(frame, frame.elements(), frame.coprimes(), list(frame.down_rows()), m,
                       [f"e{i}" for i in range(m)], {"construction": "ideals"})
    return f, list(range(m))


# -- locale maps ------------------------------------------------------------


def is_monotone(fmap: FrameMap, source: OrderedLocale,
                target: OrderedLocale) -> CheckReport:
    """Monotonicity of a locale map via cones:
    up(f^{-1}(V)) <= f^{-1}(up(V)) and dually, for every target element."""
    if fmap.source is not source.frame or fmap.target is not target.frame:
        raise ValidationError("ordered locales do not match the frame map")
    f, g = source.frame, target.frame
    pre = fmap.preimage
    for v in g.elements():
        if not f.leq(source.up_map[pre[v]], pre[target.up_map[v]]):
            return _fail("monotone", (v,), "future cone escapes the preimage")
        if not f.leq(source.down_map[pre[v]], pre[target.down_map[v]]):
            return _fail("monotone", (v,), "past cone escapes the preimage")
    return _ok("monotone", "exhaustive over target elements")


# -- hulls, complements and cone frames ---------------------------------------


def convex_hull(olx: OrderedLocale, u: int) -> int:
    return olx.frame.meet(olx.cones.u[u], olx.cones.d[u])


def is_convex_open(olx: OrderedLocale, u: int) -> bool:
    return convex_hull(olx, u) == u


def is_convex_locale(olx: OrderedLocale) -> CheckReport:
    """Convex opens form a base: every element is a join of convex ones.

    Lemma: generators form a base iff they hold every join-irreducible j,
    as each element is the join of the j below it, and a join equal to j
    holds j.  An element that is no join of generators lies above a j that
    is none, so where ids extend the order the least such element is the
    least such j.  O(|J|) hulls, and no cone is listed.
    """
    js = olx.frame.coprimes()
    u = next((j for j in js if not is_convex_open(olx, j)), None)
    if u is not None:
        return _fail("convex", (u,), "not a join of convex subregions")
    return _ok("convex", f"exact: the {len(js)} join-irreducibles are convex")


def causal_complement(olx: OrderedLocale, u: int) -> int:
    f = olx.frame
    return f.meet(f.neg(olx.cones.u[u]), f.neg(olx.cones.d[u]))


def diamond(olx: OrderedLocale, u: int) -> int:
    return causal_complement(olx, causal_complement(olx, u))


def futures_frame(olx: OrderedLocale) -> tuple[FiniteFrame, FrameMap]:
    """Subframe on the image of the future cone, when cones preserve joins.

    The empty-family case may fail in pathological orders (e.g. the
    inclusion order, where the future cone of bottom is the top); then the
    ambient bottom is adjoined and flagged in frame.meta["adjoined_bottom"].
    """
    return _cone_frame(olx, "u", "futures")


def pasts_frame(olx: OrderedLocale) -> tuple[FiniteFrame, FrameMap]:
    return _cone_frame(olx, "d", "pasts")


def _cone_frame(olx: OrderedLocale, name, label) -> tuple[FiniteFrame, FrameMap]:
    """The subframe on the image of cone `name` and its inclusion map, built
    once per locale and shared by every caller (none mutates them); a
    refusal is not cached.

    Generator lemma: a cone c that preserves binary joins is monotone and
    has c(x) = c(bottom) | join{c(j) : j in J, j <= x}, and c(bottom)
    joined with the c(j) of any set S of j is c(join S).  So its image is
    {c(bottom)} closed under join with each c(j), built by doubling over
    the distinct c(j): O(|image| |J|) joins, and no cone is listed.

    Size lemma: k values c(j) each with a carrier bit that c(bottom) and the
    other c(j) lack give 2^k joins (carrier ORs): refused (FrameTooLarge)
    above SUBSET_LIMIT, before the closure where 2^k is.  Inclusion lemma:
    the image is join-closed and holds bottom (adjoined where c(bottom) is
    not); a closure c adds c(top) = top and meets, c(a & b) <= c(a) & c(b)
    = a & b <= c(a & b), so `FrameMap.validate` runs only elsewhere.  The
    frame is `subframe` on the image and its join-irreducibles, read from
    the generator values (`_cone_frame_points`)."""
    cached = olx.memo.get(label)
    if cached is not None:
        return cached
    f = olx.frame
    bad = ol._cone_join_failure(olx)
    if bad is not None:
        raise ConesDoNotPreserveJoins(bad[0])
    cone, join = getattr(olx.cones, name), or_ if f.kind == "powerset" else f.join
    gens, car = {cone[j] for j in f.coprimes()}, f.carriers()
    once = twice = car[cone[f.bottom]]          # bits of c(bottom) count as shared
    for g in gens:
        once, twice = once | car[g], twice | once & car[g]
    least = 1 << sum(car[g] & ~twice != 0 for g in gens)       # the size lemma's bound
    image = {cone[f.bottom]}
    for g in gens:
        new = {join(x, g) for x in image}
        new -= image
        if max(least, len(image) + len(new)) > SUBSET_LIMIT:
            raise FrameTooLarge(f"{label} frame exceeds {SUBSET_LIMIT} elements")
        image |= new
    meta = {"construction": label}
    if f.bottom not in image:
        image.add(f.bottom)
        meta["adjoined_bottom"] = True
    sub, incl = subframe(f, image, _cone_frame_points(f, cone)[0], meta=meta)
    fmap = FrameMap(source=f, target=sub, preimage=list(incl))
    if not ol._is_closure(f, cone):
        fmap.validate()
    cached = olx.memo[label] = sub, fmap
    return cached


def _cone_frame_points(f: FiniteFrame, cone) -> tuple[list[int], list[int]]:
    """The join-irreducibles and primes of the frame on the image of a
    join-preserving cone c (`_cone_frame`), ascending ambient ids; the
    join-irreducibles are `subframe`'s J' there, and `duality.ideal_points`
    reads both.
    Generator lemma: that frame (bottom adjoined where b0 = c(bottom) is not)
    is the ambient joins of G* = {b0} + {b0 | c(j) : j in J}, so its
    irreducibles are the x in G* but bottom that differ from the join of G*
    below x, and the prime of one is the join of the irreducibles not above it."""
    car, b0 = f.carriers(), cone[f.bottom]
    gens = {car[x]: x for x in {b0} | {f.join(b0, cone[j]) for j in f.coprimes()}}
    js = sorted(x for c, x in gens.items() if x != f.bottom and
                c != reduce(or_, [d for d in gens if d != c and d | c == c], 0))
    cs = [car[k] for k in js]
    return js, sorted({f.join_all([k for k, c in zip(js, cs) if cj & ~c]) for cj in cs})


def is_biframe(olx: OrderedLocale) -> CheckReport:
    """Do (O(X), im(up), im(down)) form a biframe?

    Needs join-preserving cones and every element a join of hull-shaped
    elements up(V) & down(W); the latter is the surjectivity of the
    canonical map into the product of the futures and pasts locales.  By
    the lemma of `is_convex_locale`, the boxes form a base iff every
    join-irreducible is a box, and the least one that is not is the witness.

    Generator lemma: once C-join passes, j in J is a box iff
    j = up(x) & down(y) for some x, y in J.  Write V and W as joins of the
    j below them (bottom as the empty join, which the cones send to
    bottom); the cones preserve those joins, and meets distribute over
    them, so up(V) & down(W) is the join of the up(x) & down(y) over those
    x and y, and a join-irreducible j equal to such a join is one of its
    terms.  So the boxes that matter are |J|^2 meets of cone reads.
    """
    cj = check_axiom(olx, "C-join")
    if not cj.ok:
        return _fail("biframe", cj.witness, f"cones do not preserve joins: {cj.note}")
    f, js = olx.frame, olx.frame.coprimes()
    boxes = {f.meet(olx.up(x), olx.down(y)) for x in js for y in js}
    u = next((j for j in js if j not in boxes), None)
    if u is not None:
        return _fail("biframe", (u,),
                     "not a join of future-meet-past boxes; the map "
                     "from the futures x pasts product is not surjective")
    return _ok("biframe", "cones preserve joins and hull boxes form a base "
                          "(product map surjective)")


def causal_heyting(olx: OrderedLocale, u: int, v: int, direction: str) -> int:
    """Causal Heyting implication: largest W with U & cone(W) <= V."""
    cj = check_axiom(olx, "C-join")
    if not cj.ok:
        raise ConesDoNotPreserveJoins(cj.witness)
    f = olx.frame
    cone = olx.cones.d if direction == "past" else olx.cones.u
    return f.join_all(w for w in f.elements() if f.leq(f.meet(u, cone[w]), v))


def check_regular_cones(olx: OrderedLocale) -> CheckReport:
    """not not up(U) == up(U) == up(not not U), and dually, for every U.
    One scan per locale; the report is memoized on it."""
    rep = olx.memo.get("regular-cones")
    if rep is None:
        rep = olx.memo["regular-cones"] = _regular_cones(olx)
    return rep


def _regular_cones(olx: OrderedLocale) -> CheckReport:
    f = olx.frame
    if f.is_boolean():
        return _ok("regular-cones", "exact: the frame is Boolean, so not not is the identity")
    for u in f.elements():
        nn = f.neg(f.neg(u))
        for cone, name in ((olx.up_map, "future"), (olx.down_map, "past")):
            if f.neg(f.neg(cone[u])) != cone[u]:
                return _fail("regular-cones", (u,),
                             f"{name} cone is not a regular element")
            if cone[nn] != cone[u]:
                return _fail("regular-cones", (u,),
                             f"{name} cone changes under double negation of "
                             "the argument")
    return _ok("regular-cones", "exhaustive")


# -- open cones and separation -----------------------------------------------


def has_open_cones(space: OrderedSpace) -> CheckReport:
    """Are the pointwise cones of every open again open?

    Every open U is the union of the least neighbourhoods N(p) of its
    points, and cones preserve unions, so all cones are open iff those of
    the join-irreducibles N(p) are.  On failure the witness is (open id,
    direction) for the smallest failing open in element-id order: the ids
    of a `frame_from_topology` frame extend the order, so a failing U
    holds a failing N(p) with no larger id.  A discrete space needs no
    case of its own: its N(p) are the n singletons, 2n mask tests.
    """
    f = space.frame
    js = f.coprimes()
    for i in js:
        e = f.mask_of(i)
        if not f.has_mask(space.up_mask(e)):
            return CheckReport("open-cones", "fail", (i, "up"),
                               f"up cone of {f.pretty(i)} is "
                               f"{space.pretty_points(space.up_mask(e))}, not open")
        if not f.has_mask(space.down_mask(e)):
            return CheckReport("open-cones", "fail", (i, "down"),
                               f"down cone of {f.pretty(i)} is not open")
    return CheckReport("open-cones", "pass", None,
                       f"exact: the cones of the {len(js)} join-irreducibles are open")


def specialisation_order(frame: FiniteFrame) -> list[int]:
    """x <= y iff every open containing x contains y; rows of point masks.
    The opens containing x are those above N(x), so row x is N(x)."""
    return [frame.mask_of(i) for i in frame.neighbourhoods()]


def is_T0(space: OrderedSpace) -> bool:
    nbhds = space.frame.neighbourhoods()
    return len(set(nbhds)) == len(nbhds)


def closure_of_point(space: OrderedSpace, p: int) -> int:
    """Topological closure of {p} as a point mask: the complement of
    int(X - {p}), the largest open that misses p.  It states cl{p} of the
    sobriety definition that `is_sober` decides: every prime open is
    X - cl{p} for exactly one point p."""
    f, full = space.frame, (1 << space.n) - 1
    return full & ~f.mask_of(f.interior(full & ~(1 << p)))


def is_sober(space: OrderedSpace) -> bool:
    """Every prime open is the complement of a unique point closure.

    Implemented by the prime-open definition, X - cl{p} = int(X - {p});
    the finite shortcut (sober iff T0) stays a test oracle.
    """
    f, full = space.frame, (1 << space.n) - 1
    owners = [f.interior(full & ~(1 << p)) for p in range(space.n)]
    return all(owners.count(pr) == 1 for pr in f.primes())


def is_T0_ordered(space: OrderedSpace) -> CheckReport:
    """For x not<= y some open separates: U containing x with y outside
    upcone(U), or V containing y with x outside downcone(V).  Cones grow
    with the open, so the least opens decide: x, y are inseparable iff y
    is in up(N(x)) and x in down(N(y)).  A discrete space, N(x) = {x},
    needs no case of its own: there up(N(x)) = up(x) excludes every y."""
    f = space.frame
    nbhds = specialisation_order(f)
    in_past = transpose_rows([space.down_mask(e) for e in nbhds])
    for x, e in enumerate(nbhds):
        bad = space.up_mask(e) & in_past[x] & ~space.up[x]
        if bad:
            y = next(bits(bad))
            return CheckReport("T0-ordered", "fail", (x, y),
                               f"points {space.labels[x]} and {space.labels[y]} "
                               "are order-inseparable")
    return CheckReport("T0-ordered", "pass", None, "exhaustive over point pairs")


# -- convexity ----------------------------------------------------------------


def is_pointwise_convex(space: OrderedSpace, c: PointSet | int) -> bool:
    mask = c.mask if isinstance(c, PointSet) else c
    return space.up_mask(mask) & space.down_mask(mask) & ~mask == 0


def is_convex_space(space: OrderedSpace) -> CheckReport:
    """Pointwise convex opens form a basis.

    An open holding p holds its least neighbourhood N(p), so N(p) is the
    only open inside N(p) that holds p: the convex opens form a basis iff
    every N(p) is convex, and then every open is the union of the N(p) of
    its points.  An open that is not a union of convex opens holds a point
    whose N(p) is not convex, and element ids follow the masks, so the
    least such open is the least N(p) that is not convex.
    """
    f = space.frame
    bad = [e for e in f.neighbourhoods() if not is_pointwise_convex(space, f.mask_of(e))]
    if bad:
        i = min(bad)
        return CheckReport("convex-space", "fail", (i,),
                           f"{f.pretty(i)} is not a union of convex opens")
    return CheckReport("convex-space", "pass", None,
                       f"exact: the least neighbourhoods of all {space.n} points "
                       "are convex")


# -- dot export ---------------------------------------------------------------


def export_dot(olx: OrderedLocale, what: str = "hasse") -> str:
    """Hasse diagram of a locale's frame as a DOT digraph, with optional
    coloring of cone images (what=cones) or convex elements (what=hulls)."""
    frame = olx.frame
    color = {}
    if what == "cones":
        for u in frame.elements():
            color.setdefault(olx.up_map[u], []).append("up")
            color.setdefault(olx.down_map[u], []).append("down")
    elif what == "hulls":
        for u in frame.elements():
            if is_convex_open(olx, u):
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
