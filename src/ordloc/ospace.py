"""Finite ordered topological spaces.

An `OrderedSpace` is a finite point set with a preorder (stored reflexive-
transitively closed, as per-point cone bitmasks) and a finite topology
(a realized `FiniteFrame`).  Pointwise cones, separation predicates, the
three induced orders on opens, and the chain-based causal coverage live
here; everything localic is in `olocale`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from . import lattice as lat
from . import olocale as ol
from .errors import ValidationError
from .lattice import FiniteFrame, PointSet, SubsetCone, bits
from .olocale import CheckReport, OrderedLocale


class OrderedSpace:
    """Finite point set + preorder + topology."""

    def __init__(self, n: int, up_rows: list[int], frame: FiniteFrame,
                 labels=None, name: str = ""):
        self.n = n
        self.up = up_rows                        # up[p] = point mask of {q : p <= q}
        self.down = lat.transpose_rows(up_rows)
        self.frame = frame
        self.labels = labels or frame.labels or [str(i) for i in range(n)]
        frame.labels = self.labels
        self.name = name
        self._cone_cache = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, n: int, order: Iterable[tuple[int, int]] = (),
              opens="discrete", labels=None, name: str = "") -> "OrderedSpace":
        """Space from order generator pairs (closure is applied) and a
        topology.

        `opens` is "discrete", "codiscrete", or an explicit family of point
        masks / PointSets (validated for closure).
        """
        rows = [0] * n
        for a, b in order:
            rows[a] |= 1 << b
        rows = lat.transitive_closure_rows(rows)
        frame = topology(n, opens, labels)
        return cls(n, rows, frame, labels=labels, name=name)

    def leq_points(self, p: int, q: int) -> bool:
        return bool(self.up[p] >> q & 1)

    # -- cones ---------------------------------------------------------------

    def up_mask(self, pmask: int) -> int:
        return lat.or_rows(self.up, pmask)

    def down_mask(self, pmask: int) -> int:
        return lat.or_rows(self.down, pmask)

    def pretty_points(self, pmask: int) -> str:
        return "{" + ",".join(str(self.labels[p]) for p in bits(pmask)) + "}"


def topology(n, opens, labels) -> FiniteFrame:
    """Frame of "discrete", "codiscrete" or explicit opens on n points."""
    if opens == "discrete":
        return lat.powerset_frame(n, labels)
    if opens == "codiscrete":
        return lat.frame_from_topology(n, [0, (1 << n) - 1], labels=labels)
    masks = [o.mask if isinstance(o, PointSet) else int(o) for o in opens]
    return lat.frame_from_topology(n, masks, labels=labels)


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


def _cone_maps(space: OrderedSpace) -> tuple[Sequence[int], Sequence[int], dict]:
    """Pointwise cone of every open, as frame elements (interiors taken),
    and the join memo of each cone known to preserve joins: generator-form
    `SubsetCone`s on powerset frames (every subset is open, and the cone of
    a subset is the OR of its points' cones, so the transposed point rows
    of one cone are the other's), lists elsewhere.

    Lemma: for every open U, up(U) is the union of up(p) over p in U, so
    if up(U) is open for all U, then int(up(U)) = up(U) and U -> up(U)
    preserves unions, this frame's joins (and dually).  Every value is
    tested, so the memo holds {name: None} exactly for the cones whose
    values are all open (and for a `SubsetCone`).  On listed opens the
    point rows' `SubsetCone`s are read where their tables are no larger than
    the frame.  Cached on the space, so the induced locales share them."""
    cached = space._cone_cache.get("maps")
    if cached is not None:
        return cached
    f = space.frame
    joins = {"u": None, "d": None}
    if f.kind == "powerset":
        up_map = SubsetCone(space.n, 0, space.up, cols=space.down)
        down_map = SubsetCone(space.n, 0, space.down, cols=space.up)
    else:
        def value(name: str, c: int) -> int:
            try:
                return f.id_of_mask(c)
            except KeyError:
                joins.pop(name, None)
                return f.interior(c)

        tabled = 1 << space.n - space.n // 2 <= f.m
        masks = [f.mask_of(i) for i in f.elements()]
        up = SubsetCone(space.n, 0, space.up).__getitem__ if tabled else space.up_mask
        down = SubsetCone(space.n, 0, space.down).__getitem__ if tabled else space.down_mask
        up_map = [value("u", up(e)) for e in masks]
        down_map = [value("d", down(e)) for e in masks]
    space._cone_cache["maps"] = up_map, down_map, joins
    return up_map, down_map, joins


def _top_cone(space: OrderedSpace) -> Sequence[int]:
    """The constant-top cone of the upper and lower variants, cached."""
    top = space._cone_cache.get("top")
    if top is None:
        f = space.frame
        top = (SubsetCone(space.n, f.top, [0] * space.n, cols=[f.top] * space.n)
               if f.kind == "powerset" else [f.top] * f.m)
        space._cone_cache["top"] = top
    return top


def induced_locale(space: OrderedSpace, variant: str = "em") -> OrderedLocale:
    """Ordered locale on the topology frame; variant em | upper | lower.

    The causal order comes from the monad pair (interior of the pointwise
    cone, with one side replaced by the constant-top map for the upper and
    lower variants), which reproduces
      em:    U <= V  iff  V inside upcone(U) and U inside downcone(V)
      upper: U <= V  iff  V inside upcone(U)
      lower: U <= V  iff  U inside downcone(V)
    """
    f = space.frame
    up_map, down_map, joins = _cone_maps(space)
    if variant == "em":
        pair = ol.ConePair(f, up_map, down_map, dict(joins))
    elif variant == "upper":
        pair = ol.ConePair(f, up_map, _top_cone(space), {**joins, "d": None})
    elif variant == "lower":
        pair = ol.ConePair(f, _top_cone(space), down_map, {**joins, "u": None})
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    # interiors of pointwise cones are always monads on the open-set lattice;
    # the constant-top cone and a list cone of open values (`_cone_maps`)
    # preserve joins, so validation checks them at bottom and J only
    loc = ol.ordered_locale_from_monads(pair, meta={"variant": variant,
                                                    "space": space.name})
    rep = ol.check_axiom(loc, "V")
    if not rep.ok:
        raise ValidationError(f"induced locale lost join closure: {rep.pretty(f)}")
    return loc


# -- separation ---------------------------------------------------------------


def specialisation_order(frame: FiniteFrame) -> list[int]:
    """x <= y iff every open containing x contains y; rows of point masks.
    The opens containing x are those above N(x), so row x is N(x)."""
    return [frame.mask_of(i) for i in frame.neighbourhoods()]


def is_T0(space: OrderedSpace) -> bool:
    nbhds = space.frame.neighbourhoods()
    return len(set(nbhds)) == len(nbhds)


def closure_of_point(space: OrderedSpace, p: int) -> int:
    """Topological closure of {p} as a point mask: the complement of
    int(X - {p}), the largest open that misses p."""
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
    in_past = lat.transpose_rows([space.down_mask(e) for e in nbhds])
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


# -- chain coverage -----------------------------------------------------------


def _bad_chain(space: OrderedSpace, amask: int, umask: int) -> Optional[list[int]]:
    """A <=-chain ending in U that avoids A and cannot be extended into A.

    Exact digraph search: start points have pasts disjoint from A; edges
    stay inside the complement of A.
    """
    full = (1 << space.n) - 1
    comp = full & ~amask
    starts = [p for p in bits(comp) if space.down[p] & amask == 0]
    parent = {}
    queue = deque()
    for s in starts:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    target = umask & comp
    hit = None
    for s in starts:
        if target >> s & 1:
            hit = s
            break
    while hit is None and queue:
        x = queue.popleft()
        for y in bits(space.up[x] & comp):
            if y not in parent:
                parent[y] = x
                if target >> y & 1:
                    hit = y
                    queue.clear()
                    break
                queue.append(y)
    if hit is None:
        return None
    chain = [hit]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return chain


def chain_covers_below(space: OrderedSpace, a: PointSet | int,
                       u: PointSet | int) -> CheckReport:
    """Does A cover U from below along <=-chains?

    Fails when some chain ending in U avoids A and starts at a point whose
    past misses A, with such a chain as witness, or else when A is not
    inside the past of U, with A's points outside it.
    """
    amask = a.mask if isinstance(a, PointSet) else a
    umask = u.mask if isinstance(u, PointSet) else u
    extra = amask & ~space.down_mask(umask)
    chain = _bad_chain(space, amask, umask)
    if chain is not None:
        note = "witness chain avoids A with past-blind start"
        if extra:
            note = "precondition: A is not inside the past of U; " + note
        return CheckReport("chain-cover", "fail", tuple(chain), note)
    if extra:
        return CheckReport("chain-cover", "fail", tuple(bits(extra)),
                           "precondition: A is not inside the past of U")
    return CheckReport("chain-cover", "pass", None, "digraph reachability, exact")


def pointwise_domain_of_dependence(space: OrderedSpace, a: PointSet | int,
                                   direction: str = "future") -> PointSet:
    """Largest point set every chain into which must come from A."""
    amask = a.mask if isinstance(a, PointSet) else a
    if direction == "past":
        flipped = OrderedSpace(space.n, list(space.down), space.frame,
                               labels=space.labels)
        return PointSet(space.n,
                        pointwise_domain_of_dependence(flipped, amask, "future").mask)
    out = 0
    reach = space.up_mask(amask) | amask
    for y in range(space.n):
        if not reach >> y & 1:
            continue
        if _bad_chain(space, amask, 1 << y) is None:
            out |= 1 << y
    return PointSet(space.n, out)
