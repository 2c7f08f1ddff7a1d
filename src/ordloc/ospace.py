"""Finite ordered topological spaces.

An `OrderedSpace` is a finite point set with a preorder (stored reflexive-
transitively closed, as per-point cone bitmasks) and a finite topology
(a realized `FiniteFrame`).  Pointwise cones and the three induced orders
on opens live here; everything localic is in `olocale`, and the properties
of a space (open cones, separation, convexity, chain coverage) in `derived`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import lattice as lat
from . import olocale as ol
from .errors import ValidationError
from .lattice import FiniteFrame, PointSet, SubsetCone, bits
from .olocale import OrderedLocale


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
    the frame: on the six explicit-docs spaces (256 and 729 opens) the
    cone maps take 1.36 ms from the tables and 4.38 ms by point-cone ORs
    (median of 41, in process).  Cached on the space, so the induced
    locales share them."""
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
