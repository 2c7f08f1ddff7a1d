"""Finite ordered topological spaces.

An `OrderedSpace` is a finite point set with a preorder (stored reflexive-
transitively closed, as per-point cone bitmasks) and a finite topology
(a realized `FiniteFrame`).  Pointwise cones and the three induced orders
on opens live here; everything localic is in `olocale`, and the properties
of a space (open cones, separation, convexity, chain coverage) in `derived`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

from . import lattice as lat
from . import olocale as ol
from .errors import ValidationError
from .lattice import FiniteFrame, PointSet, SubsetCone, bits
from .olocale import OrderedLocale


class OrderedSpace:
    """Finite point set + preorder + topology.

    The constructor takes the point rows as given and does not check that
    they are a preorder: `build` closes its pairs, and `gen` builds closed
    rows.  The check is made where the rows become cones: `induced_locale`
    tests the rows of a discrete space once (`lattice.is_preorder`, memoized
    in `_cone_cache`), and rows that fail reach `ConePair.validate`, which
    names the monad law that breaks; on listed opens `validate` decides.
    """

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


def _cone(space: OrderedSpace, name: str) -> tuple[Sequence[int], bool]:
    """The pointwise cone `name` ("u" future, "d" past) of every open, as
    frame elements (interiors taken), and whether it is known to preserve
    joins: a generator-form `SubsetCone` on a powerset frame (every subset
    is open, and the cone of a subset is the OR of its points' cones, so the
    transposed point rows of one cone are the other's), a list elsewhere.

    Lemma: for every open U, up(U) is the union of up(p) over p in U, so
    if up(U) is open for all U, then int(up(U)) = up(U) and U -> up(U)
    preserves unions, this frame's joins (and dually).  Every value is
    tested, so the flag is True exactly for a cone whose values are all
    open (and for a `SubsetCone`).  On listed opens the point rows'
    `SubsetCone` is read where its tables are no larger than the frame: on
    the six explicit-docs spaces (256 and 729 opens) the cone maps take
    1.36 ms from the tables and 4.38 ms by point-cone ORs (median of 41, in
    process).  Cached on the space per side, so the induced locales share
    them and the upper and lower variants build only the side they read."""
    cached = space._cone_cache.get(name)
    if cached is not None:
        return cached
    f = space.frame
    rows, cols = (space.up, space.down) if name == "u" else (space.down, space.up)
    if f.kind == "powerset":
        cached = SubsetCone(space.n, 0, rows, cols=cols), True
    else:
        joins = True

        def value(c: int) -> int:
            nonlocal joins
            try:
                return f.id_of_mask(c)
            except KeyError:
                joins = False
                return f.interior(c)

        tabled = 1 << space.n - space.n // 2 <= f.m
        cone = SubsetCone(space.n, 0, rows).__getitem__ if tabled else partial(lat.or_rows, rows)
        cached = [value(cone(f.mask_of(i))) for i in f.elements()], joins
    space._cone_cache[name] = cached
    return cached


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

    Lemma: on a powerset frame whose point rows are a preorder the pair is
    a monad pair, certified by one packed test of the rows
    (`lattice.is_preorder`, memoized on the space).  The point-cone map
    s -> OR{up[b] : b in s} is inflationary, as the rows are reflexive;
    idempotent, as they are transitive; and it preserves joins by the
    `SubsetCone` lemma, so it is monotone.  The transposed rows are a
    preorder too, and the constant-top map is a closure.  Where the test
    fails, or on listed opens, `ConePair.validate` decides and names the
    least witness.
    """
    f = space.frame
    if variant not in ("em", "upper", "lower"):
        raise ValidationError(f"unknown variant {variant!r}")
    top = None if variant == "em" else (_top_cone(space), True)
    up = top if variant == "lower" else _cone(space, "u")
    down = top if variant == "upper" else _cone(space, "d")
    pair = ol.ConePair(f, up[0], down[0],
                       {name: None for name, (_, joins) in (("u", up), ("d", down)) if joins})
    certified = f.kind == "powerset" and _is_preorder(space)
    pair.monotone = certified or None
    loc = ol.ordered_locale_from_monads(pair, validated=certified,
                                        meta={"variant": variant, "space": space.name})
    rep = ol.check_axiom(loc, "V")
    if not rep.ok:
        raise ValidationError(f"induced locale lost join closure: {rep.pretty(f)}")
    return loc


def _is_preorder(space: OrderedSpace) -> bool:
    """`lattice.is_preorder` of the point rows, memoized on the space."""
    ok = space._cone_cache.get("preorder")
    if ok is None:
        ok = space._cone_cache["preorder"] = lat.is_preorder(space.up)
    return ok
