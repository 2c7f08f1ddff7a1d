"""Finite frames (complete Heyting algebras) and frame maps.

Elements are dense integer ids 0..m-1.  Two storage strategies share one
interface:

* mask-backed: the frame is a family of point sets closed under union and
  intersection (a finite topology).  Meets/joins are bit operations on the
  extent masks, so even the full powerset on 16 points (65536 opens) stays
  cheap.  The full-powerset case is detected and element ids then literally
  equal extent masks.
* table-backed: an abstract finite lattice given by the down rows of its
  order; meet/join tables are precomputed and the lattice + distributive
  laws are verified eagerly at construction.

Frames come from three constructors: `frame_from_topology` (a family of
opens), `frame_from_down_rows` (a table frame from its down rows) and
`subframe` (ambient elements, ordered by the ambient down rows).

Subsets of points and subsets of element ids are both carried as Python
int bitmasks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    MissingBottomOrTop,
    NotAFrameMap,
    NotALattice,
    NotClosedUnderJoin,
    NotClosedUnderMeet,
    NotDistributive,
    ValidationError,
)


def popcount(x: int) -> int:
    return bin(x).count("1")


def bits(x: int):
    """Iterate the set bit positions of x in increasing order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def mask_of_iter(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class PointSet:
    """A subset of a fixed finite base, stored as a bitmask."""

    base_size: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.base_size:
            raise ValidationError(f"point ids out of range for base {self.base_size}")

    @classmethod
    def from_members(cls, base_size: int, members: Iterable[int]) -> "PointSet":
        return cls(base_size, mask_of_iter(members))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __contains__(self, p: int) -> bool:
        return bool(self.mask >> p & 1)

    def __len__(self) -> int:
        return popcount(self.mask)


class FiniteFrame:
    """A finite frame: bounded distributive lattice with all (finite) joins.

    Do not call the constructor directly; use `frame_from_topology`,
    `frame_from_down_rows` or `subframe`.
    """

    def __init__(self, *, kind, m, bottom, top, ext=None, base_size=None,
                 meet_t=None, join_t=None, down_rows=None, labels=None, meta=None):
        self.kind = kind                  # "powerset" | "mask" | "table"
        self.m = m
        self.bottom = bottom
        self.top = top
        self.base_size = base_size
        self._ext = ext                   # list: element id -> point mask
        self._id_of = None if ext is None else {v: i for i, v in enumerate(ext)}
        self._meet_t = meet_t             # list of lists (table frames)
        self._join_t = join_t
        self._down_rows = down_rows       # element-id bitmask rows, lazy for mask frames
        self._up_rows = None
        self._neg = {}
        self._interior_cache = {}
        self._covers = None
        self._primes = None
        self._coprimes = None
        self._nbhds = None
        self._atoms = None
        self._atomistic = None
        self.labels = labels              # optional point names
        self.meta = dict(meta or {})

    # -- basic protocol -------------------------------------------------

    def elements(self) -> range:
        return range(self.m)

    def mask_of(self, i: int) -> int:
        """Extent of element i as a point mask (realized frames only)."""
        if self.kind == "powerset":
            return i
        if self._ext is None:
            raise ValidationError("frame has no pointset realization")
        return self._ext[i]

    @property
    def realized(self) -> bool:
        return self.kind == "powerset" or self._ext is not None

    def id_of_mask(self, mask: int) -> int:
        if self.kind == "powerset":
            if mask < 0 or mask >= self.m:
                raise KeyError(mask)
            return mask
        return self._id_of[mask]

    def has_mask(self, mask: int) -> bool:
        if self.kind == "powerset":
            return 0 <= mask < self.m
        return self._id_of is not None and mask in self._id_of

    def leq(self, i: int, j: int) -> bool:
        if self.kind == "powerset":
            return i & ~j == 0
        if self.kind == "mask":
            return self._ext[i] & ~self._ext[j] == 0
        return bool(self._down_rows[j] >> i & 1)

    def meet(self, i: int, j: int) -> int:
        if self.kind == "powerset":
            return i & j
        if self.kind == "mask":
            return self._id_of[self._ext[i] & self._ext[j]]
        return self._meet_t[i][j]

    def join(self, i: int, j: int) -> int:
        if self.kind == "powerset":
            return i | j
        if self.kind == "mask":
            return self._id_of[self._ext[i] | self._ext[j]]
        return self._join_t[i][j]

    def join_all(self, ids: Iterable[int]) -> int:
        if self.kind == "powerset":
            out = 0
            for i in ids:
                out |= i
            return out
        if self.kind == "mask":
            out = 0
            for i in ids:
                out |= self._ext[i]
            return self._id_of[out]
        out = self.bottom
        for i in ids:
            out = self._join_t[out][i]
        return out

    def join_of_idmask(self, idmask: int) -> int:
        """Join of the element set given as an id-bitmask.  Join-irreducibles
        are join-prime, so j is below the join iff it is below a member:
        the join is that of the j whose up-row meets the mask, |J| tests."""
        return self.join_all(j for j in self.coprimes() if idmask & self.up_row(j))

    # -- order rows (element-id bitmasks) --------------------------------

    def down_row(self, i: int) -> int:
        """Bitmask of {j : j <= i} over element ids."""
        if self._down_rows is None:
            self._down_rows = [None] * self.m
        r = self._down_rows[i]
        if r is None:
            if self.kind == "powerset":
                # the subsets of i are those of i less its lowest point,
                # each without and with that point (id + low)
                if i:
                    low = i & -i
                    r = self.down_row(i ^ low)
                    r |= r << low
                else:
                    r = 1
            else:
                e = self._ext[i]
                r = 0
                for j in range(self.m):
                    if self._ext[j] & ~e == 0:
                        r |= 1 << j
            self._down_rows[i] = r
        return r

    def up_row(self, i: int) -> int:
        if self._up_rows is None:
            self._up_rows = [None] * self.m
        r = self._up_rows[i]
        if r is None:
            if self.kind == "table":
                r = 0
                for j in range(self.m):
                    if self._down_rows[j] >> i & 1:
                        r |= 1 << j
            elif self.kind == "powerset":
                # the supersets of i are those of i plus its lowest missing
                # point, each with and without that point (id - low)
                free = self.m - 1 & ~i
                if free:
                    low = free & -free
                    r = self.up_row(i | low)
                    r |= r >> low
                else:
                    r = 1 << i
            else:
                e = self._ext[i]
                r = 0
                for j in range(self.m):
                    if e & ~self._ext[j] == 0:
                        r |= 1 << j
            self._up_rows[i] = r
        return r

    # -- covers / irreducibles -------------------------------------------

    def upper_covers(self, i: int) -> list[int]:
        if self.kind == "powerset":
            full = self.m - 1
            return [i | (1 << b) for b in bits(full & ~i)]
        if self._covers is None:
            self._covers = [None] * self.m
        c = self._covers[i]
        if c is None:
            strict_up = self.up_row(i) & ~(1 << i)
            c = []
            for j in bits(strict_up):
                between = strict_up & (self.down_row(j) & ~(1 << j))
                if between == 0:
                    c.append(j)
            self._covers[i] = c
        return c

    def lower_covers(self, i: int) -> list[int]:
        if self.kind == "powerset":
            return [i & ~(1 << b) for b in bits(i)]
        strict_down = self.down_row(i) & ~(1 << i)
        out = []
        for j in bits(strict_down):
            between = strict_down & (self.up_row(j) & ~(1 << j))
            if between == 0:
                out.append(j)
        return out

    def primes(self) -> list[int]:
        """Meet-irreducible elements != top.

        In a finite distributive lattice these are exactly the primes
        (p != T with a&b <= p implying a <= p or b <= p); the quantifier
        form is kept as a test oracle.
        """
        if self._primes is None:
            if self.kind == "powerset":
                full = self.m - 1
                self._primes = [full & ~(1 << b) for b in range(self.base_size)]
            else:
                self._primes = [i for i in self.elements()
                                if i != self.top and len(self.upper_covers(i)) == 1]
        return self._primes

    def coprimes(self) -> list[int]:
        """Join-irreducible (nonzero) elements, in increasing id order.

        In a finite topology these are the distinct least open
        neighbourhoods of the points.
        """
        if self._coprimes is None:
            if self.kind == "table":
                self._coprimes = [i for i in self.elements()
                                  if i != self.bottom and len(self.lower_covers(i)) == 1]
            else:
                self._coprimes = sorted(set(self.neighbourhoods()))
        return self._coprimes

    def neighbourhoods(self) -> list[int]:
        """The least open N(p) containing each point p, as element ids
        (frames of opens only).  The opens holding p are those above N(p)."""
        if self._nbhds is None:
            if self.kind == "powerset":
                self._nbhds = [1 << p for p in range(self.base_size)]
            elif self.kind == "mask":
                self._nbhds = []
                for p in range(self.base_size):
                    acc = self._ext[self.top]
                    for e in self._ext:
                        if e >> p & 1:
                            acc &= e
                    self._nbhds.append(self._id_of[acc])
            else:
                raise ValidationError("neighbourhoods need a frame of opens")
        return self._nbhds

    def atoms(self) -> list[int]:
        if self._atoms is None:
            if self.kind == "powerset":
                self._atoms = [1 << b for b in range(self.base_size)]
            else:
                self._atoms = self.upper_covers(self.bottom)
        return self._atoms

    def is_atomistic(self) -> bool:
        """Every element is the join of the atoms below it."""
        if self._atomistic is None:
            self._atomistic = self.kind == "powerset" or \
                self.least_non_join(mask_of_iter(self.atoms())) is None
        return self._atomistic

    def least_non_join(self, gens: int) -> Optional[int]:
        """The least element that is not the join of the members of the
        id-bitmask `gens` below it, or None when they form a base."""
        return next((i for i in self.elements()
                     if self.join_of_idmask(self.down_row(i) & gens) != i), None)

    # -- Heyting structure -------------------------------------------------

    def heyting(self, a: int, b: int) -> int:
        """Heyting implication a -> b = join{w : a & w <= b}."""
        if self.kind == "powerset":
            return b | (self.m - 1) & ~a
        if self.kind == "mask":
            # largest open inside b | complement(a)
            full = self._ext[self.top]
            return self.interior(self._ext[b] | (full & ~self._ext[a]))
        out = self.bottom
        for w in self.elements():
            if self.leq(self._meet_t[a][w], b):
                out = self._join_t[out][w]
        return out

    def neg(self, a: int) -> int:
        r = self._neg.get(a)
        if r is None:
            r = self.heyting(a, self.bottom)
            self._neg[a] = r
        return r

    def is_boolean(self) -> bool:
        return all(self.neg(self.neg(x)) == x for x in self.elements())

    def interior(self, point_mask: int) -> int:
        """Largest element whose extent is contained in the point mask."""
        if self.kind == "powerset":
            return point_mask
        r = self._interior_cache.get(point_mask)
        if r is None:
            acc = 0
            for e in self._ext:
                if e & ~point_mask == 0:
                    acc |= e
            r = self._id_of[acc]
            self._interior_cache[point_mask] = r
        return r

    # -- misc ---------------------------------------------------------------

    def pretty(self, i: int) -> str:
        if self.realized:
            mask = self.mask_of(i)
            if self.labels:
                names = [str(self.labels[b]) for b in bits(mask)]
            else:
                names = [str(b) for b in bits(mask)]
            return "{" + ",".join(names) + "}"
        return f"e{i}"

    def __repr__(self):
        return f"FiniteFrame({self.kind}, m={self.m})"


# -- constructors ------------------------------------------------------------


def frame_from_topology(base_size: int, opens: Sequence[PointSet | int],
                        labels=None) -> FiniteFrame:
    """Frame of an explicit finite topology, ordered by inclusion.

    Validates closure under pairwise intersection/union and membership of
    the empty set and the full base.  The full powerset is detected and
    stored without tables.
    """
    masks = []
    for o in opens:
        masks.append(o.mask if isinstance(o, PointSet) else int(o))
    masks = sorted(set(masks))
    full = (1 << base_size) - 1
    if not masks or masks[0] != 0:
        raise MissingBottomOrTop("the empty set")
    if masks[-1] != full:
        raise MissingBottomOrTop("the full base")
    if len(masks) == 1 << base_size:
        f = FiniteFrame(kind="powerset", m=len(masks), bottom=0, top=full,
                        base_size=base_size, labels=labels)
        return f
    mset = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b not in mset:
                raise NotClosedUnderMeet(a, b)
            if a | b not in mset:
                raise NotClosedUnderJoin(a, b)
    return FiniteFrame(kind="mask", m=len(masks), bottom=0, top=len(masks) - 1,
                       ext=masks, base_size=base_size, labels=labels)


def close_family_under_union_intersection(base_size: int, gens: Iterable[int]) -> list[int]:
    """Smallest family containing gens, 0 and the full base, closed under & and |."""
    full = (1 << base_size) - 1
    fam = {0, full} | set(gens)
    work = list(fam)
    while work:
        a = work.pop()
        for b in list(fam):
            for c in (a & b, a | b):
                if c not in fam:
                    fam.add(c)
                    work.append(c)
    return sorted(fam)


def transitive_closure_rows(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as successor bitmask rows."""
    n = len(rows)
    rows = [rows[i] | (1 << i) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            new = acc
            for j in bits(acc):
                new |= rows[j]
            if new != acc:
                rows[i] = new
                changed = True
    return rows


def transpose_rows(rows: list[int]) -> list[int]:
    """Predecessor rows of a relation given by successor bitmask rows."""
    cols = [0] * len(rows)
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


def rows_above(frame: FiniteFrame, values: Sequence[int]) -> list[int]:
    """For every element x, the id-bitmask {i : x <= values[i]}.

    Lemma (finite lattices): x <= y iff every join-irreducible j <= x is
    below y, as x is the join of the j below it.  So row x is the AND of
    the masks X[j] = {i : j <= values[i]} over the j <= x, and row bottom
    holds every i.  On powersets the ANDs share prefixes along the lowest
    point, T[s] = T[s ^ low] & X[low]: O(m) ANDs.  Elsewhere X[j] is
    ANDed into the rows of up(j), one fold per join-irreducible:
    O(m |J|).
    """
    f = frame
    at = {}                                  # element -> positions holding it
    for i, v in enumerate(values):
        at[v] = at.get(v, 0) | 1 << i
    rows = [(1 << len(values)) - 1] * f.m
    if f.kind == "powerset":
        x = [0] * f.base_size
        for v, pos in at.items():
            for b in bits(v):
                x[b] |= pos
        for s in range(1, f.m):
            low = s & -s
            rows[s] = rows[s ^ low] & x[low.bit_length() - 1]
        return rows
    for j in f.coprimes():
        up = f.up_row(j)
        xj = 0
        for v, pos in at.items():
            if up >> v & 1:
                xj |= pos
        for y in bits(up):
            rows[y] &= xj
    return rows


def frame_from_down_rows(down_rows: list[int], *, ext=None, base_size=None,
                         labels=None, meta=None) -> FiniteFrame:
    """Table-backed frame of the order whose row i is the id-bitmask
    {j : j <= i}.

    Checks antisymmetry, a unique bottom and top, that every meet and join
    exists (the lower bounds of i and j are a down row, the upper bounds an
    up row) and distributivity, which suffices for a finite frame.
    """
    m = len(down_rows)
    # antisymmetry
    for i in range(m):
        for j in bits(down_rows[i]):
            if j != i and down_rows[j] >> i & 1:
                raise NotALattice(f"order not antisymmetric at ({i},{j})")
    bottoms = [i for i in range(m) if down_rows[i] == 1 << i]
    top_candidates = [i for i in range(m) if popcount(down_rows[i]) == m]
    if len(bottoms) != 1 or len(top_candidates) != 1:
        raise NotALattice("order lacks a unique bottom or top")
    bottom, top = bottoms[0], top_candidates[0]

    up_rows = transpose_rows(down_rows)
    # the lower bounds of i and j are down(i & j), the upper bounds up(i | j)
    id_of_down = {r: i for i, r in enumerate(down_rows)}
    id_of_up = {r: i for i, r in enumerate(up_rows)}
    meet_t, join_t = [], []
    for i in range(m):
        di, ui = down_rows[i], up_rows[i]
        mrow = [id_of_down.get(di & dj) for dj in down_rows]
        jrow = [id_of_up.get(ui & uj) for uj in up_rows]
        if None in mrow or None in jrow:
            j = next(j for j in range(m) if mrow[j] is None or jrow[j] is None)
            raise NotALattice(f"no {'meet' if mrow[j] is None else 'join'} for ({i},{j})")
        meet_t.append(mrow)
        join_t.append(jrow)
    f = FiniteFrame(kind="table", m=m, bottom=bottom, top=top, ext=ext,
                    base_size=base_size, meet_t=meet_t, join_t=join_t,
                    down_rows=list(down_rows), labels=labels, meta=meta)
    f._up_rows = up_rows
    validate_distributivity(f)
    return f


def validate_distributivity(frame: FiniteFrame) -> None:
    """A finite lattice is distributive iff every join-irreducible j is
    join-prime, i.e. the join of the elements not above j is not above j.

    The failing fold step names a triple (j, b, c) with j below b | c but
    not below b or c, where a & (b | c) != (a & b) | (a & c) for a = j.
    O(|J| m) joins.
    """
    full = (1 << frame.m) - 1
    for j in frame.coprimes():
        acc = frame.bottom
        for x in bits(full & ~frame.up_row(j)):
            nxt = frame.join(acc, x)
            if frame.leq(j, nxt):
                raise NotDistributive(f"a&(b|c) != (a&b)|(a&c) at {(j, acc, x)}")
            acc = nxt


def subframe(ambient: FiniteFrame, elem_ids: Iterable[int], *,
             meta=None) -> tuple[FiniteFrame, list[int]]:
    """Frame on a subset of ambient elements, ordered by the ambient order.

    Row k is the ambient down row of the k-th kept id, restricted to the
    kept ids and renumbered to subframe positions.  Meets and joins are
    recomputed as bounds *within* the subset (never inherited blindly):
    e.g. joins of regular elements differ from ambient joins.  Returns
    (frame, inclusion) where inclusion[i] is the ambient id of subframe
    element i.
    """
    ids = sorted(set(elem_ids))
    kept = mask_of_iter(ids)
    pos = {a: k for k, a in enumerate(ids)}
    rows = [mask_of_iter(pos[b] for b in bits(ambient.down_row(a) & kept)) for a in ids]
    ext = [ambient.mask_of(i) for i in ids] if ambient.realized else None
    f = frame_from_down_rows(rows, ext=ext, base_size=ambient.base_size,
                             labels=ambient.labels, meta=meta)
    return f, ids


# -- frame maps ---------------------------------------------------------------


@dataclass
class FrameMap:
    """A locale map source -> target carried by its frame map `preimage`.

    preimage[v] is the source element f^{-1}(V) for each target element V.
    """

    source: FiniteFrame
    target: FiniteFrame
    preimage: list[int]

    def validate(self) -> None:
        src, tgt, pre = self.source, self.target, self.preimage
        if len(pre) != tgt.m:
            raise NotAFrameMap("preimage must be total on the target frame")
        if pre[tgt.bottom] != src.bottom:
            raise NotAFrameMap("preimage does not preserve bottom")
        if pre[tgt.top] != src.top:
            raise NotAFrameMap("preimage does not preserve top")
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
    X_regular >-> X, whose frame map sends U to not-not-U.
    """
    regular = [x for x in frame.elements() if frame.neg(frame.neg(x)) == x]
    if len(regular) == frame.m:
        # Boolean frame: the sublocale is the identity
        fmap = identity_map(frame)
        return frame, fmap
    sub, incl = subframe(frame, regular, meta={"construction": "double-negation"})
    pos = {amb: i for i, amb in enumerate(incl)}
    pre = [pos[frame.neg(frame.neg(u))] for u in frame.elements()]
    fmap = FrameMap(source=sub, target=frame, preimage=pre)
    fmap.validate()
    if not sub.is_boolean():
        raise ValidationError("double-negation frame failed to be Boolean")
    return sub, fmap


def ideal_frame(frame: FiniteFrame) -> tuple[FiniteFrame, list[int]]:
    """Frame of ideals of a finite frame, with the principal-ideal iso.

    In a finite lattice every ideal is principal (an ideal is closed under
    finite joins, so it contains its own join), hence Idl(L) is just L
    again; the returned witness maps x to the element of Idl(L) carrying
    the ideal down(x).  Verified by construction: the ideal frame is built
    from the principal-ideal extents over the base L.
    """
    m = frame.m
    ideals = [frame.down_row(x) for x in frame.elements()]
    # principal ideals are ordered like their generators: each is its own down row
    f = frame_from_down_rows(ideals, ext=ideals, base_size=m,
                             labels=[f"e{i}" for i in range(m)],
                             meta={"construction": "ideals"})
    witness = list(range(m))
    for x in frame.elements():
        if f.mask_of(witness[x]) != frame.down_row(x):
            raise ValidationError("principal ideal iso broke")
    return f, witness
