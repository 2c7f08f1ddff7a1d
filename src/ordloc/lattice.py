"""Finite frames (complete Heyting algebras) and join-preserving maps.

Elements are dense integer ids 0..m-1.  Two storage strategies share one
interface:

* powerset: all subsets of n points.  Element ids literally equal extent
  masks, so no element is ever listed and meets/joins are bit operations
  on the ids.
* mask-backed: each element has a carrier mask, and the carriers form a
  family closed under union and intersection, ordered by inclusion, so
  meets/joins are bit operations on the carriers.  A finite topology
  carries its opens' extents.  A frame given by the down rows of its order
  carries J & down(x), its join-irreducibles below x (Birkhoff's
  representation); there the extent, if any, only names the element.

Frames come from `powerset_frame` (all subsets of n points) and
`frame_from_topology` (a family of opens); the Birkhoff frames of
`derived.frame_from_down_rows` and `derived.subframe` are built only by
derived structures, and so are frame maps (`derived.FrameMap`).  Each
element is the join of the join-irreducibles J below it, so the atoms are
the minimal j, and the frame is atomistic, and Boolean, iff J is an
antichain.

Cones on powerset frames are `SubsetCone`s: a join-preserving map is
fixed by its value at the empty set and its n singleton values, and is
read in O(1) from two half tables; the full 2^n list is built on demand.

Subsets of points and subsets of element ids are both carried as Python
int bitmasks throughout.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import reduce
from itertools import repeat
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from .errors import (
    FrameTooLarge,
    MissingBottomOrTop,
    NotClosedUnderJoin,
    NotClosedUnderMeet,
    ValidationError,
)

SUBSET_LIMIT = 1 << 20   # entries of a cone table or list on a powerset frame


popcount = int.bit_count


def bits(x: int):
    """Iterate the set bit positions of x in increasing order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def or_rows(rows: Sequence[int], mask: int) -> int:
    """The OR of rows[x] over the x in mask, in a lowest-bit loop."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def subset_table(unit: int, rows: Sequence[int], op) -> list[int]:
    """t[s] = op-fold of rows[b] over the bits b of s from unit, for every s
    below 2^len(rows), by doubling: t[s + 2^b] = op(t[s], rows[b]), s < 2^b.
    OR is inlined, OR with 0 a copy: on `SubsetCone` half tables (the
    constant cone's rows are 0) calls of op cost about a sixth more."""
    t = [unit]
    for r in rows:
        t += ([x | r for x in t] if r else t) if op is or_ else [*map(op, t, repeat(r))]
    return t


def mask_of_iter(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Value:
    """Equality and hashing by the attributes named in `__slots__`, for
    small records that are not changed after construction."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class PointSet(Value):
    """A subset of a fixed finite base, stored as a bitmask."""

    __slots__ = ("base_size", "mask")

    def __init__(self, base_size: int, mask: int):
        if mask < 0 or mask >> base_size:
            raise ValidationError(f"point ids out of range for base {base_size}")
        self.base_size = base_size
        self.mask = mask

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

    Do not call the constructor directly; use `powerset_frame`,
    `frame_from_topology`, `derived.frame_from_down_rows` or
    `derived.subframe`.
    """

    def __init__(self, *, kind, m, bottom, top, ext=None, car=None, base_size=None,
                 down_rows=None, labels=None, meta=None):
        self.kind = kind                  # "powerset" | "mask"
        self.m = m
        self.bottom = bottom
        self.top = top
        self.base_size = base_size
        self._ext = ext                   # list: element id -> point mask
        self._car = ext if car is None else car   # list: element id -> carrier mask
        self._id_of = None if self._car is None else {v: i for i, v in enumerate(self._car)}
        self._id_of_ext = self._id_of     # point mask -> element id
        if car is not None:
            self._id_of_ext = None if ext is None else {v: i for i, v in enumerate(ext)}
        self._down_rows = down_rows       # element-id bitmask rows, lazy for topologies
        self._up_rows = None
        self._neg = {}
        self._covers = None
        self._primes = None
        self._bit_primes = None
        self._coprimes = None
        self._nbhds = None
        self._atoms = None
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
        return self._id_of_ext[mask]

    def has_mask(self, mask: int) -> bool:
        if self.kind == "powerset":
            return 0 <= mask < self.m
        return self._id_of_ext is not None and mask in self._id_of_ext

    def leq(self, i: int, j: int) -> bool:
        if self.kind == "powerset":
            return i & ~j == 0
        return self._car[i] & ~self._car[j] == 0

    def meet(self, i: int, j: int) -> int:
        if self.kind == "powerset":
            return i & j
        return self._id_of[self._car[i] & self._car[j]]

    def join(self, i: int, j: int) -> int:
        if self.kind == "powerset":
            return i | j
        return self._id_of[self._car[i] | self._car[j]]

    def join_all(self, ids: Iterable[int]) -> int:
        out = 0
        if self.kind == "powerset":
            for i in ids:
                out |= i
            return out
        for i in ids:
            out |= self._car[i]
        return self._id_of[out]

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
                e = self._car[i]
                r = 0
                for j, c in enumerate(self._car):
                    if c & ~e == 0:
                        r |= 1 << j
            self._down_rows[i] = r
        return r

    def down_rows(self) -> list[int]:
        """Every down row, kept by the frame: `inclusion_rows`, or on powersets
        D[s + 2^b] = D[s] | D[s] << 2^b, s < 2^b, by `subset_table`."""
        if self._down_rows is None or None in self._down_rows:
            self._down_rows = inclusion_rows(self._car) if self.kind != "powerset" else \
                subset_table(1, [1 << b for b in range(self.base_size)], lambda d, k: d | d << k)
        return self._down_rows

    def up_row(self, i: int) -> int:
        if self._up_rows is None:
            self._up_rows = [None] * self.m
        r = self._up_rows[i]
        if r is None:
            if self.kind == "powerset":
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
                e = self._car[i]
                r = 0
                for j, c in enumerate(self._car):
                    if e & ~c == 0:
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

    def primes(self) -> list[int]:
        """The primes (p != T with a&b <= p implying a <= p or b <= p), read
        by Birkhoff's bijection: on powersets in point order, elsewhere in
        id order.  The quantifier form is kept as a test oracle.

        Lemma (Davey & Priestley, ch. 5): in a finite distributive lattice,
        j -> kappa(j) = join{x : j not<= x} maps the join-irreducibles one
        to one onto the primes.  On a carrier frame let b be a bit of the
        top carrier and j the least element whose carrier holds b (meets
        are carrier ANDs).  j is join-irreducible, as joins are carrier
        ORs and the bottom carrier is empty, and b is in car[x] iff
        j <= x.  So kappa(j) is the largest element whose carrier misses
        b: interior(top carrier - b), O(|J|) and no order test.  Every j
        has such a bit, one that its lower cover's carrier lacks.  On a
        topology b is a point p, j is N(p) and kappa(j) is int(X - {p}).
        """
        if self._primes is None:
            ps = list(self.bit_primes().values())
            self._primes = ps if self.kind == "powerset" else sorted(set(ps))
        return self._primes

    def bit_primes(self) -> dict[int, int]:
        """Bit b of the top carrier -> kappa(j_b), in bit order (`primes`)."""
        if self._bit_primes is None:
            full = self.carriers()[self.top]
            self._bit_primes = {b: self.interior(full & ~(1 << b)) for b in bits(full)}
        return self._bit_primes

    def carriers(self) -> Sequence[int]:
        """The carrier mask of every element; on powersets the ids themselves."""
        return range(self.m) if self.kind == "powerset" else self._car

    def coprimes(self) -> list[int]:
        """Join-irreducible (nonzero) elements, in increasing id order.

        In a finite topology, the distinct least open neighbourhoods of
        the points; `derived.frame_from_down_rows` reads them off the rows.
        """
        if self._coprimes is None:
            self._coprimes = sorted(set(self.neighbourhoods()))
        return self._coprimes

    def neighbourhoods(self) -> list[int]:
        """The least open N(p) containing each point p, as element ids
        (frames of opens only).  The opens holding p are those above N(p);
        `frame_from_topology` stores them as it validates the opens."""
        if self._nbhds is None:
            if self.kind != "powerset":
                raise ValidationError("neighbourhoods need a frame of opens")
            self._nbhds = [1 << p for p in range(self.base_size)]
        return self._nbhds

    def atoms(self) -> list[int]:
        """The minimal join-irreducibles j, in id order (each covers bottom): j
        is one iff j is the least holder j_b (N(b) on a topology, b where
        carriers are J ids) of every bit b of car[j].  O(n + |J|)."""
        if self._atoms is None:
            js, car = self.coprimes(), self.carriers()
            owned = Counter(js if self._car is not self._ext else self.neighbourhoods())
            self._atoms = [j for j in js if car[j].bit_count() == owned[j]]
        return self._atoms

    def ids_extend_order(self) -> bool:
        """Does x <= y in the frame imply x <= y as integers?  Powerset ids
        are the masks, and a carrier frame whose carriers increase with the
        id qualifies, as a sub-mask is numerically no larger (so every
        `frame_from_topology` frame does).  A False answer only means that
        this O(m) test did not apply."""
        return self.kind == "powerset" or all(
            a < b for a, b in zip(self._car, self._car[1:]))

    def is_atomistic(self) -> bool:
        """Every element is the join of the atoms below it: iff every j is
        one, as a join-irreducible is a join of atoms only if it is one."""
        return len(self.atoms()) == len(self.coprimes())

    # -- Heyting structure -------------------------------------------------

    def heyting(self, a: int, b: int) -> int:
        """Heyting implication a -> b = join{w : a & w <= b}."""
        if self.kind == "powerset":
            return b | (self.m - 1) & ~a
        # largest element whose carrier lies inside b | complement(a)
        return self.interior(self._car[b] | self._car[self.top] & ~self._car[a])

    def neg(self, a: int) -> int:
        r = self._neg.get(a)
        if r is None:
            r = self.heyting(a, self.bottom)
            self._neg[a] = r
        return r

    def is_boolean(self) -> bool:
        """Birkhoff: the down-sets of J are all its subsets iff J is an antichain."""
        return self.is_atomistic()

    def interior(self, mask: int) -> int:
        """Largest element whose carrier (on a topology, its extent) lies in
        the mask: the join of the join-irreducibles whose carriers do, as
        each element is the join of those below it.  O(|J|)."""
        if self.kind == "powerset":
            return mask
        car = self._car
        acc = 0
        for j in self.coprimes():
            if car[j] & ~mask == 0:
                acc |= car[j]
        return self._id_of[acc]

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


def powerset_frame(n: int, labels=None) -> FiniteFrame:
    """Frame of all subsets of n points, ordered by inclusion.  Element ids
    are the subset masks, so no mask is listed."""
    return FiniteFrame(kind="powerset", m=1 << n, bottom=0, top=(1 << n) - 1,
                       base_size=n, labels=labels)


def frame_from_topology(base_size: int, opens: Sequence[PointSet | int],
                        labels=None) -> FiniteFrame:
    """Frame of an explicit finite topology, ordered by inclusion.

    Lemma: a family holding the empty set and the full base is closed
    under & and | iff it holds every N(p), the AND of its members holding
    p, and every e | N(p).  Then each member is the union of the N(p) of
    its points, and each such union is reached from the empty set by
    | N(p), so the family is the unions of the N(p): closed under |, and
    under & as N(r) lies inside every member holding r.  Up to 2^n =
    SUBSET_LIMIT both tests run on the family's indicator F, bit e set iff
    e is listed (`_indicator_nbhds`): n^2 + sum |N(p)| wide operations on
    2^n bits.  Measured in process, the whole constructor took 34 ms on
    the 59,049 opens of ten two-point chains and 0.24 ms on the 729 of the
    vertical 2x6 grid (183 and 1.10 ms with the scan).  Above 2^20, or
    where F says no, the per-open scan (`_scan_nbhds`), O(m n) mask
    operations, decides and names the witness: a fold step acc & e that
    leaves the family raises NotClosedUnderMeet(acc, e), a missing
    e | N(p) NotClosedUnderJoin(e, N(p)); no benchmark workload runs it
    (two passes each, seeds 101 and 102).  The frame keeps the N(p) as its
    `neighbourhoods`; the full powerset is built by `powerset_frame`.
    """
    masks = sorted({o.mask if isinstance(o, PointSet) else int(o) for o in opens})
    full = (1 << base_size) - 1
    if not masks or masks[0] != 0:
        raise MissingBottomOrTop("the empty set")
    if masks[-1] != full:
        raise MissingBottomOrTop("the full base")
    if len(masks) == 1 << base_size:
        return powerset_frame(base_size, labels)
    f = FiniteFrame(kind="mask", m=len(masks), bottom=0, top=len(masks) - 1,
                    ext=masks, base_size=base_size, labels=labels)
    nbhds = _indicator_nbhds(base_size, masks) if 1 << base_size <= SUBSET_LIMIT else None
    f._nbhds = ([f._id_of[e] for e in nbhds] if nbhds is not None
                else _scan_nbhds(base_size, masks, f._id_of))
    return f


def _indicator_nbhds(n: int, masks: list[int]) -> Optional[list[int]]:
    """The N(p) of a closed family of subsets of n points, or None where it
    is not closed, read off its indicator F (bit e set iff e is a member).
    With H_q the subsets holding q, q is in N(p) iff F & H_p & ~H_q is 0,
    and the union maps G -> (G & H_q) | (G & ~H_q) << 2^q, composed over
    the q in N(p), take F to {e | N(p)}, which lies in F iff every
    e | N(p) is a member (N(p) itself with e empty)."""
    size = 1 << n
    ind = bytearray(max(1, size >> 3))
    for e in masks:
        ind[e >> 3] |= 1 << (e & 7)
    fam = int.from_bytes(ind, "little")
    has = [repeat_bits(((1 << (1 << q)) - 1) << (1 << q), 2 << q, size) for q in range(n)]
    lack = [h >> (1 << q) for q, h in enumerate(has)]
    nbhds, checked = [], set()
    for p in range(n):
        held = fam & has[p]
        nb = sum(1 << q for q in range(n) if not held & lack[q])
        if nb not in checked:
            image = fam
            for q in bits(nb):
                image = (image & has[q]) | (image & lack[q]) << (1 << q)
            if image | fam != fam:
                return None
            checked.add(nb)
        nbhds.append(nb)
    return nbhds


def _scan_nbhds(n: int, masks: list[int], id_of: dict[int, int]) -> list[int]:
    """The ids of the N(p), each folded over the members holding p, with the
    witness of `frame_from_topology` where the family is not closed."""
    nbhds = []
    for p in range(n):
        acc = (1 << n) - 1
        for e in masks:
            if e >> p & 1:
                if acc & e not in id_of:
                    raise NotClosedUnderMeet(acc, e)
                acc &= e
        missing = next((e for e in masks if e | acc not in id_of), None)
        if missing is not None:
            raise NotClosedUnderJoin(missing, acc)
        nbhds.append(id_of[acc])
    return nbhds


def transitive_closure_rows(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of n successor bitmask rows, as a fresh
    list, by Warshall's n steps (Warshall 1962): step k ORs row k into the
    rows that hold k.  Only a k whose row and column both hold more than k
    changes a row, and no other k comes to (a row or column holding only k
    gains only from itself, at step k).  Up to PACK_ROWS // 4 = 128 rows
    the matrix is one integer, bit (i, j) at i*s + j (`pack_rows`), and
    step k is x |= (x >> k & E) * row_k, E bit 0 of every row: a sum of
    row_k << i*s whose terms do not overlap, so it cannot carry.  Above,
    step k ORs row k into the rows of column k and column k into the
    columns of row k.  Measured in process on T(R*) of random pairs R on
    powersets, packed against lists: 128 subsets 0.50 against 1.52 ms at
    9,556 pairs, 0.12 against 0.10 ms at 248; 256 subsets 5.0 against 6.7
    ms at 34,206, 0.50 against 0.25 ms.  No benchmark workload closes more
    than 128 rows (two passes each, seeds 101 and 102).
    """
    n = len(rows)
    rows = [r | 1 << i for i, r in enumerate(rows)]
    held = reduce(or_, (r ^ 1 << i for i, r in enumerate(rows)), 0)    # by another row
    steps = [k for k in bits(held) if rows[k] & rows[k] - 1]
    if not steps:
        return rows
    if n > PACK_ROWS // 4:
        cols = transpose_rows(rows)
        for k in steps:
            row, col = rows[k], cols[k]
            for i in bits(col):
                rows[i] |= row
            for j in bits(row):
                cols[j] |= col
        return rows
    width = (n + 7) >> 3
    stride, full = 8 * width, (1 << n) - 1
    x = pack_rows(rows, width)
    ones = ((1 << stride * n) - 1) // ((1 << stride) - 1)     # bit 0 of each row
    for k in steps:
        x |= (x >> k & ones) * (x >> k * stride & full)
    return unpack_rows(x, width, n)


_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}   # widths `struct` converts in one call


def pack_rows(rows: Sequence[int], width: int) -> int:
    """The rows, each below 2^(8 width), as one integer: row i at bit 8 width i."""
    code = _WORDS.get(width)
    data = (struct.pack(f"<{len(rows)}{code}", *rows) if code
            else b"".join(r.to_bytes(width, "little") for r in rows))
    return int.from_bytes(data, "little")


def unpack_rows(x: int, width: int, count: int) -> list[int]:
    """The first `count` rows of a `pack_rows` integer below 2^(8 width count)."""
    data, code = x.to_bytes(width * count, "little"), _WORDS.get(width)
    if code:
        return list(struct.unpack(f"<{count}{code}", data))
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, width * count, width)]


PACK_ROWS = 512   # the side of the largest packed matrix, and of a tile above it
_SWAPS: dict[int, list[tuple[int, int]]] = {}   # side N <= PACK_ROWS -> its block swaps


def transpose_rows(rows: list[int]) -> list[int]:
    """Predecessor rows of a relation given by successor bitmask rows, as a
    fresh list; the input is square (every row below 2^len(rows)).

    The matrix is packed into one integer, bit (i, j) at i*N + j for the
    power of two N >= max(n, 8), and transposed by log2 N masked block
    swaps (Warren, Hacker's Delight, 7-3).  Lemma: the swap for k (k = N/2,
    .., 1) moves bit (i, j) to (i + k, j - k) where bit k of i is 0 and bit
    k of j is 1, and back, so it exchanges bit k of the row and column
    indices where they differ; after every k, (i, j) is at (j, i).  The
    partner lies k(N - 1) bits up, under the mask {i*N + j : i & k == 0,
    j & k != 0} (`_block_swaps`, cached per N).  Above PACK_ROWS rows the
    matrix is cut into PACK_ROWS-square tiles: tile (I, J) of the
    transpose is the transpose of tile (J, I), and a tile with no set bit
    is skipped.  So no mask or packed integer exceeds PACK_ROWS^2 bits:
    the masks of every side up to 512 take 0.4 MB, where those of N =
    16,384 would take 448 MB; the 16,384 down rows of a 14-point powerset
    (4.8 million bits) take 0.34 s in tiles.
    Packing every matrix was measured against a bit loop for sparse ones
    (at most 3n + 16 set bits) on the calls of one pass of each benchmark
    workload (seed 101, in process, median of 41 alternating reps), and
    won on all four: grid-laws 0.133 against 0.183 ms (27 calls, 15
    sparse), derived-structures 0.487 against 0.558 ms (47, 33 sparse),
    explicit-docs 1.81 against 2.69 ms (272, 120 sparse), cli-session
    0.445 against 0.494 ms (100, 93 sparse).
    """
    n = len(rows)
    if n <= PACK_ROWS:
        return _packed_columns(rows, max(8, 1 << (n - 1).bit_length()), n)
    cols, low = [0] * n, (1 << PACK_ROWS) - 1
    for i in range(0, n, PACK_ROWS):
        band = rows[i:i + PACK_ROWS]
        seen = reduce(or_, band)
        for j in range(0, n, PACK_ROWS):
            if seen >> j & low:
                tile = [r >> j & low for r in band]
                for c, col in enumerate(_packed_columns(tile, PACK_ROWS, min(PACK_ROWS, n - j)), j):
                    cols[c] |= col << i
    return cols


def _packed_columns(rows: list[int], side: int, count: int) -> list[int]:
    """The first `count` columns of at most `side` rows below 2^side, side
    a power of two >= 8, by the block swaps of `transpose_rows`; the
    columns from `count` on are empty."""
    width = side >> 3
    x = pack_rows(rows, width)
    for shift, mask in _block_swaps(side):
        t = (x ^ x >> shift) & mask
        x ^= t | t << shift
    return unpack_rows(x, width, count)


def _block_swaps(side: int) -> list[tuple[int, int]]:
    """(k(N - 1), mask) for k = N/2, .., 1 on an N x N packed matrix: the
    columns {j : j & k} of one row, copied to the k rows i < k of each
    2k-row band."""
    if side not in _SWAPS:
        _SWAPS[side] = [(k * (side - 1), repeat_bits(repeat_bits(repeat_bits(
            ((1 << k) - 1) << k, 2 * k, side), side, k * side), 2 * k * side, side * side))
            for k in (side >> s for s in range(1, side.bit_length()))]
    return _SWAPS[side]


def repeat_bits(x: int, step: int, total: int) -> int:
    """x (below 2^step) copied to every multiple of step below total, a
    power-of-two multiple of step, by doubling."""
    while step < total:
        x, step = x | x << step, 2 * step
    return x


def rows_above(frame: FiniteFrame, values: Sequence[int]) -> list[int]:
    """For every element x, the id-bitmask {i : x <= values[i]}, for a list
    of one value per element.

    Lemma (finite lattices): x <= y iff every join-irreducible j <= x is
    below y, as x is the join of the j below it.  On a powerset, where
    values equal their generator form, so preserve joins (`SubsetCone`),
    a is in values[i] iff a is in values[0] or i meets C_a = {p : a in
    values[{p}]}: row x is the AND of X[a] over the points a in x, X[a] all
    i or the i outside down(top - C_a), n masks from n + 1 values, and the
    rows are `subset_table`(all, X, and), O(m) ANDs.  Any other list is
    read as column x of the values' down rows, by one `transpose_rows`.
    The generator route was measured against transposing its lists too, on
    the calls of one pass of each workload (seed 101, in process, median of
    41 alternating reps): derived-structures 0.30 against 1.88 ms, the
    cli-session 0.19 against 0.86 ms; explicit-docs, whose 31 such lists
    are on powersets of at most 64 elements, 0.28 against 0.16 ms.
    """
    f, full = frame, (1 << frame.m) - 1
    if f.kind == "powerset":
        gens = [values[1 << b] for b in range(f.base_size)]
        if subset_table(values[0], gens, or_) == list(values):
            x = [full if values[0] >> a & 1 else full & ~f.down_row(f.top & ~c)
                 for a, c in enumerate(transpose_rows(gens))]
            return subset_table(full, x, and_)
    below = f.down_rows()
    return transpose_rows([below[v] for v in values])


def inclusion_rows(car: list[int]) -> list[int]:
    """Row k = {k' : car[k'] inside car[k]}: the complement of the OR of
    col[b] = {k' : b in car[k']} over the bits b outside car[k], col the
    carriers transposed (padded square): k n mask operations at most."""
    side = max(len(car), max(car, default=0).bit_length())
    cols = transpose_rows(car + [0] * (side - len(car)))
    full, span = (1 << len(car)) - 1, reduce(or_, car, 0)
    return [full & ~or_rows(cols, span & ~c) for c in car]


# -- join-preserving maps -----------------------------------------------------


class SubsetCone:
    """A map t on the powerset of n points in generator form:
    t(s) = base | OR of values[b] over the points b of s.

    Lemma (Birkhoff; Davey & Priestley, ch. 5): a map on 2^n preserves
    binary joins iff t(s) = t(0) | OR{t({b}) : b in s} for every s.  So
    every join-preserving map has this form, and this form preserves
    joins by construction: t(a | b) = t(a) | t(b), as a point of a | b is
    a point of a or of b.  `join_failure` returns None for it unscanned.

    t[s] is O(1): lo[s & (2^k - 1)] | hi[s >> k], from half tables over
    the low k = ceil(n/2) points (base included) and the other n - k,
    each built by doubling and refused (FrameTooLarge) above
    SUBSET_LIMIT entries.  `tolist()` ORs the two tables into the 2^n
    list, memoized and refused above SUBSET_LIMIT entries.

    `cols`, when the caller already holds it, is the transpose of the
    point rows t({b}): cols[a] = {b : a in t({b})}, as a point mask.
    """

    def __init__(self, n: int, base: int, values: Sequence[int],
                 cols: Optional[list[int]] = None):
        k = n - n // 2
        if 1 << k > SUBSET_LIMIT:
            raise FrameTooLarge(f"cone tables on {1 << k} subsets exceed {SUBSET_LIMIT}")
        self.n, self._k, self._low = n, k, (1 << k) - 1
        self._lo = subset_table(base, values[:k], or_)
        self._hi = subset_table(0, values[k:], or_)
        self._list = None
        self.cols = cols

    def __len__(self) -> int:
        return 1 << self.n

    def __getitem__(self, s: int) -> int:
        return self._lo[s & self._low] | self._hi[s >> self._k]

    def tolist(self) -> list[int]:
        if self._list is None:
            if 1 << self.n > SUBSET_LIMIT:
                raise FrameTooLarge(f"cone lists on {1 << self.n} subsets exceed "
                                    f"{SUBSET_LIMIT}")
            lo = self._lo
            self._list = [x | h for h in self._hi for x in lo]
        return self._list


def join_failure(frame: FiniteFrame, t: Sequence[int],
                 into: Optional[FiniteFrame] = None) -> Optional[tuple[int, int]]:
    """A pair (a, b) with t(a | b) != t(a) | t(b), or None if there is none;
    t maps frame elements to elements of `into` (default: the frame).

    The join-irreducibles J of a finite frame are join-prime, so t
    preserves binary joins iff t(a) = t(bottom) | join{t(j) : j in J, j <= a}
    for every a.  That join is folded one j at a time, and the first fold
    step that breaks is the pair: O(m |J|).

    On powersets J is the singletons, so t preserves joins iff it equals
    its generator form g = `subset_table`(t(bottom), [t({b})], or) (the
    `SubsetCone` lemma).  The first s where t and g differ is the least s
    breaking the lowest-bit condition t(s) = t(s - low) | t(low): below s,
    t agrees with g, which meets every such condition, and at s the
    condition reads t(s) = g(s).  So the pair is (s - low, low), found with
    O(m) list work.  A `SubsetCone` preserves joins by its lemma: None,
    with no scan.
    """
    if isinstance(t, SubsetCone):
        return None
    f, g = frame, into or frame
    if f.kind == g.kind == "powerset":
        form = subset_table(t[0], [t[1 << b] for b in range(f.base_size)], or_)
        if list(t) == form:
            return None
        s = next(s for s in range(f.m) if t[s] != form[s])
        return s & s - 1, s & -s
    return _fold_failure(t, [(j, f.up_row(j)) for j in f.coprimes()], f.bottom, f.join, g.join)


def _fold_failure(t, gens, start, op, into_op) -> Optional[tuple[int, int]]:
    """Fold op from start over the generators whose id-bitmask row holds a,
    for each a; the first step acc -> op(acc, g) that t breaks is the pair."""
    for a in range(len(t)):
        acc = start
        for g, row in gens:
            if row >> a & 1:
                nxt = op(acc, g)
                if t[nxt] != into_op(t[acc], t[g]):
                    return acc, g
                acc = nxt
    return None


def __getattr__(name: str):
    """`ideal_frame` lives in `derived`, which this module never imports at
    load; the benchmark reads it here.  The first read imports `derived` and
    binds the name in this module, so later reads are plain attributes."""
    if name == "ideal_frame":
        from . import derived
        globals()[name] = value = derived.ideal_frame
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
