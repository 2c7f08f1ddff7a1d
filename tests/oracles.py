"""Definitional oracles the tests compare the library against.

Each one scans the definition directly (all subsets, or all pairs or
triples of elements), so it is slow and only used on small frames.
"""

from functools import reduce
from operator import and_

from ordloc import coverage, olocale, ospace
from ordloc.duality import points_space
from ordloc.errors import (AxiomVFailure, ConesDoNotPreserveJoins, FrameTooLarge,
                           MissingBottomOrTop, NotALattice, NotClosedUnderJoin,
                           NotClosedUnderMeet, NotDistributive, ValidationError)
from ordloc.lattice import (FiniteFrame, FrameMap, Value, _lattice_failure, bits,
                            frame_from_down_rows, frame_from_topology, mask_of_iter, or_rows,
                            popcount, powerset_frame, rows_above, transpose_rows)
from ordloc.olocale import (REL_LIMIT, CheckReport, ConePair, OrderedLocale, check_axiom,
                            cones_from_rows, ordered_locale_from_monads)
from ordloc.ospace import OrderedSpace


def all_ideals_bruteforce(frame: FiniteFrame) -> list[int]:
    """All ideals by scanning every subset; test oracle for small frames."""
    if frame.m > 20:
        raise ValidationError("brute force ideal scan capped at 20 elements")
    out = []
    for s in range(1, 1 << frame.m):
        members = list(bits(s))
        if frame.bottom not in members:
            continue
        ok = all(s >> frame.join(a, b) & 1 for a in members for b in members)
        if ok:
            ok = all(frame.down_row(x) & ~s == 0 for x in members)
        if ok:
            out.append(s)
    return out


def relation_ideals_by_enumeration(base_size: int, succ) -> list[int]:
    """The ideals of a relation given by successor rows, as point masks in
    increasing order: every nonempty subset tested for being down-closed
    and upward directed (any two members, equal or not, have a common
    successor inside it).  O(2^n n^3)."""
    out = []
    for s in range(1, 1 << base_size):
        members = list(bits(s))
        down_closed = all(not succ[y] >> x & 1 or s >> y & 1
                          for x in members for y in range(base_size))
        if down_closed and all(any(succ[x] >> z & 1 and succ[y] >> z & 1 for z in members)
                               for x in members for y in members):
            out.append(s)
    return out


def past_semi_full_loop(base_size: int, succ):
    """(witness_i, witness_ii) of `duality.is_past_semi_full`, by its loops:
    the first point with no predecessor, and the first (y1, y2, x) with y1,
    y2 predecessors of x and no z with y1 R z, y2 R z and z R x."""
    wi = next(((x,) for x in range(base_size)
               if not any(succ[y] >> x & 1 for y in range(base_size))), None)
    for x in range(base_size):
        ps = [y for y in range(base_size) if succ[y] >> x & 1]
        for y1 in ps:
            for y2 in ps:
                if not any(succ[y1] >> z & 1 and succ[y2] >> z & 1 and succ[z] >> x & 1
                           for z in range(base_size)):
                    return wi, (y1, y2, x)
    return wi, None


def atoms_by_definition(frame: FiniteFrame) -> list[int]:
    """The elements that cover bottom, in id order: O(m^2) order tests."""
    return [a for a in frame.elements() if a != frame.bottom and not any(
        x not in (frame.bottom, a) and frame.leq(x, a) for x in frame.elements())]


def least_non_join(frame: FiniteFrame, gens: int):
    """The least element (by id) that is not the join of the members of the
    id-bitmask `gens` below it, or None when they form a base: every
    element's join folded pairwise."""
    for i in frame.elements():
        if reduce(frame.join, bits(frame.down_row(i) & gens), frame.bottom) != i:
            return i
    return None


def is_atomistic_by_definition(frame: FiniteFrame) -> bool:
    return least_non_join(frame, mask_of_iter(atoms_by_definition(frame))) is None


def is_boolean_by_definition(frame: FiniteFrame) -> bool:
    return all(frame.neg(frame.neg(x)) == x for x in frame.elements())


def convex_generators(ol: OrderedLocale) -> int:
    """The id-bitmask of the convex elements, U = up(U) & down(U)."""
    f = ol.frame
    return mask_of_iter(u for u in f.elements()
                        if f.meet(ol.up_map[u], ol.down_map[u]) == u)


def box_generators(ol: OrderedLocale) -> int:
    """The id-bitmask of the boxes up(V) & down(W), over all V and W."""
    f = ol.frame
    downs = set(ol.down_map)
    return mask_of_iter(f.meet(x, y) for x in set(ol.up_map) for y in downs)


def primes_by_definition(frame: FiniteFrame) -> list[int]:
    """Primes via the defining quantifier; oracle, O(m^3)."""
    out = []
    for p in frame.elements():
        if p == frame.top:
            continue
        if all(not frame.leq(frame.meet(a, b), p) or frame.leq(a, p) or frame.leq(b, p)
               for a in frame.elements() for b in frame.elements()):
            out.append(p)
    return out


def coprimes_by_definition(frame: FiniteFrame) -> list[int]:
    out = []
    for d in frame.elements():
        if d == frame.bottom:
            continue
        if all(not frame.leq(d, frame.join(a, b)) or frame.leq(d, a) or frame.leq(d, b)
               for a in frame.elements() for b in frame.elements()):
            out.append(d)
    return out


def is_completely_prime_filter(frame: FiniteFrame, filt: int) -> bool:
    """Filter axioms (F0)-(F4), checked directly; test oracle."""
    members = [u for u in frame.elements() if filt >> u & 1]
    if frame.top not in members or frame.bottom in members:
        return False
    mem = set(members)
    for u in members:
        for v in members:
            if frame.meet(u, v) not in mem:
                return False
        for v in frame.elements():
            if frame.leq(u, v) and v not in mem:
                return False
    # inaccessibility by joins on the binary level (finite: sufficient)
    for u in frame.elements():
        for v in frame.elements():
            if frame.join(u, v) in mem and u not in mem and v not in mem:
                return False
    return True


class LocalePoint(Value):
    """One localic point, in both presentations."""

    __slots__ = ("as_prime", "as_filter")

    def __init__(self, as_prime: int, as_filter: int):
        self.as_prime = as_prime       # prime element id
        self.as_filter = as_filter     # id-bitmask of the completely prime filter


def filter_to_prime(frame: FiniteFrame, filt: int) -> int:
    """P = join{U : U not in F}."""
    return frame.join_all(u for u in frame.elements() if not filt >> u & 1)


def prime_to_filter(frame: FiniteFrame, p: int) -> int:
    """The completely prime filter F = {U : U not<= P}, as an id-bitmask."""
    return (1 << frame.m) - 1 & ~frame.down_row(p)


def locale_points(frame: FiniteFrame) -> list[LocalePoint]:
    return [LocalePoint(p, prime_to_filter(frame, p)) for p in frame.primes()]


def order_from_map(fmap: FrameMap, target_ol: OrderedLocale) -> OrderedLocale:
    """The largest order on the source making the map monotone.

    U <=_f U' iff the cone of every region below f^{-1} stays below f^{-1}:
    for all V with U <= f^{-1}(V): U' <= f^{-1}(up(V)), and for all V' with
    U' <= f^{-1}(V'): U <= f^{-1}(down(V')).

    Cone formula: U <=_f U' iff U' <= a(U) and U <= c(U'), with
      a(U) = meet{f^{-1}(up(V)) : U <= f^{-1}(V)},
      c(U) = meet{f^{-1}(down(V)) : U <= f^{-1}(V)}
    (the empty meet is top).  Proof: an element lies below every member
    of a family iff it lies below the family's meet, as the intersection
    of the down-sets of x_i is the down-set of meet x_i in any lattice.
    So the rows are `cone_rows(source, a, c)`, exactly, for any preimage
    list.  Each meet is that of the primes p above some member (primes
    are meet-prime), so a and c cost O(m |P|) mask tests; the sets
    {V : g(V) <= p}, g = f^{-1} up (or down), are ORs of the fibres of g
    over its distinct values.

    Cone lemma: every V in row U lies below a(U), and every U in column V
    lies below c(V).  So where a(U) is in row U and c(V) in column V for
    all U and V, the join of row U is a(U) and the join of column V is
    c(V): the cones `cones_from_rows` would build.  That premise costs m
    bit tests; where it fails, the cones are the joins of the rows.
    """
    if fmap.target is not target_ol.frame:
        raise ValidationError("target ordered locale does not match the map")
    src, pre = fmap.source, fmap.preimage
    if src.m > REL_LIMIT:
        raise FrameTooLarge("order_from_map capped at materializable relations")
    above = rows_above(src, pre)                 # {V : U <= f^{-1}(V)}

    def meets(cone):
        at = {}                                      # g(V) -> {V}, g = f^{-1} cone
        for v, x in enumerate(cone):
            at[pre[x]] = at.get(pre[x], 0) | 1 << v
        image = mask_of_iter(at)
        under = [(p, or_rows(at, src.down_row(p) & image))   # {V : g(V) <= p}
                 for p in src.primes()]
        out = []
        for row in above:
            x = src.top
            for p, vs in under:
                if row & vs:
                    x = src.meet(x, p)
            out.append(x)
        return out

    a, c = meets(target_ol.up_map), meets(target_ol.down_map)
    rows = olocale.cone_rows(src, a, c)
    if all(rows[u] >> a[u] & 1 and rows[c[u]] >> u & 1 for u in src.elements()):
        up_map, down_map = a, c
    else:
        up_map, down_map = olocale.cones_from_rows(src, rows)
    return OrderedLocale(src, up_map=up_map, down_map=down_map, rel_rows=rows,
                         meta={"construction": "order_from_map"})


def order_from_map_pairs(fmap: FrameMap, target_ol: OrderedLocale) -> OrderedLocale:
    """The largest order on the source making the map monotone, by the
    pair loop: U <=_f U' iff for all V with U <= f^{-1}(V):
    U' <= f^{-1}(up(V)), and dually."""
    if fmap.target is not target_ol.frame:
        raise ValidationError("target ordered locale does not match the map")
    src, tgt, pre = fmap.source, fmap.target, fmap.preimage
    if src.m > REL_LIMIT:
        raise FrameTooLarge("order_from_map capped at materializable relations")
    r_rows = [mask_of_iter(v for v in tgt.elements() if src.leq(u, pre[v]))
              for u in src.elements()]
    s_up = [mask_of_iter(v for v in tgt.elements()
                         if src.leq(uq, pre[target_ol.up_map[v]]))
            for uq in src.elements()]
    s_down = [mask_of_iter(vq for vq in tgt.elements()
                           if src.leq(u, pre[target_ol.down_map[vq]]))
              for u in src.elements()]
    rows = [0] * src.m
    for u in range(src.m):
        ru = r_rows[u]
        for uq in range(src.m):
            if ru & ~s_up[uq] == 0 and r_rows[uq] & ~s_down[u] == 0:
                rows[u] |= 1 << uq
    up_map, down_map = cones_from_rows(src, rows)
    return OrderedLocale(src, up_map=up_map, down_map=down_map, rel_rows=rows,
                         meta={"construction": "order_from_map"})


SIEVE_FRAME_LIMIT = 24      # sieves are enumerated exhaustively up to this size
SIEVE_LIMIT = 4096          # sieves enumerated on one element


def downsets_of(frame: FiniteFrame, top_elem: int) -> list[int]:
    """Down-closed subsets of the interval below top_elem, as id-bitmasks."""
    out = {0}
    for x in bits(frame.down_row(top_elem)):
        dx = frame.down_row(x)
        out |= {s | dx for s in out if not s >> x & 1}
        if len(out) > SIEVE_LIMIT:
            raise FrameTooLarge("sieve enumeration exceeded the cap")
    return sorted(out)


def check_down_grothendieck_loop(olx: OrderedLocale) -> CheckReport:
    """The sieve axioms one membership at a time, over every sieve, with
    early exits; a pullback failure names the least (U, W)."""
    f = olx.frame
    if f.m > SIEVE_FRAME_LIMIT:
        raise FrameTooLarge(f"sieve check capped at {SIEVE_FRAME_LIMIT} elements")
    rows = coverage.coverage_rows(olx, "past")

    def member(a, u):
        return bool(rows[u] >> a & 1)

    for u in f.elements():
        du = olx.down_map[u]
        sieves = downsets_of(f, du)
        # (i) maximal sieve covers
        if not member(du, u):
            return CheckReport("grothendieck", "fail", (u,),
                               "maximal sieve on down(U) does not cover U")
        # (i') pushforward of the maximal sieve on U itself
        if not member(u, u):
            return CheckReport("grothendieck", "fail", (u,),
                               "unit pushforward sieve does not cover U")
        joins = {s: f.join_of_idmask(s) for s in sieves}
        covering = [s for s in sieves if member(joins[s], u)]
        # (ii) pullback stability along W <= U
        for w in bits(f.down_row(u)):
            for s in covering:
                if not member(f.meet(olx.down_map[w], joins[s]), w):
                    return CheckReport("grothendieck", "fail", (u, w),
                                       "pullback of a covering sieve stopped "
                                       "covering")
        # (iii) transitivity
        for s in covering:
            for r in sieves:
                jr = joins[r]
                if not member(jr, u) and all(member(f.meet(olx.down_map[v], jr), v)
                                             for v in bits(s)):
                    return CheckReport("grothendieck", "fail", (u,),
                                       "locally covering sieve does not cover")
    rep = CheckReport("grothendieck", "pass", None,
                      "exhaustive sieve enumeration; 0 abstentions")
    rep.abstentions = 0
    return rep


# -- points and neighbourhoods, one element or open at a time ----------------------


def pt_mask(frame: FiniteFrame, primes, u: int) -> int:
    """pt(U): the points i whose prime p_i is not above U."""
    return mask_of_iter(i for i, p in enumerate(primes) if not frame.leq(u, p))


def point_order_rows(olx: OrderedLocale, primes) -> list[int]:
    """F_i <= F_j iff join{U : up(U) <= p_j} <= p_i and
    join{V : down(V) <= p_i} <= p_j, one leq per element and prime."""
    f = olx.frame
    w_up = [f.join_all(u for u in f.elements() if f.leq(olx.up_map[u], q))
            for q in primes]
    w_down = [f.join_all(v for v in f.elements() if f.leq(olx.down_map[v], p))
              for p in primes]
    return [mask_of_iter(j for j, q in enumerate(primes)
                         if f.leq(w_up[j], p) and f.leq(w_down[i], q))
            for i, p in enumerate(primes)]


def open_ids_containing(frame: FiniteFrame, p: int) -> int:
    return mask_of_iter(i for i in frame.elements() if frame.mask_of(i) >> p & 1)


def specialisation_order(frame: FiniteFrame) -> list[int]:
    """x <= y iff every open containing x contains y."""
    containing = [open_ids_containing(frame, p) for p in range(frame.base_size)]
    return [mask_of_iter(y for y, cy in enumerate(containing) if cx & ~cy == 0)
            for cx in containing]


def point_closures(space: OrderedSpace) -> list[int]:
    """For each point p, the points q every open neighbourhood of which
    contains p; the opens containing each point are listed once."""
    containing = [open_ids_containing(space.frame, q) for q in range(space.n)]
    return [mask_of_iter(q for q, cq in enumerate(containing) if cq & ~mine == 0)
            for mine in containing]


def is_T0_ordered(space: OrderedSpace) -> CheckReport:
    """For x not<= y, some open U holds x with y outside upcone(U), or some
    open V holds y with x outside downcone(V); scans every open per pair."""
    f = space.frame
    for x in range(space.n):
        for y in range(space.n):
            if space.leq_points(x, y):
                continue
            if not any(e >> x & 1 and not space.up_mask(e) >> y & 1 or
                       e >> y & 1 and not space.down_mask(e) >> x & 1
                       for e in map(f.mask_of, f.elements())):
                return CheckReport("T0-ordered", "fail", (x, y),
                                   f"points {space.labels[x]} and {space.labels[y]} "
                                   "are order-inseparable")
    return CheckReport("T0-ordered", "pass", None, "exhaustive over point pairs")


def ideal_frame_rows(frame: FiniteFrame) -> list[int]:
    """Down rows of the frame of principal ideals, by ideal inclusion."""
    ideals = [frame.down_row(x) for x in frame.elements()]
    return [mask_of_iter(j for j, ij in enumerate(ideals) if ij & ~ii == 0)
            for ii in ideals]


# -- frames from an order, one order test per pair --------------------------------


def order_rows(items, leq) -> list[int]:
    """Down rows of the order `leq` on items: row i = {j : items[j] <= items[i]}."""
    return [mask_of_iter(j for j, y in enumerate(items) if leq(y, x)) for x in items]


def order_meet(items, leq, a: int, b: int) -> int:
    """The greatest lower bound of items[a] and items[b], as an index."""
    lower = [i for i, x in enumerate(items) if leq(x, items[a]) and leq(x, items[b])]
    return next(i for i in lower if all(leq(items[k], items[i]) for k in lower))


def order_join(items, leq, a: int, b: int) -> int:
    """The least upper bound of items[a] and items[b], as an index."""
    upper = [i for i, x in enumerate(items) if leq(items[a], x) and leq(items[b], x)]
    return next(i for i in upper if all(leq(items[i], items[k]) for k in upper))


def downset_frame(rel) -> FiniteFrame:
    """Frame of the down-sets of the preorder generated by the boolean
    matrix rel (rel[i][j]: i <= j): the unions of principal down-sets."""
    n = len(rel)
    up = transitive_closure_loop([mask_of_iter(j for j in range(n) if rel[i][j])
                                  for i in range(n)])
    return frame_from_topology(n, close_family_under_union_intersection(n, transpose_rows(up)))


def birkhoff_check_scan(down_rows: list[int]):
    """`lattice.frame_from_down_rows`'s acceptance test with (b) as the AND
    of up(j) over every carrier and (c) as the scan over every (x, j):
    (bottom, top, carriers, join-irreducibles), or the exception it raises
    with the same message."""
    m = len(down_rows)
    up_rows = transpose_rows(down_rows)
    downs = set(down_rows)
    irreducibles = [x for x, r in enumerate(down_rows) if r ^ 1 << x in downs]
    jmask = mask_of_iter(irreducibles)
    car = [r & jmask for r in down_rows]
    id_of = {c: x for x, c in enumerate(car)}
    ok = 0 in id_of and len(id_of) == m and all(
        reduce(and_, map(up_rows.__getitem__, bits(c)), (1 << m) - 1) == u
        for c, u in zip(car, up_rows))
    bad = next(((x, j) for x in range(m) for j in irreducibles
                if car[x] | car[j] not in id_of), None) if ok else None
    if not ok or bad:
        msg = _lattice_failure(down_rows, up_rows)
        if msg:
            raise NotALattice(msg)
        x, j = bad
        z = {u: i for i, u in enumerate(up_rows)}[up_rows[x] & up_rows[j]]
        jp = next(bits(car[z] & ~(car[x] | car[j])))
        raise NotDistributive(f"a&(b|c) != (a&b)|(a&c) at {(jp, x, j)}")
    return id_of[0], id_of[jmask], car, irreducibles


class TableFrame:
    """A finite lattice served from the down rows of its order and its
    m x m meet and join tables."""

    def __init__(self, down_rows, bottom, top, meet_t, join_t):
        self.m, self.bottom, self.top = len(down_rows), bottom, top
        self.down_rows, self.up_rows = down_rows, transpose_rows(down_rows)
        self.meet_t, self.join_t = meet_t, join_t

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down_rows[j] >> i & 1)

    def meet(self, i: int, j: int) -> int:
        return self.meet_t[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_t[i][j]

    def heyting(self, a: int, b: int) -> int:
        out = self.bottom
        for w in range(self.m):
            if self.leq(self.meet(a, w), b):
                out = self.join(out, w)
        return out

    def coprimes(self) -> list[int]:
        """Elements with exactly one lower cover, in id order."""
        return [i for i in range(self.m) if len(_covers(self.down_rows, self.up_rows, i)) == 1]

    def primes(self) -> list[int]:
        """Elements with exactly one upper cover, in id order."""
        return [i for i in range(self.m) if len(_covers(self.up_rows, self.down_rows, i)) == 1]


def _covers(rows, dual, i):
    strict = rows[i] & ~(1 << i)
    return [j for j in bits(strict) if strict & dual[j] & ~(1 << j) == 0]


def frame_by_tables(down_rows: list[int]) -> TableFrame:
    """The lattice of the order with the given down rows, every law checked
    on every pair: antisymmetry, a unique bottom and top, a meet (the lower
    bounds are a down row) and a join (the upper bounds are an up row) for
    each pair, then distributivity.  Raises NotALattice or NotDistributive."""
    m = len(down_rows)
    for i in range(m):
        for j in bits(down_rows[i]):
            if j != i and down_rows[j] >> i & 1:
                raise NotALattice(f"order not antisymmetric at ({i},{j})")
    bottoms = [i for i in range(m) if down_rows[i] == 1 << i]
    tops = [i for i in range(m) if bin(down_rows[i]).count("1") == m]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("order lacks a unique bottom or top")
    up_rows = transpose_rows(down_rows)
    id_of_down = {r: i for i, r in enumerate(down_rows)}
    id_of_up = {r: i for i, r in enumerate(up_rows)}
    meet_t, join_t = [], []
    for i in range(m):
        mrow = [id_of_down.get(down_rows[i] & dj) for dj in down_rows]
        jrow = [id_of_up.get(up_rows[i] & uj) for uj in up_rows]
        if None in mrow or None in jrow:
            j = next(j for j in range(m) if mrow[j] is None or jrow[j] is None)
            raise NotALattice(f"no {'meet' if mrow[j] is None else 'join'} for ({i},{j})")
        meet_t.append(mrow)
        join_t.append(jrow)
    f = TableFrame(down_rows, bottoms[0], tops[0], meet_t, join_t)
    # distributive iff every join-irreducible j is join-prime: the join of
    # the elements not above j is not above j
    for j in f.coprimes():
        acc = f.bottom
        for x in bits((1 << m) - 1 & ~up_rows[j]):
            nxt = f.join(acc, x)
            if f.leq(j, nxt):
                raise NotDistributive(f"a&(b|c) != (a&b)|(a&c) at {(j, acc, x)}")
            acc = nxt
    return f


def frame_map_failure_by_pairs(fmap: FrameMap):
    """Why the preimage is not a frame map, as the NotAFrameMap message:
    totality, bottom, top, then the first pair a <= b (ids) whose meet or
    join it does not preserve; None for a frame map."""
    src, tgt, pre = fmap.source, fmap.target, fmap.preimage
    if len(pre) != tgt.m:
        return "preimage must be total on the target frame"
    if pre[tgt.bottom] != src.bottom:
        return "preimage does not preserve bottom"
    if pre[tgt.top] != src.top:
        return "preimage does not preserve top"
    for a in range(tgt.m):
        for b in range(a, tgt.m):
            if pre[tgt.meet(a, b)] != src.meet(pre[a], pre[b]):
                return f"meet not preserved at {(a, b)}"
            if pre[tgt.join(a, b)] != src.join(pre[a], pre[b]):
                return f"join not preserved at {(a, b)}"
    return None


def subframe_by_pairs(ambient: FiniteFrame, elem_ids, meta=None):
    """`lattice.subframe` with one ambient `leq` call per pair of kept ids."""
    ids = sorted(set(elem_ids))
    ext = [ambient.mask_of(i) for i in ids] if ambient.realized else None
    f = frame_from_down_rows(order_rows(ids, ambient.leq), ext=ext,
                             base_size=ambient.base_size, labels=ambient.labels, meta=meta)
    return f, ids


# -- finite topologies, one pair of opens at a time ---------------------------------


def frame_from_topology_pairs(base_size: int, opens) -> FiniteFrame:
    """Frame of a finite topology whose closure is checked on every pair of
    opens, O(m^2), and whose N(p) are scanned over every open."""
    masks = sorted(set(opens))
    full = (1 << base_size) - 1
    if not masks or masks[0] != 0 or masks[-1] != full:
        raise MissingBottomOrTop("the empty set or the full base")
    if len(masks) == 1 << base_size:
        return powerset_frame(base_size)
    mset = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b not in mset:
                raise NotClosedUnderMeet(a, b)
            if a | b not in mset:
                raise NotClosedUnderJoin(a, b)
    f = FiniteFrame(kind="mask", m=len(masks), bottom=0, top=len(masks) - 1,
                    ext=masks, base_size=base_size)
    f._nbhds = []
    for p in range(base_size):
        acc = full
        for e in masks:
            if e >> p & 1:
                acc &= e
        f._nbhds.append(masks.index(acc))
    return f


def least_neighbourhood(base_size: int, family, p: int) -> int:
    """N(p): the AND of the members of the family that hold p, or the full
    base when none does."""
    return reduce(and_, (e for e in family if e >> p & 1), (1 << base_size) - 1)


def close_family_under_union_intersection(base_size: int, gens) -> list[int]:
    """Smallest family containing gens, 0 and the full base, closed under & and |:
    the unions of the least neighbourhoods N(p) of the generators (the
    lemma of `lattice.frame_from_topology`), enumerated by closing {0}
    under each distinct | N(p).  Lists the whole family, up to 2^n masks."""
    family = set(gens)
    fam = {0}
    for nb in {least_neighbourhood(base_size, family, p) for p in range(base_size)}:
        fam |= {s | nb for s in fam}
    return sorted(fam)


def close_family_fixpoint(base_size: int, gens) -> list[int]:
    """Smallest family containing gens, 0 and the full base, closed under &
    and |, by adding the & and | of every pair until nothing is new."""
    fam = {0, (1 << base_size) - 1} | set(gens)
    work = list(fam)
    while work:
        a = work.pop()
        for b in list(fam):
            for c in (a & b, a | b):
                if c not in fam:
                    fam.add(c)
                    work.append(c)
    return sorted(fam)


# -- powerset frames, one subset at a time ---------------------------------------


def mask_backed_powerset(n: int) -> FiniteFrame:
    """The powerset of n points stored as a mask-backed frame, so that the
    generic mask paths answer every query.  Its neighbourhoods are folded
    here, as `frame_from_topology` folds them for its frames."""
    f = FiniteFrame(kind="mask", m=1 << n, bottom=0, top=(1 << n) - 1,
                    ext=list(range(1 << n)), base_size=n)
    f._nbhds = [least_neighbourhood(n, range(1 << n), p) for p in range(n)]
    return f


def subset_cones(m, up_rows, down_rows):
    """Extend point cones to every subset s < m of the points, as the OR of
    the cones of its points, by doubling: the subsets whose highest point
    is b are the s < 1 << b plus b, so t[s | 1 << b] = t[s] | rows[b]."""
    upt, dnt = [0] * m, [0] * m
    for b in range(m.bit_length() - 1):
        half, ru, rd = 1 << b, up_rows[b], down_rows[b]
        upt[half:2 * half] = [x | ru for x in upt[:half]]
        dnt[half:2 * half] = [x | rd for x in dnt[:half]]
    return upt, dnt


def list_form_locale(space: OrderedSpace, variant: str) -> OrderedLocale:
    """The induced locale of a discrete space with its cones as full lists:
    `subset_cones` and the constant-top list, validated by the list kernel."""
    f = space.frame
    up, down = subset_cones(f.m, space.up, space.down)
    top = [f.top] * f.m
    pair = {"em": (up, down), "upper": (up, top), "lower": (top, down)}[variant]
    loc = ordered_locale_from_monads(ConePair(f, *pair))
    assert check_axiom(loc, "V").ok
    return loc


def subset_cones_lowest_bit(m, up_rows, down_rows):
    """Extend point cones to every subset s < m of the points, as the OR of
    the cones of its points: t[s] = t[s ^ low] | rows[low point]."""
    upt, dnt = [0] * m, [0] * m
    for s in range(1, m):
        low = s & -s
        r, b = s ^ low, low.bit_length() - 1
        upt[s] = upt[r] | up_rows[b]
        dnt[s] = dnt[r] | down_rows[b]
    return upt, dnt


def join_failure_lowest_bit(m, t):
    """The least (s ^ low, low) with t[s] != t[s ^ low] | t[low] on the
    powerset of m elements, low the lowest point of s, or None."""
    for s in range(1, m):
        low = s & -s
        if t[s] != t[s ^ low] | t[low]:
            return s ^ low, low
    return None


def convex_space_loop(space: OrderedSpace) -> CheckReport:
    """Convex opens form a basis: every open, in id order, is the union of
    the pointwise convex opens inside it."""
    f = space.frame
    convex = [e for e in map(f.mask_of, f.elements())
              if space.up_mask(e) & space.down_mask(e) & ~e == 0]
    for i in f.elements():
        e = f.mask_of(i)
        acc = 0
        for c in convex:
            if c & ~e == 0:
                acc |= c
        if acc != e:
            return CheckReport("convex-space", "fail", (i,))
    return CheckReport("convex-space", "pass")


def interior_cone_maps(space: OrderedSpace) -> tuple[list[int], list[int]]:
    """Localic cones by definition: the interior of the pointwise up and
    down cone of every open, in element-id order."""
    f = space.frame
    masks = [f.mask_of(i) for i in f.elements()]
    return ([f.interior(space.up_mask(e)) for e in masks],
            [f.interior(space.down_mask(e)) for e in masks])


def open_cones_element_scan(space: OrderedSpace) -> CheckReport:
    """Are the pointwise cones of every open open?  Every open in id order,
    the up cone before the down cone; the witness is (open id, direction)."""
    f = space.frame
    for i in f.elements():
        e = f.mask_of(i)
        for direction, cone in (("up", space.up_mask(e)), ("down", space.down_mask(e))):
            if not f.has_mask(cone):
                return CheckReport("open-cones", "fail", (i, direction))
    return CheckReport("open-cones", "pass")


def slot_scan(olx: OrderedLocale, a: int, b, c: int):
    """A nonempty V <= A with b rel V rel c (V rel c when b is None): the
    largest candidate m = A & up(b) & down(c) if it fits, else the fitting
    V of greatest id in the down-set of m, else None."""
    f = olx.frame
    m = f.meet(a, olx.down_map[c])
    if b is not None:
        m = f.meet(m, olx.up_map[b])

    def fits(v):
        return (v != f.bottom and (b is None or olx.related(b, v))
                and olx.related(v, c))

    if fits(m):
        return m
    return max((v for v in bits(f.down_row(m)) if fits(v)), default=None)


def counit_monotone_by_points_locale(olx: OrderedLocale) -> bool:
    """The counit loc(pt(X)) -> X is monotone: in the induced em locale of
    the points space, the cones of pt(U) lie inside pt(up(U)) and
    pt(down(U)), one leq per element and cone."""
    f, primes = olx.frame, olx.frame.primes()
    pts = points_space(olx)
    ptloc, g = ospace.induced_locale(pts, "em"), pts.frame
    pt = [g.id_of_mask(pt_mask(f, primes, u)) for u in f.elements()]
    return all(g.leq(ptloc.up_map[pt[u]], pt[olx.up_map[u]])
               and g.leq(ptloc.down_map[pt[u]], pt[olx.down_map[u]])
               for u in f.elements())


def transitive_closure_loop(rows: list[int]) -> list[int]:
    """`lattice.transitive_closure_rows` by the definition's fixpoint: make
    every row hold its own index, then OR into each row the rows of its
    members, bit by bit, until a sweep changes no row."""
    rows = [r | 1 << i for i, r in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rows):
            new = r
            for j in bits(r):
                new |= rows[j]
            if new != r:
                rows[i], changed = new, True
    return rows


def translation_gap_loop(frame: FiniteFrame, rows, fill=None):
    """`olocale._translation_gap` by building the translated image of each
    row U for each join-irreducible J, bit by bit: O(P |J|) for P related
    pairs.  With `fill`, every missing translated pair is also added to
    those rows (the filling step of `saturate_alternating`)."""
    f = frame
    shifts = [(j, [f.join(x, j) for x in f.elements()]) for j in f.coprimes()]
    gap = None
    for u in f.elements():
        for j, shift in shifts:
            t = shift[u]
            miss = mask_of_iter(shift[v] for v in bits(rows[u])) & ~rows[t]
            if not miss:
                continue
            if fill is not None:
                fill[t] |= miss
            if gap is None or gap[0] == u:
                v = next(v for v in bits(rows[u]) if miss >> shift[v] & 1)
                if gap is None or v < gap[1]:
                    gap = (u, v, j, j)
        if gap is not None and fill is None:
            return gap
    return gap


def saturate_alternating(frame: FiniteFrame, pairs, strict=False, meta=None):
    """`olocale.ordered_locale_from_relation` by alternating fixpoint: close
    transitively, add every missing translated pair (`translation_gap_loop`
    with `fill`), and repeat until a round adds nothing, refusing once a
    closed relation exceeds `olocale.SATURATION_LIMIT` pairs."""
    rows = [0] * frame.m
    for u, v in pairs:
        rows[u] |= 1 << v
    rows = transitive_closure_loop(rows)
    grown = list(rows)
    gap = translation_gap_loop(frame, rows, grown)
    if gap is not None:
        if strict:
            raise AxiomVFailure(gap)
        meta = dict(meta or {})
        meta["join_saturated"] = gap
    while gap is not None:
        rows = transitive_closure_loop(grown)
        if sum(map(popcount, rows)) > olocale.SATURATION_LIMIT:
            raise FrameTooLarge("join saturation exceeded "
                                f"{olocale.SATURATION_LIMIT} pairs")
        grown = list(rows)
        gap = translation_gap_loop(frame, rows, grown)
    up_map, down_map = cones_from_rows(frame, rows)
    return OrderedLocale(frame, up_map=up_map, down_map=down_map, rel_rows=rows,
                         meta=meta)


def coverage_column_loop(olx: OrderedLocale, work: OrderedLocale, a: int):
    """The regions U that A covers from below in `work` (olx or its dual),
    and the U it leaves undecided, (members, pending), by scanning every U.

    A outside cone(U) never covers U, and the empty region covers only
    itself.  On atomistic frames the slot analysis decides every U: U is
    out exactly when it holds an atom of an unrefinable chain.  Elsewhere
    only A = U and A = cone(U) are certain; every other U with A inside
    its cone is pending.
    """
    f = olx.frame
    if a == f.bottom:
        return [f.bottom], []
    down = work.down_map
    inside = [u for u in f.elements() if f.leq(a, down[u])]
    if not f.is_atomistic():
        members, pending = [], []
        for u in inside:
            (members if a == u or a == down[u] else pending).append(u)
        return members, pending
    cover = coverage._AtomCoverage(work, a)
    bad = f.join_all(cover.atoms[i] for i in cover.bad_reach())
    return [u for u in inside if f.meet(u, bad) == f.bottom], []


def frobenius_gens_loop(f: FiniteFrame, side, other, gens, holds=None):
    """`olocale._gens_failure` by the pair loop: the least (u, v) over gens,
    u first, with side(u) & v not below side(u & other(v)) (F+ takes
    side = down and other = up, F- the reverse).  `holds` is not used."""
    return next(((u, v) for u in gens for v in gens
                 if not f.leq(f.meet(side[u], v), side[f.meet(u, other[v])])), None)


def frobenius_point_failures_loop(f: FiniteFrame, side, other) -> int:
    """`olocale._point_failures` by the pair loop: the U, as an id-bitmask,
    with side(U) & {b} not below side(U & other({b})) for some point b."""
    return mask_of_iter(u for u in f.elements() for b in range(f.base_size)
                        if not f.leq(f.meet(side[u], 1 << b), side[f.meet(u, other[1 << b])]))


def fraction_cone_rows(alive, slope, step=False):
    """Grid rows in Fraction arithmetic: row i holds j iff t_j >= t_i
    (t_j = t_i + 1 with `step`) and |x_j - x_i| <= slope * (t_j - t_i)."""
    return [mask_of_iter(j for j, (t2, x2) in enumerate(alive)
                         if (t2 == t + 1 if step else t2 >= t)
                         and abs(x2 - x) <= slope * (t2 - t))
            for (t, x) in alive]


# -- duality checks by per-element loops ---------------------------------------------


def point_data_loop(olx: OrderedLocale, primes) -> tuple[list[int], list[int]]:
    """The point order rows and pt masks, walking the rows {i : x <= p_i}
    once per element and cone."""
    f, up, down = olx.frame, olx.up_map, olx.down_map
    below = rows_above(f, primes)
    n = len(primes)
    under_up, under_down = [0] * n, [0] * n    # {U : up(U) <= p_i}, {V : down(V) <= p_i}
    for u in f.elements():
        for i in bits(below[up[u]]):
            under_up[i] |= 1 << u
        for i in bits(below[down[u]]):
            under_down[i] |= 1 << u
    cols = transpose_rows([below[f.join_of_idmask(w)] for w in under_up])
    return ([below[f.join_of_idmask(w)] & cols[i] for i, w in enumerate(under_down)],
            [(1 << n) - 1 & ~r for r in below])


def unit_check_loop(space: OrderedSpace) -> CheckReport:
    """`duality.unit_check` with both monotonicities decided by flag loops
    over the point pairs, the first failing pair in loop order the witness."""
    f = space.frame
    olx = ospace.induced_locale(space, "em")
    primes = f.primes()
    pts = points_space(olx)
    full = (1 << space.n) - 1

    eta = []      # eta(x) as an index into primes, or None if not a prime
    prime_index = {p: i for i, p in enumerate(primes)}
    for closure in point_closures(space):
        cmask = full & ~closure
        pid = f.id_of_mask(cmask) if f.has_mask(cmask) else None
        eta.append(prime_index.get(pid))

    t0 = ospace.is_T0(space)
    injective = len({e for e in eta if e is not None}) == space.n and None not in eta
    surjective = set(e for e in eta if e is not None) == set(range(len(primes)))
    oc = ospace.has_open_cones(space)
    t0o = ospace.is_T0_ordered(space)
    sober = ospace.is_sober(space)

    monotone = True
    mono_witness = None
    if injective:
        for x in range(space.n):
            for y in bits(space.up[x]):
                if not pts.leq_points(eta[x], eta[y]):
                    monotone = False
                    mono_witness = (x, y)
                    break
            if not monotone:
                break
        inverse_monotone = True
        inv_witness = None
        for x in range(space.n):
            for y in range(space.n):
                if pts.leq_points(eta[x], eta[y]) and not space.leq_points(x, y):
                    inverse_monotone = False
                    inv_witness = (eta[x], eta[y])
                    break
            if not inverse_monotone:
                break
    else:
        inverse_monotone = None
        inv_witness = None

    # cross-checks of the fixed-point lemmas on this instance
    if injective != t0:
        raise ValidationError("unit injectivity disagrees with T0")
    if injective and monotone != oc.ok:
        raise ValidationError("unit monotonicity disagrees with open cones")
    if sober and oc.ok and inverse_monotone is not None and t0o.ok != inverse_monotone:
        raise ValidationError("inverse-unit monotonicity disagrees with T0-ordered")

    fixed = sober and t0o.ok and oc.ok
    details = {
        "T0": t0, "enough_points": surjective, "open_cones": oc.ok,
        "T0_ordered": t0o.ok, "sober": sober, "fixed_point": fixed,
        "unit_monotone": monotone if injective else oc.ok,
        "inverse_monotone": inverse_monotone,
        "points_open_cones": ospace.has_open_cones(pts).ok,
    }
    note = ", ".join(f"{k}={v}" for k, v in details.items())
    witness = None
    if not fixed:
        witness = inv_witness or mono_witness or (t0o.witness if not t0o.ok else None)
        if witness is None and not t0:
            # two topologically indistinguishable points: equal N(x)
            seen = {}
            for x, nx in enumerate(f.neighbourhoods()):
                if nx in seen:
                    witness = (seen[nx], x)
                    break
                seen[nx] = x
    rep = CheckReport("unit", "pass" if fixed else "fail", witness, note)
    rep.details = details
    rep.points_space = pts
    rep.eta = eta
    return rep


def point_cones_loop(rows: list[int], pms: list[int]) -> list[tuple[int, int, int]]:
    """pt(U), upcone(pt(U)) and downcone(pt(U)), one OR per point of pt(U)."""
    down_rows = transpose_rows(rows)
    out = []
    for pm in pms:
        upc = dnc = 0
        for i in bits(pm):
            upc |= rows[i]
            dnc |= down_rows[i]
        out.append((pm, upc, dnc))
    return out


def transpose_by_bits(rows: list[int]) -> list[int]:
    """Column j of a square bitmask matrix collects i for every bit j of row i."""
    cols = [0] * len(rows)
    for i, r in enumerate(rows):
        for j in bits(r):
            cols[j] |= 1 << i
    return cols


def cone_frame_by_list(olx: OrderedLocale, name: str, label: str):
    """The cone frame on the listed image of cone `name`, with the ambient
    bottom adjoined if missing, by `subframe_by_pairs`, and its inclusion;
    refused as `olocale.futures_frame` refuses."""
    bad = olocale._cone_join_failure(olx)
    if bad is not None:
        raise ConesDoNotPreserveJoins(bad[0])
    cone = getattr(olx.cones, name)
    image = sorted(set(cone.tolist() if hasattr(cone, "tolist") else cone))
    meta = {"construction": label}
    if olx.frame.bottom not in image:
        image = [olx.frame.bottom] + image
        meta["adjoined_bottom"] = True
    sub, incl = subframe_by_pairs(olx.frame, image, meta=meta)
    FrameMap(source=olx.frame, target=sub, preimage=list(incl)).validate()
    return sub, incl


def ideal_points_listed(olx: OrderedLocale):
    """`duality.ideal_points` on the listed cone frames (`cone_frame_by_list`):
    the join-irreducibles and primes of each frame as ambient ids, and the
    negation bijection checked under parallel + regular cones."""
    from ordloc.duality import IdealPointSet
    f = olx.frame
    fut, fut_in = cone_frame_by_list(olx, "u", "futures")
    pas, pas_in = cone_frame_by_list(olx, "d", "pasts")
    out = IdealPointSet([pas_in[c] for c in pas.coprimes()], [fut_in[c] for c in fut.coprimes()],
                        [fut_in[p] for p in fut.primes()], [pas_in[p] for p in pas.primes()])
    if check_axiom(olx, "parallel").ok and olocale.check_regular_cones(olx).ok:
        neg_fut = sorted(f.neg(p) for p in out.future_points)
        neg_pas = sorted(f.neg(p) for p in out.past_points)
        ok = (neg_fut == sorted(out.ips) and len(set(neg_fut)) == len(out.future_points)
              and neg_pas == sorted(out.ifs) and len(set(neg_pas)) == len(out.past_points)
              and all(f.neg(f.neg(p)) == p for p in out.future_points + out.past_points))
        if not ok:
            raise ValidationError("negation bijection failed despite parallel "
                                  "+ regular cones")
        out.negation_bijection = True
    return out


def bullet_scan(olx: OrderedLocale, pcones) -> CheckReport:
    """Axiom (bullet) tested at every element in id order, with the
    `point_cones_loop` triples of every element."""
    for u, (_, upc, dnc) in enumerate(pcones):
        if upc != pcones[olx.up_map[u]][0]:
            return CheckReport("bullet", "fail", (u,), "upcone(pt(U)) != pt(up(U))")
        if dnc != pcones[olx.down_map[u]][0]:
            return CheckReport("bullet", "fail", (u,), "downcone(pt(U)) != pt(down(U))")
    return CheckReport("bullet", "pass", None, "exhaustive over opens")


def cone_inclusions_scan(olx: OrderedLocale, pcones) -> bool:
    """upcone(pt(U)) inside pt(up(U)) and dually, at every element."""
    return all(upc & ~pcones[olx.up_map[u]][0] == 0
               and dnc & ~pcones[olx.down_map[u]][0] == 0
               for u, (_, upc, dnc) in enumerate(pcones))


def counit_check_loop(olx: OrderedLocale) -> CheckReport:
    """`duality.counit_check` with the Egli-Milner masks built point by
    point: lacking[i] and reached[i] collect the V with i outside pt(V)
    and with i in downcone(pt(V)), and row U ANDs them bit by bit."""
    f = olx.frame
    primes = f.primes()
    rows, pms = point_data_loop(olx, primes)
    spatial = len(set(pms)) == len(pms)
    pcones = point_cones_loop(rows, pms)
    brep = bullet_scan(olx, pcones)
    corder = check_axiom(olx, "C-order")
    monotone = cone_inclusions_scan(olx, pcones)
    if not monotone:
        raise ValidationError("counit monotonicity failed; this should hold "
                              "in every ordered locale")
    note = [f"spatial={spatial} (finite frames are always spatial)",
            f"counit-monotone={monotone}",
            f"bullet={brep.verdict}"]
    witness = None if brep.ok else brep.witness
    biconditional = None
    if spatial and brep.ok and corder.ok:
        if f.m <= olocale.PAIR_LIMIT:
            n, full = len(primes), (1 << f.m) - 1
            lacking, reached = [full] * n, [0] * n
            for b, (pb, _, dnb) in enumerate(pcones):
                for i in bits(pb):
                    lacking[i] ^= 1 << b
                for i in bits(dnb):
                    reached[i] |= 1 << b
            rows = olx.rel_rows()
            for a, (pa, upa, _) in enumerate(pcones):
                em = full
                for i in bits(((1 << n) - 1) & ~upa):
                    em &= lacking[i]
                for i in bits(pa):
                    em &= reached[i]
                diff = em ^ rows[a]
                if diff:
                    witness = (a, next(bits(diff)))
                    break
            biconditional = witness is None
            note.append(f"order-biconditional={biconditional} (exhaustive)")
        else:
            note.append("order-biconditional follows from spatial + bullet + "
                        "C-order (frame too large for the pair scan)")
            biconditional = True
    ok = spatial and brep.ok and biconditional is not False
    rep = CheckReport("counit", "pass" if ok else "fail", witness, "; ".join(note))
    rep.details = {"spatial": spatial, "bullet": brep.ok,
                   "biconditional": biconditional, "counit_monotone": monotone}
    return rep


def double_negation_transport_general(olx: OrderedLocale) -> CheckReport:
    """`duality.double_negation_transport` by the definition: the regular
    order always comes from `order_from_map` along the sublocale map, the
    cones are always compared, and the IPs of both locales are read from
    their listed cone frames (`ideal_points_listed`)."""
    from ordloc.errors import RegularConesRequired
    from ordloc.lattice import double_negation_frame
    if not olocale.check_regular_cones(olx).ok:
        raise RegularConesRequired("double-negation transport needs regular cones")
    if not check_axiom(olx, "C-order").ok:
        raise RegularConesRequired("double-negation transport needs C-order")
    f = olx.frame
    sub, dn_map = double_negation_frame(f)
    if sub.m > REL_LIMIT:
        raise FrameTooLarge("double-negation transport capped at materializable relations")
    induced = order_from_map(dn_map, olx)
    reg_of = dn_map.preimage
    amb_of = [None] * sub.m
    for u in f.elements():
        if f.neg(f.neg(u)) == u:
            amb_of[reg_of[u]] = u
    fibre = [0] * sub.m
    for u in f.elements():
        fibre[reg_of[u]] |= 1 << u
    induced_rows, rows = induced.rel_rows(), olx.rel_rows()
    for u in f.elements():
        pulled = induced_rows[u] if sub is f else \
            or_rows(fibre, induced_rows[reg_of[u]])
        diff = pulled ^ rows[u]
        if diff:
            return CheckReport("dn-transport", "fail", (u, next(bits(diff))),
                               "regular order disagrees with the ambient order")
    for u in f.elements():
        if amb_of[induced.up_map[reg_of[u]]] != olx.up_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced future cone differs from the ambient one")
        if amb_of[induced.down_map[reg_of[u]]] != olx.down_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced past cone differs from the ambient one")
    amb_ip = sorted(ideal_points_listed(olx).ips)
    reg_ip = sorted(amb_of[i] for i in ideal_points_listed(induced).ips)
    if amb_ip != reg_ip:
        return CheckReport("dn-transport", "fail", tuple(amb_ip[:2]),
                           "IP sets differ between the locale and its "
                           "double-negation sublocale")
    return CheckReport("dn-transport", "pass", None,
                       "order biconditional, cone identities and IP "
                       "bijection all verified")
