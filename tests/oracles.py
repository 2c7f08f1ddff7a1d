"""Definitional oracles the tests compare the library against.

Each one scans the definition directly (all subsets, or all pairs or
triples of elements), so it is slow and only used on small frames.
"""

from ordloc import coverage
from ordloc.errors import FrameTooLarge, NotALattice, NotDistributive, ValidationError
from ordloc.lattice import (FiniteFrame, FrameMap, bits, close_family_under_union_intersection,
                            frame_from_down_rows, frame_from_topology, mask_of_iter,
                            transitive_closure_rows, transpose_rows)
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


def check_down_grothendieck_loop(olx: OrderedLocale, max_frame: int = 24) -> CheckReport:
    """The sieve axioms one membership at a time, with the early exits
    whose abstentions the mask form must count alike."""
    f = olx.frame
    if f.m > max_frame:
        raise FrameTooLarge(f"sieve check capped at {max_frame} elements")
    rows, unresolved = coverage.coverage_rows(olx, "past")
    pending = set(unresolved)
    abstained = 0

    def member(a, u):
        nonlocal abstained
        if (a, u) in pending:
            abstained += 1
            return None
        return bool(rows[u] >> a & 1)

    for u in f.elements():
        du = olx.down_map[u]
        sieves = coverage._downsets_of(f, du)
        # (i) maximal sieve covers
        if member(du, u) is False:
            return CheckReport("grothendieck", "fail", (u,),
                               "maximal sieve on down(U) does not cover U")
        # (i') pushforward of the maximal sieve on U itself
        if member(u, u) is False:
            return CheckReport("grothendieck", "fail", (u,),
                               "unit pushforward sieve does not cover U")
        joins = {s: f.join_of_idmask(s) for s in sieves}
        covering = [s for s in sieves if member(joins[s], u)]
        # (ii) pullback stability along W <= U
        for s in covering:
            js = joins[s]
            for w in bits(f.down_row(u)):
                mv = member(f.meet(olx.down_map[w], js), w)
                if mv is False:
                    return CheckReport("grothendieck", "fail", (u, w),
                                       "pullback of a covering sieve stopped "
                                       "covering")
        # (iii) transitivity
        for s in covering:
            for r in sieves:
                jr = joins[r]
                premise = True
                for v in bits(s):
                    mv = member(f.meet(olx.down_map[v], jr), v)
                    if mv is None:
                        premise = None
                        break
                    if not mv:
                        premise = False
                        break
                if premise and member(jr, u) is False:
                    return CheckReport("grothendieck", "fail", (u,),
                                       "locally covering sieve does not cover")
    note = f"exhaustive sieve enumeration; {abstained} abstentions"
    rep = CheckReport("grothendieck", "pass", None, note)
    rep.abstentions = abstained
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


def closure_of_point(space: OrderedSpace, p: int) -> int:
    """The points q every open neighbourhood of which contains p."""
    mine = open_ids_containing(space.frame, p)
    return mask_of_iter(q for q in range(space.n)
                        if open_ids_containing(space.frame, q) & ~mine == 0)


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
    up = transitive_closure_rows([mask_of_iter(j for j in range(n) if rel[i][j])
                                  for i in range(n)])
    return frame_from_topology(n, close_family_under_union_intersection(n, transpose_rows(up)))


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


# -- powerset frames, one subset at a time ---------------------------------------


def mask_backed_powerset(n: int) -> FiniteFrame:
    """The powerset of n points stored as a mask-backed frame, so that the
    generic mask paths answer every query."""
    return FiniteFrame(kind="mask", m=1 << n, bottom=0, top=(1 << n) - 1,
                       ext=list(range(1 << n)), base_size=n)


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
