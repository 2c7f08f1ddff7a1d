"""Definitional oracles the tests compare the library against.

Each one scans the definition directly (all subsets, or all pairs or
triples of elements), so it is slow and only used on small frames.
"""

from ordloc import coverage
from ordloc.errors import FrameTooLarge, ValidationError
from ordloc.lattice import FiniteFrame, FrameMap, bits, mask_of_iter
from ordloc.olocale import (REL_LIMIT, CheckReport, OrderedLocale, cones_from_rows)


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
