"""The space <-> locale adjunction on finite instances, and the causal
boundary layer: localic points, axiom (bullet), indecomposable past and
future regions, the negation bijection, and ideals of raw relations.

Points are computed in prime-element form; the completely prime filter
of a prime is the set of opens not below it.  Each filter is the up-set
of one join-irreducible, so
the point order is read from the cones there (`_point_data`); the
double-negation transport restricts the cones to the regular elements
(`double_negation_transport`).  The ideals of a relation are read from
their greatest members, one candidate per point (`triangle_ideals`).
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Optional, Sequence

from . import derived
from . import lattice as lat
from . import olocale as ol
from . import ospace as osp
from .errors import FrameTooLarge, RegularConesRequired, ValidationError
from .lattice import FiniteFrame, PointSet, bits
from .olocale import CheckReport, OrderedLocale
from .ospace import OrderedSpace


# -- the points space ----------------------------------------------------------


def pt_masks(frame: FiniteFrame) -> list[int]:
    """pt(U) for every element U, as masks over the frame's primes p_i
    (`FiniteFrame.primes`): the i with U not<= p_i.  Birkhoff lemma
    (`FiniteFrame.primes`): U not<= kappa(j) iff j <= U iff (on a carrier
    bit b of j_b) b is in car[U], so pt(U) is car[U] with each bit b
    renamed to the index of kappa(j_b) (`_fold`), and U itself on
    powersets, refused (FrameTooLarge) above SUBSET_LIMIT subsets."""
    if frame.kind == "powerset":
        if frame.m > lat.SUBSET_LIMIT:
            raise FrameTooLarge(f"element rows on {frame.m} subsets exceed {lat.SUBSET_LIMIT}")
        return list(frame.elements())
    index, kappa = {p: i for i, p in enumerate(frame.primes())}, frame.bit_primes()
    rename = [1 << index[kappa[b]] if b in kappa else 0 for b in range(max(kappa, default=-1) + 1)]
    return _fold(rename, or_, 0, frame.carriers())


def _envelopes(olx: OrderedLocale, at: Sequence[int]):
    """The maps x -> meet{up(V) : V >= x} and x -> meet{down(V) : V >= x},
    readable at the x in `at`.  Each is the greatest monotone map below
    its cone: it is monotone, as a larger x meets fewer cones, and a
    monotone h below the cone has h(x) <= h(V) <= cone(V) for V >= x.  So
    monotone cones are their own envelopes, returned as they are."""
    if ol._cones_monotone(olx):
        return olx.cones.u, olx.cones.d
    f = olx.frame
    return tuple({x: reduce(f.meet, [cone[v] for v in bits(f.up_row(x))]) for x in at}
                 for cone in (olx.up_map, olx.down_map))


def _point_data(olx: OrderedLocale) -> tuple[list[int], list[int]]:
    """The point order rows and `pt_masks` of the frame's primes, the
    order read at the join-irreducibles J; built once per locale and
    shared by `points_space`, `counit_check`, `check_axiom_P` and
    `point_cone_inclusions_hold` (none of them writes to it).

    The filter F_i = {U : U not<= p_i} is the up-set of its least member
    j_i (`pt_masks`), and pt is monotone and injective (finite frames are
    spatial), so j_i is the j with i in pt(j) and the fewest points.

    Order lemma: F_i <= F_k iff up(U) is in F_k for every U in F_i, and
    down(V) in F_i for every V in F_k.  The U in F_i are the U >= j_i, and
    an element lies above j_k iff it does for every member of a family
    iff it does for the family's meet.  So the first half says
    j_k <= a(j_i), a(x) = meet{up(U) : U >= x}, i.e. k in pt(a(j_i)), and
    the second i in pt(d(j_k)), d from down alike (`_envelopes`; a = up
    and d = down for monotone cones).  Row i is pt(a(j_i)) &
    {k : i in pt(d(j_k))}: |J| cone reads per cone, and |J|^2 bits.
    """
    if "points" in olx.memo:
        return olx.memo["points"]
    f = olx.frame
    n = len(f.primes())
    pms = pt_masks(f)
    least, free = [0] * n, (1 << n) - 1          # least[i] = j_i
    for j in sorted(f.coprimes(), key=lambda j: lat.popcount(pms[j])):
        for i in bits(pms[j] & free):
            least[i] = j
        free &= ~pms[j]
    up, down = _envelopes(olx, least)
    cols = lat.transpose_rows([pms[down[j]] for j in least])
    olx.memo["points"] = [pms[up[j]] & col for j, col in zip(least, cols)], pms
    return olx.memo["points"]


def points_space(olx: OrderedLocale) -> OrderedSpace:
    """The ordered space of points of an ordered locale.

    Points are the primes of the frame, the topology is {pt(U)}, and the
    order is the cone characterization of the filter order.  The result is
    always T0-ordered; this is asserted.
    """
    return _points_space(olx.frame.primes(), *_point_data(olx))


def _points_space(primes: list[int], rows: list[int], pms: list[int]) -> OrderedSpace:
    n = len(primes)
    fam = sorted(set(pms))
    topo = lat.frame_from_topology(n, fam, labels=[f"F{i}" for i in range(n)])
    space = OrderedSpace(n, rows, topo, labels=[f"F{i}" for i in range(n)],
                         name="pt")
    space.prime_ids = list(primes)
    rep = derived.is_T0_ordered(space)
    if not rep.ok:
        raise ValidationError(f"points space lost T0-orderedness: {rep.note}")
    return space


# -- unit -----------------------------------------------------------------------


def _least_excess(rows: Sequence[int], bound: Sequence[int]) -> Optional[tuple[int, int]]:
    """The least x with a y in rows[x] outside bound[x], and the least such
    y, or None."""
    for x, (r, b) in enumerate(zip(rows, bound)):
        if r & ~b:
            return x, next(bits(r & ~b))
    return None


def unit_check(space: OrderedSpace) -> CheckReport:
    """Classify the unit of the adjunction at one space.

    Reports injectivity (= T0), surjectivity (= enough points),
    monotonicity (= open cones) and monotonicity of the inverse
    (= T0-ordered); the verdict is "pass" exactly for fixed points:
    sober + T0-ordered + open cones.  Both monotonicities compare the
    space order with the point order pulled back along eta, one point
    mask per point, and the least excess either way is the witness.

    eta(x) is the prime X - cl{x} = int(X - {x}), the largest open that
    misses x: by the lemma of `FiniteFrame.primes` it is kappa(N(x)),
    always a prime, read from `FiniteFrame.bit_primes` with no order test.
    """
    f = space.frame
    olx = osp.induced_locale(space, "em")
    primes = f.primes()
    pts = points_space(olx)

    prime_index = {p: i for i, p in enumerate(primes)}
    eta = [prime_index[p] for p in f.bit_primes().values()]

    t0 = derived.is_T0(space)
    injective = len(set(eta)) == space.n
    surjective = len(set(eta)) == len(primes)
    oc = derived.has_open_cones(space)
    t0o = derived.is_T0_ordered(space)
    sober = derived.is_sober(space)

    mono_witness = inverse_monotone = inv_witness = None
    if injective:
        # the point order pulled back along eta, a bijection onto the
        # primes: pulled[x] = {y : eta(x) <= eta(y)}
        point_of = {e: x for x, e in enumerate(eta)}
        pulled = [lat.mask_of_iter(point_of[k] for k in bits(pts.up[e])) for e in eta]
        mono_witness = _least_excess(space.up, pulled)
        gap = _least_excess(pulled, space.up)
        inverse_monotone = gap is None
        if gap is not None:
            inv_witness = (eta[gap[0]], eta[gap[1]])
    monotone = mono_witness is None

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
        "points_open_cones": derived.has_open_cones(pts).ok,
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


# -- counit and axiom (bullet) ---------------------------------------------------


def _fold(rows: Sequence[int], op, unit: int, keys) -> list[int]:
    """For each mask s in keys, op of rows[i] over the i in s, from unit;
    op is OR or AND, so a fold may repeat unit and split s anywhere.

    The rows are cut into chunks of k bits, k = min(n, 12, log2(2|keys|))
    and at least 1, each chunk's fold table is built by doubling
    (`lattice.subset_table`), and s is read as op of its chunks' entries:
    about 2^k n/k table entries and n/k reads per key, on any n.  Where 2^n
    <= 2|keys| the one table holds every s, read as it is (masking each s
    there cost a sixth more on the workloads' calls)."""
    k = max(1, min(len(rows), 12, (2 * len(keys)).bit_length() - 1))
    low, tables = (1 << k) - 1, [lat.subset_table(unit, rows[i:i + k], op)
                                  for i in range(0, len(rows), k)]
    if len(tables) <= 1:
        table = tables[0] if tables else [unit]
        return [table[s] for s in keys]
    out = [tables[0][s & low] for s in keys]
    for shift, table in zip(range(k, len(rows), k), tables[1:]):
        out = list(map(op, out, [table[s >> shift & low] for s in keys]))
    return out


def _cone_sides(olx: OrderedLocale, rows: list[int], pms: list[int], us):
    """(U, upcone(pt(U)), pt(up(U)), downcone(pt(U)), pt(down(U))) for
    each U in `us`, as point masks over the primes, from the point order
    rows and pt masks."""
    up, down, keys = olx.cones.u, olx.cones.d, [pms[u] for u in us]
    return zip(us, _fold(rows, or_, 0, keys), [pms[up[u]] for u in us],
               _fold(lat.transpose_rows(rows), or_, 0, keys), [pms[down[u]] for u in us])


def _deciding(olx: OrderedLocale):
    """The U that decide (bullet) and the point-cone inclusions: bottom and
    J, in id order, where both cones pass the join kernel; else every U.

    Lemma: pt preserves joins (a completely prime filter holds U | V iff it
    holds U or V), and so does upcone, a union of point rows; pt(up(U))
    does where up does.  So both sides of each law preserve binary joins,
    and agree (or include) at every U once they do at bottom and at the j
    below U, as U is their join.  A U that fails lies above a failing
    generator, and where ids extend the order (`ids_extend_order`) that
    generator is no larger: the least failing generator is the least
    failing element, with the same side failing first."""
    f, cones = olx.frame, olx.cones
    if cones.join_failure("u") is None and cones.join_failure("d") is None:
        return sorted({f.bottom, *f.coprimes()})
    return f.elements()


def _bullet_failure(sides) -> Optional[tuple[tuple, str]]:
    for u, upc, upt, dnc, dnt in sides:
        if upc != upt:
            return (u,), "upcone(pt(U)) != pt(up(U))"
        if dnc != dnt:
            return (u,), "downcone(pt(U)) != pt(down(U))"
    return None


def _bullet_report(olx: OrderedLocale, rows: list[int], pms: list[int]) -> CheckReport:
    """Axiom (bullet) at the deciding U (`_deciding`); a generator failure
    on a frame whose ids do not extend its order rescans every U, for the
    least witness."""
    f, us = olx.frame, _deciding(olx)
    bad = _bullet_failure(_cone_sides(olx, rows, pms, us))
    if bad is not None and len(us) < f.m and not f.ids_extend_order():
        bad = _bullet_failure(_cone_sides(olx, rows, pms, f.elements()))
    if bad is None:
        return CheckReport("bullet", "pass", None, "exhaustive over opens")
    return CheckReport("bullet", "fail", *bad)


def check_axiom_P(olx: OrderedLocale) -> CheckReport:
    """Axiom (bullet): cones commute with taking points,
    upcone(pt(U)) == pt(up(U)) and downcone(pt(U)) == pt(down(U))."""
    return _bullet_report(olx, *_point_data(olx))


def _cone_inclusions(olx: OrderedLocale, rows: list[int], pms: list[int]) -> bool:
    return all(upc & ~upt == 0 and dnc & ~dnt == 0
               for _, upc, upt, dnc, dnt in _cone_sides(olx, rows, pms, _deciding(olx)))


def point_cone_inclusions_hold(olx: OrderedLocale) -> bool:
    """upcone(pt(U)) inside pt(up(U)) and dually -- valid in every ordered
    locale, no axioms needed; the equalities are exactly axiom (bullet).

    The inclusions make the counit loc(pt(X)) -> X monotone: the points
    locale's cone of pt(U) is the interior of upcone(pt(U)), which lies
    inside the open pt(up(U)) (dually for pasts).  So counit monotonicity
    is this check."""
    return _cone_inclusions(olx, *_point_data(olx))


def counit_check(olx: OrderedLocale) -> CheckReport:
    """Spatiality (automatic on finite frames, still verified), counit
    monotonicity (always true, still verified by the point-cone
    inclusions, see `point_cone_inclusions_hold`), axiom (bullet), and --
    given (bullet) and cone-determination -- the biconditional
    U <= V iff pt(U) <= pt(V).

    The biconditional is Egli-Milner on point sets: pt(V) inside
    upcone(pt(U)) and pt(U) inside downcone(pt(V)).  So row U is the AND
    of lacking[i] = {V : i not in pt(V)} over the i outside upcone(pt(U)),
    which is pt(up(U)) by (bullet), and of reached[i] =
    {V : i in downcone(pt(V))} over the i in pt(U).
    i is not in pt(V) iff V <= p_i, so lacking[i] = down_row(p_i); i is in
    downcone(pt(V)) iff pt(V) meets the point row of i, so reached[i] is
    the complement of the AND of lacking[k] over k in that row."""
    f = olx.frame
    primes = f.primes()
    rows, pms = _point_data(olx)
    spatial = len(set(pms)) == len(pms)          # pt(U) = pt(V) implies U = V
    brep = _bullet_report(olx, rows, pms)
    corder = ol.check_axiom(olx, "C-order")
    monotone = brep.ok or _cone_inclusions(olx, rows, pms)   # (bullet) is equality
    if not monotone:
        raise ValidationError("counit monotonicity failed; this should hold "
                              "in every ordered locale")
    note = [f"spatial={spatial} (finite frames are always spatial)",
            f"counit-monotone={monotone}",
            f"bullet={brep.verdict}"]
    witness = None if brep.ok else brep.witness
    biconditional = None
    if spatial and brep.ok and corder.ok:
        if f.m <= ol.PAIR_LIMIT:
            n, full, up = len(primes), (1 << f.m) - 1, olx.up_map
            lacking = _fold([f.down_row(p) for p in primes], and_, full,
                            rows + [(1 << n) - 1 & ~pms[up[u]] for u in f.elements()])
            reached = _fold([full & ~r for r in lacking[:n]], and_, full, pms)
            rel = olx.rel_rows()
            for a, em in enumerate(map(and_, lacking[n:], reached)):
                diff = em ^ rel[a]
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


# -- ideal points ----------------------------------------------------------------


class IdealPointSet:
    """IPs/IFs and the points of the futures/pasts locales, as ambient ids."""

    __slots__ = ("ips", "ifs", "future_points", "past_points", "negation_bijection")

    def __init__(self, ips: list[int], ifs: list[int], future_points: list[int],
                 past_points: list[int], negation_bijection: Optional[bool] = None):
        self.ips = ips
        self.ifs = ifs
        self.future_points = future_points
        self.past_points = past_points
        self.negation_bijection = negation_bijection


def _cone_frame_points(f: FiniteFrame, cone) -> tuple[list[int], list[int]]:
    """The join-irreducibles and primes of the frame on the image of a
    join-preserving cone c (`derived.futures_frame`), ascending ambient ids.
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


def ideal_points(olx: OrderedLocale) -> IdealPointSet:
    """Indecomposable past/future regions, generalized ideal points and the
    cone frames' points, from generator values, once per locale (a cone frame
    that may refuse is built); under parallel + regular cones the Heyting
    negation pairs them bijectively (verified).  Refusals are not cached."""
    f, out = olx.frame, olx.memo.get("ideal-points")
    if out is not None:
        return out
    for cone, build in ((olx.cones.u, derived.futures_frame),
                        (olx.cones.d, derived.pasts_frame)):
        if ol._cone_join_failure(olx) is not None or not ol._is_closure(f, cone):
            build(olx)
    ifs, future_points = _cone_frame_points(f, olx.cones.u)
    ips, past_points = _cone_frame_points(f, olx.cones.d)
    out = IdealPointSet(ips, ifs, future_points, past_points)
    if ol.check_axiom(olx, "parallel").ok and derived.check_regular_cones(olx).ok:
        neg_fut = sorted(f.neg(p) for p in future_points)
        neg_pas = sorted(f.neg(p) for p in past_points)
        ok = (neg_fut == sorted(ips) and len(set(neg_fut)) == len(future_points)
              and neg_pas == sorted(ifs) and len(set(neg_pas)) == len(past_points)
              # mutually inverse on the images
              and all(f.neg(f.neg(p)) == p for p in future_points + past_points))
        if not ok:
            raise ValidationError("negation bijection failed despite parallel "
                                  "+ regular cones")
        out.negation_bijection = True
    olx.memo["ideal-points"] = out
    return out


def double_negation_transport(olx: OrderedLocale) -> CheckReport:
    """Transport the order to the regular-element frame and compare ideal
    points; exact identities under regular cones + cone-determination.

    The transported order is the largest one on the regular elements that
    makes the sublocale map (U -> not-not-U) monotone: R rel R' iff for
    every ambient V with R <= not-not-V, R' <= up(V), and for every V'
    with R' <= not-not-V', R <= down(V').

    Restriction lemma: regular cones give up(V) = up(not-not-V), so the
    cones up(V) with R <= not-not-V are those of the V >= R: each such V
    has R <= V <= not-not-V, and each not-not-V >= R is one.  An element
    is below every member of a family iff it is below the meet, and
    regular elements are closed under meets, so R rel R' iff R' <= a(R)
    and R <= c(R'), a(R) = meet{up(V) : V >= R} and c alike from down
    (`_envelopes`; a = up and c = down for monotone cones).  The rows are
    `cone_rows(sub, a, c)`, recomputed on purpose: the independent side of
    the comparison with `olx.rel_rows()`, so rows memoized wrongly fail.

    Cone lemma: every R' in row R lies below a(R), and every R in column
    R' below c(R').  So where a(R) is in row R and c(R') in column R' for
    all R and R' (m bit tests), a and c are the joins of the rows and of
    the columns, the cones; elsewhere the cones are those joins
    (`cones_from_rows`).

    On a Boolean frame every element is regular, so where the cones are
    the ambient ones the transported locale is the ambient locale once
    the rows agree: the cones are not compared, and the ideal points are
    read once.  The ambient IPs are still computed: they refuse cones
    that do not preserve joins.
    """
    if not derived.check_regular_cones(olx).ok:
        raise RegularConesRequired("double-negation transport needs regular cones")
    if not ol.check_axiom(olx, "C-order").ok:
        raise RegularConesRequired("double-negation transport needs C-order")
    f = olx.frame
    sub, dn_map = derived.double_negation_frame(f)
    if sub.m > ol.REL_LIMIT:
        raise FrameTooLarge("double-negation transport capped at materializable relations")
    reg_of = amb_of = dn_map.preimage      # ambient U -> regular id of not-not-U
    if sub is not f:
        amb_of, fibre = [None] * sub.m, [0] * sub.m    # regular id -> ambient element
        for u in f.elements():
            fibre[reg_of[u]] |= 1 << u
            if f.neg(f.neg(u)) == u:
                amb_of[reg_of[u]] = u
    up, down = _envelopes(olx, amb_of)
    a, c = [reg_of[up[r]] for r in amb_of], [reg_of[down[r]] for r in amb_of]
    sub_rows = ol.cone_rows(sub, a, c)
    if not all(sub_rows[r] >> a[r] & 1 and sub_rows[c[r]] >> r & 1 for r in sub.elements()):
        a, c = ol.cones_from_rows(sub, sub_rows)
    identity = sub is f and a == olx.up_map and c == olx.down_map
    if identity:
        olx.adopt_cone_rows(sub_rows)
    # row R pulled back along reg_of: {V : R rel reg_of[V]}
    back = sub_rows if sub is f else [lat.or_rows(fibre, r) for r in sub_rows]
    rows = olx.rel_rows()
    for u in f.elements():
        diff = back[reg_of[u]] ^ rows[u]
        if diff:
            return CheckReport("dn-transport", "fail", (u, next(bits(diff))),
                               "regular order disagrees with the ambient order")
    for u in f.elements() if not identity else ():
        if amb_of[a[reg_of[u]]] != olx.up_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced future cone differs from the ambient one")
        if amb_of[c[reg_of[u]]] != olx.down_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced past cone differs from the ambient one")
    amb_ip = sorted(ideal_points(olx).ips)
    if not identity:
        induced = OrderedLocale(sub, up_map=a, down_map=c, rel_rows=sub_rows,
                                meta={"construction": "double-negation"})
        if amb_ip != sorted(amb_of[i] for i in ideal_points(induced).ips):
            return CheckReport("dn-transport", "fail", tuple(amb_ip[:2]),
                               "IP sets differ between the locale and its "
                               "double-negation sublocale")
    return CheckReport("dn-transport", "pass", None,
                       "order biconditional, cone identities and IP "
                       "bijection all verified")


# -- ideals of a raw relation -----------------------------------------------------


IDEAL_LIMIT = 64    # points of a relation whose ideals are listed: O(n^3) on a total order


def _rel_rows_input(base_size: int, rel) -> list[int]:
    """The relation as successor rows: rel[x] is the point mask {y : x rel y}."""
    rows = list(rel)
    if len(rows) != base_size:
        raise ValidationError("relation size mismatch")
    return rows


def _is_ideal(succ: Sequence[int], pred: Sequence[int], s: int) -> bool:
    """Is the point mask s an ideal: nonempty, down-closed and upward
    directed (every two members have a common successor in s)?"""
    members = list(bits(s))
    return bool(members) and not any(pred[x] & ~s for x in members) and \
        all(succ[x] & succ[y] & s for x in members for y in members)


def triangle_ideals(base_size: int, rel) -> list[PointSet]:
    """All ideals of an arbitrary relation R: nonempty, down-closed,
    upward-directed subsets, in increasing mask order.

    Greatest-member lemma: an ideal I is pred+[z] = {x : x R+ z}, R+ =
    R*.R (paths of one step or more), for a z in I with z R+ z.  Fold the
    members x_1..x_k: z_1 in I is a successor of x_1, z_(i+1) in I one of
    z_i and x_(i+1), so x_i R z_i R .. R z_k and I is inside pred+[z_k],
    z_k R+ z_k.  A path into z_k stays in the down-closed I, so I =
    pred+[z_k].  The candidates that `_is_ideal` accepts are kept: O(n^3)
    on a total order, refused above IDEAL_LIMIT points.
    """
    if base_size > IDEAL_LIMIT:
        raise FrameTooLarge(f"ideals listed only up to {IDEAL_LIMIT} points")
    succ = _rel_rows_input(base_size, rel)
    pred = lat.transpose_rows(succ)
    star = lat.transitive_closure_rows(pred)          # star[y] = {x : x R* y}
    plus = [lat.or_rows(star, r) for r in pred]
    cands = {p for z, p in enumerate(plus) if p >> z & 1}
    return [PointSet(base_size, s) for s in sorted(cands) if _is_ideal(succ, pred, s)]


def is_past_semi_full(base_size: int, rel) -> CheckReport:
    """(i) everything has a predecessor; (ii) common predecessors interpolate."""
    succ = _rel_rows_input(base_size, rel)
    pred = lat.transpose_rows(succ)
    witness_i = next(((x,) for x in range(base_size) if not pred[x]), None)
    witness_ii = next(((y1, y2, x) for x in range(base_size) for y1 in bits(pred[x])
                       for y2 in bits(pred[x]) if not succ[y1] & succ[y2] & pred[x]), None)
    if witness_i is None and witness_ii is None:
        return CheckReport("past-semi-full", "pass", None, "exhaustive")
    note = []
    if witness_i:
        note.append(f"(i) fails: point {witness_i[0]} has no predecessor")
    if witness_ii:
        note.append(f"(ii) fails at {witness_ii}: no interpolant")
    rep = CheckReport("past-semi-full", "fail", witness_ii or witness_i,
                      "; ".join(note))
    rep.witness_i = witness_i
    rep.witness_ii = witness_ii
    return rep
