"""The space <-> locale adjunction on finite instances, and the causal
boundary layer: localic points, axiom (bullet), indecomposable past and
future regions, the negation bijection, and ideals of raw relations.

Points are computed in prime-element form and converted to completely
prime filters on demand (a filter is the id-bitmask of the opens not
below the prime).  The ideals of a relation are read from their greatest
members, one candidate per point (`triangle_ideals`).
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import and_, or_
from typing import Optional, Sequence

from . import lattice as lat
from . import olocale as ol
from . import ospace as osp
from .errors import FrameTooLarge, RegularConesRequired, ValidationError
from .lattice import FiniteFrame, PointSet, bits
from .olocale import CheckReport, OrderedLocale
from .ospace import OrderedSpace


def prime_to_filter(frame: FiniteFrame, p: int) -> int:
    """F = {U : U not<= P}, as an id-bitmask."""
    if frame.m > ol.REL_LIMIT:
        raise FrameTooLarge("filters materialized only on small frames")
    return (1 << frame.m) - 1 & ~frame.down_row(p)


# -- the points space ----------------------------------------------------------


def pt_masks(frame: FiniteFrame, primes: Sequence[int]) -> list[int]:
    """pt(U) for every element U, as point-index masks: the points whose
    filter holds U, i.e. the primes p_i with U not<= p_i."""
    full = (1 << len(primes)) - 1
    return [full & ~r for r in lat.rows_above(frame, primes)]


def _point_data(olx: OrderedLocale, primes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The point order rows and `pt_masks` of the primes, from one
    `rows_above` read.

    F <= G iff up(U) in G for U in F, and down(V) in F for V in G.
    Contrapositively: join{U : up(U) <= Q} <= P and join{V : down(V) <= P} <= Q.
    Every test reads the rows {i : x <= p_i} of `lattice.rows_above`, once
    per distinct cone value.
    """
    f, up, down = olx.frame, olx.up_map, olx.down_map
    below = lat.rows_above(f, primes)
    n = len(primes)
    under_up, under_down = [0] * n, [0] * n    # {U : up(U) <= p_i}, {V : down(V) <= p_i}
    for cone, under in ((up, under_up), (down, under_down)):
        at = {}                                # cone value -> the U it is the cone of
        for u, v in enumerate(cone):
            at[v] = at.get(v, 0) | 1 << u
        for v, us in at.items():
            for i in bits(below[v]):
                under[i] |= us
    # row i holds j iff w_up[j] <= p_i and w_down[i] <= p_j
    cols = lat.transpose_rows([below[f.join_of_idmask(w)] for w in under_up])
    return ([below[f.join_of_idmask(w)] & cols[i] for i, w in enumerate(under_down)],
            [(1 << n) - 1 & ~r for r in below])


def points_space(olx: OrderedLocale) -> OrderedSpace:
    """The ordered space of points of an ordered locale.

    Points are the primes of the frame, the topology is {pt(U)}, and the
    order is the cone characterization of the filter order.  The result is
    always T0-ordered; this is asserted.
    """
    primes = olx.frame.primes()
    return _points_space(primes, *_point_data(olx, primes))


def _points_space(primes: list[int], rows: list[int], pms: list[int]) -> OrderedSpace:
    n = len(primes)
    fam = sorted(set(pms))
    topo = lat.frame_from_topology(n, fam, labels=[f"F{i}" for i in range(n)])
    space = OrderedSpace(n, rows, topo, labels=[f"F{i}" for i in range(n)],
                         name="pt")
    space.prime_ids = list(primes)
    rep = osp.is_T0_ordered(space)
    if not rep.ok:
        raise ValidationError(f"points space lost T0-orderedness: {rep.note}")
    return space


# -- unit -----------------------------------------------------------------------


def unit_check(space: OrderedSpace) -> CheckReport:
    """Classify the unit of the adjunction at one space.

    Reports injectivity (= T0), surjectivity (= enough points),
    monotonicity (= open cones) and monotonicity of the inverse
    (= T0-ordered); the verdict is "pass" exactly for fixed points:
    sober + T0-ordered + open cones.
    """
    f = space.frame
    olx = osp.induced_locale(space, "em")
    primes = f.primes()
    pts = points_space(olx)
    full = (1 << space.n) - 1

    eta = []      # eta(x) as an index into primes, or None if not a prime
    prime_index = {p: i for i, p in enumerate(primes)}
    for x in range(space.n):
        cmask = full & ~osp.closure_of_point(space, x)
        pid = f.id_of_mask(cmask) if f.has_mask(cmask) else None
        eta.append(prime_index.get(pid))

    t0 = osp.is_T0(space)
    injective = len({e for e in eta if e is not None}) == space.n and None not in eta
    surjective = set(e for e in eta if e is not None) == set(range(len(primes)))
    oc = osp.has_open_cones(space)
    t0o = osp.is_T0_ordered(space)
    sober = osp.is_sober(space)

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
        "points_open_cones": osp.has_open_cones(pts).ok,
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
    """For each mask s in keys, op of rows[i] over the i in s, memoized
    along the lowest bit: t[s] = op(t[s ^ low], rows[low]), so masks that
    share a prefix share its fold.  Where the keys are at least half of
    all 2^n masks, the whole table is built, doubling it once per row."""
    if 1 << len(rows) <= 2 * len(keys):
        table = [unit]
        for r in rows:
            table += [*map(op, table, repeat(r))]
        return [table[s] for s in keys]
    memo, out = {0: unit}, []
    for s in keys:
        chain = []
        while s not in memo:
            chain.append(s)
            s &= s - 1
        acc = memo[s]
        for t in reversed(chain):
            acc = memo[t] = op(acc, rows[(t & -t).bit_length() - 1])
        out.append(acc)
    return out


def _point_cones(rows: list[int], pms: list[int]) -> list[tuple[int, int, int]]:
    """Per element U: pt(U), upcone(pt(U)) and downcone(pt(U)), as point
    masks over the primes, from the point order rows and pt masks."""
    return list(zip(pms, _fold(rows, or_, 0, pms),
                    _fold(lat.transpose_rows(rows), or_, 0, pms)))


def _bullet_report(olx: OrderedLocale, pcones) -> CheckReport:
    for u, (_, upc, dnc) in enumerate(pcones):
        if upc != pcones[olx.up_map[u]][0]:
            return CheckReport("bullet", "fail", (u,),
                               "upcone(pt(U)) != pt(up(U))")
        if dnc != pcones[olx.down_map[u]][0]:
            return CheckReport("bullet", "fail", (u,),
                               "downcone(pt(U)) != pt(down(U))")
    return CheckReport("bullet", "pass", None, "exhaustive over opens")


def check_axiom_P(olx: OrderedLocale) -> CheckReport:
    """Axiom (bullet): cones commute with taking points,
    upcone(pt(U)) == pt(up(U)) and downcone(pt(U)) == pt(down(U))."""
    return _bullet_report(olx, _point_cones(*_point_data(olx, olx.frame.primes())))


def _cone_inclusions(olx: OrderedLocale, pcones) -> bool:
    return all(upc & ~pcones[olx.up_map[u]][0] == 0
               and dnc & ~pcones[olx.down_map[u]][0] == 0
               for u, (_, upc, dnc) in enumerate(pcones))


def point_cone_inclusions_hold(olx: OrderedLocale) -> bool:
    """upcone(pt(U)) inside pt(up(U)) and dually -- valid in every ordered
    locale, no axioms needed; the equalities are exactly axiom (bullet).

    The inclusions make the counit loc(pt(X)) -> X monotone: the points
    locale's cone of pt(U) is the interior of upcone(pt(U)), which lies
    inside the open pt(up(U)) (dually for pasts).  So counit monotonicity
    is this check."""
    return _cone_inclusions(olx, _point_cones(*_point_data(olx, olx.frame.primes())))


def counit_check(olx: OrderedLocale) -> CheckReport:
    """Spatiality (automatic on finite frames, still verified), counit
    monotonicity (always true, still verified by the point-cone
    inclusions, see `point_cone_inclusions_hold`), axiom (bullet), and --
    given (bullet) and cone-determination -- the biconditional
    U <= V iff pt(U) <= pt(V).

    The biconditional is Egli-Milner on point sets: pt(V) inside
    upcone(pt(U)) and pt(U) inside downcone(pt(V)).  So row U is the AND
    of lacking[i] = {V : i not in pt(V)} over the i outside upcone(pt(U))
    and of reached[i] = {V : i in downcone(pt(V))} over the i in pt(U).
    i is not in pt(V) iff V <= p_i, so lacking[i] = down_row(p_i); i is in
    downcone(pt(V)) iff pt(V) meets the point row of i, so reached[i] is
    the complement of the AND of lacking[k] over k in that row."""
    f = olx.frame
    primes = f.primes()
    rows, pms = _point_data(olx, primes)
    spatial = len(set(pms)) == len(pms)          # pt(U) = pt(V) implies U = V
    pcones = _point_cones(rows, pms)
    brep = _bullet_report(olx, pcones)
    corder = ol.check_axiom(olx, "C-order")
    monotone = _cone_inclusions(olx, pcones)
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
            n, full = len(primes), (1 << f.m) - 1
            lacking = _fold([f.down_row(p) for p in primes], and_, full,
                            rows + [(1 << n) - 1 & ~upa for _, upa, _ in pcones])
            reached = _fold([full & ~r for r in lacking[:n]], and_, full,
                            [pa for pa, _, _ in pcones])
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


def ideal_points(olx: OrderedLocale) -> IdealPointSet:
    """Enumerate indecomposable past/future regions and generalized ideal
    points; under parallel + regular cones the Heyting negation pairs them
    bijectively and this is verified."""
    f = olx.frame
    fut, fut_map = ol.futures_frame(olx)
    pas, pas_map = ol.pasts_frame(olx)
    ips = [pas_map.preimage[c] for c in pas.coprimes()]
    ifs = [fut_map.preimage[c] for c in fut.coprimes()]
    future_points = [fut_map.preimage[p] for p in fut.primes()]
    past_points = [pas_map.preimage[p] for p in pas.primes()]
    out = IdealPointSet(ips, ifs, future_points, past_points)
    if ol.check_axiom(olx, "parallel").ok and ol.check_regular_cones(olx).ok:
        neg_fut = sorted(f.neg(p) for p in future_points)
        neg_pas = sorted(f.neg(p) for p in past_points)
        ok = (neg_fut == sorted(ips) and len(set(neg_fut)) == len(future_points)
              and neg_pas == sorted(ifs) and len(set(neg_pas)) == len(past_points))
        # mutually inverse on the images
        for p in future_points:
            if f.neg(f.neg(p)) != p:
                ok = False
        for p in past_points:
            if f.neg(f.neg(p)) != p:
                ok = False
        out.negation_bijection = ok
        if not ok:
            raise ValidationError("negation bijection failed despite parallel "
                                  "+ regular cones")
    return out


def double_negation_transport(olx: OrderedLocale) -> CheckReport:
    """Transport the order to the regular-element frame and compare ideal
    points; exact identities under regular cones + cone-determination.

    Identity lemma: on a Boolean frame the sublocale map is the identity,
    so `order_from_map` reads a(U) = meet{up(V) : V >= U} = up(U) for
    monotone cones, and c = down: its rows are `cone_rows(f, up, down)`.
    Where its cone premise holds on them (row U holds up(U), row down(U)
    holds U), its cones are up and down, so it returns the ambient locale:
    only the rows are compared, and the IP sets are one set.  The ambient
    IPs are still computed: they refuse cones that do not preserve joins.
    """
    if not ol.check_regular_cones(olx).ok:
        raise RegularConesRequired("double-negation transport needs regular cones")
    if not ol.check_axiom(olx, "C-order").ok:
        raise RegularConesRequired("double-negation transport needs C-order")
    f = olx.frame
    sub, dn_map = lat.double_negation_frame(f)
    reg_of = amb_of = dn_map.preimage      # ambient U -> regular id of not-not-U
    induced, back = olx, None
    if sub is f and f.m <= ol.REL_LIMIT and ol._cones_monotone(olx):
        up, down = olx.up_map, olx.down_map
        back = ol.cone_rows(f, up, down)
        if olx._rel_rows is None:          # these are the rows rel_rows() builds
            olx._rel_rows = back
        if not all(back[u] >> up[u] & 1 and back[down[u]] >> u & 1 for u in f.elements()):
            back = None
    if back is None:
        induced = ol.order_from_map(dn_map, olx)
        back = induced.rel_rows()
    if sub is not f:
        amb_of, fibre = [None] * sub.m, [0] * sub.m    # regular id -> ambient element
        for u in f.elements():
            fibre[reg_of[u]] |= 1 << u
            if f.neg(f.neg(u)) == u:
                amb_of[reg_of[u]] = u
        # row R pulled back along reg_of: {V : R rel reg_of[V]}
        back = [ol._successors(fibre, r) for r in back]
    rows = olx.rel_rows()
    for u in f.elements():
        diff = back[reg_of[u]] ^ rows[u]
        if diff:
            return CheckReport("dn-transport", "fail", (u, next(bits(diff))),
                               "regular order disagrees with the ambient order")
    for u in f.elements() if induced is not olx else ():
        if amb_of[induced.up_map[reg_of[u]]] != olx.up_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced future cone differs from the ambient one")
        if amb_of[induced.down_map[reg_of[u]]] != olx.down_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced past cone differs from the ambient one")
    amb_ip = sorted(ideal_points(olx).ips)
    reg_ip = amb_ip if induced is olx else \
        sorted(amb_of[i] for i in ideal_points(induced).ips)
    if amb_ip != reg_ip:
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
    plus = [reduce(or_, map(star.__getitem__, bits(r)), 0) for r in pred]
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


def ideals_have_directed_joins(base_size: int, rel, ideals: list[PointSet]) -> bool:
    """Is the union of every directed subfamily of `ideals` an ideal of rel?

    Greatest-member lemma: a finite directed family (nonempty, any two
    members inside some member) has a greatest member, by folding those
    pairwise bounds, and it is the family's union.  Singleton families are
    directed, so the claim holds iff every given set is an ideal of rel.
    """
    succ = _rel_rows_input(base_size, rel)
    pred = lat.transpose_rows(succ)
    return all(_is_ideal(succ, pred, i.mask) for i in ideals)
