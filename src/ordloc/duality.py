"""The space <-> locale adjunction on finite instances, and the causal
boundary layer: localic points, axiom (bullet), indecomposable past and
future regions, the negation bijection, and ideals of raw relations.

Points are computed in prime-element form and converted to completely
prime filters on demand (a filter is the id-bitmask of the opens not
below the prime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import lattice as lat
from . import olocale as ol
from . import ospace as osp
from .errors import FrameTooLarge, RegularConesRequired, ValidationError
from .lattice import FiniteFrame, PointSet, bits, mask_of_iter
from .olocale import CheckReport, OrderedLocale
from .ospace import OrderedSpace


@dataclass(frozen=True)
class LocalePoint:
    """One localic point, in both presentations."""

    as_prime: int          # prime element id
    as_filter: int         # id-bitmask of the completely prime filter


def prime_to_filter(frame: FiniteFrame, p: int) -> int:
    """F = {U : U not<= P}, as an id-bitmask."""
    if frame.m > ol.REL_LIMIT:
        raise FrameTooLarge("filters materialized only on small frames")
    return (1 << frame.m) - 1 & ~frame.down_row(p)


def filter_to_prime(frame: FiniteFrame, filt: int) -> int:
    """P = join{U : U not in F}."""
    return frame.join_all(u for u in frame.elements() if not filt >> u & 1)


def locale_points(frame: FiniteFrame) -> list[LocalePoint]:
    return [LocalePoint(p, prime_to_filter(frame, p)) for p in frame.primes()]


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
    Every test reads the rows {i : x <= p_i} of `lattice.rows_above`.
    """
    f, up, down = olx.frame, olx.up_map, olx.down_map
    below = lat.rows_above(f, primes)
    n = len(primes)
    under_up, under_down = [0] * n, [0] * n    # {U : up(U) <= p_i}, {V : down(V) <= p_i}
    for u in f.elements():
        for i in bits(below[up[u]]):
            under_up[i] |= 1 << u
        for i in bits(below[down[u]]):
            under_down[i] |= 1 << u
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


def _point_cones(rows: list[int], pms: list[int]) -> list[tuple[int, int, int]]:
    """Per element U: pt(U), upcone(pt(U)) and downcone(pt(U)), as point
    masks over the primes, from the point order rows and pt masks."""
    down_rows = lat.transpose_rows(rows)
    out = []
    for pm in pms:
        upc = dnc = 0
        for i in bits(pm):
            upc |= rows[i]
            dnc |= down_rows[i]
        out.append((pm, upc, dnc))
    return out


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


def point_cone_inclusions_hold(olx: OrderedLocale) -> bool:
    """upcone(pt(U)) inside pt(up(U)) and dually -- valid in every ordered
    locale, no axioms needed; the equalities are exactly axiom (bullet)."""
    pcones = _point_cones(*_point_data(olx, olx.frame.primes()))
    return all(upc & ~pcones[olx.up_map[u]][0] == 0
               and dnc & ~pcones[olx.down_map[u]][0] == 0
               for u, (_, upc, dnc) in enumerate(pcones))


def counit_monotone(olx: OrderedLocale) -> bool:
    """The counit loc(pt(X)) -> X is monotone for every ordered locale;
    verified directly against the induced locale on the points space."""
    primes = olx.frame.primes()
    rows, pms = _point_data(olx, primes)
    return _counit_monotone(olx, _points_space(primes, rows, pms), pms)


def _counit_monotone(olx: OrderedLocale, pts: OrderedSpace, pms: list[int]) -> bool:
    ptloc = osp.induced_locale(pts, "em")
    f = pts.frame
    for u in olx.frame.elements():
        pre, pre_up = f.id_of_mask(pms[u]), f.id_of_mask(pms[olx.up_map[u]])
        pre_dn = f.id_of_mask(pms[olx.down_map[u]])
        if not f.leq(ptloc.up_map[pre], pre_up):
            return False
        if not f.leq(ptloc.down_map[pre], pre_dn):
            return False
    return True


def counit_check(olx: OrderedLocale) -> CheckReport:
    """Spatiality (automatic on finite frames, still verified), counit
    monotonicity (always true, still verified), axiom (bullet), and --
    given (bullet) and cone-determination -- the biconditional
    U <= V iff pt(U) <= pt(V)."""
    f = olx.frame
    primes = f.primes()
    rows, pms = _point_data(olx, primes)
    spatial = len(set(pms)) == len(pms)          # pt(U) = pt(V) implies U = V
    pcones = _point_cones(rows, pms)
    brep = _bullet_report(olx, pcones)
    corder = ol.check_axiom(olx, "C-order")
    monotone = _counit_monotone(olx, _points_space(primes, rows, pms), pms) \
        if f.m <= ol.REL_LIMIT else None
    if monotone is False:
        raise ValidationError("counit monotonicity failed; this should hold "
                              "in every ordered locale")
    note = [f"spatial={spatial} (finite frames are always spatial)",
            f"counit-monotone={monotone}",
            f"bullet={brep.verdict}"]
    witness = None if brep.ok else brep.witness
    biconditional = None
    if spatial and brep.ok and corder.ok:
        if f.m <= ol.PAIR_LIMIT:
            # Egli-Milner on point sets: pt(V) inside upcone(pt(U)) and
            # pt(U) inside downcone(pt(V)).  Row U is the AND of the masks
            # {V : i not in pt(V)} over the points i outside upcone(pt(U))
            # and {V : i in downcone(pt(V))} over the i in pt(U)
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


# -- ideal points ----------------------------------------------------------------


@dataclass
class IdealPointSet:
    """IPs/IFs and the points of the futures/pasts locales, as ambient ids."""

    ips: list[int]
    ifs: list[int]
    future_points: list[int]
    past_points: list[int]
    negation_bijection: Optional[bool] = None


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
    points; exact identities under regular cones + cone-determination."""
    if not ol.check_regular_cones(olx).ok:
        raise RegularConesRequired("double-negation transport needs regular cones")
    if not ol.check_axiom(olx, "C-order").ok:
        raise RegularConesRequired("double-negation transport needs C-order")
    f = olx.frame
    sub, dn_map = lat.double_negation_frame(f)
    induced = ol.order_from_map(dn_map, olx)
    reg_of = dn_map.preimage          # ambient U -> regular id of not-not-U
    amb_of = [None] * sub.m           # regular id -> its ambient element
    for u in f.elements():
        if f.neg(f.neg(u)) == u:
            amb_of[reg_of[u]] = u
    if f.m <= ol.PAIR_LIMIT:
        # row U pulled back along reg_of: {V : reg_of[U] rel reg_of[V]}
        fibre = [0] * sub.m
        for u in f.elements():
            fibre[reg_of[u]] |= 1 << u
        induced_rows, rows = induced.rel_rows(), olx.rel_rows()
        pulled = {}
        for u in f.elements():
            r = reg_of[u]
            if r not in pulled:
                # on a Boolean frame reg_of is the identity
                pulled[r] = induced_rows[r] if sub is f else \
                    ol._successors(fibre, induced_rows[r])
            diff = pulled[r] ^ rows[u]
            if diff:
                return CheckReport("dn-transport", "fail", (u, next(bits(diff))),
                                   "regular order disagrees with the "
                                   "ambient order")
    for u in f.elements():
        up_i = amb_of[induced.up_map[reg_of[u]]]
        if up_i != olx.up_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced future cone differs from the "
                               "ambient one")
        dn_i = amb_of[induced.down_map[reg_of[u]]]
        if dn_i != olx.down_map[u]:
            return CheckReport("dn-transport", "fail", (u,),
                               "induced past cone differs from the ambient one")
    amb_ip = sorted(ideal_points(olx).ips)
    reg_ipts = ideal_points(induced)
    reg_ip = sorted(amb_of[i] for i in reg_ipts.ips)
    if amb_ip != reg_ip:
        return CheckReport("dn-transport", "fail", tuple(amb_ip[:2]),
                           "IP sets differ between the locale and its "
                           "double-negation sublocale")
    return CheckReport("dn-transport", "pass", None,
                       "order biconditional, cone identities and IP "
                       "bijection all verified")


# -- ideals of a raw relation -----------------------------------------------------


def _rel_rows_input(base_size: int, rel) -> list[int]:
    if isinstance(rel, (list, tuple)) and rel and isinstance(rel[0], int):
        rows = list(rel)
    elif isinstance(rel, (list, tuple)) and rel and not isinstance(rel[0], int):
        rows = [mask_of_iter(j for j in range(base_size) if rel[i][j])
                for i in range(base_size)]
    else:
        rows = [0] * base_size
        for a, b in rel:
            rows[a] |= 1 << b
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
    """All ideals of an arbitrary relation: nonempty, down-closed,
    upward-directed subsets.  Exponential scan, capped at 16 points."""
    if base_size > 16:
        raise FrameTooLarge("ideal enumeration capped at 16 points")
    succ = _rel_rows_input(base_size, rel)
    pred = lat.transpose_rows(succ)
    return [PointSet(base_size, s) for s in range(1, 1 << base_size)
            if _is_ideal(succ, pred, s)]


def is_past_semi_full(base_size: int, rel) -> CheckReport:
    """(i) everything has a predecessor; (ii) common predecessors interpolate."""
    succ = _rel_rows_input(base_size, rel)
    pred = lat.transpose_rows(succ)
    witness_i = None
    for x in range(base_size):
        if pred[x] == 0:
            witness_i = (x,)
            break
    witness_ii = None
    for x in range(base_size):
        ps = list(bits(pred[x]))
        for y1 in ps:
            for y2 in ps:
                if not any(succ[y1] & succ[y2] & pred[x] & (1 << z)
                           for z in range(base_size)):
                    witness_ii = (y1, y2, x)
                    break
            if witness_ii:
                break
        if witness_ii:
            break
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
