"""Cross-route stress tests on randomly generated instances.

The frame-level slot analysis behind the causal coverage is checked here
against an independent point-level reimplementation (bridge-chain
reachability over raw points, no frames involved), and the axiom checker's
theorem routes are checked against direct scans.
"""

import ast
import functools
import itertools
import json
import operator
import os
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ordloc import (coverage as C, derived, duality as D, gen, lattice as L, olocale as O,
                    ospace as S)
from ordloc.errors import (ConesDoNotPreserveJoins, FrameTooLarge, NotAFrameMap, NotAMonad,
                           NotClosedUnderJoin, NotClosedUnderMeet, NotDistributive,
                           OrdlocError, PreconditionAxioms, ValidationError)
from ordloc.lattice import bits, mask_of_iter

import oracles
from conftest import count_calls, report_outcome, rows_locale


def random_space(rng, n=None):
    n = n or rng.randint(1, 4)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))]
    return S.OrderedSpace.build(n, pairs, opens="discrete")


# -- independent pointwise coverage oracle -------------------------------------------


def bridge_cover_oracle(space, amask, umask):
    """A covers U from below, decided over raw points.

    A chain ending in U defeats A exactly when no point of A is insertable:
    not below the start, not between (or at) consecutive chain points, and
    no chain point lies in A.  Completely independent of the frame-level
    machinery under test.
    """
    if amask & ~space.down_mask(umask):
        return False
    if amask == 0:
        return umask == 0
    n = space.n

    def between(x, y):
        for v in bits(amask):
            if space.leq_points(x, v) and space.leq_points(v, y):
                return True
        return False

    nodes = [x for x in range(n)
             if not amask >> x & 1 and not between(x, x)]
    starts = [x for x in nodes if space.down[x] & amask == 0]
    seen = set(starts)
    queue = deque(starts)
    while queue:
        x = queue.popleft()
        if umask >> x & 1:
            return False
        for y in nodes:
            if y not in seen and space.leq_points(x, y) and not between(x, y):
                seen.add(y)
                queue.append(y)
    return True


def test_coverage_matches_pointwise_oracle_m22(m22, loc22):
    f = loc22.frame
    rows = C.coverage_rows(loc22, "past")
    for a in f.elements():
        for u in f.elements():
            expect = bridge_cover_oracle(m22, f.mask_of(a), f.mask_of(u))
            assert bool(rows[u] >> a & 1) == expect, (a, u)


def test_coverage_matches_pointwise_oracle_m33(m33, loc33):
    f = loc33.frame
    rows = C.coverage_rows(loc33, "past")
    rng = random.Random(13)
    for _ in range(1500):
        a, u = rng.randrange(f.m), rng.randrange(f.m)
        expect = bridge_cover_oracle(m33, f.mask_of(a), f.mask_of(u))
        assert bool(rows[u] >> a & 1) == expect, (a, u)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_coverage_matches_pointwise_oracle_random(seed):
    rng = random.Random(seed)
    sp = random_space(rng)
    loc = S.induced_locale(sp, "em")
    f = loc.frame
    rows = C.coverage_rows(loc, "past")
    for a in f.elements():
        for u in f.elements():
            expect = bridge_cover_oracle(sp, f.mask_of(a), f.mask_of(u))
            assert bool(rows[u] >> a & 1) == expect, (a, u, sp.up)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_coverage_laws_random(seed):
    rng = random.Random(seed)
    sp = random_space(rng)
    loc = S.induced_locale(sp, "em")
    f = loc.frame
    rows = C.coverage_rows(loc, "past")
    up, dn = loc.up_map, loc.down_map
    for u in f.elements():
        assert rows[u] >> u & 1
        assert rows[u] >> dn[u] & 1
        assert C.region_of_influence(f, rows, u) == dn[u]
        for a in bits(rows[u]):
            assert rows[a] & ~rows[u] == 0
            assert loc.related(a, u)
            for w in bits(f.down_row(u)):
                assert rows[w] >> f.meet(a, dn[w]) & 1
    assert rows[f.bottom] == 1 << f.bottom


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_verdict_api_agrees_with_rows_random(seed):
    rng = random.Random(seed)
    sp = random_space(rng, n=rng.randint(1, 3))
    loc = S.induced_locale(sp, "em")
    f = loc.frame
    rows = C.coverage_rows(loc, "past")
    for a in f.elements():
        for u in f.elements():
            v = C.covers_below(loc, a, u)
            assert v.status in ("yes", "no")
            assert (v.status == "yes") == bool(rows[u] >> a & 1), (a, u)


def random_topology_space(rng):
    """A random order on at most 4 points, with the discrete topology or
    one generated by a few random opens (often not atomistic)."""
    n = rng.randint(1, 4)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))]
    opens = "discrete" if rng.random() < 0.4 else oracles.close_family_under_union_intersection(
        n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
    return S.OrderedSpace.build(n, pairs, opens=opens)


def random_coverage_locale(rng):
    """An induced locale of a random space (any topology, any variant), or
    explicit rows: a relation locale, or an induced locale's rows with a
    few pairs dropped and one added (these often fail C-order)."""
    sp = random_topology_space(rng)
    loc = S.induced_locale(sp, rng.choice(["em", "upper", "lower"]))
    style = rng.randrange(3)
    if style == 0:
        return loc
    f = loc.frame
    if style == 1:
        pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 5))]
        return rows_locale(f, O.ordered_locale_from_relation(f, pairs).rel_rows())
    rows = list(loc.rel_rows())
    for _ in range(rng.randint(1, 3)):
        u, v = rng.randrange(f.m), rng.randrange(f.m)
        if u != v:
            rows[u] &= ~(1 << v)
    if rng.random() < 0.5:
        rows[rng.randrange(f.m)] |= 1 << rng.randrange(f.m)
    return rows_locale(f, rows)


def slot_scans(olx):
    """Check `_AtomCoverage.slot` against the down-set scan for every A, b
    (or none) and c; return how many slots the scan decided below a
    largest candidate that does not fit."""
    f = olx.frame
    found = 0
    for a in f.elements():
        cover = C._AtomCoverage(olx, a)
        for c in f.elements():
            for b in [None, *f.elements()]:
                want = oracles.slot_scan(olx, a, b, c)
                assert cover.slot(b, c) == want, (olx.rel_rows(), a, b, c)
                m0 = f.meet(a, olx.down_map[c])
                if b is not None:
                    m0 = f.meet(m0, olx.up_map[b])
                found += want is not None and want != m0
    return found


def coverage_preconditions_hold(olx):
    return O.check_axiom(olx, "parallel").ok and O.check_axiom(olx, "C-join").ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_slot_matches_down_set_scan_random(seed):
    # under C-order and C-join the largest candidate decides every slot
    olx = random_coverage_locale(random.Random(seed))
    if coverage_preconditions_hold(olx):
        found = slot_scans(olx)
        assert found == 0 or not O.check_axiom(olx, "C-order").ok


def test_slot_scan_runs_where_C_order_fails():
    # rows [1, 6, 4, 8] on 2^2: {0} rel {0}, {1} and {1} rel {1}.  The
    # slot from the atom {0} (element 1) to the atom {1} (element 2) inside
    # the top: m0 = top is not related from {0}, and the scan of its
    # down-set finds {1}, the fitting element of greatest id
    f = L.powerset_frame(2)
    olx = rows_locale(f, [1, 6, 4, 8])
    assert coverage_preconditions_hold(olx) and not O.check_axiom(olx, "C-order").ok
    assert C._AtomCoverage(olx, f.top).slot(1, 2) == 2
    found = slot_scans(olx)
    rng, failing = random.Random(3), 0
    for _ in range(1500):
        olx = random_coverage_locale(rng)
        if coverage_preconditions_hold(olx) and not O.check_axiom(olx, "C-order").ok:
            failing += 1
            found += slot_scans(olx)
    assert failing >= 5 and found >= 2, (failing, found)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_domain_of_dependence_matches_verdicts_random(seed):
    """D(A) is the join of the regions the verdict API says A covers, and
    `unresolved` counts its inconclusive verdicts, in both directions."""
    rng = random.Random(seed)
    sp = random_topology_space(rng)
    loc = S.induced_locale(sp, rng.choice(["em", "em", "upper", "lower"]))
    f = loc.frame
    if not (O.check_axiom(loc, "parallel").ok and O.check_axiom(loc, "C-join").ok):
        with pytest.raises(PreconditionAxioms):
            C.domain_of_dependence(loc, f.top)
        return
    for direction, verdict in (("future", C.covers_below), ("past", C.covers_above)):
        for a in f.elements():
            statuses = [verdict(loc, a, u).status for u in f.elements()]
            res = C.domain_of_dependence(loc, a, direction)
            assert res.region == f.join_all(
                u for u, s in zip(f.elements(), statuses) if s == "yes"), (a, direction)
            assert res.unresolved == statuses.count("inconclusive"), (a, direction)
            assert res.exact == (res.unresolved == 0)


def assert_dod_matches_column_loop(loc, regions):
    """`domain_of_dependence` against the join of the scanned coverage
    column, and, given every region of an atomistic frame of at most 512
    elements, `coverage_rows` against the columns' rows, in both
    directions."""
    f = loc.frame
    rows_built = f.is_atomistic() and len(regions) == f.m <= 512
    for direction, rows_direction in (("future", "past"), ("past", "future")):
        work = loc if direction == "future" else O.dual_order(loc)
        want_rows = [0] * f.m
        for a in regions:
            members, pending = oracles.coverage_column_loop(loc, work, a)
            res = C.domain_of_dependence(loc, a, direction)
            assert (res.region, res.exact, res.unresolved) == (
                f.join_all(members), not pending, len(pending)), (a, direction)
            for u in members:
                want_rows[u] |= 1 << a
        if rows_built:
            assert C.coverage_rows(loc, rows_direction) == want_rows, direction


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["induced", "relation", "rows"]))
def test_dod_closed_form_matches_column_loop_random(seed, style):
    """Atomistic induced locales, relation locales on any frame, and
    explicit random rows, which need not be reflexive (so A may lie outside
    down(K(A))), wherever they meet the coverage preconditions."""
    rng = random.Random(seed)
    if style == "induced":
        loc = S.induced_locale(random_space(rng, rng.randint(1, 5)),
                               rng.choice(["em", "upper", "lower"]))
    else:
        f = S.induced_locale(random_topology_space(rng), "em").frame
        if style == "relation":
            loc = O.ordered_locale_from_relation(
                f, [(rng.randrange(f.m), rng.randrange(f.m))
                    for _ in range(rng.randint(0, 5))])
        else:
            loc = rows_locale(f, [rng.getrandbits(f.m) & rng.getrandbits(f.m)
                                  for _ in f.elements()])
    if coverage_preconditions_hold(loc):
        assert_dod_matches_column_loop(loc, list(loc.frame.elements()))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]), st.data())
def test_dod_closed_form_matches_column_loop_on_grids(size, data):
    """Every region of M22 to M33, with the rows, and sampled regions of
    M34 and M44."""
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(*size)), "em")
    f = loc.frame
    regions = data.draw(st.lists(st.integers(0, f.m - 1), min_size=1, max_size=4))
    assert_dod_matches_column_loop(loc, f.elements() if f.m <= 512 else regions)


# -- axiom checker cross-routes ---------------------------------------------------------


def _monad_route_outcome(build):
    """The 11 law reports of the locale `build()` gives, or its refusal as
    (type, law, witness, message)."""
    try:
        loc = build()
    except OrdlocError as e:
        return type(e).__name__, getattr(e, "law", None), getattr(e, "witness", None), str(e)
    return [report_outcome(lambda x: O.check_axiom(x, law), loc) for law in O.ALL_AXIOMS]


def _validated_route(sp, variant):
    """The induced locale with both cones tested by `ConePair.validate`."""
    f, n = sp.frame, sp.n
    up = L.SubsetCone(n, 0, sp.up, cols=sp.down)
    down = L.SubsetCone(n, 0, sp.down, cols=sp.up)
    top = L.SubsetCone(n, f.top, [0] * n, cols=[f.top] * n)
    pair = O.ConePair(f, top if variant == "lower" else up, top if variant == "upper" else down,
                      {"u": None, "d": None})
    loc = O.ordered_locale_from_monads(pair, meta={"variant": variant, "space": sp.name})
    rep = O.check_axiom(loc, "V")
    if not rep.ok:
        raise ValidationError(f"induced locale lost join closure: {rep.pretty(f)}")
    return loc


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1),
                                                    min_size=n, max_size=n)),
       st.sampled_from(("raw", "closed", "closed, one bit flipped")), st.data())
def test_preorder_certificate_matches_validate(rows, kind, data):
    # on a powerset frame induced_locale certifies the monad pair by one
    # packed preorder test of the point rows; preorders or not, every
    # variant gives the 11 reports of the pair tested by ConePair.validate,
    # or the same NotAMonad (law and witness)
    n = len(rows)
    if kind != "raw":
        rows = L.transitive_closure_rows(rows)
    if kind == "closed, one bit flipped":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i] ^= 1 << j
    for variant in ("em", "upper", "lower"):
        sp = S.OrderedSpace(n, list(rows), L.powerset_frame(n), name="random")
        got = _monad_route_outcome(lambda: S.induced_locale(sp, variant))
        want = _monad_route_outcome(lambda: _validated_route(sp, variant))
        assert got == want, (rows, variant)
        # the cone of a point set is a closure iff the rows are a preorder
        assert isinstance(got, list) == L.is_preorder(rows), (rows, variant, got)


def test_open_cone_certificate_matches_interior_oracle():
    # induced locales take a cone value without an interior where it is open
    # and skip the join fold of a cone whose values are all open: their cone
    # lists, join memos and law reports must equal those of the interiors
    # validated with no certificate, and the open-cone pass at J must equal
    # the element scan
    cases = set()
    spaces = [random_topology_space(random.Random(seed)) for seed in range(200)]
    flipped = [S.OrderedSpace(sp.n, list(sp.down), sp.frame) for sp in spaces]
    for sp in spaces + flipped + [gen.non_OC_example()]:
        assert report_outcome(derived.has_open_cones, sp)[:2] == \
            report_outcome(oracles.open_cones_element_scan, sp)[:2], sp.up
    for sp in spaces:
        f = sp.frame
        up, down = oracles.interior_cone_maps(sp)
        top = [f.top] * f.m
        for v, pair in (("em", (up, down)), ("upper", (up, top)), ("lower", (top, down))):
            loc = S.induced_locale(sp, v)
            want = O.ordered_locale_from_monads(O.ConePair(f, *pair))
            for law in O.ALL_AXIOMS:
                assert report_outcome(lambda x: O.check_axiom(x, law), loc) == \
                    report_outcome(lambda x: O.check_axiom(x, law), want), (sp.up, v, law)
            for name in "ud":
                assert loc.cones.join_failure(name) == want.cones.join_failure(name)
            assert (loc.up_map, loc.down_map) == pair, (sp.up, v)
        if f.kind != "powerset":
            cases.add(tuple(name for name in "du" if S._cone(sp, name)[1]))
    assert cases == {(), ("u",), ("d",), ("d", "u")}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_em_locales_parallel_on_random_spaces(seed):
    rng = random.Random(seed)
    sp = random_space(rng)
    loc = S.induced_locale(sp, "em")
    for law in ("V", "C-order", "C-join", "wedge+", "wedge-", "empty",
                "parallel", "F+", "F-", "L+", "L-"):
        assert O.check_axiom(loc, law).ok, (law, sp.up)
    # discrete EM spaces satisfy bullet as well (enough points + open cones)
    assert D.check_axiom_P(loc).ok


def wedge_oracle(olx, plus):
    """Least (U, V, V') in id order breaking wedge+ / wedge-, or None.

    wedge+: U <= V rel V' needs some U' with U rel U' <= V'.
    wedge-: U <= V' with V rel V' needs some W with W rel U and W <= V.
    One triple at a time, straight from the definition.
    """
    f = olx.frame
    rows = olx.rel_rows()
    cols = [mask_of_iter(w for w in f.elements() if rows[w] >> v & 1)
            for v in f.elements()]
    for u in f.elements():
        for v in f.elements():
            for vq in bits(rows[v]):
                if plus and f.leq(u, v) and not rows[u] & f.down_row(vq):
                    return u, v, vq
                if not plus and f.leq(u, vq) and not cols[u] & f.down_row(v):
                    return u, v, vq
    return None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_relations_wedge_routes_agree(seed):
    # wedge <=> (C-order and F) does not hold: seed 0 gives the relation
    # [(0,2),(3,3),(2,3)] on the 2-point discrete frame, where wedge+ holds
    # and C-order fails.  What holds is C-order => (wedge <=> F), from
    # (a) C-order and F => wedge and (b) wedge => F for monotone cones.
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    f = S.OrderedSpace.build(n, [], opens="discrete").frame
    pairs = [(rng.randrange(f.m), rng.randrange(f.m))
             for _ in range(rng.randint(0, 4))]
    olx = O.ordered_locale_from_relation(f, pairs)
    corder = O.check_axiom(olx, "C-order")
    for sign, frob in (("+", "F+"), ("-", "F-")):
        direct = O.check_axiom(olx, f"wedge{sign}")
        frep = O.check_axiom(olx, frob)
        if corder.ok and frep.ok:
            assert direct.ok, (pairs, sign)                       # (a)
        if direct.ok:
            assert frep.ok, (pairs, sign)                         # (b)
        least = wedge_oracle(olx, sign == "+")
        assert direct.ok == (least is None), (pairs, sign)        # (c)
        if not direct.ok:
            assert direct.witness == least, (pairs, sign)
        for rep in (corder, direct, frep):                        # (d)
            if not rep.ok:
                assert O.revalidate(olx, rep), (pairs, rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_relations_wedge_above_triple_limit(seed):
    # 64 elements: the C-order + F route where C-order holds, the exact
    # scan where it fails
    rng = random.Random(seed)
    f = S.OrderedSpace.build(6, [], opens="discrete").frame
    assert f.m > O.TRIPLE_LIMIT
    pairs = [(rng.randrange(f.m), rng.randrange(f.m))
             for _ in range(rng.randint(1, 3))]
    olx = O.ordered_locale_from_relation(f, pairs)
    for sign in "+-":
        rep = O.check_axiom(olx, f"wedge{sign}")
        assert rep.ok == (wedge_oracle(olx, sign == "+") is None), (pairs, sign)
    for law in ("wedge+", "wedge-", "parallel"):
        rep = O.check_axiom(olx, law)
        if not rep.ok:
            assert O.revalidate(olx, rep), (pairs, rep)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_relations_failed_checks_revalidate(seed):
    # discrete frames of 2 to 64 elements, so above TRIPLE_LIMIT too; fewer
    # generators on the large ones keep join saturation small
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    f = S.OrderedSpace.build(n, [], opens="discrete").frame
    pairs = [(rng.randrange(f.m), rng.randrange(f.m))
             for _ in range(rng.randint(0, 5 if n <= 3 else 3))]
    olx = O.ordered_locale_from_relation(f, pairs)
    for law in O.ALL_AXIOMS:
        rep = O.check_axiom(olx, law)
        if not rep.ok and rep.witness is not None:
            assert O.revalidate(olx, rep), (law, pairs, rep)


# -- join-irreducible kernel against definitional oracles --------------------------------


def random_frame(rng):
    """A powerset on up to 4 points, a random finite topology on up to 4
    points, or a Birkhoff frame copied from one."""
    n = rng.randint(1, 4)
    kind = rng.choice(("powerset", "mask", "birkhoff"))
    if kind == "powerset":
        return S.OrderedSpace.build(n, [], opens="discrete").frame
    gens_ = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
    f = L.frame_from_topology(n, oracles.close_family_under_union_intersection(n, gens_))
    return f if kind == "mask" else derived.subframe(f, f.elements(), f.coprimes())[0]


def random_map(rng, f):
    """A join-preserving map t(a) = b | join{g(j) : j in J, j <= a}, that map
    changed at one element, or an arbitrary map."""
    base = rng.randrange(f.m)
    g = {j: rng.randrange(f.m) for j in f.coprimes()}
    t = [f.join_all([base] + [g[j] for j in g if f.leq(j, a)]) for a in f.elements()]
    style = rng.randrange(3)
    if style == 1:
        t[rng.randrange(f.m)] = rng.randrange(f.m)
    elif style == 2:
        t = [rng.randrange(f.m) for _ in f.elements()]
    return t


def random_monotone_map(rng, f):
    """A join-preserving map raised by c on the elements above k, as
    s | {b} for s above K on a powerset: monotone, and it may break a
    binary join when k is neither bottom nor join-irreducible."""
    joins = [a for a in f.elements() if a != f.bottom and a not in f.coprimes()]
    k = rng.choice(joins) if joins else rng.randrange(f.m)
    base, c = rng.randrange(f.m), rng.randrange(f.m)
    g = {j: rng.randrange(f.m) for j in f.coprimes()}
    return [f.join_all([base] + [g[j] for j in g if f.leq(j, a)]
                       + ([c] if f.leq(k, a) else []))
            for a in f.elements()]


def random_monad(rng, f):
    """Mostly monads: the closure of an inflationary join-preserving map
    (iterated to idempotence), the interior of a random preorder's up-cones
    (a monad that may not preserve joins on mask frames), or either one
    changed at one element."""
    if f.realized and rng.random() < 0.4:
        n = f.base_size
        sp = S.OrderedSpace.build(n, [(rng.randrange(n), rng.randrange(n))
                                      for _ in range(rng.randint(0, 2 * n))])
        t = [f.id_of_mask(max(e for e in map(f.mask_of, f.elements())
                              if e & ~sp.up_mask(f.mask_of(a)) == 0))
             for a in f.elements()]
    else:
        g = random_map(rng, f)
        t = [f.join(a, g[a]) for a in f.elements()]
        while [t[t[a]] for a in f.elements()] != t:
            t = [t[t[a]] for a in f.elements()]
    if rng.random() < 0.3:
        t[rng.randrange(f.m)] = rng.randrange(f.m)
    return t


def old_validate(f, u, d):
    """The monad scan that `ConePair.validate` shortcuts, as (law, witness)."""
    for name, t in (("u", u), ("d", d)):
        for x in f.elements():
            if not f.leq(x, t[x]):
                return f"{name} inflationary", (x,)
            if t[t[x]] != t[x]:
                return f"{name} idempotent", (x,)
        for x in f.elements():
            ys = f.upper_covers(x) if f.kind == "powerset" else f.elements()
            for y in ys:
                if f.leq(x, y) and not f.leq(t[x], t[y]):
                    return f"{name} monotone", (x, y)
    return None


def frobenius_oracle(olx, plus):
    """Least (U, V) in id order breaking F+ / F-, over all pairs."""
    f, up, dn = olx.frame, olx.up_map, olx.down_map
    for u in f.elements():
        for v in f.elements():
            if plus and not f.leq(f.meet(dn[u], v), dn[f.meet(u, up[v])]):
                return u, v
            if not plus and not f.leq(f.meet(up[u], v), up[f.meet(u, dn[v])]):
                return u, v
    return None


def cone_join_oracle(olx):
    """Least C-join witness: the empty family, then pairs U <= V by id."""
    f, up, dn = olx.frame, olx.up_map, olx.down_map
    if up[f.bottom] != f.bottom or dn[f.bottom] != f.bottom:
        return f.bottom, f.bottom
    for u in f.elements():
        for v in range(u, f.m):
            j = f.join(u, v)
            if up[j] != f.join(up[u], up[v]) or dn[j] != f.join(dn[u], dn[v]):
                return u, v
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_join_failure_matches_all_pairs(seed):
    rng = random.Random(seed)
    f = random_frame(rng)
    t = random_map(rng, f)
    bad = [(a, b) for a in f.elements() for b in f.elements()
           if t[f.join(a, b)] != f.join(t[a], t[b])]
    w = O.join_failure(f, t)
    assert (w is None) == (not bad), (f, t)
    if w is not None:
        a, b = w
        assert t[f.join(a, b)] != f.join(t[a], t[b])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_and_cone_join_match_full_scans(seed):
    # two draws per example: random maps or mostly-monads, then monotone
    # maps that may break a binary join (the row route of F+/F-)
    rng = random.Random(seed)
    f = random_frame(rng)
    if rng.random() < 0.5:
        up, down = random_map(rng, f), random_map(rng, f)
    else:
        up, down = random_monad(rng, f), random_monad(rng, f)
    for up, down in ((up, down), (random_monotone_map(rng, f), random_monotone_map(rng, f))):
        olx = O.ordered_locale_from_monads(O.ConePair(f, up, down), validated=True)
        for law, least in (("F+", frobenius_oracle(olx, True)),
                           ("F-", frobenius_oracle(olx, False)),
                           ("C-join", cone_join_oracle(olx))):
            rep = O.check_axiom(olx, law)
            assert rep.ok == (least is None), (law, up, down)
            assert rep.witness == least, (law, up, down)
            if not rep.ok:
                assert O.revalidate(olx, rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_cone_pair_validate_matches_old_scan(seed):
    rng = random.Random(seed)
    f = random_frame(rng)
    u, d = random_monad(rng, f), random_monad(rng, f)
    expected = old_validate(f, u, d)
    try:
        O.ConePair(f, u, d).validate()
        got = None
    except NotAMonad as e:
        got = e.law, e.witness
    assert got == expected, (f, u, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_negation_bijection_on_random_discrete_spaces(seed):
    # discrete topologies give Boolean frames: parallel + regular cones,
    # so the ideal-point pairing must always verify
    rng = random.Random(seed)
    sp = random_space(rng)
    loc = S.induced_locale(sp, "em")
    ips = D.ideal_points(loc)
    assert ips.negation_bijection is True
    # IPs are exactly the down-closures of single points here... when the
    # order is antisymmetric; in general they are the directed down-sets
    f = loc.frame
    for p in ips.ips:
        mask = f.mask_of(p)
        assert sp.down_mask(mask) == mask          # down-closed
        for x in bits(mask):                        # upward directed
            assert any(sp.up[x] & sp.up[y] & mask for y in bits(mask))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_restriction_laws_on_random_spaces(seed):
    rng = random.Random(seed)
    sp = random_space(rng, n=rng.randint(2, 4))
    loc = S.induced_locale(sp, "em")
    f = loc.frame
    rows = loc.rel_rows()
    for _ in range(10):
        u = rng.randrange(1, f.m)
        succs = [v for v in bits(rows[u]) if v != f.bottom]
        if not succs:
            continue
        v = rng.choice(succs)
        p = C.Path((u, v))
        assert C.restrict_path(loc, p, v).steps == p.steps
        subs = [w for w in bits(f.down_row(v)) if w != f.bottom]
        w = rng.choice(subs)
        r = C.restrict_path(loc, p, w)
        assert r.end == w and C.refines(loc, r, p)
        for big in subs:
            if f.leq(w, big):
                assert C.restrict_path(
                    loc, C.restrict_path(loc, p, big), w).steps == r.steps
        atoms = [a for a in f.atoms() if f.leq(a, v)]
        restr = [C.restrict_path(loc, p, a) for a in atoms]
        for n_ in range(2):
            assert f.join_all(x.steps[n_] for x in restr) == p.steps[n_]


# -- join closure by join-irreducible translations --------------------------------------


def closure_oracle(f, pairs, joins=True):
    """The least reflexive, transitive (and, with joins, join-closed)
    relation containing pairs, as a set: binary joins of all pairs plus
    one composition step, iterated to a fixpoint."""
    rel = {(u, u) for u in f.elements()} | set(pairs)
    while True:
        new = set(rel)
        if joins:
            new |= {(f.join(u1, u2), f.join(v1, v2)) for u1, v1 in rel for u2, v2 in rel}
        new |= {(u, w) for u, v in new for x, w in new if v == x}
        if new == rel:
            return rel
        rel = new


def rows_of(f, rel):
    rows = [0] * f.m
    for u, v in rel:
        rows[u] |= 1 << v
    return rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_join_closure_matches_definitional_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    if rng.random() < 0.5:
        f = S.OrderedSpace.build(n, [], opens="discrete").frame
    else:
        gens_ = [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))]
        f = L.frame_from_topology(n, oracles.close_family_under_union_intersection(n, gens_))
    pairs = [(rng.randrange(f.m), rng.randrange(f.m))
             for _ in range(rng.randint(0, 4 if f.m <= 16 else 2))]
    olx = O.ordered_locale_from_relation(f, pairs)
    closed = rows_of(f, closure_oracle(f, pairs))
    assert olx.rel_rows() == closed, (f.m, pairs)
    rt = rows_of(f, closure_oracle(f, pairs, joins=False))
    gap = olx.meta.get("join_saturated")
    assert (gap is not None) == (closed != rt), (f.m, pairs)
    assert gap == next(((u, v, j, j) for u in f.elements() for v in bits(rt[u])
                        for j in f.coprimes()
                        if not rt[f.join(u, j)] >> f.join(v, j) & 1), None)
    if gap is not None:
        assert O.revalidate(rows_locale(f, rt), O.CheckReport("V", "fail", gap))


def v_oracle(olx):
    """Least (U1, V1, U2, V2) in id order with U1 rel V1, U2 rel V2 and
    U1 | U2 not rel V1 | V2, over all pairs of related pairs."""
    f, rows = olx.frame, olx.rel_rows()
    pairs = [(u, v) for u in f.elements() for v in bits(rows[u])]
    for u1, v1 in pairs:
        for u2, v2 in pairs:
            if not rows[f.join(u1, u2)] >> f.join(v1, v2) & 1:
                return u1, v1, u2, v2
    return None


def l_oracle(olx, plus):
    """Least (U, U', V) in id order breaking L+ / L-, one V at a time."""
    f, rows = olx.frame, olx.rel_rows()
    for u in f.elements():
        for uq in bits(rows[u]):
            for v in f.elements():
                if plus and f.leq(u, v) and not any(
                        rows[v] >> vq & 1 and f.leq(uq, vq) for vq in f.elements()):
                    return u, uq, v
                if not plus and f.leq(v, uq) and not any(
                        rows[w] >> v & 1 and f.leq(w, u) for w in f.elements()):
                    return u, uq, v
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_random_rows_locales_V_and_L_match_oracles(seed):
    # preorders (join-closed or not) and arbitrary rows, on powerset, mask
    # and Birkhoff frames of up to 16 elements, and on the 32-element
    # discrete frame, where a passing V still decides L+ on reflexive rows
    # and L- on all rows
    rng = random.Random(seed)
    f = random_frame(rng) if rng.random() < 0.8 else \
        S.OrderedSpace.build(5, [], opens="discrete").frame
    pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
    style = rng.randrange(3)
    if style == 0:
        rows = [mask_of_iter(v for v in f.elements() if rng.random() < 0.15)
                for _ in f.elements()]
    elif style == 1:
        rows = L.transitive_closure_rows(rows_of(f, pairs))
    else:
        rows = O.ordered_locale_from_relation(f, pairs).rel_rows()
        u = rng.randrange(f.m)
        rows[u] &= ~(1 << rng.randrange(f.m)) | 1 << u
    olx = rows_locale(f, rows)
    rep = O.check_axiom(olx, "V")
    least = v_oracle(olx)
    assert rep.ok == (least is None) and rep.witness == least, (rows, rep)
    for law, plus in (("L+", True), ("L-", False)):
        rep = O.check_axiom(olx, law)
        if f.m > 24 and least is None and (
                not plus or all(r >> u & 1 for u, r in enumerate(rows))):
            assert rep.ok, (rows, rep)
            continue
        least_l = l_oracle(olx, plus)
        assert rep.ok == (least_l is None) and rep.witness == least_l, (rows, rep)
    for law in ("V", "L+", "L-"):
        rep = O.check_axiom(olx, law)
        if not rep.ok:
            assert O.revalidate(olx, rep), (rows, rep)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_L_plus_certificate_matches_the_oracle_up_to_24_elements(seed):
    # rows locales of at most 24 elements: relation locales (V passes by
    # their record), preorders and arbitrary rows, some with diagonal bits
    # dropped; L+ equals the definitional oracle, is certified exactly
    # where V passes on reflexive rows, and reflexive or not every other
    # locale keeps the scan and its least witness
    rng = random.Random(seed)
    f = random_frame(rng) if rng.random() < 0.7 else downset_frame_sized(rng, 17, 24)
    pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
    style = rng.randrange(3)
    if style == 0:
        rows = O.ordered_locale_from_relation(f, pairs).rel_rows()
    elif style == 1:
        rows = L.transitive_closure_rows(rows_of(f, pairs))
    else:
        rows = [mask_of_iter(v for v in f.elements() if rng.random() < 0.2)
                for _ in f.elements()]
    if rng.random() < 0.3:
        rows = [r & ~(1 << u) if rng.random() < 0.3 else r for u, r in enumerate(rows)]
    olx = rows_locale(f, rows)
    rep, least = O.check_axiom(olx, "L+"), l_oracle(olx, True)
    assert (rep.ok, rep.witness) == (least is None, least), (rows, rep)
    certified = all(r >> u & 1 for u, r in enumerate(rows)) and O.check_axiom(olx, "V").ok
    assert rep.note == ("exact: follows from join closure with witness U'vV / UvV'"
                        if certified else "exhaustive"), (rows, rep)
    if not rep.ok:
        assert O.revalidate(olx, rep)


@pytest.mark.parametrize("n", [5, 6])
def test_non_reflexive_join_closed_rows_fail_L_plus(n):
    # (bottom, top) alone passes V, but V certifies L+ only on reflexive rows
    f = L.powerset_frame(n)
    rows = [0] * f.m
    rows[0] = 1 << f.top
    olx = rows_locale(f, rows)
    assert O.check_axiom(olx, "V").ok
    rep = O.check_axiom(olx, "L+")
    assert not rep.ok and rep.witness == (0, f.top, 1) == l_oracle(olx, True)
    assert O.revalidate(olx, rep)


# -- relation rows from cones -------------------------------------------------------------


def fold_join(f, idmask):
    acc = f.bottom
    for x in bits(idmask):
        acc = f.join(acc, x)
    return acc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_frame_rows_and_joins_match_definitions(seed):
    rng = random.Random(seed)
    f = random_frame(rng) if rng.random() < 0.8 else \
        S.OrderedSpace.build(rng.randint(5, 6), [], opens="discrete").frame
    for x in f.elements():
        assert f.down_row(x) == mask_of_iter(y for y in f.elements() if f.leq(y, x))
        assert f.up_row(x) == mask_of_iter(y for y in f.elements() if f.leq(x, y))
    for _ in range(10):
        s = rng.randrange(1 << f.m)
        assert f.join_of_idmask(s) == fold_join(f, s), (f, s)
    rows = [mask_of_iter(v for v in f.elements() if rng.random() < 0.3)
            for _ in f.elements()]
    cols = [mask_of_iter(u for u in f.elements() if rows[u] >> v & 1) for v in f.elements()]
    assert L.transpose_rows(rows) == cols
    assert O.cones_from_rows(f, rows) == ([fold_join(f, r) for r in rows],
                                          [fold_join(f, c) for c in cols])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rows_above_and_cone_rows_match_related_loop(seed):
    rng = random.Random(seed)
    f = random_frame(rng)
    values = [rng.randrange(f.m) for _ in f.elements()]
    assert L.rows_above(f, values) == [
        mask_of_iter(i for i, v in enumerate(values) if f.leq(x, v)) for x in f.elements()]
    up, down = random_map(rng, f), random_map(rng, f)
    olx = O.OrderedLocale(f, up_map=up, down_map=down)   # related() reads the cones
    assert O.cone_rows(f, up, down) == [
        mask_of_iter(v for v in f.elements() if olx.related(u, v)) for u in f.elements()]


def powerset_values(rng, f):
    """Values on the subsets of f's points: join-preserving (base | OR of
    point values), that list changed at one non-singleton (it breaks a
    join), or a random list; style 0, 1 or 2.  One value per subset."""
    n, style = f.base_size, rng.randrange(3)
    if style == 2:
        return style, [rng.randrange(f.m) for _ in f.elements()]
    gens = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
    values = L.subset_table(rng.getrandbits(n) if rng.random() < 0.5 else 0, gens, operator.or_)
    if style == 1:
        s = rng.choice([s for s in f.elements() if L.popcount(s) > 1])
        values[s] = rng.choice([v for v in f.elements() if v != values[s]])
    return style, values


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_rows_above_matches_the_quantifier_form(seed):
    # powersets of up to 9 points: join-preserving values take the generator
    # route, every other list one transpose of its down rows, and neither
    # splits a value by `bits`, at any size; other frames the transpose
    rng = random.Random(seed)
    if seed % 4:
        f = L.powerset_frame(rng.randint(2, 9))
        style, values = powerset_values(rng, f)
    else:
        f = random_frame(rng)
        style, values = None, [rng.randrange(f.m) for _ in f.elements()]
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, ((L, "bits"),))
        rows = L.rows_above(f, values)
    assert rows == [mask_of_iter(i for i, v in enumerate(values) if f.leq(x, v))
                    for x in f.elements()]
    if style is not None:
        generated = len(values) == f.m and all(
            v == functools.reduce(operator.or_, (values[1 << p] for p in bits(s)), values[0])
            for s, v in enumerate(values))
        assert generated == (style == 0) or style == 2
    assert calls["bits"] == 0, (style, calls)


def downset_frame_sized(rng, low, high):
    """A down-set frame with between low and high elements."""
    while True:
        n = rng.randint(max(1, low.bit_length() - 1), max(1, high.bit_length()))
        fam = downset_family(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
        if low <= len(fam) <= high:
            return L.frame_from_topology(n, fam)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_rows_above_routes_match_the_quantifier_form(seed):
    # value lists not in generator form, on either side of 128 elements:
    # m values on powersets of 1-9 points and on down-set frames of 2-512
    # elements; each is one transpose, with no per-value fold, at every size
    rng = random.Random(seed)
    style = rng.choice(["powerset", "mask", "large"])
    if style == "powerset":
        f = L.powerset_frame(rng.randint(1, 9))
    else:
        f = downset_frame_sized(rng, *((2, 128) if style == "mask" else (129, 512)))
    values = [rng.randrange(f.m) for _ in f.elements()]
    f.down_rows()
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, ((L, "bits"), (L, "transpose_rows"),
                                 (L.FiniteFrame, "up_row")))
        rows = L.rows_above(f, values)
    assert rows == [mask_of_iter(i for i, v in enumerate(values) if f.leq(x, v))
                    for x in f.elements()]
    generated = f.kind == "powerset" and len(values) == f.m and all(
        v == functools.reduce(operator.or_, (values[1 << p] for p in bits(s)), values[0])
        for s, v in enumerate(values))
    if not generated:
        assert calls == {"bits": 0, "transpose_rows": 1, "up_row": 0}, (style, calls)


def test_cone_rows_of_explicit_relations_run_no_per_value_fold(monkeypatch):
    # C-order of every relation locale of the benchmark's explicit-document
    # pool reads `cone_rows`: its rows come from one transpose of the down
    # cone's down rows or from the generator values, never value by value
    refs = os.path.join(os.path.dirname(__file__), "..", "perfbench", "refs",
                        "explicit-docs.json")
    with open(refs) as fh:
        pool = json.load(fh)["pool"]
    docs = [doc for docs in pool.values() for doc in docs]
    locales = []
    for doc in docs:
        base = doc["base"]
        opens = range(1 << base) if doc["opens"] == "discrete" else doc["opens"]
        olx = O.ordered_locale_from_relation(L.frame_from_topology(base, opens),
                                             [tuple(p) for p in doc["rel"]])
        olx.frame.down_rows()
        locales.append(olx)
    assert any(olx.frame.kind == "mask" for olx in locales)
    calls = count_calls(monkeypatch, ((L, "bits"), (L.FiniteFrame, "up_row")))
    for olx in locales:
        O.cone_rows(olx.frame, olx.up_map, olx.down_map)
    assert calls == {"bits": 0, "up_row": 0}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_subset_table_and_down_rows_match_definitions(seed):
    rng = random.Random(seed)
    rows = [rng.getrandbits(10) for _ in range(rng.randint(0, 7))]
    unit = rng.getrandbits(10)
    for op in (operator.or_, operator.and_, operator.xor):
        assert L.subset_table(unit, rows, op) == [
            functools.reduce(op, (rows[b] for b in bits(s)), unit) for s in range(1 << len(rows))]
    f = random_frame(rng) if rng.random() < 0.5 else L.powerset_frame(rng.randint(0, 7))
    for x in rng.sample(range(f.m), rng.randint(0, min(3, f.m))):
        f.down_row(x)                        # some rows built one by one first
    assert f.down_rows() == [mask_of_iter(y for y in f.elements() if f.leq(y, x))
                             for x in f.elements()]


def random_locales(rng, f, *copies):
    """One random locale on f, and the same locale built alike on each
    (g, iso) of copies, iso[x] the id in g of f's element x: explicit rows,
    a relation locale, or a monad locale; a cone pair that
    `ConePair.validate` refuses gives the rows of its cone formula."""
    style = rng.randrange(3)
    if style == 0:
        rows = [mask_of_iter(v for v in f.elements() if rng.random() < 0.3) for _ in f.elements()]
    elif style == 1:
        pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
    else:
        pair = O.ConePair(f, random_monad(rng, f), random_monad(rng, f))
        try:
            pair.validate()
        except NotAMonad:
            style, rows = 0, O.cone_rows(f, pair.u, pair.d)
    out = []
    for g, iso in ((f, f.elements()), *copies):
        if style == 0:
            moved = [0] * g.m
            for x, r in enumerate(rows):
                moved[iso[x]] = mask_of_iter(iso[y] for y in bits(r))
            out.append(rows_locale(g, moved))
        elif style == 1:
            out.append(O.ordered_locale_from_relation(g, [(iso[u], iso[v]) for u, v in pairs]))
        else:
            up, down = [0] * g.m, [0] * g.m
            for x in f.elements():
                up[iso[x]], down[iso[x]] = iso[pair.u[x]], iso[pair.d[x]]
            out.append(O.ordered_locale_from_monads(O.ConePair(g, up, down), validated=True))
    return out


def random_locale(rng, f):
    """One random locale on f (`random_locales`)."""
    return random_locales(rng, f)[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_law_reports_agree_across_encodings(seed):
    # re-encoding a frame changes no law report: a powerset of up to 64
    # elements and a random topology, each against its mask-backed Birkhoff
    # copy (`subframe`); the powerset pair splits `rows_above` between its
    # generator route and the transpose.  The same locale on both gives the
    # same verdict and note for each of the 11 laws, and the same witness
    # through the id correspondence
    rng = random.Random(seed)
    if seed % 2:
        f = L.powerset_frame(rng.randint(1, 6))
    else:
        n = rng.randint(1, 5)
        gens_ = [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))]
        f = L.frame_from_topology(n, oracles.close_family_under_union_intersection(n, gens_))
    g, incl = derived.subframe(f, f.elements(), f.coprimes())
    assert g.kind == "mask" and [g.mask_of(i) for i in g.elements()] == list(map(f.mask_of, incl))
    iso = [0] * f.m
    for i, x in enumerate(incl):
        iso[x] = i
    lf, lg = random_locales(rng, f, (g, iso))
    for law in O.ALL_AXIOMS:
        got, want = (report_outcome(lambda olx: O.check_axiom(olx, law), olx) for olx in (lg, lf))
        if want[0] == "fail":
            want = ("fail", tuple(iso[x] for x in want[1])) + want[2:]
        assert got == want, (law, seed)


def test_order_from_map_matches_pair_loop(monkeypatch):
    # the double-negation sublocale map of a random (mostly not Boolean)
    # frame, or of bowtie, and the inclusion of a futures frame; both cone
    # routes must be taken: the cone formula where its premise holds, the
    # joins of the rows (`cones_from_rows`) where it fails
    routes = {"cone formula": 0, "joins of rows": 0}
    joins = [0]
    cones_from_rows = O.cones_from_rows

    def counted(*args):
        joins[0] += 1
        return cones_from_rows(*args)

    monkeypatch.setattr(O, "cones_from_rows", counted)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def check(seed):
        rng = random.Random(seed)
        if rng.random() < 0.8:
            f = random_frame(rng) if rng.random() < 0.7 else gen.bowtie().frame
            fmap = derived.double_negation_frame(f)[1]
        else:
            fmap = derived.futures_frame(S.induced_locale(random_space(rng), "em"))[1]
        target = random_locale(rng, fmap.target)
        joins[0] = 0
        got = oracles.order_from_map(fmap, target)
        routes["joins of rows" if joins[0] else "cone formula"] += 1
        want = oracles.order_from_map_pairs(fmap, target)
        src, rows = fmap.source, want.rel_rows()
        assert got.rel_rows() == rows, (fmap.preimage, target.up_map, target.down_map)
        assert got.up_map == [fold_join(src, r) for r in rows]
        assert got.down_map == [fold_join(src, c) for c in L.transpose_rows(rows)]
        assert (got.up_map, got.down_map) == (want.up_map, want.down_map)

    check()
    assert all(routes.values()), routes


def grothendieck_outcome(fn, olx):
    try:
        rep = fn(olx)
    except Exception as e:                  # the same refusal either way
        return type(e).__name__, str(e)
    return rep.verdict, rep.witness, rep.note, getattr(rep, "abstentions", None)


def grothendieck_tables(seed):
    """An induced locale of a random space (or its rows copy), and a
    perturbed copy of its coverage table, so that every failure branch is
    reached."""
    rng = random.Random(seed)
    sp = random_topology_space(rng)
    olx = S.induced_locale(sp, rng.choice(["em", "em", "upper", "lower"]))
    if rng.random() < 0.5:
        olx = rows_locale(olx.frame, olx.rel_rows())
    f = olx.frame
    try:
        rows = list(C.coverage_rows(olx, "past"))
    except (PreconditionAxioms, FrameTooLarge):
        rows = [f.down_row(u) for u in f.elements()]
    for u in f.elements():
        for a in f.elements():
            if rng.random() < 0.04:
                rows[u] ^= 1 << a
            if rng.random() < 0.08:
                rows[u] &= ~(1 << a)
    return olx, rows


def grothendieck_outcomes(olx, rows=None):
    """The check's and the membership loop's outcomes, on the locale's own
    coverage or, given rows, on that table."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(C, "coverage_rows", lambda loc, direction: rows)
        return (grothendieck_outcome(C.check_down_grothendieck, olx),
                grothendieck_outcome(oracles.check_down_grothendieck_loop, olx))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_grothendieck_mask_form_matches_membership_loop(seed):
    # the locale's own coverage, then the same frame and cones with a
    # perturbed coverage table
    olx, rows = grothendieck_tables(seed)
    for table in (None, rows):
        got, want = grothendieck_outcomes(olx, table)
        assert got == want, table


def test_grothendieck_sweep_reaches_every_branch():
    # a fixed seed range, whatever Hypothesis draws: over own and perturbed
    # tables the pass and each of the four failure notes occur, and every
    # verdict, witness and note equals the membership loop's
    notes = {"exhaustive sieve enumeration; 0 abstentions": 0,
             "maximal sieve on down(U) does not cover U": 0,
             "unit pushforward sieve does not cover U": 0,
             "pullback of a covering sieve stopped covering": 0,
             "locally covering sieve does not cover": 0}
    for seed in range(200):
        olx, rows = grothendieck_tables(seed)
        for table in (None, rows):
            got, want = grothendieck_outcomes(olx, table)
            assert got == want, (seed, table)
            if len(got) == 4:
                notes[got[2]] += 1
    assert all(notes.values()), notes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_counit_and_transport_rows_match_pair_scans(seed):
    # rows memoized on a cone-definitional locale, with one pair flipped
    # half of the time: C-order is definitional and the cones are intact,
    # so both order biconditionals must name the least flipped pair
    rng = random.Random(seed)
    olx = S.induced_locale(random_topology_space(rng), rng.choice(["em", "upper", "lower"]))
    f = olx.frame
    rows = olx.rel_rows()
    if rng.random() < 0.5:
        rows[rng.randrange(f.m)] ^= 1 << rng.randrange(f.m)
    pcones = oracles.point_cones_loop(*D._point_data(olx))
    rep = D.counit_check(olx)
    if rep.details["biconditional"] is not None:
        least = next(((a, b) for a, (pa, upa, _) in enumerate(pcones)
                      for b, (pb, _, dnb) in enumerate(pcones)
                      if olx.related(a, b) != (pb & ~upa == 0 and pa & ~dnb == 0)), None)
        assert rep.details["biconditional"] == (least is None)
        if least is not None:
            assert rep.witness == least
    if not derived.check_regular_cones(olx).ok:
        return
    sub, dn_map = derived.double_negation_frame(f)
    induced = oracles.order_from_map(dn_map, olx)
    reg_of = dn_map.preimage
    least = next(((u, v) for u in f.elements() for v in f.elements()
                  if induced.related(reg_of[u], reg_of[v]) != olx.related(u, v)), None)
    try:
        rep = D.double_negation_transport(olx)
    except ConesDoNotPreserveJoins:
        assert least is None
        return
    assert (rep.note == "regular order disagrees with the ambient order") == \
        (least is not None)
    if least is not None:
        assert rep.witness == least


def test_duality_row_forms_read_no_related_calls(m33, monkeypatch):
    calls = []
    related = O.OrderedLocale.related

    def counted(self, u, v):
        calls.append((u, v))
        return related(self, u, v)

    monkeypatch.setattr(O.OrderedLocale, "related", counted)
    olx = S.induced_locale(m33, "em")
    assert D.double_negation_transport(olx).ok
    assert D.counit_check(olx).ok
    assert calls == []


# -- finite topologies from least neighbourhoods -------------------------------------


def topology_outcome(build, n, opens):
    try:
        f = build(n, opens)
    except ValidationError as e:
        return e
    return f.kind, f.m, [f.mask_of(i) for i in f.elements()], f.neighbourhoods()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_frame_from_topology_matches_pair_loop(seed):
    # closed families, and closed families with a member dropped or added
    # (the empty set and the full base kept): both checks accept the same
    # families and build the same frame, and each refusal names two members
    # whose intersection or union is missing
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    fam = set(oracles.close_family_fixpoint(
        n, [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        fam ^= {rng.getrandbits(n)}
    opens = sorted(fam | {0, (1 << n) - 1})
    got = topology_outcome(L.frame_from_topology, n, opens)
    want = topology_outcome(oracles.frame_from_topology_pairs, n, opens)
    assert isinstance(got, Exception) == isinstance(want, Exception), (n, opens)
    if not isinstance(got, Exception):
        assert got == want
        return
    a, b = got.pair
    assert a in fam and b in fam
    if isinstance(got, NotClosedUnderMeet):
        assert a & b not in fam
    else:
        assert isinstance(got, NotClosedUnderJoin) and a | b not in fam


def downset_family(rng, n, density=0.25):
    """The down-sets of a random order on n points, each q < p below p with
    the given chance, closed transitively: N(p) is the down-set of p."""
    below = L.transitive_closure_rows(
        [mask_of_iter(q for q in range(p) if rng.random() < density) for p in range(n)])
    return [s for s in range(1 << n) if all(below[p] & ~s == 0 for p in bits(s))]


def chain_downsets(chains: int) -> list[int]:
    """The down-sets of `chains` two-point chains 2i < 2i + 1: 3^chains opens."""
    return [sum(c) for c in itertools.product(*[(0, 1 << 2 * i, 3 << 2 * i)
                                                 for i in range(chains)])]


def broken_family(rng, fam, op):
    """A closed family less one op-image (a & b or a | b) of two other
    members, not the empty set or the full base, so not closed; None where
    there is no such image."""
    images = sorted({c for a in fam for b in fam if (c := op(a, b)) not in (a, b)}
                    - {0, max(fam)})
    return sorted(set(fam) - {rng.choice(images)}) if images else None


def scan_outcome(n, opens):
    """The per-open scan's N(p) ids, or its refusal, on a family holding the
    empty set and the full base."""
    masks = sorted(set(opens))
    try:
        return L._scan_nbhds(n, masks, {e: i for i, e in enumerate(masks)})
    except ValidationError as e:
        return e


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_frame_from_topology_indicator_matches_scan_and_pair_loop(seed):
    # random topologies (T0 or not), codiscrete ones, down-set families of
    # 1-12 points, and closed families less one intersection or one union:
    # the indicator route accepts exactly the closed families, with the
    # pair loop's masks, ids and neighbourhoods, and every refusal is the
    # per-open scan's, with its message and witness
    rng = random.Random(seed)
    style = rng.choice(["random", "codiscrete", "downsets", "no meet", "no join"])
    n = rng.randint(1, 12 if style == "downsets" else 7)
    if style == "codiscrete":
        fam = [0, (1 << n) - 1]
    elif style == "downsets" or rng.random() < 0.5:
        fam = downset_family(rng, n, rng.choice([0.1, 0.3, 0.6]))
    else:
        fam = oracles.close_family_under_union_intersection(
            n, [rng.getrandbits(n) for _ in range(rng.randint(0, 4))])
    broken = style in ("no meet", "no join") and broken_family(
        rng, fam, operator.and_ if style == "no meet" else operator.or_)
    fam = broken or fam
    got = topology_outcome(L.frame_from_topology, n, fam)
    scanned = scan_outcome(n, fam)
    masks = sorted(set(fam))
    indicator = L._indicator_nbhds(n, masks)
    if isinstance(got, Exception):
        assert isinstance(scanned, Exception) and indicator is None
        assert (type(got), str(got), got.pair) == (type(scanned), str(scanned), scanned.pair)
        assert broken
        return
    assert not broken
    assert got[3] == scanned and indicator == [masks[i] for i in scanned]
    assert indicator == [oracles.least_neighbourhood(n, masks, p) for p in range(n)]
    if got[0] == "mask":
        f = L.frame_from_topology(n, fam)
        assert got[2] == masks and all(f.id_of_mask(e) == i for i, e in enumerate(masks))
    if len(masks) <= 300:
        assert got == topology_outcome(oracles.frame_from_topology_pairs, n, fam)


def test_listed_topologies_run_no_per_open_scan(monkeypatch):
    # the 729 down-sets of the vertical 2x6 grid and the 59,049 of ten
    # two-point chains are validated on their indicators alone; a family
    # missing one union still gets the scan's witness
    g = gen.vertical_grid(2, 6)
    v26 = [s for s in range(1 << g.n) if all(g.down[p] & ~s == 0 for p in bits(s))]
    calls = count_calls(monkeypatch, ((L, "_scan_nbhds"),))
    f = L.frame_from_topology(g.n, v26)
    assert f.m == 729 and [f.mask_of(e) for e in f.neighbourhoods()] == g.down
    f = L.frame_from_topology(20, chain_downsets(10))
    assert f.m == 59_049
    assert [f.mask_of(e) for e in f.neighbourhoods()] == \
        [(1 if p % 2 == 0 else 3) << (p & ~1) for p in range(20)]
    assert calls == {"_scan_nbhds": 0}
    with pytest.raises(NotClosedUnderJoin) as e:
        L.frame_from_topology(6, sorted(set(chain_downsets(3)) - {0b101}))
    assert e.value.pair == (0b100, 0b1) and calls == {"_scan_nbhds": 1}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_close_family_matches_pair_fixpoint(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
    assert oracles.close_family_under_union_intersection(n, gens) == \
        oracles.close_family_fixpoint(n, gens)


# -- points and neighbourhoods from rows ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_point_structures_match_per_open_scans(seed):
    # spaces on mask and powerset frames, T0 or not, codiscrete included;
    # points of their induced locales, of Birkhoff-frame copies of those,
    # and of random locales on random (also Birkhoff) frames
    rng = random.Random(seed)
    if rng.random() < 0.2:
        sp = S.OrderedSpace.build(rng.randint(1, 4), [], opens="codiscrete")
    else:
        sp = random_topology_space(rng)
    f = sp.frame
    assert derived.specialisation_order(f) == oracles.specialisation_order(f)
    assert [derived.closure_of_point(sp, p) for p in range(sp.n)] == oracles.point_closures(sp)
    assert derived.is_T0(sp) == \
        (len({oracles.open_ids_containing(f, p) for p in range(sp.n)}) == sp.n)
    got, want = derived.is_T0_ordered(sp), oracles.is_T0_ordered(sp)
    assert (got.verdict, got.witness) == (want.verdict, want.witness)
    idl = derived.ideal_frame(f)[0]
    assert [idl.down_row(i) for i in idl.elements()] == oracles.ideal_frame_rows(f)
    style = rng.randrange(3)
    if style == 2:
        olx = random_locale(rng, random_frame(rng))
    else:
        olx = S.induced_locale(sp, rng.choice(["em", "upper", "lower"]))
        if style == 1:
            g = olx.frame
            olx = rows_locale(derived.subframe(g, g.elements(), g.coprimes())[0], olx.rel_rows())
    g = olx.frame
    assert D.pt_masks(g) == [oracles.pt_mask(g, g.primes(), u) for u in g.elements()]
    assert D._point_data(olx)[0] == oracles.point_order_rows(olx, g.primes())


def test_points_space_makes_no_leq_calls(monkeypatch):
    # a fresh locale, so that no frame rows are cached yet
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 3)), "em")
    calls = []
    leq = L.FiniteFrame.leq

    def counted(self, i, j):
        calls.append((i, j))
        return leq(self, i, j)

    monkeypatch.setattr(L.FiniteFrame, "leq", counted)
    assert D.points_space(olx).n == 9
    assert calls == []


def test_points_space_on_m44_lists_no_cone(monkeypatch):
    # the point order reads the generator-form cones at the 16
    # join-irreducibles: no 2**16-entry cone list is built
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(4, 4)), "em")
    calls = []
    tolist = L.SubsetCone.tolist
    monkeypatch.setattr(L.SubsetCone, "tolist",
                        lambda cone: calls.append(cone) or tolist(cone))
    pts = D.points_space(olx)
    assert pts.n == 16 and calls == []
    monkeypatch.undo()
    assert pts.up == oracles.point_data_loop(olx, olx.frame.primes())[0]


# -- Birkhoff frames and frame-map kernels against pair scans -----------------------


def glued_rows(rng):
    """Down rows of a distributive lattice of up to 4 elements with M3 or N5
    glued above or below it (top to bottom): a non-distributive lattice."""
    dist = oracles.downset_frame([[i == j or (i < j and rng.random() < 0.5) for j in range(2)]
                                  for i in range(2)])
    n5 = rng.random() < 0.5                 # N5 has 1 < 3, M3 three atoms

    def kleq(a, b):
        return a == b or a == 0 or b == 4 or n5 and (a, b) == (1, 3)

    above = rng.random() < 0.5
    items = [("d", x) for x in dist.elements()]
    items += [("k", y) for y in (range(1, 5) if above else range(4))]

    def leq(p, q):
        if p[0] == q[0]:
            return dist.leq(p[1], q[1]) if p[0] == "d" else kleq(p[1], q[1])
        return (p[0] == "d") == above
    return oracles.order_rows(items, leq)


def random_order_rows(rng):
    """Reflexive down rows of at most 8 elements, ids shuffled: a
    distributive lattice, one with M3 or N5 glued on, a bounded
    two-layer order, a random relation (mostly not antisymmetric or not
    transitive), or a distributive lattice with one off-diagonal entry
    flipped."""
    style = rng.randrange(5)
    if style == 1:
        rows = glued_rows(rng)
    elif style == 2:
        # two layers 1..k and k+1..n-2 of random covers, between a bottom 0
        # and a top n-1: a lattice, or not (two elements under two others)
        n, p = rng.randint(2, 8), rng.uniform(0.2, 0.9)
        k = rng.randint(1, max(1, n - 3))
        up = [mask_of_iter(j for j in range(i + 1, n)
                           if i == 0 or j == n - 1 or i <= k < j and rng.random() < p)
              for i in range(n)]
        rows = L.transpose_rows(L.transitive_closure_rows(up))
    elif style == 3:
        n = rng.randint(1, 6)
        rows = [mask_of_iter(j for j in range(n) if j == i or rng.random() < 0.3)
                for i in range(n)]
    else:
        n = rng.randint(1, 3)
        f = oracles.downset_frame([[i == j or (i < j and rng.random() < 0.5) for j in range(n)]
                                   for i in range(n)])
        rows = [f.down_row(i) for i in f.elements()]
        if style == 4 and f.m > 1:
            i, j = rng.sample(range(f.m), 2)
            rows[i] ^= 1 << j
    return permuted_rows(rng, rows)


def permuted_rows(rng, rows):
    """The order of `rows` with its element ids permuted at random."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    moved = [0] * len(rows)
    for i, r in enumerate(rows):
        moved[perm[i]] = mask_of_iter(perm[j] for j in bits(r))
    return moved


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_birkhoff_frames_match_table_construction(seed):
    rows = random_order_rows(random.Random(seed))

    def build(route):
        try:
            return route(rows)
        except ValidationError as e:
            return e

    got, want = build(oracles.frame_from_down_rows), build(oracles.frame_by_tables)
    if isinstance(want, ValidationError):
        assert type(got) is type(want), (rows, got, want)
        if isinstance(want, NotDistributive):
            # the named triple breaks a & (b | c) == (a & b) | (a & c)
            a, b, c = ast.literal_eval(str(got).rsplit(" at ", 1)[1])
            items = range(len(rows))

            def leq(x, y):
                return bool(rows[y] >> x & 1)
            meet = functools.partial(oracles.order_meet, items, leq)
            join = functools.partial(oracles.order_join, items, leq)
            assert meet(a, join(b, c)) != join(meet(a, b), meet(a, c))
        else:
            assert str(got) == str(want)
        return
    assert (got.m, got.bottom, got.top) == (want.m, want.bottom, want.top)
    assert [got.down_row(i) for i in got.elements()] == rows
    assert [got.up_row(i) for i in got.elements()] == want.up_rows
    for a in got.elements():
        for b in got.elements():
            assert got.meet(a, b) == want.meet(a, b) and got.join(a, b) == want.join(a, b)
            assert got.heyting(a, b) == want.heyting(a, b)
    assert got.coprimes() == want.coprimes() and got.primes() == want.primes()


def test_birkhoff_rows_cover_every_outcome():
    # the generator reaches distributive lattices, non-distributive lattices
    # and non-lattices, so the property test compares all three outcomes
    seen = set()
    for seed in range(300):
        try:
            oracles.frame_from_down_rows(random_order_rows(random.Random(seed)))
            seen.add("frame")
        except ValidationError as e:
            seen.add(type(e).__name__)
    assert seen == {"frame", "NotALattice", "NotDistributive"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_frame_map_kernels_match_pair_scan(seed):
    # random maps of a frame to itself, or the inclusion of a subset: the
    # image of a (mostly) monad, which keeps meets but may lose joins, or a
    # join-closed subset, which keeps joins but may lose meets; at times
    # broken at one element
    rng = random.Random(seed)
    f = random_frame(rng)
    t = random_map(rng, f)
    if rng.random() < 0.8:
        t[f.bottom], t[f.top] = f.bottom, f.top
    fmap = derived.FrameMap(f, f, t)
    style = rng.randrange(3)
    if style:
        ids = {f.bottom, f.top}
        if style == 1:
            ids |= set(random_monad(rng, f))
        else:
            for x in rng.sample(range(f.m), min(f.m, rng.randint(1, 3))):
                ids |= {f.join(x, y) for y in ids}
        try:
            sub, incl = derived.subframe(f, ids, oracles.join_irreducibles_of(f, ids))
            fmap = derived.FrameMap(f, sub, incl)
        except ValidationError:
            pass
        if rng.random() < 0.3:
            fmap.preimage[rng.randrange(fmap.target.m)] = rng.randrange(f.m)
    want = oracles.frame_map_failure_by_pairs(fmap)
    try:
        fmap.validate()
        got = None
    except NotAFrameMap as e:
        got = str(e)
    assert got == want, (f, fmap.preimage)


def test_frame_map_validate_op_count_on_vertical_grid(monkeypatch):
    # the cones of an induced locale are closures, so its futures and pasts
    # frames are subframes by the inclusion lemma of `derived._cone_frame`,
    # with no validate, and ideal points and the transport build neither;
    # every validate of the listed cone frames of the transport's general
    # path stays within 2 m (|J| + |P|) meets and joins on its target
    olx = S.induced_locale(gen.vertical_grid(3, 3), "em")
    calls, budgets = [0], []
    meet, join, validate = L.FiniteFrame.meet, L.FiniteFrame.join, derived.FrameMap.validate

    def counted(op):
        def run(self, i, j):
            calls[0] += 1
            return op(self, i, j)
        return run

    def measured(self):
        t, before = self.target, calls[0]
        validate(self)
        budgets.append((calls[0] - before, 2 * t.m * (len(t.coprimes()) + len(t.primes()))))

    monkeypatch.setattr(L.FiniteFrame, "meet", counted(meet))
    monkeypatch.setattr(L.FiniteFrame, "join", counted(join))
    monkeypatch.setattr(derived.FrameMap, "validate", measured)
    D.ideal_points(olx)
    assert D.double_negation_transport(olx).ok
    derived.futures_frame(olx), derived.pasts_frame(olx)
    assert budgets == []
    assert oracles.double_negation_transport_general(olx).ok
    assert len(budgets) >= 4 and all(used <= budget for used, budget in budgets), budgets


def assert_frame_matches_oracles(got, want, rows, heyting_rows=None):
    """A frame built on its join-irreducibles against the pair-loop frame
    `want` of the Birkhoff table oracle (`oracles.frame_from_down_rows`,
    carriers of element ids) and the meet/join tables of `frame_by_tables`
    on `rows`, the down rows of the kept order: ids, extents, labels, meta,
    order rows, meets, joins, Heyting arrows (on every row, or on the rows
    `heyting_rows`), join-irreducibles, primes and atoms."""
    table = oracles.frame_by_tables(rows)
    els = got.elements()
    assert (got.m, got.bottom, got.top) == (want.m, want.bottom, want.top) == \
        (len(rows), table.bottom, table.top)
    assert (got.base_size, got.labels, got.meta, got.realized) == \
        (want.base_size, want.labels, want.meta, want.realized)
    if got.realized:
        assert [got.mask_of(i) for i in els] == [want.mask_of(i) for i in els]
    assert [got.down_row(i) for i in els] == rows and got.down_rows() == rows
    for a in els:
        assert [got.meet(a, b) for b in els] == table.meet_t[a]
        assert [got.join(a, b) for b in els] == table.join_t[a]
    for a in els if heyting_rows is None else heyting_rows:
        assert [got.heyting(a, b) for b in els] == [table.heyting(a, b) for b in els]
    assert got.coprimes() == want.coprimes() == table.coprimes()
    assert got.primes() == want.primes() == table.primes()
    assert got.atoms() == want.atoms() == oracles.atoms_by_definition(got)


def subframe_outcome(f, ids, meta):
    """`derived.subframe` on the definitional join-irreducibles of the kept
    ids and `oracles.subframe_by_pairs`, or the refusal of the oracle:
    NotALattice alone (no J' to give), or NotDistributive from both with
    the same message."""
    try:
        want, w_ids = oracles.subframe_by_pairs(f, ids, meta=meta)
    except oracles.NotALattice:
        return None
    except NotDistributive as e:
        with pytest.raises(NotDistributive) as got:
            derived.subframe(f, ids, oracles.join_irreducibles_of(f, ids), meta=meta)
        assert str(got.value) == str(e)
        return None
    got, g_ids = derived.subframe(f, ids, oracles.join_irreducibles_of(f, ids), meta=meta)
    assert g_ids == w_ids
    return got, want, g_ids


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_subframe_matches_pair_loop(seed):
    # random id subsets of powerset, mask and Birkhoff frames, half of them
    # with bottom and top; most are not lattices, which the pair loop
    # refuses and `subframe` is never given (its callers supply J' of a
    # lattice).  A lattice gets J' from the definition, and both routes give
    # the same frame or the same NotDistributive message
    rng = random.Random(seed)
    f = random_frame(rng)
    ids = [i for i in f.elements() if rng.random() < 0.6]
    if rng.random() < 0.5:
        ids += [f.bottom, f.top]
    out = subframe_outcome(f, ids, {"construction": "test"})
    if out is not None:
        got, want, g_ids = out
        assert_frame_matches_oracles(got, want, oracles.order_rows(g_ids, f.leq))


def random_ambient(rng):
    """A powerset of up to 64 elements, the frame of a random topology on
    up to 6 points, or its Birkhoff copy (`derived.subframe` on every
    element and J)."""
    n = rng.randint(1, 6)
    kind = rng.choice(("powerset", "topology", "birkhoff"))
    if kind == "powerset":
        return L.powerset_frame(n)
    gens_ = [rng.randrange(1 << n) for _ in range(rng.randint(1, 2 * n))]
    f = L.frame_from_topology(n, oracles.close_family_under_union_intersection(n, gens_))
    return f if kind == "topology" else derived.subframe(f, f.elements(), f.coprimes())[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_subframes_match_the_table_oracle(seed):
    # the three derived frames of `subframe`, on powerset, topology and
    # Birkhoff ambients of up to 64 elements: a random join-closed subset
    # with bottom (the shape of a cone image; M3 or N5 inside makes it
    # refuse), the regular elements, and the ideal frame, each against the
    # pair-loop frame and the meet/join tables of the Birkhoff table oracle
    rng = random.Random(seed)
    f = random_ambient(rng)
    style = rng.randrange(3)
    if style == 0:
        ids = {f.bottom}
        for x in rng.sample(range(f.m), min(f.m, rng.randint(1, 5))):
            ids |= {f.join(x, y) for y in ids}
        out = subframe_outcome(f, ids, {"construction": "test"})
        if out is not None:
            got, want, g_ids = out
            assert_frame_matches_oracles(got, want, oracles.order_rows(g_ids, f.leq))
    elif style == 1:
        got, fmap = derived.double_negation_frame(f)
        regular = [x for x in f.elements() if f.neg(f.neg(x)) == x]
        if got is f:
            assert len(regular) == f.m and f.is_boolean()
            return
        want, w_ids = oracles.subframe_by_pairs(f, regular,
                                                meta={"construction": "double-negation"})
        assert [fmap.preimage[u] for u in w_ids] == list(got.elements())
        assert_frame_matches_oracles(got, want, oracles.order_rows(w_ids, f.leq))
    else:
        got, wit = derived.ideal_frame(f)
        rows = oracles.ideal_frame_rows(f)
        want = oracles.frame_from_down_rows(rows, ext=rows, base_size=f.m,
                                            labels=[f"e{i}" for i in f.elements()],
                                            meta={"construction": "ideals"})
        assert wit == list(f.elements())
        assert_frame_matches_oracles(got, want, rows)


def test_subframes_above_the_indicator_gate_match_the_table_oracle():
    # k = |J'| above 20, where the closure check is the per-open scan: a
    # 22-element chain of a 21-point powerset (k = 21), the same chain on
    # top of M3 (k = 24: NotDistributive with the oracle's message), and
    # the futures frame of M55 (k = 25), on every tenth Heyting row
    chain = [(1 << i) - 1 for i in range(22)]
    f = L.powerset_frame(21)
    got, want, g_ids = subframe_outcome(f, chain, {"construction": "test"})
    assert len(got.coprimes()) == 21
    assert_frame_matches_oracles(got, want, oracles.order_rows(g_ids, f.leq))
    f = L.powerset_frame(24)
    m3_chain = [0, 3, 5, 6] + [(1 << i) - 1 for i in range(3, 25)]
    assert len(oracles.join_irreducibles_of(f, m3_chain)) == 24
    assert subframe_outcome(f, m3_chain, {"construction": "test"}) is None
    with pytest.raises(NotDistributive):
        derived.subframe(f, m3_chain, oracles.join_irreducibles_of(f, m3_chain))
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(5, 5)), "em")
    got, fmap = derived.futures_frame(olx)
    incl = fmap.preimage
    assert len(got.coprimes()) == 25
    want, w_ids = oracles.subframe_by_pairs(olx.frame, incl, meta={"construction": "futures"})
    assert w_ids == incl
    assert_frame_matches_oracles(got, want, oracles.order_rows(incl, olx.frame.leq),
                                 heyting_rows=range(0, got.m, 10))


def test_a_cone_with_image_M3_is_refused_with_the_oracle_message():
    # a join-preserving cone on 2^3 that is no closure, with values 01, 12
    # and 02 at the points: its image {}, 01, 12, 02, 012 is M3, and the
    # futures frame refuses it as the listed-image oracle does
    f = L.powerset_frame(3)
    ident = L.SubsetCone(3, 0, [1, 2, 4])
    olx = O.OrderedLocale(f, up_map=L.SubsetCone(3, 0, [3, 6, 5]), down_map=ident)
    assert not O._is_closure(f, olx.cones.u) and O._cone_join_failure(olx) is None
    with pytest.raises(NotDistributive) as got:
        derived.futures_frame(olx)
    with pytest.raises(NotDistributive) as want:
        oracles.cone_frame_by_list(olx, "u", "futures")
    assert str(got.value) == str(want.value) == "a&(b|c) != (a&b)|(a&c) at (3, 1, 2)"


def test_subframe_makes_no_ambient_leq_calls(monkeypatch):
    # a fresh locale, so that no frame rows are cached yet; the pair loop
    # makes one ambient leq call per pair of kept elements
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 3)), "em")
    f = olx.frame
    js = derived._cone_frame_points(f, olx.cones.u)[0]
    calls = []
    leq = L.FiniteFrame.leq

    def counted(self, i, j):
        if self is f:
            calls.append((i, j))
        return leq(self, i, j)

    monkeypatch.setattr(L.FiniteFrame, "leq", counted)
    sub, incl = derived.subframe(f, olx.up_map, js, meta={"construction": "futures"})
    assert sub.m == len(set(olx.up_map)) and calls == []


# -- powerset frames: direct construction, cone doubling, join levels ---------------


@pytest.mark.parametrize("n", range(7))
def test_powerset_frame_matches_listed_and_mask_frames(n):
    # the listed family takes the same path; the mask-backed copy answers
    # every query generically (its primes come in id order, not point order)
    f, listed = L.powerset_frame(n), L.frame_from_topology(n, range(1 << n))
    assert f.kind == listed.kind == "powerset" and f.primes() == listed.primes()
    for g in (listed, oracles.mask_backed_powerset(n)):
        assert (f.m, f.bottom, f.top) == (g.m, g.bottom, g.top)
        assert [f.down_row(i) for i in f.elements()] == [g.down_row(i) for i in g.elements()]
        assert [f.up_row(i) for i in f.elements()] == [g.up_row(i) for i in g.elements()]
        assert f.coprimes() == g.coprimes() and sorted(f.primes()) == sorted(g.primes())
        assert f.neighbourhoods() == g.neighbourhoods()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_subset_cones_match_lowest_bit_loop(seed):
    # the generator form's reads and full list, and the doubling oracle,
    # against the lowest-bit loop and the definitional OR
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    up = [rng.getrandbits(n) for _ in range(n)]
    down = [rng.getrandbits(n) for _ in range(n)]
    want = oracles.subset_cones_lowest_bit(1 << n, up, down)
    assert oracles.subset_cones(1 << n, up, down) == want
    base = rng.getrandbits(n)
    for rows, listed in zip((up, down), want):
        t = L.SubsetCone(n, base, rows)
        assert len(t) == 1 << n and t.tolist() == [base | x for x in listed]
        assert t.tolist() is t.tolist()
        for s in (rng.getrandbits(n) for _ in range(20)):
            definitional = base
            for b in bits(s):
                definitional |= rows[b]
            assert t[s] == definitional


def law_dump(loc):
    return [(r.law, r.verdict, r.witness, r.note)
            for r in (O.check_axiom(loc, law) for law in O.ALL_AXIOMS)]


@pytest.mark.parametrize("t,x", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_generator_form_matches_list_form_on_grids(t, x):
    # every defect cell, every variant: identical reports (witnesses and
    # notes included), and failing witnesses re-check on both forms
    for defects in [()] + [((a, b),) for a in range(t) for b in range(x)]:
        space = gen.minkowski_grid(gen.GridSpec(t, x, defects=defects))
        for variant in ("em", "upper", "lower"):
            loc = S.induced_locale(space, variant)
            assert isinstance(loc.cones.u, L.SubsetCone)
            listed = oracles.list_form_locale(space, variant)
            assert law_dump(loc) == law_dump(listed), (t, x, defects, variant)
            for rep in (O.check_axiom(loc, law) for law in O.ALL_AXIOMS):
                if not rep.ok:
                    assert O.revalidate(loc, rep) and O.revalidate(listed, rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_generator_form_matches_list_form_on_random_spaces(seed):
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(1, 10))
    variant = rng.choice(("em", "upper", "lower"))
    loc = S.induced_locale(space, variant)
    listed = oracles.list_form_locale(space, variant)
    assert law_dump(loc) == law_dump(listed)
    assert (loc.up_map, loc.down_map) == (listed.up_map, listed.down_map)


def test_laws_on_grids_build_no_cone_list_and_run_no_level_scan(monkeypatch):
    # the join lemma of SubsetCone replaces the generator-form comparison
    # of join_failure, and no law reads a full cone list: the only tables
    # built are the half tables of the SubsetCones
    space = gen.minkowski_grid(gen.GridSpec(4, 4))
    full = 1 << space.n
    calls = {"full_table": 0, "tolist": 0}
    subset_table, tolist = L.subset_table, L.SubsetCone.tolist

    def counted_subset_table(unit, rows, op):
        table = subset_table(unit, rows, op)
        calls["full_table"] += len(table) == full
        return table

    def counted_tolist(cone):
        calls["tolist"] += 1
        return tolist(cone)

    monkeypatch.setattr(L, "subset_table", counted_subset_table)
    monkeypatch.setattr(L.SubsetCone, "tolist", counted_tolist)
    for variant in ("em", "upper", "lower"):
        loc = S.induced_locale(space, variant)
        assert all(O.check_axiom(loc, law) for law in ("V", "C-order", "F+", "F-"))
        law_dump(loc)
    assert calls == {"full_table": 0, "tolist": 0}


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 10_000))
def test_join_failure_levels_match_lowest_bit_loop(seed):
    # OR-extensions pass; one changed entry fails late; random maps fail early
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    f = L.powerset_frame(n)
    kind = seed % 3
    if kind == 2:
        t = [rng.randrange(f.m) for _ in f.elements()]
    else:
        b0 = rng.getrandbits(n)
        singles = [rng.getrandbits(n) for _ in range(n)]
        t = [b0 | x for x in oracles.subset_cones_lowest_bit(f.m, singles, singles)[0]]
        if kind == 1:
            t[rng.randrange(f.m)] = rng.randrange(f.m)
    w = O.join_failure(f, t)
    assert w == oracles.join_failure_lowest_bit(f.m, t)
    if kind == 0:
        assert w is None


# -- duality checks against their per-element loops ---------------------------------------


def duality_locale(seed):
    """An induced locale of a random space, a random locale on a random
    (mostly not Boolean) frame, random cones on a powerset (Boolean, so
    they are regular; monads, monotone maps that are not inflationary, or
    arbitrary maps), or regular cones not-not h(not-not U) on a random
    frame.  A third of the time one memoized row is flipped."""
    rng = random.Random(seed)
    style = rng.randrange(4)
    if style == 0:
        variant = rng.choice(["em", "upper", "lower"])
        olx = S.induced_locale(random_topology_space(rng), variant)
    elif style == 1:
        olx = random_locale(rng, random_frame(rng))
    else:
        f = S.OrderedSpace.build(rng.randint(1, 4), [], opens="discrete").frame \
            if style == 2 else random_frame(rng)
        nn = [f.neg(f.neg(u)) for u in f.elements()]
        cones = []
        for _ in range(2):
            h = rng.choice((random_monad, random_monotone_map, random_map))(rng, f)
            cones.append([nn[h[nn[u]]] for u in f.elements()])
        olx = O.ordered_locale_from_monads(O.ConePair(f, *cones), validated=True)
    if rng.random() < 0.3:
        m = olx.frame.m
        olx.rel_rows()[rng.randrange(m)] ^= 1 << rng.randrange(m)
    return olx


def test_unit_check_matches_flag_loops():
    # the pulled-back point masks name the loops' witnesses: 2,500 random
    # topology spaces (T0 or not, often without open cones) and the suite,
    # where bowtie is not T0-ordered
    spaces = [random_topology_space(random.Random(seed)) for seed in range(2500)]
    spaces += [inst for _, inst in gen.standard_suite() if isinstance(inst, S.OrderedSpace)]
    seen = set()
    for space in spaces:
        got, want = D.unit_check(space), oracles.unit_check_loop(space)
        assert (got.verdict, got.witness, got.note, got.details, got.eta) == \
            (want.verdict, want.witness, want.note, want.details, want.eta)
        seen.add((got.details["unit_monotone"], got.details["inverse_monotone"]))
    assert {(False, True), (True, False), (True, True)} <= seen, seen


def transport_class(olx) -> str:
    """Which case of `duality.double_negation_transport` the input is: a
    frame that is not Boolean, cones that are not monotone, monotone cones
    whose rows miss the cone premise, or the identity (the transported
    cones are the ambient ones)."""
    f = olx.frame
    if derived.double_negation_frame(f)[0] is not f:
        return "not Boolean"
    if not O._cones_monotone(olx):
        return "not monotone"
    up, down = olx.up_map, olx.down_map
    rows = O.cone_rows(f, up, down)
    if all(rows[u] >> up[u] & 1 and rows[down[u]] >> u & 1 for u in f.elements()):
        return "identity"
    return "premise fails"


def test_counit_and_transport_match_loop_oracles():
    # full reports and refusals equal those of the per-element loops and
    # of the transport by `oracles.order_from_map`, in all four input
    # classes of the transport
    routes = {"identity": 0, "not monotone": 0, "premise fails": 0, "not Boolean": 0}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000))
    def check(seed):
        assert report_outcome(D.counit_check, duality_locale(seed)) == \
            report_outcome(oracles.counit_check_loop, duality_locale(seed))
        olx = duality_locale(seed)
        got = report_outcome(D.double_negation_transport, olx)
        assert got == report_outcome(oracles.double_negation_transport_general,
                                     duality_locale(seed))
        if got[0] != "RegularConesRequired":
            routes[transport_class(olx)] += 1

    check()
    assert all(routes.values()), routes


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_point_data_matches_per_element_loop(seed):
    # the point order read at the join-irreducibles, with monotone cones
    # and with their envelopes; a quarter of the locales are on frames
    # whose ids do not extend the order
    olx = duality_locale(seed)
    if seed % 4 == 0:
        rng = random.Random(seed)
        olx = random_locale(rng, shuffled_frame(rng, random_frame(rng)))
    assert D._point_data(olx) == oracles.point_data_loop(olx, olx.frame.primes())


# -- generator lemmas against their definitional scans --------------------------------------


def random_relation_rows(rng, n):
    """Successor rows on n points: random pairs, then made reflexive,
    irreflexive, transitive (a preorder) or left as they are."""
    p = rng.uniform(0.05, 0.6)
    rows = [mask_of_iter(j for j in range(n) if rng.random() < p) for _ in range(n)]
    style = rng.randrange(4)
    if style == 0:
        rows = [r | 1 << i for i, r in enumerate(rows)]
    elif style == 1:
        rows = [r & ~(1 << i) for i, r in enumerate(rows)]
    elif style == 2:
        rows = L.transitive_closure_rows(rows)
    return rows


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_relation_ideals_match_enumeration(seed):
    # the greatest-member candidates pred+[z] against the 2^n scan, and
    # both past-semi-full witnesses against their loops
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    rows = random_relation_rows(rng, n)
    got = [i.mask for i in D.triangle_ideals(n, rows)]
    assert got == oracles.relation_ideals_by_enumeration(n, rows), rows
    rep = D.is_past_semi_full(n, rows)
    want = oracles.past_semi_full_loop(n, rows)
    assert (rep.ok, getattr(rep, "witness_i", None), getattr(rep, "witness_ii", None)) == \
        (want == (None, None), *want)


def shuffled_frame(rng, f):
    """f with its element ids permuted, rebuilt by `oracles.frame_from_down_rows`:
    the ids no longer extend the order."""
    perm = list(f.elements())
    rng.shuffle(perm)
    rows = [0] * f.m
    for i in f.elements():
        rows[perm[i]] = mask_of_iter(perm[j] for j in bits(f.down_row(i)))
    return oracles.frame_from_down_rows(rows)


def ids_extend_order(f):
    return all(j >= i for i in f.elements() for j in bits(f.up_row(i)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_atoms_and_booleanness_match_definitions(seed):
    # atoms are the minimal join-irreducibles; atomistic and Boolean both
    # mean that J is an antichain
    rng = random.Random(seed)
    f = random_topology_space(rng).frame if rng.random() < 0.5 else random_frame(rng)
    if rng.random() < 0.5:
        f = shuffled_frame(rng, f)
    assert f.atoms() == oracles.atoms_by_definition(f)
    assert f.is_atomistic() == oracles.is_atomistic_by_definition(f)
    assert f.is_boolean() == oracles.is_boolean_by_definition(f) == f.is_atomistic()


def random_sublattice(rng, f):
    """A few random elements of f closed under its meets and joins, and
    the subframe on them."""
    ids = {rng.randrange(f.m) for _ in range(rng.randint(1, 4))}
    while True:
        more = {g(a, b) for a in ids for b in ids for g in (f.meet, f.join)} - ids
        if not more:
            return derived.subframe(f, ids, oracles.join_irreducibles_of(f, ids))[0]
        ids |= more


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_primes_match_the_quantifier_form_in_order(seed):
    # Birkhoff's bijection against the definition, order included: point
    # order (descending ids) on powersets, id order on every other frame
    rng = random.Random(seed)
    style = seed % 5
    if style == 0:      # discrete, or generated by random opens, often not T0
        f = random_topology_space(rng).frame
    elif style == 1:
        n = rng.randint(1, 5)
        f = L.frame_from_topology(n, [0, (1 << n) - 1])
    elif style == 2:
        f = random_frame(rng)
    elif style == 3:
        f = shuffled_frame(rng, random_frame(rng))
    else:
        f = random_sublattice(rng, random_frame(rng))
    want = oracles.primes_by_definition(f)
    assert f.primes() == (want[::-1] if f.kind == "powerset" else want)


def test_points_on_the_16_point_down_set_document_builds_only_irreducible_up_rows():
    # the primes and pt(U) are read by Birkhoff's bijection: of the 6,561
    # opens of eight two-point chains, none gets an up row, the 16
    # join-irreducibles included
    space = S.OrderedSpace.build(16, [(2 * i, 2 * i + 1) for i in range(8)], opens=[
        sum(c) for c in itertools.product(*[(0, 1 << 2 * i, 3 << 2 * i) for i in range(8)])])
    olx = S.induced_locale(space, "em")
    assert D.points_space(olx).n == 16 and D.counit_check(olx).ok
    f = space.frame
    assert f.m == 6561
    assert f._up_rows is None
    assert len(f.coprimes()) == 16


def assert_base_checks_match_least_non_join(loc):
    """`is_convex_locale` and `is_biframe` against `oracles.least_non_join`:
    equal verdicts; equal witnesses where ids extend the order, and
    elsewhere a join-irreducible that is no join of the generators."""
    f = loc.frame
    convex = oracles.convex_generators(loc)
    cases = [(derived.is_convex_locale(loc), convex)]
    cj = O.check_axiom(loc, "C-join")
    if cj.ok:
        cases.append((derived.is_biframe(loc), oracles.box_generators(loc)))
    else:
        assert derived.is_biframe(loc).witness == cj.witness
    extends = ids_extend_order(f)
    for rep, gens in cases:
        want = oracles.least_non_join(f, gens)
        assert rep.ok == (want is None), (rep.law, f)
        if rep.ok:
            continue
        (j,) = rep.witness
        if extends:
            assert j == want
        else:
            assert j in f.coprimes() and not gens >> j & 1
            assert functools.reduce(f.join, bits(f.down_row(j) & gens), f.bottom) != j
    if cases[0][0].ok:
        assert cases[0][0].note == f"exact: the {len(f.coprimes())} join-irreducibles are convex"


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_convex_and_biframe_match_least_non_join(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        loc = S.induced_locale(random_topology_space(rng), rng.choice(["em", "upper", "lower"]))
    else:
        f = random_frame(rng)
        loc = random_locale(rng, shuffled_frame(rng, f) if rng.random() < 0.5 else f)
    assert_base_checks_match_least_non_join(loc)


def test_convex_and_biframe_match_least_non_join_on_suite():
    for name, inst in gen.standard_suite():
        for variant in ("em", "upper", "lower"):
            loc = inst if isinstance(inst, O.OrderedLocale) else S.induced_locale(inst, variant)
            if loc.frame.m <= 512:
                assert_base_checks_match_least_non_join(loc)


# -- relation locales against their rows taken as they are ----------------------------


def test_relation_locales_match_rows_without_record(monkeypatch):
    # a constructed relation locale answers V from its construction record,
    # knows its cones monotone and, where ids extend the order, reads the
    # cones as greatest members; the rows taken as they are, with none of
    # that, give the same 11 reports and the joins of the rows as cones.
    # Both cone routes are taken, on saturated and unsaturated relations.
    routes = {"greatest members": 0, "joins of rows": 0}
    saturated = {True: 0, False: 0}
    joins = [0]
    cones_from_rows = O.cones_from_rows

    def counted(*args):
        joins[0] += 1
        return cones_from_rows(*args)

    monkeypatch.setattr(O, "cones_from_rows", counted)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def check(seed):
        rng = random.Random(seed)
        style = rng.randrange(4)
        if style == 0:
            f = random_topology_space(rng).frame
        elif style == 1:
            f = L.powerset_frame(rng.randint(1, 5))
        else:
            f = random_frame(rng)
            if style == 3:
                f = shuffled_frame(rng, f)
        pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
        joins[0] = 0
        olx = O.ordered_locale_from_relation(f, pairs)
        routes["joins of rows" if joins[0] else "greatest members"] += 1
        assert joins[0] == (not f.ids_extend_order())
        assert ids_extend_order(f) or not f.ids_extend_order()
        saturated["join_saturated" in olx.meta] += 1
        plain = rows_locale(f, olx.rel_rows())
        assert (olx.up_map, olx.down_map) == (plain.up_map, plain.down_map), pairs
        for law in O.ALL_AXIOMS:
            assert report_outcome(lambda x: O.check_axiom(x, law), olx) == \
                report_outcome(lambda x: O.check_axiom(x, law), plain), (law, pairs)

    check()
    assert all(routes.values()) and all(saturated.values()), (routes, saturated)


# -- word-parallel transpose, cone frames and (bullet) at the generators ----------------


def test_transpose_rows_matches_per_bit_oracle():
    # every size up to 140 at a density cycling through 0 to 1, the sizes
    # next to powers of two at every density, the largest packed matrix,
    # tiled ones just above it and above 1,024 rows, and the subset order
    # of a 10-point powerset (tiles above the diagonal empty): the same
    # columns as the per-bit oracle, in a fresh list
    rng = random.Random(28)
    densities = (0, 0.02, 0.1, 0.5, 0.9, 1)
    cases = [(n, densities[n % 6]) for n in range(141)]
    cases += [(n, d) for k in range(1, 8) for n in ((1 << k) - 1, 1 << k, (1 << k) + 1)
              for d in densities]
    cases += [(L.PACK_ROWS, 0.05), (L.PACK_ROWS + 1, 0.05), (1100, 0.05)]
    matrices = [[mask_of_iter(j for j in range(n) if rng.random() < d) for _ in range(n)]
                for n, d in cases]
    matrices.append([mask_of_iter(j for j in range(1024) if j & i == j) for i in range(1024)])
    for rows in matrices:
        n, kept = len(rows), list(rows)
        got = L.transpose_rows(rows)
        assert got == oracles.transpose_by_bits(rows), n
        assert got is not rows and rows == kept


def grid_locales(sizes):
    """Induced locales of Minkowski grids, defect-free and with each defect
    cell, in every variant."""
    for t, x in sizes:
        for defects in [()] + [((a, b),) for a in range(t) for b in range(x)]:
            space = gen.minkowski_grid(gen.GridSpec(t, x, defects=defects))
            for variant in ("em", "upper", "lower"):
                yield (t, x, defects, variant), S.induced_locale(space, variant)


def cone_frame_outcome(build, *args):
    """A cone frame as (inclusion, meta, bottom, top, down rows), or its
    refusal as (type, message)."""
    try:
        sub, incl = build(*args)
    except OrdlocError as e:
        return type(e).__name__, str(e)
    incl = getattr(incl, "preimage", incl)
    return incl, sub.meta, sub.bottom, sub.top, [sub.down_row(i) for i in sub.elements()]


def assert_cone_frames_match_listed_images(key, olx):
    """Both cone frames, or their refusals, against the listed images and
    `subframe_by_pairs`."""
    for name, label, build in (("u", "futures", derived.futures_frame),
                               ("d", "pasts", derived.pasts_frame)):
        assert cone_frame_outcome(build, olx) == \
            cone_frame_outcome(oracles.cone_frame_by_list, olx, name, label), (key, label)


def bullet_route(olx) -> str:
    cones, f = olx.cones, olx.frame
    if cones.join_failure("u") is not None or cones.join_failure("d") is not None:
        return "every element"
    if D.check_axiom_P(olx).ok:
        return "generators, pass"
    return "generators, fail" if f.ids_extend_order() else "generators, rescan"


def assert_bullet_matches_scans(key, olx):
    """(bullet) and the point-cone inclusions against the per-element scans,
    report for report."""
    rows, pms = D._point_data(olx)
    pcones = oracles.point_cones_loop(rows, pms)
    got, want = D.check_axiom_P(olx), oracles.bullet_scan(olx, pcones)
    assert (got.verdict, got.witness, got.note) == (want.verdict, want.witness, want.note), key
    assert D.point_cone_inclusions_hold(olx) == oracles.cone_inclusions_scan(olx, pcones), key


def test_cone_frames_and_bullet_match_list_oracles_on_grids():
    # M22-M34 with every defect cell and M44 defect-free and with a corner
    # and a middle cell, in every variant
    for key, olx in grid_locales([(2, 2), (2, 3), (3, 3), (3, 4)]):
        assert_cone_frames_match_listed_images(key, olx)
        assert_bullet_matches_scans(key, olx)
    m44 = [gen.minkowski_grid(gen.GridSpec(4, 4, defects=d)) for d in ((), ((0, 0),), ((1, 2),))]
    for space in m44:
        for variant in ("em", "upper", "lower"):
            olx = S.induced_locale(space, variant)
            assert_cone_frames_match_listed_images((space.name, variant), olx)
            assert_bullet_matches_scans((space.name, variant), olx)


def test_cone_frames_and_bullet_match_list_oracles_on_random_locales():
    # the random duality locales, and random locales on frames whose ids
    # do not extend the order, so a failing generator needs the rescan;
    # every route of `duality._deciding` is taken
    routes = dict.fromkeys(("every element", "generators, pass", "generators, fail",
                            "generators, rescan"), 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def check(seed):
        rng = random.Random(seed)
        if rng.random() < 0.6:
            olx = duality_locale(seed)
        else:
            olx = random_locale(rng, shuffled_frame(rng, random_frame(rng)))
        assert_cone_frames_match_listed_images(seed, olx)
        assert_bullet_matches_scans(seed, olx)
        routes[bullet_route(olx)] += 1

    check()
    assert all(routes.values()), routes


# -- the duality layer at bottom and J ----------------------------------------------


def pt_test_frame(rng):
    """A random topology (T0 or not) or `random_frame`, as it is, shuffled
    into a down-row frame whose ids do not extend the order, or replaced
    by a subframe of it: its regular elements or a futures frame."""
    sp = random_topology_space(rng)
    f = sp.frame if rng.random() < 0.5 else random_frame(rng)
    style = rng.randrange(4)
    if style == 1:
        return shuffled_frame(rng, f)
    if style == 2:
        return derived.double_negation_frame(f)[0]
    if style == 3:
        olx = S.induced_locale(sp, "em")
        if O.check_axiom(olx, "C-join").ok:
            return derived.futures_frame(olx)[0]
    return f


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100_000))
def test_pt_masks_match_rows_above_oracle(seed):
    # pt(U) of the frame's primes by Birkhoff's bijection, the carriers
    # renamed to prime indices (the identity on powersets), equals its
    # definition through `rows_above` and the per-element quantifier
    rng = random.Random(seed)
    f = pt_test_frame(rng)
    primes = f.primes()
    full = (1 << len(primes)) - 1
    got = D.pt_masks(f)
    # one value per element: the primes, then top, which every x is below
    above = L.rows_above(f, primes + [f.top] * (f.m - len(primes)))
    assert got == [full & ~r for r in above]
    assert got == [oracles.pt_mask(f, primes, u) for u in f.elements()]


def test_pt_masks_of_the_primes_read_no_rows(monkeypatch):
    # on powersets, topologies and down-row frames alike
    frames = [L.powerset_frame(4), gen.suite_instance("m22").frame,
              L.frame_from_topology(3, [0, 1, 3, 7]), L.frame_from_topology(2, [0, 3])]
    frames.append(derived.subframe(frames[2], frames[2].elements(), frames[2].coprimes())[0])
    calls = count_calls(monkeypatch, ((L, "rows_above"), (L.FiniteFrame, "up_row"),
                                      (L.FiniteFrame, "leq")))
    pms = [D.pt_masks(f) for f in frames]
    assert calls == {"rows_above": 0, "up_row": 0, "leq": 0}
    assert pms[0] == list(range(16)) and pms[3] == [0, 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_fold_matches_the_per_key_fold(seed):
    # `lattice.fold_rows` reads each key from k-bit chunk tables: it equals the
    # fold of the rows over each key's bits, OR from a nonzero unit and AND
    # from the full one, with no keys, one table (2^n <= 2|keys|) or many
    # chunks, on 0 to 45 rows
    rng = random.Random(seed)
    n = rng.choice([0, 1, rng.randint(2, 12), rng.randint(13, 45)])
    width = rng.randint(1, 64)
    rows = [rng.getrandbits(width) for _ in range(n)]
    keys = [rng.getrandbits(n) for _ in range(rng.choice([0, 1, rng.randint(2, 300)]))]
    if n <= 10 and rng.random() < 0.3:
        keys = list(range(1 << n))
    for op, unit in ((operator.or_, rng.getrandbits(width) | 1), (operator.and_, (1 << width) - 1)):
        want = [functools.reduce(op, (rows[i] for i in bits(s)), unit) for s in keys]
        assert L.fold_rows(rows, op, unit, keys) == want, (n, len(keys), op)


def test_pt_masks_refuse_powersets_above_subset_limit():
    # pt(U) of every subset is U itself, listed only up to SUBSET_LIMIT
    with pytest.raises(FrameTooLarge, match=r"^element rows on 2097152 subsets exceed 1048576$"):
        D.pt_masks(L.powerset_frame(21))


def generator_cone_locale(f, values):
    """The join-preserving future cone with c({b}) = values[b] on a powerset,
    and the identity as its past cone."""
    up = [L.or_rows(values, s) for s in f.elements()]
    return O.ordered_locale_from_monads(O.ConePair(f, up, list(f.elements())), validated=True)


def ideal_points_outcome(fn, olx):
    """The four lists and the negation flag, or the refusal as (type, message)."""
    try:
        ips = fn(olx)
    except OrdlocError as e:
        return type(e).__name__, str(e)
    return tuple(getattr(ips, name) for name in D.IdealPointSet.__slots__)


def test_cone_frame_inclusion_lemma_and_its_fallback(monkeypatch):
    # a closure cone's frame is a subframe by the inclusion lemma of
    # `derived._cone_frame`, with no validate; a join-preserving cone that
    # is not inflationary (a swap of two points, a projection) or not
    # idempotent is validated, and its frame, refusal and ideal points are
    # those of the listed frame
    f = L.powerset_frame(3)
    cases = {"closure": [0b011, 0b010, 0b100], "swap": [0b010, 0b001, 0b100],
             "projection": [0b001, 0, 0], "not idempotent": [0b011, 0b110, 0b110]}
    validated = {}
    for name, values in cases.items():
        olx = generator_cone_locale(f, values)
        calls = count_calls(monkeypatch, ((derived.FrameMap, "validate"),))
        got = cone_frame_outcome(derived.futures_frame, olx)
        validated[name] = calls["validate"]
        monkeypatch.undo()
        assert got == cone_frame_outcome(oracles.cone_frame_by_list, olx, "u", "futures"), name
        assert ideal_points_outcome(D.ideal_points, generator_cone_locale(f, values)) == \
            ideal_points_outcome(oracles.ideal_points_listed, olx), name
        validated[name, "refused"] = got[0] == "NotAFrameMap"
    assert validated == {"closure": 0, "swap": 1, "projection": 1, "not idempotent": 1,
                         ("closure", "refused"): False, ("swap", "refused"): False,
                         ("projection", "refused"): True,
                         ("not idempotent", "refused"): True}


def test_ideal_points_match_listed_frames_on_grids():
    # the upper and lower variants have a constant-top cone, whose frame
    # adjoins the bottom
    adjoined = 0
    for key, olx in grid_locales([(2, 2), (2, 3), (3, 3)]):
        assert ideal_points_outcome(D.ideal_points, olx) == \
            ideal_points_outcome(oracles.ideal_points_listed, olx), key
        adjoined += key[3] != "em"
    assert adjoined


def test_ideal_points_match_listed_frames_on_random_locales():
    # the generator IPs, IFs and points (`duality._cone_frame_points`), or
    # the refusal, against those of the listed cone frames; frames with an
    # adjoined bottom and refusals of each kind come up
    seen = {"adjoined": 0, "answered": 0, "refused": 0}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100_000))
    def check(seed):
        rng = random.Random(seed)
        if rng.random() < 0.6:
            olx = duality_locale(seed)
        else:
            olx = random_locale(rng, shuffled_frame(rng, random_frame(rng)))
        want = ideal_points_outcome(oracles.ideal_points_listed, olx)
        assert ideal_points_outcome(D.ideal_points, olx) == want, seed
        f = olx.frame
        seen["refused" if isinstance(want[0], str) else "answered"] += 1
        seen["adjoined"] += not isinstance(want[0], str) and \
            (olx.up(f.bottom) != f.bottom or olx.down(f.bottom) != f.bottom)

    check()
    assert all(seen.values()), seen


def test_ideal_points_build_no_cone_frame(m33, monkeypatch):
    # the README tour's ideal points on M33 read the generator values only;
    # the cone frames it builds after them skip validate (closure cones)
    olx = S.induced_locale(m33, "em")
    calls = count_calls(monkeypatch, ((derived, "subframe"), (derived, "_cone_frame"),
                                      (derived.FrameMap, "validate")))
    ips = D.ideal_points(olx)
    assert calls == {"subframe": 0, "_cone_frame": 0, "validate": 0}
    assert (len(ips.ips), len(ips.ifs), ips.negation_bijection) == (9, 9, True)
    derived.futures_frame(olx), derived.pasts_frame(olx)
    assert calls == {"subframe": 2, "_cone_frame": 2, "validate": 0}


def test_cone_frames_of_40_point_discrete_space_refuse_before_the_closure():
    # each of the 40 generator values holds a point no other one holds, so
    # the frame has at least 2**40 elements: refused with under 1 MB
    # allocated, where the closure would build 2**20 sets first
    import tracemalloc
    olx = S.induced_locale(S.OrderedSpace.build(40, []), "em")
    for build in (derived.futures_frame, derived.pasts_frame):
        tracemalloc.start()
        with pytest.raises(FrameTooLarge, match="exceeds 1048576 elements"):
            build(olx)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, peak


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_cone_maps_on_listed_opens_match_interior_cones(seed):
    # `ospace._cone` reads point-set cones from SubsetCone tables on
    # listed opens; the values and the join flags match the interiors of
    # the unions of point cones
    rng = random.Random(seed)
    sp = random_topology_space(rng)
    if sp.frame.kind == "powerset":
        return
    (up, up_joins), (down, down_joins) = S._cone(sp, "u"), S._cone(sp, "d")
    assert (list(up), list(down)) == oracles.interior_cone_maps(sp)
    f = sp.frame
    masks = [f.mask_of(u) for u in f.elements()]
    open_values = {"u": all(f.has_mask(sp.up_mask(e)) for e in masks),
                   "d": all(f.has_mask(sp.down_mask(e)) for e in masks)}
    assert {"u": up_joins, "d": down_joins} == open_values
