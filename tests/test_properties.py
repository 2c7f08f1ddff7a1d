"""Cross-route stress tests on randomly generated instances.

The frame-level slot analysis behind the causal coverage is checked here
against an independent point-level reimplementation (bridge-chain
reachability over raw points, no frames involved), and the axiom checker's
theorem routes are checked against direct scans.
"""

import random
from collections import deque

from hypothesis import given, settings, strategies as st

from ordloc import coverage as C, duality as D, gen, lattice as L, olocale as O, ospace as S
from ordloc.errors import NotAMonad
from ordloc.lattice import bits, mask_of_iter


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
    rows, unresolved = C.coverage_rows(loc22, "past")
    assert not unresolved
    for a in f.elements():
        for u in f.elements():
            expect = bridge_cover_oracle(m22, f.mask_of(a), f.mask_of(u))
            assert bool(rows[u] >> a & 1) == expect, (a, u)


def test_coverage_matches_pointwise_oracle_m33(m33, loc33):
    f = loc33.frame
    rows, unresolved = C.coverage_rows(loc33, "past")
    assert not unresolved
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
    rows, unresolved = C.coverage_rows(loc, "past")
    assert not unresolved
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
    rows, _ = C.coverage_rows(loc, "past")
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
    rows, _ = C.coverage_rows(loc, "past")
    for a in f.elements():
        for u in f.elements():
            v = C.covers_below(loc, a, u)
            assert v.status in ("yes", "no")
            assert (v.status == "yes") == bool(rows[u] >> a & 1), (a, u)


# -- axiom checker cross-routes ---------------------------------------------------------


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
    points, or a table frame copied from one."""
    n = rng.randint(1, 4)
    kind = rng.choice(("powerset", "mask", "table"))
    if kind == "powerset":
        return S.OrderedSpace.build(n, [], opens="discrete").frame
    gens_ = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
    f = L.frame_from_topology(n, L.close_family_under_union_intersection(n, gens_))
    return f if kind == "mask" else L.subframe(f, f.elements())[0]


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
def test_preserves_binary_joins_matches_all_pairs(seed):
    rng = random.Random(seed)
    f = random_frame(rng)
    t = random_map(rng, f)
    bad = [(a, b) for a in f.elements() for b in f.elements()
           if t[f.join(a, b)] != f.join(t[a], t[b])]
    assert O.preserves_binary_joins(f, t) == (not bad), (f, t)
    w = O.join_failure(f, t)
    assert (w is None) == (not bad)
    if w is not None:
        a, b = w
        assert t[f.join(a, b)] != f.join(t[a], t[b])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_and_cone_join_match_full_scans(seed):
    rng = random.Random(seed)
    f = random_frame(rng)
    if rng.random() < 0.5:
        up, down = random_map(rng, f), random_map(rng, f)
    else:
        up, down = random_monad(rng, f), random_monad(rng, f)
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
