"""Ordered spaces: cones, separation, convexity, chain coverage."""

import random

from hypothesis import given, settings, strategies as st

from ordloc import gen, lattice as L, olocale as O, ospace as S
from ordloc.lattice import bits, mask_of_iter

from conftest import count_calls, grid
import oracles


def pmask(space, *pts):
    wanted = {f"({t},{x})" for (t, x) in pts}
    return mask_of_iter(i for i, l in enumerate(space.labels) if l in wanted)


# -- cones ------------------------------------------------------------------------


def test_up_cone_m33(m33):
    up = m33.up_mask(pmask(m33, (0, 1)))
    # |dx| <= dt scan, written out independently
    expect = {(0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}
    assert up == pmask(m33, *expect)


def test_cone_of_empty(m33):
    assert m33.up_mask(0) == 0
    assert m33.down_mask(0) == 0


def test_equality_order_cones_are_identity():
    sp = gen.suite_instance("discrete2")
    for mask in range(4):
        assert sp.up_mask(mask) == mask == sp.down_mask(mask)


def test_cone_monad_laws_pointwise(m33):
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1 << m33.n)
        b = rng.randrange(1 << m33.n)
        ua = m33.up_mask(a)
        assert a & ~ua == 0
        assert m33.up_mask(ua) == ua
        if a & ~b == 0:
            assert ua & ~m33.up_mask(b) == 0
        assert m33.up_mask(a | b) == ua | m33.up_mask(b)


# -- open cones ----------------------------------------------------------------------


def test_open_cones(m33, bowtie, non_oc):
    assert S.has_open_cones(m33).ok
    assert S.has_open_cones(bowtie).ok
    rep = S.has_open_cones(non_oc)
    assert not rep.ok
    fid, direction = rep.witness
    assert non_oc.frame.mask_of(fid) == mask_of_iter([0])  # the open {*}
    assert direction == "up"


# -- induced locales -----------------------------------------------------------------


def test_induced_em_matches_pointwise_definition(m22):
    loc = S.induced_locale(m22, "em")
    f = m22.frame
    for u in f.elements():
        for v in f.elements():
            um, vm = f.mask_of(u), f.mask_of(v)
            em = (vm & ~m22.up_mask(um) == 0) and (um & ~m22.down_mask(vm) == 0)
            assert loc.related(u, v) == em


def test_induced_em_on_m33_samples(m33, loc33):
    f = m33.frame
    rng = random.Random(3)
    for _ in range(4000):
        u, v = rng.randrange(f.m), rng.randrange(f.m)
        um, vm = f.mask_of(u), f.mask_of(v)
        em = (vm & ~m33.up_mask(um) == 0) and (um & ~m33.down_mask(vm) == 0)
        assert loc33.related(u, v) == em


def test_em_example_on_m33(m33, loc33):
    u = grid(m33, (0, 1))
    v = grid(m33, (1, 0), (1, 1), (1, 2))
    assert loc33.related(u, v)
    assert loc33.related(u, u)


def test_incomparable_singletons_not_related():
    sp = gen.suite_instance("discrete2")
    loc = S.induced_locale(sp, "em")
    a, b = sp.frame.id_of_mask(1), sp.frame.id_of_mask(2)
    assert not loc.related(a, b)


def test_upper_lower_variants(m33):
    up = S.induced_locale(m33, "upper")
    low = S.induced_locale(m33, "lower")
    f = m33.frame
    for u in (grid(m33, (1, 1)), grid(m33, (0, 0), (2, 2))):
        assert up.down_map[u] == f.top        # lower cone trivial in upper order
        assert low.up_map[u] == f.top
        assert up.up_map[u] == low.down_map[u] or True
    # localic cones in a space: interiors of pointwise cones
    for u in f.elements():
        um = f.mask_of(u)
        assert up.up_map[u] == f.interior(m33.up_mask(um))
        assert low.down_map[u] == f.interior(m33.down_mask(um))


def test_localic_cones_are_interiors_without_open_cones(non_oc):
    loc = S.induced_locale(non_oc, "em")
    f = non_oc.frame
    for u in f.elements():
        um = f.mask_of(u)
        assert f.mask_of(loc.up_map[u]) == f.mask_of(f.interior(non_oc.up_mask(um)))
        assert f.mask_of(loc.down_map[u]) == \
            f.mask_of(f.interior(non_oc.down_mask(um)))


def test_open_cones_take_no_interior_and_no_join_fold(monkeypatch):
    # every cone of a down-set is a down-set, so on the 729 down-sets of the
    # vertical 2x6 grid each cone value is open: no interior is taken and
    # both list cones carry the join certificate in every variant
    g = gen.vertical_grid(2, 6)
    opens = [s for s in range(1 << g.n) if all(g.down[p] & ~s == 0 for p in bits(s))]
    sp = S.OrderedSpace.build(g.n, [(p, q) for p in range(g.n) for q in bits(g.up[p])],
                              opens=opens)
    assert sp.frame.kind == "mask" and sp.frame.m == 729
    calls = count_calls(monkeypatch, ((L.FiniteFrame, "interior"), (L, "_fold_failure")))
    for v in ("em", "upper", "lower"):
        assert S.induced_locale(sp, v).cones.joins == {"u": None, "d": None}
    assert calls == {"interior": 0, "_fold_failure": 0}


def test_cone_with_a_value_that_is_not_open_keeps_interior_and_fold(monkeypatch):
    # the up cone of {*} is {*, 0}, not open: the up cone takes its interior
    # and is folded; the down cone's values are all open
    non_oc = gen.non_OC_example()
    calls = count_calls(monkeypatch, ((L.FiniteFrame, "interior"), (L, "_fold_failure")))
    loc = S.induced_locale(non_oc, "em")
    assert S._cone_maps(non_oc)[2] == {"d": None}
    assert calls == {"interior": 1, "_fold_failure": 1}
    assert loc.cones.join_failure("u") == L.join_failure(non_oc.frame, loc.up_map)


# -- separation -----------------------------------------------------------------------


def test_T0_and_sober(m33, bowtie):
    assert S.is_T0(m33) and S.is_sober(m33)
    assert S.is_T0_ordered(m33).ok
    assert S.is_T0(bowtie) and S.is_sober(bowtie)
    rep = S.is_T0_ordered(bowtie)
    assert not rep.ok
    assert {bowtie.labels[p] for p in rep.witness} == {"x", "y"}


def test_codiscrete_not_T0():
    sp = gen.suite_instance("codiscrete2")
    assert not S.is_T0(sp)
    assert not S.is_sober(sp)


def test_sober_iff_T0_oracle_on_suite():
    # finite shortcut used only as an oracle here
    for name, inst in gen.standard_suite():
        if isinstance(inst, S.OrderedSpace) and inst.frame.m <= 1024:
            assert S.is_sober(inst) == S.is_T0(inst), name


def test_specialisation_order(bowtie):
    rows = S.specialisation_order(bowtie.frame)
    lbl = {l: i for i, l in enumerate(bowtie.labels)}
    x, y, z, t = lbl["x"], lbl["y"], lbl["z"], lbl["t"]
    assert rows[x] >> z & 1 and rows[x] >> t & 1
    assert rows[y] >> z & 1 and rows[y] >> t & 1
    assert rows[z] == 1 << z
    # discrete: equality; codiscrete: total
    disc = gen.suite_instance("discrete2")
    assert S.specialisation_order(disc.frame) == [1, 2]
    codisc = gen.suite_instance("codiscrete2")
    assert S.specialisation_order(codisc.frame) == [3, 3]


# -- convexity ------------------------------------------------------------------------


def test_pointwise_convexity_m33(m33):
    assert S.is_pointwise_convex(m33, pmask(m33, (0, 0), (1, 0), (1, 1), (2, 0)))
    assert not S.is_pointwise_convex(m33, pmask(m33, (0, 0), (2, 0)))
    assert S.is_pointwise_convex(m33, (1 << m33.n) - 1)


def test_bowtie_open_not_convex(bowtie):
    lbl = {l: i for i, l in enumerate(bowtie.labels)}
    open_xzt = mask_of_iter([lbl["x"], lbl["z"], lbl["t"]])
    assert not S.is_pointwise_convex(bowtie, open_xzt)  # z <= y <= t escapes


def test_convex_space_reports(m33, bowtie):
    assert S.is_convex_space(m33).ok
    assert not S.is_convex_space(bowtie).ok


def test_convex_space_reads_neighbourhoods_above_4096_opens():
    # opens: every S with 0 in S => 1 in S (6,144 of them on 13 points),
    # order 0 <= 2 <= 1.  {0} is not open, and N(0) = {0,1} misses 2: it
    # is the least open that is not a union of convex opens, as on 6 points
    for n in (6, 13):
        opens = [s for s in range(1 << n) if not (s & 1 and not s & 2)]
        sp = S.OrderedSpace.build(n, [(0, 2), (2, 1)], opens=opens)
        rep = S.is_convex_space(sp)
        assert (rep.verdict, rep.witness) == ("fail", (sp.frame.id_of_mask(0b11),)), n
        if n == 6:
            assert oracles.convex_space_loop(sp).witness == rep.witness


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_convex_space_matches_union_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    opens = "discrete" if rng.random() < 0.2 else oracles.close_family_under_union_intersection(
        n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))])
    sp = S.OrderedSpace.build(n, pairs, opens=opens)
    rep, want = S.is_convex_space(sp), oracles.convex_space_loop(sp)
    assert (rep.verdict, rep.witness) == (want.verdict, want.witness), (pairs, opens)


def test_convex_space_iff_convex_locale_with_open_cones(m22, bowtie):
    for sp in (m22, bowtie, gen.suite_instance("vertical33")):
        if not S.has_open_cones(sp).ok:
            continue
        loc = S.induced_locale(sp, "em")
        assert S.is_convex_space(sp).ok == O.is_convex_locale(loc).ok, sp.name


# -- chain coverage --------------------------------------------------------------------


def test_chain_cover_row0(m33):
    row0 = pmask(m33, (0, 0), (0, 1), (0, 2))
    u = pmask(m33, (2, 1))
    assert S.chain_covers_below(m33, row0, u).ok


def test_chain_cover_witness(m33):
    a = pmask(m33, (0, 0), (0, 2))
    u = pmask(m33, (1, 0))
    rep = S.chain_covers_below(m33, a, u)
    assert not rep.ok
    chain = [m33.labels[p] for p in rep.witness]
    assert chain == ["(0,1)", "(1,0)"]


def test_chain_cover_self(m33):
    a = pmask(m33, (1, 1))
    assert S.chain_covers_below(m33, a, a).ok


def test_chain_cover_precondition(m33):
    a = pmask(m33, (2, 2))     # not in the past of (0,0)
    u = pmask(m33, (0, 0))
    rep = S.chain_covers_below(m33, a, u)
    assert not rep.ok and "precondition" in rep.note


def test_pointwise_domains(m33):
    row0 = pmask(m33, (0, 0), (0, 1), (0, 2))
    assert S.pointwise_domain_of_dependence(m33, row0).mask == (1 << m33.n) - 1
    a = pmask(m33, (0, 0), (0, 2))
    assert S.pointwise_domain_of_dependence(m33, a).mask == a
    assert S.pointwise_domain_of_dependence(m33, 0).mask == 0


def test_pointwise_domain_past(m33):
    row2 = pmask(m33, (2, 0), (2, 1), (2, 2))
    res = S.pointwise_domain_of_dependence(m33, row2, "past")
    assert res.mask == (1 << m33.n) - 1


def test_vertical_grid_domains():
    v = gen.suite_instance("vertical33")
    col0_bottom = mask_of_iter([i for i, l in enumerate(v.labels) if l == "(0,0)"])
    col0 = mask_of_iter([i for i, l in enumerate(v.labels)
                         if l.startswith("(0,")])
    assert S.pointwise_domain_of_dependence(v, col0_bottom).mask == col0
