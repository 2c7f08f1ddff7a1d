"""Adjunction layer: points, unit/counit, axiom (bullet), ideal points,
relation ideals."""

import io
import itertools

import pytest

from ordloc import cli, derived, duality as D, gen, lattice as L, olocale as O, ospace as S
from ordloc.errors import RegularConesRequired
from ordloc.lattice import bits

from conftest import count_calls, grid, report_outcome
import oracles


# -- points -----------------------------------------------------------------------


def test_filter_prime_round_trip(bowtie):
    f = bowtie.frame
    primes = f.primes()
    pms = D.pt_masks(f)
    for i, pt in enumerate(oracles.locale_points(f)):
        assert oracles.is_completely_prime_filter(f, pt.as_filter)
        assert oracles.filter_to_prime(f, pt.as_filter) == pt.as_prime
        # pt(U) holds point i iff U is in its filter
        assert pt.as_prime == primes[i]
        assert pt.as_filter == L.mask_of_iter(u for u in f.elements() if pms[u] >> i & 1)


def test_points_space_m33(m33, loc33):
    pts = D.points_space(loc33)
    assert pts.n == 9
    assert pts.frame.kind == "powerset"    # discrete topology
    # order isomorphic to the grid order via the unit
    rep = D.unit_check(m33)
    eta = rep.eta
    for x in range(m33.n):
        for y in range(m33.n):
            assert m33.leq_points(x, y) == pts.leq_points(eta[x], eta[y])


def test_points_space_bowtie(bowtie):
    loc = S.induced_locale(bowtie, "em")
    pts = D.points_space(loc)
    assert pts.n == 4
    rep = D.unit_check(bowtie)
    eta = rep.eta
    lbl = {l: i for i, l in enumerate(bowtie.labels)}
    fx, fy = eta[lbl["x"]], eta[lbl["y"]]
    assert pts.leq_points(fx, fy) and pts.leq_points(fy, fx)
    assert not bowtie.leq_points(lbl["x"], lbl["y"])


def test_points_space_inclusion_order_reverses_filters(bowtie):
    inc = O.inclusion_order(bowtie.frame)
    pts = D.points_space(inc)
    filters = [oracles.prime_to_filter(bowtie.frame, p) for p in pts.prime_ids]
    for i in range(pts.n):
        for j in range(pts.n):
            assert pts.leq_points(i, j) == (filters[j] & ~filters[i] == 0)
    # the upper half of the point order is total here: up(U) is the top,
    # which belongs to every filter
    f = bowtie.frame
    for i in range(pts.n):
        for j in range(pts.n):
            assert all(not filters[i] >> u & 1 or
                       filters[j] >> inc.up_map[u] & 1
                       for u in f.elements())


def test_points_space_always_T0_ordered():
    for name, inst in gen.standard_suite():
        olx = inst if isinstance(inst, O.OrderedLocale) \
            else S.induced_locale(inst, "em")
        if olx.frame.m > 1024:
            continue
        pts = D.points_space(olx)   # raises if T0-orderedness fails
        assert derived.is_T0_ordered(pts).ok, name


def run_points_on_m44(monkeypatch, capsys) -> str:
    doc = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(4, 4))))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = cli.main(["points", "-"])
    return f"{code}\n{capsys.readouterr().out}"


def test_points_command_builds_the_point_data_once(monkeypatch, capsys):
    # `ordloc points` reads the point data in points_space and again in
    # counit_check: one copy is built per locale (one `pt_masks`), with the
    # output of a run that builds it for each caller; pt(U) of the frame's
    # own primes is read by Birkhoff's bijection, with no `rows_above`
    calls = count_calls(monkeypatch, ((D, "pt_masks"), (L, "rows_above")))
    out = run_points_on_m44(monkeypatch, capsys)
    assert calls == {"pt_masks": 1, "rows_above": 0}
    point_data = D._point_data

    def unmemoized(olx):
        olx.memo.pop("points", None)
        return point_data(olx)

    monkeypatch.setattr(D, "_point_data", unmemoized)
    assert run_points_on_m44(monkeypatch, capsys) == out
    assert calls == {"pt_masks": 3, "rows_above": 0}


# -- unit --------------------------------------------------------------------------


def test_unit_m33_fixed_point(m33):
    rep = D.unit_check(m33)
    assert rep.ok
    d = rep.details
    assert d["sober"] and d["T0_ordered"] and d["open_cones"] and d["fixed_point"]


def test_unit_bowtie(bowtie):
    rep = D.unit_check(bowtie)
    assert not rep.ok
    d = rep.details
    assert d["sober"] and d["open_cones"] and not d["T0_ordered"]
    assert d["unit_monotone"] and d["inverse_monotone"] is False
    # the witness names the two inseparable filters
    pts = rep.points_space
    i, j = rep.witness
    assert pts.leq_points(i, j) or pts.leq_points(j, i)


def test_unit_codiscrete():
    rep = D.unit_check(gen.suite_instance("codiscrete2"))
    assert not rep.details["T0"]
    assert not rep.details["sober"]


def test_unit_non_oc(non_oc):
    rep = D.unit_check(non_oc)
    assert not rep.details["open_cones"]
    assert not rep.ok


# -- counit and bullet --------------------------------------------------------------


def test_bullet_m33(loc33):
    assert D.check_axiom_P(loc33).ok


def test_bullet_equality(bowtie):
    eq = O.equality_order(bowtie.frame)
    assert D.check_axiom_P(eq).ok
    rep = D.counit_check(eq)
    assert rep.ok and rep.details["spatial"]


def test_bullet_fails_on_constructed_instance(bowtie):
    f = bowtie.frame
    xzt, top = f.id_of_mask(0b1011), f.top
    olx = O.ordered_locale_from_relation(f, [(xzt, top)])
    rep = D.check_axiom_P(olx)
    assert not rep.ok
    # re-check the witness: cones of points disagree with points of cones
    u = rep.witness[0]
    primes = f.primes()
    rows = oracles.point_order_rows(olx, primes)
    pms = D.pt_masks(f)
    pm = pms[u]
    upc = 0
    for i in bits(pm):
        upc |= rows[i]
    dm = [0] * len(primes)
    for i in range(len(primes)):
        for j in bits(rows[i]):
            dm[j] |= 1 << i
    dnc = 0
    for i in bits(pm):
        dnc |= dm[i]
    assert upc != pms[olx.up_map[u]] or dnc != pms[olx.down_map[u]]


def test_bullet_matches_per_element_scans_report_for_report(bowtie):
    # the failing bowtie relation and every duality case: (bullet) read at
    # bottom and J (or scanned) gives the per-element scan's report, and
    # the point-cone inclusions its verdict
    f = bowtie.frame
    failing = O.ordered_locale_from_relation(f, [(f.id_of_mask(0b1011), f.top)])
    verdicts = set()
    for name, olx in [("bowtie/relation", failing)] + [(n, make()) for n, make in duality_cases()]:
        pcones = oracles.point_cones_loop(*D._point_data(olx))
        got, want = D.check_axiom_P(olx), oracles.bullet_scan(olx, pcones)
        assert (got.verdict, got.witness, got.note) == \
            (want.verdict, want.witness, want.note), name
        assert D.point_cone_inclusions_hold(olx) == oracles.cone_inclusions_scan(olx, pcones)
        verdicts.add(got.verdict)
    assert verdicts == {"pass", "fail"}


def test_cone_frames_ideal_points_and_counit_on_m44_list_no_cone(monkeypatch):
    # the cone frames close the generator values under join, and (bullet)
    # and the cone inclusions are read at bottom and J, so the README tour
    # and `points` on M44 (2**16 opens) list neither cone
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(4, 4)), "em")
    calls = count_calls(monkeypatch, ((L.SubsetCone, "tolist"),))
    fut, pas, ips = derived.futures_frame(olx)[0], derived.pasts_frame(olx)[0], D.ideal_points(olx)
    pts, counit = D.points_space(olx), D.counit_check(olx)
    assert calls == {"tolist": 0}
    assert (fut.m, pas.m, len(ips.ips), len(ips.ifs)) == (95, 95, 16, 16)
    assert ips.negation_bijection is True
    assert pts.n == 16 and counit.ok and counit.details["bullet"]


def test_counit_m33(loc33):
    rep = D.counit_check(loc33)
    assert rep.ok
    assert rep.details == {"spatial": True, "bullet": True,
                           "biconditional": True, "counit_monotone": True}


def test_counit_monotone_read_above_rel_limit():
    # 4,096 opens: the point-cone inclusions still decide monotonicity
    loc = S.induced_locale(S.OrderedSpace.build(12, [(0, 1), (1, 2)]), "em")
    assert loc.frame.m > O.REL_LIMIT
    rep = D.counit_check(loc)
    assert rep.ok and rep.details["counit_monotone"] is True
    assert "counit-monotone=True" in rep.note


def test_point_cone_inclusions_always_hold(bowtie):
    # one-sided inclusions need no axioms, even where (bullet) fails
    f = bowtie.frame
    xzt, top = f.id_of_mask(0b1011), f.top
    olx = O.ordered_locale_from_relation(f, [(xzt, top)])
    assert not D.check_axiom_P(olx).ok
    assert D.point_cone_inclusions_hold(olx)
    assert oracles.counit_monotone_by_points_locale(olx)
    for name, inst in gen.standard_suite():
        loc = inst if isinstance(inst, O.OrderedLocale) \
            else S.induced_locale(inst, "em")
        if loc.frame.m <= 1024:
            assert D.point_cone_inclusions_hold(loc), name
            assert oracles.counit_monotone_by_points_locale(loc), name


def test_finite_frames_spatial():
    for name, inst in gen.standard_suite():
        frame = inst.frame
        if frame.m <= 1024:
            pms = D.pt_masks(frame)
            assert len(set(pms)) == len(pms), name      # pt(U) = pt(V) implies U = V


# -- ideal points -------------------------------------------------------------------


def test_ideal_points_m33(m33, loc33):
    ips = D.ideal_points(loc33)
    assert len(ips.ips) == 9
    f = loc33.frame
    expected = {m33.down[p] for p in range(m33.n)}   # principal down-sets
    assert {f.mask_of(i) for i in ips.ips} == expected
    assert ips.negation_bijection is True
    assert len(ips.ifs) == 9 and len(ips.future_points) == 9


def test_ideal_points_vertical():
    lv = gen.em_locale("vertical33")
    v = gen.suite_instance("vertical33")
    ips = D.ideal_points(lv)
    assert len(ips.ips) == 9
    assert {lv.frame.mask_of(i) for i in ips.ips} == \
        {v.down[p] for p in range(v.n)}    # column segments


def test_ideal_points_equality_powerset():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    eq = O.equality_order(f)
    ips = D.ideal_points(eq)
    assert sorted(ips.ips) == sorted(f.atoms())
    assert sorted(ips.ifs) == sorted(f.atoms())


def test_directed_ip_families_have_joins(loc22, loc33):
    # IPs closed under joins of internally directed families, given C-join
    for olx in (loc22, loc33):
        ips = D.ideal_points(olx).ips
        f = olx.frame
        ipset = set(ips)
        for fam_mask in range(1, 1 << len(ips)):
            fam = [ips[i] for i in bits(fam_mask)]
            directed = all(any(f.leq(a, c) and f.leq(b, c) for c in fam)
                           for a in fam for b in fam)
            if directed:
                assert f.join_all(fam) in ipset


# -- double negation transport ---------------------------------------------------------


def test_dn_transport_m33(loc33):
    assert D.double_negation_transport(loc33).ok


def test_dn_transport_compares_rows_above_pair_limit():
    # an 11-point discrete chain has 2,048 opens: the regular order is
    # still compared row by row, so a relation row that disagrees with the
    # cones is caught
    chain = S.OrderedSpace.build(11, [(i, i + 1) for i in range(10)])
    olx = S.induced_locale(chain, "em")
    assert olx.frame.m > O.PAIR_LIMIT
    assert D.double_negation_transport(olx).ok
    bent = S.induced_locale(chain, "em")
    bent._rel_rows = list(olx.rel_rows())
    bent._rel_rows[5] ^= 1 << 7
    rep = D.double_negation_transport(bent)
    assert (rep.verdict, rep.witness) == ("fail", (5, 7))
    assert rep.note == "regular order disagrees with the ambient order"


def test_warm_transport_reuses_cones_and_cone_frames(m33, monkeypatch):
    # after the README tour (futures, pasts, ideal points) the transport of
    # a Boolean frame induces the ambient locale itself (the identity
    # lemma): no induced locale, cone frame or cones, the ambient ideal
    # points are read once, and the induced rows, built by one `rows_above`,
    # are memoized as the locale's rows
    olx, cold = S.induced_locale(m33, "em"), S.induced_locale(m33, "em")
    fut, pas = derived.futures_frame(olx), derived.pasts_frame(olx)
    assert derived.futures_frame(olx) is fut and derived.pasts_frame(olx) is pas
    ips = D.ideal_points(olx)
    calls = count_calls(monkeypatch, ((O, "cones_from_rows"), (derived, "subframe"),
                                      (oracles, "order_from_map"), (D, "ideal_points"),
                                      (L, "rows_above")))
    rep = D.double_negation_transport(olx)
    assert calls == {"cones_from_rows": 0, "subframe": 0, "order_from_map": 0,
                     "ideal_points": 1, "rows_above": 1}
    assert olx.rel_rows() == cold.rel_rows()
    monkeypatch.undo()
    want = D.double_negation_transport(cold)
    assert (rep.verdict, rep.witness, rep.note) == (want.verdict, want.witness, want.note)
    again, fresh = D.ideal_points(olx), D.ideal_points(cold)
    for name in D.IdealPointSet.__slots__:
        assert getattr(again, name) == getattr(ips, name) == getattr(fresh, name)
    assert derived.futures_frame(olx) is fut and derived.pasts_frame(olx) is pas


def duality_cases():
    """(name, fresh-locale maker): the standard suite in every variant,
    M22-M33 with each defect cell, M34 (above REL_LIMIT), and a powerset
    whose monotone, regular cones send every pair of points to the top,
    so they do not preserve joins."""
    def induced(space, variant):
        return lambda: S.induced_locale(space, variant)
    for name, inst in gen.standard_suite():
        if isinstance(inst, O.OrderedLocale):
            yield name, lambda inst=inst: inst
            continue
        for variant in ("em", "upper", "lower"):
            yield f"{name}/{variant}", induced(inst, variant)
    for t, x in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for cell in itertools.product(range(t), range(x)):
            space = gen.minkowski_grid(gen.GridSpec(t, x, defects=(cell,)))
            for variant in ("em", "upper", "lower"):
                yield f"m{t}{x}-{cell}/{variant}", induced(space, variant)
    yield "m34/em", induced(gen.minkowski_grid(gen.GridSpec(3, 4)), "em")

    def pairs_to_top():
        f = S.OrderedSpace.build(3, [], opens="discrete").frame
        close = [u if L.popcount(f.mask_of(u)) < 2 else f.top for u in f.elements()]
        return O.ordered_locale_from_monads(O.ConePair(f, close, list(close)),
                                            validated=True)
    yield "pairs-to-top", pairs_to_top


def test_counit_and_transport_match_loop_oracles_on_named_locales():
    seen = {}
    for name, make in duality_cases():
        assert report_outcome(D.counit_check, make()) == \
            report_outcome(oracles.counit_check_loop, make()), name
        got = report_outcome(D.double_negation_transport, make())
        assert got == report_outcome(oracles.double_negation_transport_general, make()), name
        seen[name] = got
    assert seen["m34/em"] == ("FrameTooLarge",
                              "double-negation transport capped at materializable relations")
    assert seen["pairs-to-top"][0] == "ConesDoNotPreserveJoins"
    assert seen["m33-(1, 1)/em"][0] == "pass"


def test_duality_checks_op_counts_on_warm_m33(m33, monkeypatch):
    # the counit walks bits once per distinct cone value, not per element;
    # after it has memoized the rows, the transport's one `rows_above`
    # builds the rows the identity induces, to compare them with those
    olx = S.induced_locale(m33, "em")
    derived.futures_frame(olx), derived.pasts_frame(olx), D.ideal_points(olx)
    calls = count_calls(monkeypatch, ((D, "bits"), (L, "rows_above")))
    assert D.counit_check(olx).ok
    assert calls["bits"] <= 100, calls
    calls.update(bits=0, rows_above=0)
    assert D.double_negation_transport(olx).ok
    assert calls == {"bits": 0, "rows_above": 1}


def test_cone_rows_on_m33_em_read_the_generator_values(m33, monkeypatch):
    # the em cones preserve joins, so `rows_above` builds its masks from the
    # n + 1 generator values of the past cone: no value is split into its
    # points by `bits`, and the rows are those of the cone formula
    olx = S.induced_locale(m33, "em")
    f, up, down = olx.frame, olx.up_map, olx.down_map
    calls = count_calls(monkeypatch, ((L, "bits"),))
    rows = O.cone_rows(f, up, down)
    assert calls == {"bits": 0}
    monkeypatch.undo()
    assert rows == [L.mask_of_iter(v for v in f.elements() if f.leq(v, up[u]) and f.leq(u, down[v]))
                    for u in f.elements()]


def test_dn_transport_requires_regular_cones():
    chain = gen.suite_instance("chain3")
    eq = O.equality_order(chain.frame)
    with pytest.raises(RegularConesRequired):
        D.double_negation_transport(eq)


def test_dn_transport_nonboolean_regular():
    # hand-built non-Boolean frame with regular cones: the bowtie frame,
    # ordered so cones fix exactly the regular elements {z} and {t}
    bow = gen.suite_instance("bowtie")
    f = bow.frame
    z, t = f.id_of_mask(0b0001), f.id_of_mask(0b1000)
    zt = f.id_of_mask(0b1001)
    up = []
    down = []
    for u in f.elements():
        up.append(f.top if u != f.bottom and not f.leq(u, z) else
                  (z if u == z or u == f.bottom and False else
                   (f.bottom if u == f.bottom else f.top)))
    # simpler: cones collapse everything nonzero to regular hulls
    up = [f.bottom if u == f.bottom else (z if f.leq(u, z) else f.top)
          for u in f.elements()]
    down = [f.bottom if u == f.bottom else (t if f.leq(u, t) else f.top)
            for u in f.elements()]
    pair = O.ConePair(f, up, down)
    olx = O.ordered_locale_from_monads(pair)
    if not derived.check_regular_cones(olx).ok:
        pytest.skip("constructed cones not regular")
    rep = D.double_negation_transport(olx)
    assert rep.ok


# -- relation ideals --------------------------------------------------------------------


def test_preorder_ideals_m33(m33):
    ideals = D.triangle_ideals(m33.n, list(m33.up))
    masks = {i.mask for i in ideals}
    for p in range(m33.n):
        assert m33.down[p] in masks          # principal ideals exist
    for i in ideals:                          # down-closed and directed
        for x in bits(i.mask):
            assert m33.down[x] & ~i.mask == 0
            for y in bits(i.mask):
                assert m33.up[x] & m33.up[y] & i.mask
    assert D.is_past_semi_full(m33.n, list(m33.up)).ok


def test_directed_joins_need_every_member_to_be_an_ideal():
    # a finite directed family has a greatest member, its union, and every
    # singleton family is directed: so a family has directed joins iff each
    # member is an ideal.  On the chain 0 <= 1 <= 2, {1} is not down-closed
    chain = [0b111, 0b110, 0b100]
    ideals = D.triangle_ideals(3, chain)
    assert [i.mask for i in ideals] == [0b001, 0b011, 0b111]
    pred = L.transpose_rows(chain)
    assert all(D._is_ideal(chain, pred, i.mask) for i in ideals)
    assert not D._is_ideal(chain, pred, 0b010)


def test_strict_chronology_has_no_ideals(m33):
    strict = [m33.up[p] & ~(1 << p) for p in range(m33.n)]
    assert D.triangle_ideals(m33.n, strict) == []
    rep = D.is_past_semi_full(m33.n, strict)
    assert not rep.ok
    assert rep.witness_i is not None and rep.witness_ii is not None
    # interpolation also fails at a maximal (top-row) element: the two
    # middle-row predecessors of (2,1) admit no element strictly between
    lbl = {l: i for i, l in enumerate(m33.labels)}
    x, y1, y2 = lbl["(2,1)"], lbl["(1,0)"], lbl["(1,2)"]
    assert strict[y1] >> x & 1 and strict[y2] >> x & 1
    assert not any(strict[y1] >> z & 1 and strict[y2] >> z & 1
                   and strict[z] >> x & 1 for z in range(m33.n))


def test_empty_relation_has_no_ideals():
    assert D.triangle_ideals(3, [0, 0, 0]) == []
