"""Ordered locale core: constructors, axiom checker with witnesses,
derived causal structure, order constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordloc import (coverage as C, derived, duality as D, gen, lattice as L, olocale as O,
                    ospace as S)
from ordloc.errors import (
    AxiomVFailure,
    ConesDoNotPreserveJoins,
    FrameTooLarge,
    NotAMonad,
    OrdlocError,
    ValidationError,
)
from ordloc.lattice import bits, mask_of_iter

from conftest import count_calls, grid, report_outcome, rows_locale
import oracles


def pts(*ids):
    return mask_of_iter(ids)


@pytest.fixture(scope="module")
def b4():
    return L.frame_from_topology(2, [0, 1, 2, 3])


# -- constructors -------------------------------------------------------------------


def test_equality_order_cones(b4):
    eq = O.equality_order(b4)
    assert eq.up_map == list(b4.elements())
    assert eq.down_map == list(b4.elements())
    for u in b4.elements():
        for v in b4.elements():
            assert eq.related(u, v) == (u == v)


def test_inclusion_order_cones(b4):
    inc = O.inclusion_order(b4)
    for u in b4.elements():
        assert inc.down_map[u] == u
        assert inc.up_map[u] == b4.top
        for v in b4.elements():
            assert inc.related(u, v) == b4.leq(u, v)
    assert O.check_axiom(inc, "V").ok
    # nullary join breaks C-join: the future cone of bottom is the top
    rep = O.check_axiom(inc, "C-join")
    assert not rep.ok and rep.witness == (b4.bottom, b4.bottom)


def test_from_relation_saturates(b4):
    a, b = b4.id_of_mask(1), b4.id_of_mask(2)
    # relate the two atoms downward-crossing; join closure must add tops
    olx = O.ordered_locale_from_relation(b4, [(a, b)])
    assert olx.related(a, b)
    assert O.check_axiom(olx, "V").ok
    with pytest.raises(AxiomVFailure):
        O.ordered_locale_from_relation(b4, [(a, b), (b, a)], strict=True)


def test_from_monads_rejects_non_monads(b4):
    broken = O.ConePair(b4, [b4.bottom] * b4.m, list(b4.elements()))
    with pytest.raises(NotAMonad):
        broken.validate()


def test_from_relation_matches_induced(m22):
    loc = S.induced_locale(m22, "em")
    f = m22.frame
    pairs = [(u, v) for u in f.elements() for v in f.elements()
             if loc.related(u, v)]
    explicit = O.ordered_locale_from_relation(f, pairs)
    assert explicit.up_map == loc.up_map
    assert explicit.down_map == loc.down_map
    for u in f.elements():
        for v in f.elements():
            assert explicit.related(u, v) == loc.related(u, v)


# -- axiom counterexamples -------------------------------------------------------------


def test_lower_order_fails_empty(m33):
    low = S.induced_locale(m33, "lower")
    rep = O.check_axiom(low, "empty")
    assert not rep.ok
    assert low.up_map[low.frame.bottom] == low.frame.top
    assert O.revalidate(low, rep)
    par = O.check_axiom(low, "parallel")
    assert not par.ok and "empty" in par.note


def test_lower_order_satisfies_wedge(m22):
    low = S.induced_locale(m22, "lower")
    assert O.check_axiom(low, "wedge+").ok
    assert O.check_axiom(low, "wedge-").ok
    assert not O.check_axiom(low, "parallel").ok


def test_non_oc_fails_Fplus(non_oc):
    loc = S.induced_locale(non_oc, "em")
    rep = O.check_axiom(loc, "F+")
    assert not rep.ok
    f = non_oc.frame
    u, v = rep.witness
    assert f.mask_of(u) == pts(1, 2, 3) and f.mask_of(v) == pts(0)
    assert O.revalidate(loc, rep)
    # the stated computation: down(U) & V = {*}, down(U & up(V)) = empty
    assert f.mask_of(f.meet(loc.down_map[u], v)) == pts(0)
    assert loc.down_map[f.meet(u, loc.up_map[v])] == f.bottom


def test_C_join_fails_by_the_kernel_above_pair_limit():
    # 2,048 elements, above PAIR_LIMIT, so no pair scan looks for the least
    # pair: C-join fails with the past cone's join-irreducible kernel witness
    loc = O.ordered_locale_from_relation(L.powerset_frame(11), [(1, 6), (2, 1024), (5, 40)])
    assert loc.frame.m > O.PAIR_LIMIT
    rep = O.check_axiom(loc, "C-join")
    assert (rep.verdict, rep.witness, rep.note) == \
        ("fail", (4, 2), "join-irreducible kernel (past cone)")
    assert O.revalidate(loc, rep)


def test_two_speed_3x4_fails_F_plus_on_the_generators_above_pair_limit():
    # 4,096 elements and join-preserving cones: the pair over bottom and J
    # that breaks F+ is the witness, with no row scan for the least pair,
    # and wedge+ fails through F+ with the same pair
    ts = gen.two_speed_grid(gen.GridSpec(3, 4, Fraction(1), Fraction(2)))
    assert ts.frame.m > O.PAIR_LIMIT
    f_plus, wedge = O.check_axiom(ts, "F+"), O.check_axiom(ts, "wedge+")
    note = "pairs over bottom and the join-irreducibles"
    assert (f_plus.verdict, f_plus.witness, f_plus.note) == ("fail", (16, 4), note)
    assert (wedge.verdict, wedge.witness, wedge.note) == ("fail", (16, 4), "via F+: " + note)
    assert O.revalidate(ts, f_plus) and O.revalidate(ts, wedge)


def test_two_speed_parallel_witness():
    ts = gen.suite_instance("two_speed_2x3")
    rep = O.check_axiom(ts, "parallel")
    assert not rep.ok
    assert O.revalidate(ts, rep)
    f = ts.frame
    masks = {f.mask_of(w) for w in rep.witness}
    lbl = {l: i for i, l in enumerate(f.labels)}
    assert masks == {1 << lbl["(0,2)"], 1 << lbl["(1,0)"]}


def test_revalidate_reads_the_parallel_sub_law_from_the_note_prefix():
    # parallel's note is "fails <sub-law>: <its note>"; a wedge+ note that
    # mentions "empty" is still re-checked as wedge+, not as the empty law
    ts = gen.suite_instance("two_speed_2x3")
    rep = O.check_axiom(ts, "parallel")
    assert rep.note.startswith("fails wedge+: ")
    noted = O.CheckReport("parallel", "fail", rep.witness, rep.note + "; empty holds")
    assert O.revalidate(ts, noted)
    as_empty = O.CheckReport("parallel", "fail", rep.witness, "fails empty: wedge+ broke")
    assert not O.revalidate(ts, as_empty)
    with pytest.raises(ValidationError):
        O.revalidate(ts, O.CheckReport("parallel", "fail", rep.witness, "empty, wedge+"))


def test_wedge_equals_corder_plus_frobenius_small():
    # both routes computed and compared, on frames small enough for triples
    insts = [S.induced_locale(gen.suite_instance("bowtie"), "em"),
             S.induced_locale(gen.suite_instance("non_oc"), "em"),
             S.induced_locale(gen.suite_instance("chain3"), "em"),
             O.inclusion_order(L.frame_from_topology(2, [0, 1, 2, 3]))]
    for olx in insts:
        for sign in "+-":
            direct = _wedge_direct(olx, sign)
            via = (O.check_axiom(olx, "C-order").ok
                   and O.check_axiom(olx, f"F{sign}").ok)
            assert direct == via, (olx.meta, sign)


def _wedge_direct(olx, sign):
    f = olx.frame
    for v in f.elements():
        for vq in f.elements():
            if not olx.related(v, vq):
                continue
            for u in f.elements():
                if sign == "+":
                    if f.leq(u, v) and not any(
                            olx.related(u, uq) and f.leq(uq, vq)
                            for uq in f.elements()):
                        return False
                else:
                    if f.leq(u, vq) and not any(
                            olx.related(w, u) and f.leq(w, v)
                            for w in f.elements()):
                        return False
    return True


def test_wedge_without_corder_above_triple_limit():
    # 64 elements, above TRIPLE_LIMIT: C-order fails here, which does not
    # decide wedge (C-order and F only suffice), so the exact scan must run
    f = S.OrderedSpace.build(6, [], opens="discrete").frame
    assert f.m > O.TRIPLE_LIMIT
    olx = O.ordered_locale_from_relation(f, [(16, 47)])
    assert not O.check_axiom(olx, "C-order").ok
    assert O.check_axiom(olx, "wedge+").ok
    assert _wedge_direct(olx, "+")
    minus = O.check_axiom(olx, "wedge-")
    assert not minus.ok and minus.witness == (1, 16, 47)
    par = O.check_axiom(olx, "parallel")
    assert not par.ok
    for rep in (minus, par):
        assert O.revalidate(olx, rep)


@pytest.mark.parametrize("variant", ["em", "upper", "lower"])
@pytest.mark.parametrize("size", [(3, 4), (4, 4)], ids=["M34", "M44"])
def test_grid_laws_above_pair_limit_are_not_sampled(size, variant):
    # pointwise cones pass the join-irreducible kernel, which makes C-join
    # and F+/F- exact on frames too large for the pair scans
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(*size)), variant)
    assert loc.frame.m > O.PAIR_LIMIT
    for law in O.ALL_AXIOMS:
        rep = O.check_axiom(loc, law)
        assert "SAMPLED" not in rep.note and "sampled" not in rep.note, rep
        if not rep.ok:
            assert O.revalidate(loc, rep), rep


@pytest.mark.parametrize("size", [(3, 3), (3, 4)], ids=["M33", "M34"])
def test_pasts_frame_of_upper_locale_adjoins_bottom(size):
    # the constant-top past cone preserves binary joins but not the empty
    # join: the pasts frame is {bottom, top} with bottom adjoined, on either
    # side of PAIR_LIMIT
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(*size)), "upper")
    sub, fmap = derived.pasts_frame(loc)
    assert sub.m == 2 and sub.meta["adjoined_bottom"]
    assert fmap.preimage == [loc.frame.bottom, loc.frame.top]


def test_empty_scans_the_whole_bottom_row():
    # identity cones, but the relation ties bottom to the last element,
    # which lies beyond PAIR_LIMIT
    f = L.frame_from_topology(11, range(2048))
    rows = [1 << u for u in f.elements()]
    rows[f.bottom] |= 1 << 2047
    ident = list(f.elements())
    olx = O.OrderedLocale(f, up_map=ident, down_map=list(ident), rel_rows=rows)
    rep = O.check_axiom(olx, "empty")
    assert not rep.ok and rep.witness == (0, 2047)
    assert O.revalidate(olx, rep)


def test_F_with_monotone_cones_is_exact_above_pair_limit():
    # identity future cone; the past cone adds point 0 to every s above
    # K = {1..10}: a monad, monotone but not join-preserving, on 2,048
    # elements. F+ breaks at U = K, V = {0}, which a sample of pairs misses
    f = S.OrderedSpace.build(11, [], opens="discrete").frame
    K = 2046
    ident = list(f.elements())
    down = [s | 1 if s & K == K else s for s in f.elements()]
    olx = O.ordered_locale_from_monads(O.ConePair(f, ident, down))
    assert f.m > O.PAIR_LIMIT and O.join_failure(f, down) is not None
    rep = O.check_axiom(olx, "F+")
    assert not rep.ok and rep.witness == (2046, 1), rep
    assert O.check_axiom(olx, "F-").ok
    for law in ("F+", "wedge+", "parallel"):
        rep = O.check_axiom(olx, law)
        assert not rep.ok and O.revalidate(olx, rep), rep


def test_cone_monotonicity_is_walked_once_per_locale(monkeypatch):
    # F+, F-, V and the wedge laws all ask; only the first ask walks the
    # covers of a cone that breaks a binary join (1 rel 3: up(1) = 3)
    f = S.OrderedSpace.build(3, [], opens="discrete").frame
    rows = [1 << u for u in f.elements()]
    rows[1] |= 1 << 3
    olx = rows_locale(f, rows)
    calls = [0]
    upper_covers = L.FiniteFrame.upper_covers

    def counting(self, i):
        calls[0] += 1
        return upper_covers(self, i)

    monkeypatch.setattr(L.FiniteFrame, "upper_covers", counting)
    assert not O._cones_monotone(olx) and calls[0] > 0
    calls[0] = 0
    assert not O._cones_monotone(olx) and calls[0] == 0
    assert not O._cones_monotone(rows_locale(f, rows)) and calls[0] > 0


def test_F_with_cones_that_are_not_monotone_refuses_above_pair_limit():
    # 1 rel 3 makes up(1) = 3, not below up(5) = 5
    f = S.OrderedSpace.build(11, [], opens="discrete").frame
    rows = [1 << u for u in f.elements()]
    rows[1] |= 1 << 3
    olx = rows_locale(f, rows)
    assert f.m > O.PAIR_LIMIT and not O._cones_monotone(olx)
    for law in ("F+", "F-"):
        with pytest.raises(FrameTooLarge):
            O.check_axiom(olx, law)
    # C-order holds, but with cones that are not monotone the wedge laws
    # do not rest on F: the triple scan decides them
    assert O.check_axiom(olx, "C-order").ok
    for law, plus in (("wedge+", True), ("wedge-", False)):
        assert O.check_axiom(olx, law).ok == (O._wedge_scan(olx, plus) is None)


def test_dual_of_cone_locale_stays_cone_definitional():
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(2, 2)), "em")
    rows = olx.rel_rows()
    O.check_axiom(olx, "C-join")
    dual = O.dual_order(olx)
    assert dual.cone_definitional
    assert O.check_axiom(dual, "C-order").note.startswith("definitional")
    assert dual.rel_rows() == L.transpose_rows(rows)
    assert dual.cones.joins == {"u": olx.cones.joins["d"], "d": olx.cones.joins["u"]}


def test_L_witnesses_where_V_fails_above_24_elements():
    # a preorder on the 32-element discrete frame that is not join-closed:
    # L+/L- carry their own (U, U', V), not V's quadruple
    f = L.frame_from_topology(5, range(32))
    rows = [1 << u for u in f.elements()]
    rows[1] |= 1 << 3
    olx = rows_locale(f, rows)
    assert not O.check_axiom(olx, "V").ok
    for law, witness in (("L+", (1, 3, 5)), ("L-", (1, 3, 2))):
        rep = O.check_axiom(olx, law)
        assert not rep.ok and rep.witness == witness, rep
        assert O.revalidate(olx, rep)


def test_V_above_pair_scan_cap_fails_with_translation_gap():
    # a preorder of 2,308 pairs on 1,024 elements, past the 4,000,000
    # pair-pair scan, that is not join-closed
    f = L.frame_from_topology(10, range(1024))
    rows = [1 << u | 1 << (u | 1) | 1 << (u | 2) for u in f.elements()]
    rows[4] |= 1 << 12
    olx = rows_locale(f, L.transitive_closure_rows(rows))
    rep = O.check_axiom(olx, "V")
    assert not rep.ok and rep.witness == (4, 12, 1, 1)
    assert O.revalidate(olx, rep)


def test_V_on_translation_closed_relation_that_is_not_a_preorder():
    # closed under translation by join-irreducibles but not transitive
    # (2 rel 0 rel 1, not 2 rel 1): the lemma does not apply, the scan does
    f = L.frame_from_topology(2, range(4))
    rel = [(0, 1), (1, 1), (2, 0), (2, 2), (2, 3), (3, 1), (3, 3)]
    rows = [mask_of_iter(v for u2, v in rel if u2 == u) for u in f.elements()]
    rep = O.check_axiom(rows_locale(f, rows), "V")
    assert not rep.ok and rep.witness == (0, 1, 2, 0)


def test_relation_locale_answers_V_from_its_construction(monkeypatch):
    # {0} rel {1,2} saturates to 15 pairs on the powerset of 3 points and
    # fails C-order, so the cone certificate does not answer: V passes by
    # the construction record, with no gap pass and no preorder test, and
    # the cones are monotone by the constructor's lemma, with no cover
    # walk.  The same rows taken as they are still run the gap pass.
    f = L.powerset_frame(3)
    olx = O.ordered_locale_from_relation(f, [(1, 6)])
    assert not O.check_axiom(olx, "C-order").ok
    calls = count_calls(monkeypatch, ((O, "_translation_gap"), (O, "or_rows"),
                                      (L.FiniteFrame, "upper_covers")))
    rep = O.check_axiom(olx, "V")
    assert O._cones_monotone(olx)
    assert calls == {"_translation_gap": 0, "or_rows": 0, "upper_covers": 0}
    assert rep.note == ("exact: preorder closed under translation by the 3 "
                        "join-irreducibles (15 pairs)")
    plain = rows_locale(f, olx.rel_rows())
    assert report_outcome(lambda x: O.check_axiom(x, "V"), plain) == \
        report_outcome(lambda x: O.check_axiom(x, "V"), olx)
    assert calls["_translation_gap"] == 1


def test_dual_of_relation_locale_keeps_its_records(monkeypatch):
    # the transpose of a join-closed preorder is one, and swapping the
    # cones keeps both monotone: the dual answers every law as the
    # transposed rows taken as they are, with no gap pass for V
    f = L.powerset_frame(3)
    olx = O.ordered_locale_from_relation(f, [(1, 6), (2, 4)])
    dual = O.dual_order(olx)
    plain = rows_locale(f, L.transpose_rows(olx.rel_rows()))
    calls = count_calls(monkeypatch, ((O, "_translation_gap"),
                                      (L.FiniteFrame, "upper_covers")))
    got = [report_outcome(lambda x: O.check_axiom(x, law), dual) for law in O.ALL_AXIOMS]
    assert calls == {"_translation_gap": 0, "upper_covers": 0}
    assert got[0][2].startswith("exact: preorder closed under translation")
    assert got == [report_outcome(lambda x: O.check_axiom(x, law), plain)
                   for law in O.ALL_AXIOMS]
    assert calls["_translation_gap"] == 1
    assert (dual.up_map, dual.down_map) == (plain.up_map, plain.down_map)


def test_dual_is_memoized_both_ways_and_files_reports_under_their_laws():
    # coverage works on the dual that `dual_order` memoizes; the dual
    # carries the passing self-dual reports, each under its own law, and
    # they read as the dual's own checks do
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 3)), "em")
    for law in O.ALL_AXIOMS:
        O.check_axiom(loc, law)
    C.coverage_rows(loc, "future")
    dual = O.dual_order(loc)
    assert O.dual_order(dual) is loc and O.dual_order(loc) is dual
    assert set(dual._axiom_cache) == {"C-order", "C-join", "empty", "parallel"}
    fresh = O.dual_order(S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 3)), "em"))
    for law, rep in dual._axiom_cache.items():
        assert rep.law == law
        assert report_outcome(lambda x: O.check_axiom(x, law), fresh) == \
            report_outcome(lambda x: O.check_axiom(x, law), dual)
    assert O.check_axiom(dual, "wedge-").law == "wedge-"


# -- translation gaps against the per-row image loop ------------------------------


def random_gap_instance(rng):
    """A frame with random relation rows, taken as drawn or reflexive-
    transitively closed.  The frame is a powerset of 1-7 points (up to the
    128 subsets of the packed closure's crossover), a powerset of 1-5
    points stored mask-backed, the frame of a random topology on 1-6
    points, or a Birkhoff copy of one (`derived.subframe`), whose ids do
    not follow masks."""
    shape = rng.choice(("powerset", "mask-backed powerset", "topology", "birkhoff"))
    n = rng.randint(1, 7 if shape == "powerset" else 6)
    if shape == "powerset":
        f = L.powerset_frame(n)
    elif shape == "mask-backed powerset":
        f = oracles.mask_backed_powerset(min(n, 5))
    else:
        gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 2 * n))]
        f = L.frame_from_topology(n, oracles.close_family_under_union_intersection(n, gens))
        if shape == "birkhoff":
            f = derived.subframe(f, f.elements())[0]
    rows = [mask_of_iter(rng.randrange(f.m) for _ in range(rng.randint(0, 3)))
            for _ in f.elements()]
    if rng.random() < 0.5:
        rows = oracles.transitive_closure_loop(rows)
    return f, rows


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_translation_gap_matches_image_loop(seed):
    f, rows = random_gap_instance(random.Random(seed))
    assert O._translation_gap(f, rows) == oracles.translation_gap_loop(f, rows)


def saturation_or_error(build, f, pairs, strict):
    try:
        olx = build(f, pairs, strict=strict, meta={"name": "r"})
    except (AxiomVFailure, FrameTooLarge) as exc:
        return type(exc), exc.args
    return olx.rel_rows(), olx.up_map, olx.down_map, olx.meta


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_relation_saturation_matches_image_loop(seed):
    # translation by each join-irreducible once, then one closure, against
    # the fixpoint that alternates the image loop's gap filling with
    # closing: equal rows, cones and meta, the same strict-mode gap, and
    # the same refusals with the pair cap just below and at the saturated
    # size
    f, rows = random_gap_instance(random.Random(seed))
    pairs = [(u, v) for u in f.elements() for v in bits(rows[u])]
    for strict in (False, True):
        got = saturation_or_error(O.ordered_locale_from_relation, f, pairs, strict)
        assert got == saturation_or_error(oracles.saturate_alternating, f, pairs, strict)
    size = sum(map(L.popcount, O.ordered_locale_from_relation(f, pairs).rel_rows()))
    for limit in (size - 1, size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(O, "SATURATION_LIMIT", limit)
            got = saturation_or_error(O.ordered_locale_from_relation, f, pairs, False)
            want = saturation_or_error(oracles.saturate_alternating, f, pairs, False)
        assert got == want


def test_translation_gap_on_powersets_makes_no_join_or_mask_of_iter_call(monkeypatch):
    # the two-speed 2x3 relation on its 64-element powerset, given whole
    # (no gap) and by its 13 point pairs (saturated): each relation is one
    # gap pass and at most two closures, each a few wide-integer operations
    # per join-irreducible or per Warshall step on the packed relation, so
    # construction ORs no row list (`or_rows`), builds no join fibre and
    # makes no join; the per-row image loop made m |J| = 384 joins per call
    ts = gen.suite_instance("two_speed_2x3")
    f, rows = ts.frame, ts.rel_rows()
    whole = [(u, v) for u in f.elements() for v in bits(rows[u])]
    points = [(u, v) for u, v in whole if L.popcount(u) == L.popcount(v) == 1]
    counts = {}
    inside = [False]

    def counting(name, fn, anywhere=False):
        def call(*args, **kwargs):
            counts[name] += anywhere or inside[0]
            return fn(*args, **kwargs)
        return call

    def entering(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return call

    monkeypatch.setattr(O, "_translation_gap", entering("gap", O._translation_gap))
    monkeypatch.setattr(O, "_translation_closure",
                        entering("closure", O._translation_closure))
    monkeypatch.setattr(L, "transitive_closure_rows",
                        counting("transitive", L.transitive_closure_rows, True))
    monkeypatch.setattr(L.FiniteFrame, "join", counting("join", L.FiniteFrame.join))
    monkeypatch.setattr(O, "mask_of_iter", counting("mask_of_iter", O.mask_of_iter))
    for module in (L, O):
        monkeypatch.setattr(module, "or_rows", counting("or_rows", L.or_rows, True))
    monkeypatch.setattr(O, "_join_fibres", counting("fibres", O._join_fibres, True))
    for pairs, closures in ((whole, 0), (points, 1)):
        counts.update(dict.fromkeys(("gap", "closure", "transitive", "join",
                                     "mask_of_iter", "or_rows", "fibres"), 0))
        olx = O.ordered_locale_from_relation(f, pairs)
        assert counts == {"gap": 1, "closure": closures, "transitive": 1 + closures,
                          "join": 0, "mask_of_iter": 0, "or_rows": 0, "fibres": 0}
        assert olx.rel_rows() == oracles.saturate_alternating(f, pairs).rel_rows()


def test_saturation_on_a_topology_builds_its_join_fibres_once(monkeypatch):
    # the gap pass and the translation pass of a mask-backed frame share the
    # (shift, fibre) pairs of the join-irreducibles, built once per relation
    f = L.frame_from_topology(3, [0b000, 0b001, 0b010, 0b011, 0b111])
    calls = count_calls(monkeypatch, ((O, "_join_fibres"),))
    olx = O.ordered_locale_from_relation(f, [(0, 1)])
    assert calls == {"_join_fibres": 1}
    monkeypatch.undo()
    want = oracles.saturate_alternating(f, [(0, 1)])
    assert olx.meta == want.meta == {"join_saturated": (0, 1, 2, 2)}
    assert olx.rel_rows() == want.rel_rows()


# -- F+/F- on powersets against the pair loop over bottom and J ------------------


def random_frobenius_locale(seed):
    """A locale on the powerset of 1-6 points whose cones preserve joins:
    SubsetCones from random point rows and a random t(bottom), mostly
    neither inflationary nor monads, or the list cones of a random relation."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    f = L.powerset_frame(n)
    if rng.random() < 0.5:
        def cone():
            base = rng.randrange(1 << n) if rng.random() < 0.5 else 0
            return L.SubsetCone(n, base, [rng.randrange(1 << n) for _ in range(n)])
        return O.OrderedLocale(f, up_map=cone(), down_map=cone())
    pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
    return O.ordered_locale_from_relation(f, pairs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_row_form_matches_gens_loop(seed):
    olx, ref = random_frobenius_locale(seed), random_frobenius_locale(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "_gens_failure", oracles.frobenius_gens_loop)
        expect = [O.check_axiom(ref, law) for law in ("F+", "F-")]
    f = olx.frame
    gens = sorted({f.bottom, *f.coprimes()})
    for (side, other), law, want in zip(((olx.cones.d, olx.cones.u),
                                         (olx.cones.u, olx.cones.d)), ("F+", "F-"), expect):
        assert (O._gens_failure(f, side, other, gens, None)
                == oracles.frobenius_gens_loop(f, side, other, gens))
        rep = O.check_axiom(olx, law)
        assert (rep.verdict, rep.witness, rep.note) == (want.verdict, want.witness,
                                                         want.note)
        assert rep.ok or O.revalidate(olx, rep), rep


def random_monotone_cone(rng, n):
    """A monotone map on the powerset of n points that mostly breaks binary
    joins: t(s) = base | OR of value_i over the random g_i inside s."""
    base = rng.randrange(1 << n) if rng.random() < 0.3 else 0
    terms = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(rng.randint(0, 4))]
    return [base | L.or_rows([v for _, v in terms],
                             mask_of_iter(i for i, (g, _) in enumerate(terms) if g & ~s == 0))
            for s in range(1 << n)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_point_columns_match_the_holds_loop(seed):
    # powerset locales whose cones are monotone and mostly break a binary
    # join: random monotone lists, or a relation's cones; the failing U
    # read from the columns of the side cone are those of the holds loop
    # at every (U, {b}), and the reports match the loop's
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    f = L.powerset_frame(n)
    if rng.random() < 0.5:
        olx = O.OrderedLocale(f, up_map=random_monotone_cone(rng, n),
                              down_map=random_monotone_cone(rng, n))
        ref = O.OrderedLocale(f, up_map=olx.up_map, down_map=olx.down_map)
    else:
        pairs = [(rng.randrange(f.m), rng.randrange(f.m)) for _ in range(rng.randint(0, 4))]
        olx, ref = (O.ordered_locale_from_relation(f, pairs) for _ in range(2))
    assert O._cones_monotone(olx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "_point_failures", oracles.frobenius_point_failures_loop)
        expect = [O.check_axiom(ref, law) for law in ("F+", "F-")]
    for (side, other), law, want in zip(((olx.cones.d, olx.cones.u),
                                         (olx.cones.u, olx.cones.d)), ("F+", "F-"), expect):
        assert (O._point_failures(f, side, other)
                == oracles.frobenius_point_failures_loop(f, side, other))
        rep = O.check_axiom(olx, law)
        assert (rep.verdict, rep.witness, rep.note) == (want.verdict, want.witness,
                                                         want.note)
        assert rep.ok or O.revalidate(olx, rep), rep


def test_frobenius_on_m44_makes_no_meet_or_leq_call(monkeypatch):
    # one transposed row test per point: n + 1 reads of the side cone and
    # n of the other, where the pair loop made 289 holds calls per law
    olx = S.induced_locale(gen.minkowski_grid(gen.GridSpec(4, 4)), "em")
    assert isinstance(olx.cones.u, L.SubsetCone) and isinstance(olx.cones.d, L.SubsetCone)
    counts = dict.fromkeys(("meet", "leq", "read"), 0)

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(L.FiniteFrame, "meet", counting("meet", L.FiniteFrame.meet))
    monkeypatch.setattr(L.FiniteFrame, "leq", counting("leq", L.FiniteFrame.leq))
    monkeypatch.setattr(L.SubsetCone, "__getitem__",
                        counting("read", L.SubsetCone.__getitem__))
    for law in ("F+", "F-"):
        counts.update(meet=0, leq=0, read=0)
        rep = O.check_axiom(olx, law)
        assert rep.ok and rep.note.endswith("289 pairs over bottom and the join-irreducibles")
        assert counts["meet"] == counts["leq"] == 0 and counts["read"] <= 2 * 16 + 1, counts


def test_frobenius_on_grids_reads_the_carried_point_columns(monkeypatch):
    # the cones of a discrete space carry the transposes of their point
    # rows (the space's down and up rows, all ones for the top cone), so
    # F+/F- transpose nothing and keep the pair loop's verdicts
    spaces = [gen.minkowski_grid(gen.GridSpec(4, 4)), gen.vertical_grid(3, 3),
              gen.minkowski_grid(gen.GridSpec(3, 4, defects=((1, 2),)))]
    for sp in spaces:
        for cone in (*S._cone_maps(sp)[:2], S._top_cone(sp)):
            assert cone.cols == L.transpose_rows([cone[1 << b] for b in range(sp.n)])
    expect = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "_gens_failure", oracles.frobenius_gens_loop)
        for sp in spaces:
            for v in ("em", "upper", "lower"):
                olx = S.induced_locale(sp, v)
                expect += [O.check_axiom(olx, law) for law in ("F+", "F-")]
    calls = [0]
    transpose = L.transpose_rows

    def counting(rows):
        calls[0] += 1
        return transpose(rows)

    monkeypatch.setattr(L, "transpose_rows", counting)
    got = [O.check_axiom(S.induced_locale(sp, v), law)
           for sp in spaces for v in ("em", "upper", "lower") for law in ("F+", "F-")]
    assert calls[0] == 0
    assert [(r.verdict, r.witness, r.note) for r in got] == \
        [(r.verdict, r.witness, r.note) for r in expect]


def test_parallel_disjointness_property(loc22):
    f = loc22.frame
    for u in f.elements():
        for v in f.elements():
            left = f.meet(u, loc22.down_map[v]) == f.bottom
            right = f.meet(loc22.up_map[u], v) == f.bottom
            assert left == right


# -- cone invariants ---------------------------------------------------------------------


def test_cone_monad_laws_and_order_items(loc22):
    f = loc22.frame
    for u in f.elements():
        assert f.leq(u, loc22.up_map[u])
        assert loc22.up_map[loc22.up_map[u]] == loc22.up_map[u]
        assert loc22.related(u, loc22.up_map[u])       # U rel up(U)
        assert loc22.related(loc22.down_map[u], u)     # down(U) rel U
        for v in f.elements():
            if loc22.related(u, v):
                assert f.leq(u, loc22.down_map[v])
                assert f.leq(v, loc22.up_map[u])
            if f.leq(u, v):
                assert f.leq(loc22.up_map[u], loc22.up_map[v])
            # lax join/meet laws
            j, m = f.join(u, v), f.meet(u, v)
            assert f.leq(f.join(loc22.up_map[u], loc22.up_map[v]),
                         loc22.up_map[j])
            assert f.leq(loc22.up_map[m],
                         f.meet(loc22.up_map[u], loc22.up_map[v]))
            # cone meets are cone-fixed
            cm = f.meet(loc22.up_map[u], loc22.up_map[v])
            assert loc22.up_map[cm] == cm


def test_monads_order_round_trip(loc22):
    pair = O.ConePair(loc22.frame, list(loc22.up_map), list(loc22.down_map))
    rebuilt = O.ordered_locale_from_monads(pair)
    f = loc22.frame
    assert rebuilt.up_map == loc22.up_map and rebuilt.down_map == loc22.down_map
    for u in f.elements():
        for v in f.elements():
            assert rebuilt.related(u, v) == loc22.related(u, v)


def test_validated_monads_keep_their_monotone_walk(monkeypatch):
    # t(S) = S for |S| <= 1 and top otherwise breaks a binary join, so
    # validation walks its covers, one call per element; that walk proves
    # both cones monotone, and no law walks them again
    f = L.powerset_frame(3)
    t = [s if L.popcount(s) <= 1 else f.top for s in f.elements()]
    calls = count_calls(monkeypatch, ((L.FiniteFrame, "upper_covers"),))
    olx = O.ordered_locale_from_monads(O.ConePair(f, t, list(f.elements())))
    assert olx.cones.monotone and olx.cones.join_failure("u") is not None
    for law in O.ALL_AXIOMS:
        O.check_axiom(olx, law)
    assert calls == {"upper_covers": 8}


def test_order_to_monads_round_trip_iff_corder(b4):
    a, b = b4.id_of_mask(1), b4.id_of_mask(2)
    olx = O.ordered_locale_from_relation(b4, [(a, b4.top), (b4.bottom, a)])
    corder = O.check_axiom(olx, "C-order").ok
    pair = O.ConePair(b4, list(olx.up_map), list(olx.down_map))
    back = O.ordered_locale_from_monads(pair)
    same = all(back.related(u, v) == olx.related(u, v)
               for u in b4.elements() for v in b4.elements())
    assert same == corder


# -- monotone maps ---------------------------------------------------------------------


def test_identity_is_monotone(loc22):
    fmap = derived.identity_map(loc22.frame)
    assert derived.is_monotone(fmap, loc22, loc22).ok


def test_pasts_inclusion_monotonicity(m33, loc33):
    # quotient onto im(down) with the restricted order: monotone iff the
    # subframe is closed under both cones; it is not closed under up
    sub, fmap = derived.pasts_frame(loc33)
    f = loc33.frame
    pos = {amb: i for i, amb in enumerate(fmap.preimage)}
    pairs = [(i, j) for i in sub.elements() for j in sub.elements()
             if loc33.related(fmap.preimage[i], fmap.preimage[j])]
    subord = O.ordered_locale_from_relation(sub, pairs)
    rep = derived.is_monotone(fmap, loc33, subord)
    assert not rep.ok
    # the reported witness genuinely violates the cone inclusion: the
    # ambient up cone of a small down-set escapes every down-set candidate
    w = rep.witness[0]
    assert not f.leq(loc33.up_map[fmap.preimage[w]],
                     fmap.preimage[subord.up_map[w]]) or \
        not f.leq(loc33.down_map[fmap.preimage[w]],
                  fmap.preimage[subord.down_map[w]])
    assert sub.mask_of(w) == m33.frame.mask_of(grid(m33, (0, 0)))


def test_collapsing_map_not_monotone(b4):
    # source relates the two atoms; the target forgets the relation, so the
    # identity map collapses a related pair onto an unrelated one
    a, b = b4.id_of_mask(1), b4.id_of_mask(2)
    related = O.ordered_locale_from_relation(b4, [(a, b)])
    unrelated = O.equality_order(b4)
    fmap = derived.identity_map(b4)
    assert derived.is_monotone(fmap, related, related).ok
    rep = derived.is_monotone(fmap, related, unrelated)
    assert not rep.ok


# -- hulls, complements, diamonds ---------------------------------------------------------


def test_hull_example(m33, loc33):
    u = grid(m33, (0, 0), (2, 0))
    h = derived.convex_hull(loc33, u)
    assert h == grid(m33, (0, 0), (1, 0), (1, 1), (2, 0))


def test_hull_laws(m33, loc33):
    f = loc33.frame
    rng = random.Random(5)
    elems = [rng.randrange(f.m) for _ in range(300)]
    for u in elems:
        h = derived.convex_hull(loc33, u)
        assert f.leq(u, h)
        assert derived.convex_hull(loc33, h) == h
        assert loc33.up_map[h] == loc33.up_map[u]
        assert loc33.down_map[h] == loc33.down_map[u]
        up = loc33.up_map[u]
        assert derived.convex_hull(loc33, up) == up      # cones are convex
        v = rng.randrange(f.m)
        if f.leq(u, v):
            assert f.leq(h, derived.convex_hull(loc33, v))


def test_hull_antisymmetry_lemma(loc22):
    f = loc22.frame
    for u in f.elements():
        for v in f.elements():
            both = loc22.related(u, v) and loc22.related(v, u)
            hulls_equal = derived.convex_hull(loc22, u) == derived.convex_hull(loc22, v)
            assert both == hulls_equal  # C-order holds here


def test_convex_locale_m33_discrete(loc33):
    assert derived.is_convex_locale(loc33).ok


def test_complement_and_diamond_examples(m33, loc33):
    c = grid(m33, (1, 1))
    assert derived.causal_complement(loc33, c) == grid(m33, (1, 0), (1, 2))
    assert derived.diamond(loc33, c) == c
    assert derived.causal_complement(loc33, loc33.frame.top) == loc33.frame.bottom


def test_complement_laws(loc22):
    f = loc22.frame
    X, bot = f.top, f.bottom
    assert derived.causal_complement(loc22, bot) == X          # (d) under empty-axiom
    for u in f.elements():
        cu = derived.causal_complement(loc22, u)
        assert f.meet(u, cu) == bot                       # (a)
        assert f.leq(u, derived.diamond(loc22, u))              # (e)
        assert f.leq(derived.convex_hull(loc22, u), derived.diamond(loc22, u))
        d = derived.diamond(loc22, u)
        assert derived.convex_hull(loc22, d) == d               # diamonds convex
        for v in f.elements():
            if f.leq(u, v):                               # (b) antitone
                assert f.leq(derived.causal_complement(loc22, v), cu)
            assert f.leq(u, derived.causal_complement(loc22, v)) == \
                f.leq(v, cu)                              # (f)
            j = derived.causal_complement(loc22, f.join(u, v))  # (g) under C-join
            assert j == f.meet(cu, derived.causal_complement(loc22, v))
    # parallel: negation swaps cone images
    for u in f.elements():
        ndn = f.neg(loc22.down_map[u])
        assert loc22.up_map[ndn] == ndn
        nup = f.neg(loc22.up_map[u])
        assert loc22.down_map[nup] == nup


def test_negation_order_iso_on_cone_images(loc22):
    # parallel + regular cones: negation is an order iso im(down) -> im(up)^op
    assert derived.check_regular_cones(loc22).ok
    f = loc22.frame
    downs = sorted(set(loc22.down_map))
    ups = sorted(set(loc22.up_map))
    image = sorted(f.neg(d) for d in downs)
    assert image == ups
    for d1 in downs:
        for d2 in downs:
            assert f.leq(d1, d2) == f.leq(f.neg(d2), f.neg(d1))
    for d in downs:
        assert f.neg(f.neg(d)) == d


# -- futures and pasts frames ----------------------------------------------------------


def _downsets_of_points(space):
    # independent enumeration of down-closed point sets
    out = {0}
    work = [0]
    while work:
        s = work.pop()
        for p in range(space.n):
            if not s >> p & 1:
                t = s | space.down[p]
                if t not in out:
                    out.add(t)
                    work.append(t)
    return out


def test_pasts_frame_m33_is_downset_lattice(m33, loc33):
    pas, fmap = derived.pasts_frame(loc33)
    expected = _downsets_of_points(m33)
    got = {pas.mask_of(i) for i in pas.elements()}
    assert got == expected
    assert pas.m == len(expected)    # number of antichains of the grid order
    fmap.validate()


def test_pasts_adjoint_example(m33, loc33):
    sub, fmap = derived.pasts_frame(loc33)
    u = grid(m33, (0, 0), (1, 1))
    star = derived.right_adjoint(fmap, u)
    assert sub.mask_of(star) == m33.frame.mask_of(grid(m33, (0, 0)))


def test_futures_frame_equality_is_whole(b4):
    eq = O.equality_order(b4)
    fut, fmap = derived.futures_frame(eq)
    assert fut.m == b4.m


def test_futures_frame_inclusion_degenerate(b4):
    inc = O.inclusion_order(b4)
    fut, fmap = derived.futures_frame(inc)
    assert fut.m == 2
    assert fut.meta.get("adjoined_bottom")
    assert fmap.preimage == [b4.bottom, b4.top]


def test_cones_must_preserve_joins_for_cone_frames():
    # relating {0,1} upward while leaving the atoms alone breaks the
    # binary join law: up(a v b) jumps to the top
    f = L.frame_from_topology(3, range(8))
    ab = f.id_of_mask(3)
    olx = O.ordered_locale_from_relation(f, [(ab, f.top)])
    a, b = f.id_of_mask(1), f.id_of_mask(2)
    assert olx.up_map[ab] == f.top
    assert olx.up_map[a] == a and olx.up_map[b] == b
    rep = O.check_axiom(olx, "C-join")
    assert not rep.ok and O.revalidate(olx, rep)
    with pytest.raises(ConesDoNotPreserveJoins):
        derived.futures_frame(olx)


# -- biframe ----------------------------------------------------------------------------


def test_biframe_m33_and_vertical(loc33):
    assert derived.is_biframe(loc33).ok
    lv = gen.em_locale("vertical33")
    assert derived.is_biframe(lv).ok


def test_biframe_folds_no_joins_on_m33(m33, monkeypatch):
    # the boxes are tested at the join-irreducibles only: no element is
    # rebuilt as a join of the boxes below it
    loc = S.induced_locale(m33, "em")
    calls = []
    join_of_idmask = L.FiniteFrame.join_of_idmask
    monkeypatch.setattr(L.FiniteFrame, "join_of_idmask",
                        lambda f, s: calls.append(s) or join_of_idmask(f, s))
    assert derived.is_biframe(loc).ok
    assert calls == []


def test_biframe_at_generator_scale(monkeypatch):
    # the boxes are meets of cone reads at the join-irreducibles, and so
    # are the convex hulls, so a 21-point discrete space (2**21 opens)
    # answers both without a cone list (its 2**21-entry lists are refused)
    loc = S.induced_locale(S.OrderedSpace.build(21, [], opens="discrete"), "em")
    calls = []
    tolist = L.SubsetCone.tolist
    monkeypatch.setattr(L.SubsetCone, "tolist", lambda cone: calls.append(cone) or tolist(cone))
    assert derived.is_biframe(loc).ok and calls == []
    rep = derived.is_convex_locale(loc)
    assert rep.ok and calls == []
    assert rep.note == "exact: the 21 join-irreducibles are convex"


def test_biframe_bowtie_fails(bowtie):
    loc = S.induced_locale(bowtie, "em")
    rep = derived.is_biframe(loc)
    assert not rep.ok
    f = bowtie.frame
    assert f.mask_of(rep.witness[0]) == pts(0, 1, 3)   # {x,z,t}


# -- causal Heyting implication ------------------------------------------------------------


def test_causal_heyting_vacuous(loc33):
    f = loc33.frame
    v = grid(gen.suite_instance("m33"), (1, 1))
    assert derived.causal_heyting(loc33, f.bottom, v, "past") == f.top


def test_causal_heyting_example(m33, loc33):
    u = grid(m33, (1, 1))
    v = grid(m33, (0, 1))
    w = derived.causal_heyting(loc33, u, v, "past")
    assert w == grid(m33, (0, 0), (0, 1), (0, 2), (1, 0), (1, 2))


def test_causal_heyting_adjunction_and_direct_image(loc22):
    f = loc22.frame
    _, pmap = derived.pasts_frame(loc22)
    for u in f.elements():
        for v in f.elements():
            h = derived.causal_heyting(loc22, u, v, "past")
            for w in f.elements():
                assert f.leq(f.meet(u, loc22.down_map[w]), v) == f.leq(w, h)
            # eta_* identity: h equals the largest past set under u -> v
            star = pmap.preimage[derived.right_adjoint(pmap, f.heyting(u, v))]
            assert star == loc22.down_map[h]


def test_causal_heyting_on_equality_is_ordinary(b4):
    eq = O.equality_order(b4)
    for u in b4.elements():
        for v in b4.elements():
            assert derived.causal_heyting(eq, u, v, "past") == b4.heyting(u, v)
            assert derived.causal_heyting(eq, u, v, "future") == b4.heyting(u, v)


# -- meets of orders -------------------------------------------------------------------


def test_meet_of_upper_and_lower_is_em(m33, loc33):
    up = S.induced_locale(m33, "upper")
    low = S.induced_locale(m33, "lower")
    assert [a & b for a, b in zip(up.rel_rows(), low.rel_rows())] == loc33.rel_rows()
    # the em cones are the meets of the upper and lower cones
    f = m33.frame
    for u in f.elements():
        assert loc33.up_map[u] == f.meet(up.up_map[u], low.up_map[u])
        assert loc33.down_map[u] == f.meet(up.down_map[u], low.down_map[u])


# -- orders from maps ------------------------------------------------------------------


def test_order_from_identity_is_cone_closure(b4):
    a, b = b4.id_of_mask(1), b4.id_of_mask(2)
    olx = O.ordered_locale_from_relation(b4, [(a, b4.top), (b4.bottom, a)])
    fmap = derived.identity_map(b4)
    pulled = oracles.order_from_map(fmap, olx)
    # the pulled-back order is the cone-determined closure of the original
    pair = O.ConePair(b4, list(olx.up_map), list(olx.down_map))
    closure = O.ordered_locale_from_monads(pair)
    for u in b4.elements():
        for v in b4.elements():
            assert pulled.related(u, v) == closure.related(u, v)
    if O.check_axiom(olx, "C-order").ok:
        assert pulled.rel_rows() == olx.rel_rows()


def test_order_from_map_is_largest_monotone(b4):
    tgt = O.ordered_locale_from_relation(
        b4, [(b4.id_of_mask(1), b4.top)])
    fmap = derived.identity_map(b4)
    pulled = oracles.order_from_map(fmap, tgt)
    assert derived.is_monotone(fmap, pulled, tgt).ok
    rows = pulled.rel_rows()
    for u in b4.elements():
        for v in b4.elements():
            if rows[u] >> v & 1:
                continue
            bigger = [r for r in rows]
            bigger[u] |= 1 << v
            enlarged = O.ordered_locale_from_relation(
                b4, [(x, y) for x in b4.elements() for y in bits(bigger[x])])
            assert not derived.is_monotone(fmap, enlarged, tgt).ok, (u, v)


def test_order_from_dn_inclusion_boolean(m33, loc33):
    # Boolean frame: the double negation sublocale is the identity
    sub, dn_map = derived.double_negation_frame(loc33.frame)
    pulled = oracles.order_from_map(dn_map, loc33)
    assert pulled.rel_rows() == loc33.rel_rows()


# -- regular cones -----------------------------------------------------------------------


def test_regular_cones(loc33, bowtie):
    assert derived.check_regular_cones(loc33).ok          # Boolean frame
    eqb = O.equality_order(bowtie.frame)
    rep = derived.check_regular_cones(eqb)
    assert not rep.ok
    u = rep.witness[0]
    f = bowtie.frame
    assert f.neg(f.neg(u)) != u


def test_regular_cones_scan_once_per_locale(bowtie, monkeypatch):
    olx = S.induced_locale(bowtie, "em")
    calls = []
    neg = olx.frame.neg
    monkeypatch.setattr(olx.frame, "neg", lambda a: calls.append(a) or neg(a))
    first = derived.check_regular_cones(olx)
    scanned = len(calls)
    assert scanned > 0
    assert derived.check_regular_cones(olx) is first and len(calls) == scanned


def test_regular_cones_on_a_boolean_frame_list_no_cone(monkeypatch):
    # every element of a Boolean frame is regular, so the check passes by
    # identity on the 21-point discrete space without its 2**21-entry lists;
    # the transport then refuses the 2**21 regular elements itself
    loc = S.induced_locale(S.OrderedSpace.build(21, [], opens="discrete"), "em")
    calls = []
    tolist = L.SubsetCone.tolist
    monkeypatch.setattr(L.SubsetCone, "tolist", lambda cone: calls.append(cone) or tolist(cone))
    rep = derived.check_regular_cones(loc)
    assert rep.ok and calls == []
    assert rep.note == "exact: the frame is Boolean, so not not is the identity"
    with pytest.raises(FrameTooLarge, match="capped at materializable relations"):
        D.double_negation_transport(loc)
    assert calls == []


# -- derived state ---------------------------------------------------------------------


def _derive_everything(olx):
    """Every derived structure of olx, in both directions; refusals of a
    locale that lacks a precondition are passed over."""
    f = olx.frame
    calls = [lambda: [O.check_axiom(olx, law) for law in O.ALL_AXIOMS],
             lambda: derived.futures_frame(olx), lambda: derived.pasts_frame(olx),
             lambda: derived.is_convex_locale(olx), lambda: derived.is_biframe(olx),
             lambda: derived.check_regular_cones(olx),
             lambda: [(derived.convex_hull(olx, u), derived.diamond(olx, u)) for u in f.elements()],
             lambda: [derived.causal_heyting(olx, f.top, u, d) for u in f.elements()
                      for d in ("future", "past")],
             lambda: D.points_space(olx), lambda: D.counit_check(olx),
             lambda: D.check_axiom_P(olx), lambda: D.ideal_points(olx),
             lambda: D.double_negation_transport(olx),
             lambda: C.check_down_grothendieck(olx),
             lambda: [C.coverage_rows(olx, d) for d in ("future", "past")],
             lambda: [C.domain_of_dependence(olx, a, d) for a in f.elements()
                      for d in ("future", "past")],
             lambda: [(C.covers_below(olx, a, f.top), C.covers_above(olx, a, f.top))
                      for a in f.elements()]]
    for call in calls:
        try:
            call()
        except OrdlocError:
            pass


def test_derived_structures_patch_no_locale():
    # derived modules keep what they build in the locale's `memo`: a locale
    # and its dual carry the attributes of a fresh locale, and no others
    m22 = gen.minkowski_grid(gen.GridSpec(2, 2))
    rows = S.induced_locale(m22, "em").rel_rows()
    f = L.powerset_frame(4)
    builds = (lambda: S.induced_locale(m22, "em"),
              lambda: O.ordered_locale_from_relation(
                  f, [(u, v) for u in f.elements() for v in bits(rows[u])]),
              lambda: rows_locale(f, list(rows)))
    for build in builds:
        olx, fresh = build(), build()
        _derive_everything(olx)
        _derive_everything(O.dual_order(olx))
        for x in (olx, O.dual_order(olx)):
            assert set(x.memo) == {"futures", "pasts", "regular-cones", "points",
                                   "ideal-points", "dual", "atom-rel", "coverage-rows"}
            assert set(vars(x)) - {"up_map", "down_map"} == \
                set(vars(fresh)) - {"up_map", "down_map"}
