"""Paths, refinements, causal coverage, domains of dependence,
Grothendieck axioms."""

import random

import pytest

from ordloc import coverage as C, gen, lattice as L, olocale as O, ospace as S
from ordloc.errors import (
    EmptyRestriction,
    FrameTooLarge,
    NotASubregion,
    NotParallelOrdered,
    NotRelated,
    PreconditionAxioms,
)
from ordloc.lattice import bits, mask_of_iter

import oracles
from conftest import grid, rows_locale


# -- paths ------------------------------------------------------------------------


def test_validate_path_m33(m33, loc33):
    p = C.validate_path(loc33, [grid(m33, (0, 1)),
                                grid(m33, (1, 0), (1, 1), (1, 2)),
                                grid(m33, (2, 1))])
    assert len(p) == 3
    C.validate_path(loc33, [grid(m33, (1, 1))])
    with pytest.raises(NotRelated) as e:
        C.validate_path(loc33, [grid(m33, (0, 0)), grid(m33, (0, 1))])
    assert e.value.index == 0


def test_refinement_relation(m33, loc33):
    p = C.validate_path(loc33, [grid(m33, (0, 0), (0, 1), (0, 2)),
                                grid(m33, (1, 0), (1, 1), (1, 2))])
    assert C.refines(loc33, p, p)
    q = C.validate_path(loc33, [grid(m33, (0, 1)), grid(m33, (1, 1))])
    assert C.refines(loc33, q, p)
    assert not C.refines(loc33, p, q)
    # prepending an extra past step keeps the refinement
    q2 = C.validate_path(loc33, [grid(m33, (0, 1)), grid(m33, (1, 1)),
                                 grid(m33, (2, 1))])
    r = C.validate_path(loc33, [grid(m33, (0, 0)), grid(m33, (1, 1)),
                                grid(m33, (2, 1))])
    big = C.validate_path(loc33, [grid(m33, (1, 1)), grid(m33, (2, 1))])
    assert C.refines(loc33, q2, big) and C.refines(loc33, r, big)


def test_restriction_example(m33, loc33):
    p = C.validate_path(loc33, [grid(m33, (0, 0), (0, 2)),
                                grid(m33, (1, 0), (1, 1), (1, 2))])
    w = grid(m33, (1, 0))
    r = C.restrict_path(loc33, p, w)
    assert r.steps == (grid(m33, (0, 0)), w)
    assert C.refines(loc33, r, p)
    # whole endpoint: identity
    assert C.restrict_path(loc33, p, p.end).steps == p.steps
    # functoriality
    v = grid(m33, (1, 0), (1, 1))
    assert C.restrict_path(loc33, C.restrict_path(loc33, p, v), w).steps == \
        r.steps


def test_restriction_errors(m33, loc33, b4=None):
    p = C.validate_path(loc33, [grid(m33, (0, 1)), grid(m33, (1, 1))])
    with pytest.raises(NotASubregion):
        C.restrict_path(loc33, p, grid(m33, (2, 2)))
    with pytest.raises(EmptyRestriction):
        C.restrict_path(loc33, p, loc33.frame.bottom)
    inc = O.inclusion_order(L.frame_from_topology(2, [0, 1, 2, 3]))
    ip = C.validate_path(inc, [1, 3])
    with pytest.raises(NotParallelOrdered):
        C.restrict_path(inc, ip, 1)


def _all_paths(olx, max_len, land_in=None):
    f = olx.frame
    rows = olx.rel_rows()
    nonbottom = [e for e in f.elements() if e != f.bottom]
    paths = [[e] for e in nonbottom]
    out = []
    while paths:
        p = paths.pop()
        if land_in is None or f.leq(p[-1], land_in):
            out.append(p)
        if len(p) < max_len:
            for nxt in bits(rows[p[-1]]):
                if nxt != f.bottom and nxt != p[-1]:
                    paths.append(p + [nxt])
    return out


def test_join_over_restrictions_m22(m22, loc22):
    # atom covers exhaustively over all paths of length <= 3; general covers
    # follow by monotonicity of restriction in the endpoint (checked too)
    f = loc22.frame
    rng = random.Random(2)
    for steps in _all_paths(loc22, 3):
        p = C.Path(tuple(steps))
        atoms = [a for a in f.atoms() if f.leq(a, p.end)]
        restr = [C.restrict_path(loc22, p, a) for a in atoms]
        for n in range(len(steps)):
            assert f.join_all(r.steps[n] for r in restr) == steps[n]
        # monotone in the endpoint region
        for _ in range(2):
            w = rng.choice(atoms)
            v = f.join(w, rng.choice(list(bits(f.down_row(p.end)))))
            if v == f.bottom or not f.leq(v, p.end):
                continue
            rw, rv = C.restrict_path(loc22, p, w), C.restrict_path(loc22, p, v)
            assert all(f.leq(a, b) for a, b in zip(rw.steps, rv.steps))
        # a couple of random general covers on top
        if len(atoms) > 1:
            cover = atoms + [rng.choice(list(bits(f.down_row(p.end))))]
            cover = [w for w in cover if w != f.bottom]
            if f.join_all(cover) == p.end:
                rs = [C.restrict_path(loc22, p, w) for w in cover]
                for n in range(len(steps)):
                    assert f.join_all(r.steps[n] for r in rs) == steps[n]


def test_restriction_preserves_refinement_under_hypothesis(m33, loc33):
    f = loc33.frame
    p = C.validate_path(loc33, [grid(m33, (0, 0), (0, 1), (0, 2)),
                                grid(m33, (1, 0), (1, 1), (1, 2)),
                                grid(m33, (2, 0), (2, 1), (2, 2))])
    q = C.validate_path(loc33, [grid(m33, (0, 1)), grid(m33, (1, 1)),
                                grid(m33, (2, 1))])
    # hypothesis: each step of q inside p_n has a successor inside p_{n+1}
    w = grid(m33, (2, 1))
    assert C.refines(loc33, q, p)
    assert C.refines(loc33, C.restrict_path(loc33, q, w),
                     C.restrict_path(loc33, p, w))


# -- covers_below -----------------------------------------------------------------


def test_covers_yes(m33, loc33):
    row0 = grid(m33, (0, 0), (0, 1), (0, 2))
    v = C.covers_below(loc33, row0, grid(m33, (2, 1)), 4)
    assert v.status == "yes"
    assert isinstance(v.witness, C.LocalRefinement)


def test_covers_certified_no(m33, loc33):
    f = loc33.frame
    a = grid(m33, (0, 0), (0, 2))
    v = C.covers_below(loc33, a, grid(m33, (1, 0)), 4)
    assert v.status == "no"
    assert [f.pretty(s) for s in v.witness.steps] == ["{(0,1)}", "{(1,0)}"]
    # re-derive the obstruction: the only insertable region inside A and
    # the past of (1,0) is {(0,0)}, causally incomparable with {(0,1)}
    insertable = f.meet(a, loc33.down_map[grid(m33, (1, 0))])
    assert insertable == grid(m33, (0, 0))
    assert not loc33.related(grid(m33, (0, 1)), insertable)
    assert not loc33.related(insertable, grid(m33, (0, 1)))


def test_covers_self(m33, loc33):
    u = grid(m33, (1, 1), (2, 2))
    assert C.covers_below(loc33, u, u, 4).status == "yes"


def test_covers_requires_axioms(m33):
    low = S.induced_locale(m33, "lower")
    with pytest.raises(PreconditionAxioms):
        C.covers_below(low, 1, 1, 4)


def test_covers_above_dual(m33, loc33):
    row2 = grid(m33, (2, 0), (2, 1), (2, 2))
    v = C.covers_above(loc33, row2, grid(m33, (0, 1)), 4)
    assert v.status == "yes"


def test_bottom_coverage(loc33):
    f = loc33.frame
    assert C.covers_below(loc33, f.bottom, f.bottom).status == "yes"
    assert C.covers_below(loc33, f.bottom, f.top).status == "no"


# -- coverage properties -----------------------------------------------------------


def test_coverage_properties_m22(loc22):
    f = loc22.frame
    rows = C.coverage_rows(loc22, "past")
    rows_up = C.coverage_rows(loc22, "future")
    up, dn = loc22.up_map, loc22.down_map
    for u in f.elements():
        assert rows[u] >> u & 1                       # (a)
        assert rows[u] >> dn[u] & 1                   # (b)
        assert rows_up[u] >> up[u] & 1
        for a in bits(rows[u]):
            assert rows[a] & ~rows[u] == 0            # (c) transitivity
            assert loc22.related(a, u)                # (e)
            for w in bits(f.down_row(u)):             # (d-) pullback
                assert rows[w] >> f.meet(a, dn[w]) & 1
        for b in bits(rows_up[u]):
            assert loc22.related(u, b)
    assert rows[f.bottom] == 1 << f.bottom            # (f)
    assert rows_up[f.bottom] == 1 << f.bottom
    # L- is the past cone, L+ the future cone
    for u in f.elements():
        assert C.region_of_influence(f, rows, u) == dn[u]
        assert C.region_of_influence(f, rows_up, u) == up[u]


def test_cov_join_law_m22(loc22):
    f = loc22.frame
    rows = C.coverage_rows(loc22, "past")
    for u1 in f.elements():
        for u2 in f.elements():
            j = f.join(u1, u2)
            combo = 0
            for a1 in bits(rows[u1]):
                for a2 in bits(rows[u2]):
                    combo |= 1 << f.join(a1, a2)
            assert combo == rows[j], (u1, u2)


def test_domains_are_monads_m22(loc22):
    f = loc22.frame
    d = {a: C.domain_of_dependence(loc22, a, "future").region
         for a in f.elements()}
    for a in f.elements():
        assert d[a] is not None
        assert f.leq(a, d[a])
        assert d[d[a]] == d[a]
        assert f.leq(loc22.up_map[d[a]], loc22.up_map[a])  # L+ o D+ = L+
        assert loc22.up_map[d[a]] == loc22.up_map[a]
        assert f.leq(d[a], loc22.up_map[a])                # D+ <= L+
        for b in f.elements():
            if f.leq(a, b):
                assert f.leq(d[a], d[b])


def test_domain_examples(m33, loc33):
    f = loc33.frame
    row0 = grid(m33, (0, 0), (0, 1), (0, 2))
    res = C.domain_of_dependence(loc33, row0, "future")
    assert res.region == f.top and res.exact
    a = grid(m33, (0, 0), (0, 2))
    res2 = C.domain_of_dependence(loc33, a, "future")
    assert res2.region == a and res2.exact
    assert C.domain_of_dependence(loc33, f.bottom, "future").region == f.bottom
    # agrees with the pointwise chain-based domain
    pd = oracles.pointwise_domain_of_dependence(m33, m33.frame.mask_of(a), "future")
    assert m33.frame.mask_of(res2.region) == pd.mask


def test_vertical_domains():
    lv = gen.em_locale("vertical33")
    v = gen.suite_instance("vertical33")
    bottom0 = oracles.grid_open(v, [(0, 0)])
    col0 = v.frame.id_of_mask(mask_of_iter(
        i for i, l in enumerate(v.labels) if l.startswith("(0,")))
    res = C.domain_of_dependence(lv, bottom0, "future")
    assert res.region == col0 and res.exact


@pytest.mark.parametrize("size", [(3, 4), (4, 4)])
def test_large_grid_row0_future_is_whole_grid(size):
    # above REL_LIMIT, as below it, the answer is the closed form K(A)
    t, x = size
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(t, x)), "em")
    assert loc.frame.m > O.REL_LIMIT
    res = C.domain_of_dependence(loc, (1 << x) - 1, "future")
    assert (res.region, res.exact, res.unresolved) == (loc.frame.top, True, 0)


def test_dod_on_m44_lists_no_cone(monkeypatch):
    # the closed form reads the generator-form cones one element at a time:
    # no 2**16 cone list is built in either direction
    calls = [0]
    tolist = L.SubsetCone.tolist

    def counting(self):
        calls[0] += 1
        return tolist(self)

    monkeypatch.setattr(L.SubsetCone, "tolist", counting)
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(4, 4)), "em")
    assert isinstance(loc.cones.u, L.SubsetCone)
    for direction in ("future", "past"):
        res = C.domain_of_dependence(loc, 0b1111, direction)
        assert res.exact and res.unresolved == 0
    assert calls[0] == 0
    assert isinstance(loc.cones.u, L.SubsetCone) and isinstance(loc.cones.d, L.SubsetCone)


def test_coverage_rows_build_the_atom_relation_once_per_direction(monkeypatch):
    # the atom relation depends on the locale, not on the region A: M33 in
    # both directions made 88,088 `related` calls when each of its 512
    # regions rebuilt the 9 x 9 relation
    calls = [0]
    related = O.OrderedLocale.related

    def counting(self, u, v):
        calls[0] += 1
        return related(self, u, v)

    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 3)), "em")
    monkeypatch.setattr(O.OrderedLocale, "related", counting)
    rows = [C.coverage_rows(loc, d) for d in ("past", "future")]
    assert calls[0] == 5306
    monkeypatch.undo()
    dual = O.dual_order(loc)
    assert loc.memo["atom-rel"] is not dual.memo["atom-rel"]
    for work, got in ((loc, rows[0]), (dual, rows[1])):
        cols = [oracles.coverage_column_loop(loc, work, a)[0] for a in loc.frame.elements()]
        assert got == L.transpose_rows([mask_of_iter(c) for c in cols])


def test_dod_is_bottom_where_A_lies_outside_down_of_K():
    # the empty relation: every cone is bottom, so A != bottom covers no
    # region, though K(A) holds the atoms of A
    f = L.powerset_frame(2)
    loc = rows_locale(f, [0] * f.m)
    assert [C._AtomCoverage(loc, a).good_join() for a in f.elements()] == [0, 1, 2, 3]
    for direction in ("future", "past"):
        assert [C.domain_of_dependence(loc, a, direction).region
                for a in f.elements()] == [0, 0, 0, 0]


def test_dod_on_non_atomistic_frame_keeps_its_pending_count(bowtie):
    # without atoms only A = U and A = cone(U) are certain: D(A) = A, and
    # every other U with A inside its cone stays unresolved
    loc = S.induced_locale(bowtie, "em")
    f = loc.frame
    assert not f.is_atomistic()
    for direction, pending in (("future", [0, 5, 4, 4, 4, 4, 0]),
                               ("past", [0, 4, 5, 4, 4, 4, 0])):
        work = loc if direction == "future" else O.dual_order(loc)
        for a in f.elements():
            res = C.domain_of_dependence(loc, a, direction)
            members, want = oracles.coverage_column_loop(loc, work, a)
            assert (res.region, res.exact, res.unresolved) == (
                f.join_all(members), not want, len(want)) == (a, not pending[a], pending[a])


def test_chain_coverage_never_contradicts_localic(m22, loc22, m33, loc33):
    # pointwise chain pass implies the localic verdict is never "no"
    rows = C.coverage_rows(loc22, "past")
    f = loc22.frame
    for a in f.elements():
        for u in f.elements():
            chain = oracles.chain_covers_below(m22, f.mask_of(a), f.mask_of(u))
            if chain.ok:
                assert rows[u] >> a & 1, (a, u)
    rows33 = C.coverage_rows(loc33, "past")
    f33 = loc33.frame
    rng = random.Random(9)
    for _ in range(2500):
        a, u = rng.randrange(f33.m), rng.randrange(f33.m)
        chain = oracles.chain_covers_below(m33, f33.mask_of(a), f33.mask_of(u))
        if chain.ok:
            assert rows33[u] >> a & 1, (a, u)


# -- abstract coverage ----------------------------------------------------------------


def test_abstract_identity_coverage_is_the_equality_coverage():
    # Cov(U) = {U} is exactly the path coverage of the equality order, and
    # as such satisfies every axiom (joins of componentwise choices give
    # back the join)
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    table = {u: [u] for u in f.elements()}
    reps = {r.law: r for r in oracles.abstract_coverage_check(f, table, table)}
    for law, r in reps.items():
        assert r.ok, law
    eq_rows = C.coverage_rows(O.equality_order(f), "past")
    assert eq_rows == [1 << u for u in f.elements()]


def test_abstract_padded_coverage_fails_C2():
    # adjoining bottom to every cover breaks the join decomposition:
    # a proper part U1 of U1 v U2 appears as U1 v bottom on the right
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    table = {u: sorted({u, f.bottom}) for u in f.elements()}
    reps = {r.law: r for r in oracles.abstract_coverage_check(f, table, table)}
    assert reps["C1"].ok
    assert not reps["C2"].ok
    u1, u2 = reps["C2"].witness
    j = f.join(u1, u2)
    rhs = {f.join(a1, a2) for a1 in table[u1] for a2 in table[u2]}
    assert rhs != set(table[j])


@pytest.mark.parametrize("law, minus, witness", [
    # C1: {0} misses its own cover
    ("C1", {0: [0], 1: [0], 2: [2], 3: [3]}, (1,)),
    # C2 with the nullary join: the empty region covers only itself
    ("C2", {0: [0, 1], 1: [1], 2: [2], 3: [3]}, (0,)),
    # C3: {0} covers {1}, which covers the top, but {0} does not cover it
    ("C3", {0: [0], 1: [1], 2: [1, 2], 3: [2, 3]}, (1, 2, 3)),
])
def test_abstract_coverage_fails_with_least_witness(law, minus, witness):
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    plus = {u: [u] for u in f.elements()}
    rep = {r.law: r for r in oracles.abstract_coverage_check(f, minus, plus)}[law]
    assert (rep.verdict, rep.witness) == ("fail", witness)


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_abstract_coverage_fails_C4_with_least_witness(side):
    # on the powerset of 3 points the top is covered by {3, 4, 5, 7}: the
    # interval [3, 7] is inside, the least member whose interval up to a
    # member is not is 4, and [4, 7] misses 6 (the interval [4, 5] is in)
    f = L.frame_from_topology(3, range(8))
    ident = {u: [u] for u in f.elements()}
    odd = {**ident, 7: [3, 4, 5, 7]}
    minus, plus = (odd, ident) if side == "minus" else (ident, odd)
    rep = {r.law: r for r in oracles.abstract_coverage_check(f, minus, plus)}["C4"]
    assert (rep.verdict, rep.witness) == ("fail", (4, 6, 7, 7))


def test_abstract_downset_coverage_fails_C5():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    eq = O.equality_order(f)
    # Cov-(U) = {V : V <= down(U)} = {V <= U} on the equality order
    down_t = {u: [v for v in f.elements() if f.leq(v, u)] for u in f.elements()}
    up_t = {u: [v for v in f.elements() if f.leq(v, u)] for u in f.elements()}
    reps = {r.law: r for r in oracles.abstract_coverage_check(f, down_t, up_t)}
    assert not reps["C5"].ok
    a, u = reps["C5"].witness
    assert f.leq(a, u) and a != u


def test_real_coverage_tables_pass_abstract_axioms(loc22):
    f = loc22.frame
    minus = C.coverage_rows(loc22, "past")
    plus = C.coverage_rows(loc22, "future")
    reps = oracles.abstract_coverage_check(f, list(minus), list(plus))
    for r in reps:
        assert r.ok, (r.law, r.witness)


# -- Grothendieck ----------------------------------------------------------------------


def test_grothendieck_m22(loc22):
    rep = C.check_down_grothendieck(loc22)
    assert rep.ok and rep.abstentions == 0


def test_grothendieck_boolean_equality():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    rep = C.check_down_grothendieck(O.equality_order(f))
    assert rep.ok and rep.abstentions == 0


def test_grothendieck_trivial_frame():
    f = L.frame_from_topology(1, [0, 1])
    rep = C.check_down_grothendieck(O.equality_order(f))
    assert rep.ok and rep.abstentions == 0


@pytest.mark.parametrize("size", [(2, 3), (3, 3)])
def test_grothendieck_m23_m33_pass_exhaustively(size):
    # sieves are read at their joins, so the 64- and 512-element frames
    # answer like M22, with the same note
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(*size)), "em")
    rep = C.check_down_grothendieck(loc)
    assert (rep.verdict, rep.note, rep.abstentions) == \
        ("pass", "exhaustive sieve enumeration; 0 abstentions", 0)


def test_grothendieck_answers_at_rel_limit():
    # eleven spacelike points: 2,048 elements, REL_LIMIT itself
    loc = S.induced_locale(gen.minkowski_grid(gen.GridSpec(1, 11)), "em")
    assert loc.frame.m == O.REL_LIMIT and loc.frame.is_atomistic()
    rep = C.check_down_grothendieck(loc)
    assert (rep.verdict, rep.abstentions) == ("pass", 0)


def test_grothendieck_refuses_where_coverage_rows_does():
    # its only size guard is that of the membership rows: M34 has 4,096
    # elements, and chain3 is not atomistic
    m34 = S.induced_locale(gen.minkowski_grid(gen.GridSpec(3, 4)), "em")
    with pytest.raises(FrameTooLarge, match="bulk coverage capped at materializable sizes"):
        C.check_down_grothendieck(m34)
    with pytest.raises(FrameTooLarge, match="bulk coverage needs an atomistic frame"):
        C.check_down_grothendieck(gen.em_locale("chain3"))
