"""Acceptance criteria, one test per criterion, printing one line each.

All quantities here are discrete; "tolerance" is exact equality
throughout, pinned now.  Scans are exhaustive wherever the 60-second
budget allows; the two places that sample instead of exhausting (noted
inline) are higher-arity laws on the 512-element M33 frame, with the same
laws checked exhaustively on M22.
"""

import random

from ordloc import cli, coverage as C, derived, duality as D, gen, lattice as L, \
    olocale as O, ospace as S
from ordloc.lattice import bits, mask_of_iter

from conftest import grid
import oracles


def report(num, name, ok=True):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


AXIOMS = ("V", "C-order", "C-join", "wedge+", "wedge-", "empty")


def test_criterion_01_axiom_suite():
    for name in ("m22", "m33", "m44", "vertical33"):
        olx = gen.em_locale(name)
        for law in AXIOMS:
            rep = O.check_axiom(olx, law)
            assert rep.ok, (name, law, rep.note)
        assert D.check_axiom_P(olx).ok, name
    report(1, "axiom suite on M22/M33/M44/vertical33")


def test_criterion_02_counterexamples(m33, non_oc):
    low = S.induced_locale(m33, "lower")
    rep = O.check_axiom(low, "empty")
    assert not rep.ok
    assert low.up_map[low.frame.bottom] == low.frame.top
    assert O.revalidate(low, rep)

    nloc = S.induced_locale(non_oc, "em")
    frep = O.check_axiom(nloc, "F+")
    assert not frep.ok
    f = non_oc.frame
    u, v = frep.witness
    assert f.mask_of(u) == 0b1110 and f.mask_of(v) == 0b0001
    assert O.revalidate(nloc, frep)

    ts = gen.suite_instance("two_speed_2x3")
    prep = O.check_axiom(ts, "parallel")
    assert not prep.ok
    assert O.revalidate(ts, prep)
    lbl = {l: i for i, l in enumerate(ts.frame.labels)}
    assert {ts.frame.mask_of(w) for w in prep.witness} == \
        {1 << lbl["(0,2)"], 1 << lbl["(1,0)"]}
    report(2, "counterexample suite with re-validated witnesses")


def _random_small_frame(rng):
    n = rng.randint(1, 3)
    if rng.random() < 0.4:
        return L.frame_from_topology(n, range(1 << n))
    rel = [[i == j or (i < j and rng.random() < 0.5) for j in range(n)]
           for i in range(n)]
    return oracles.downset_frame(rel)


def test_criterion_03_monad_round_trips():
    rng = random.Random(20260810)
    done = 0
    while done < 50:
        f = _random_small_frame(rng)
        if f.m > 10:
            continue
        pairs = [(rng.randrange(f.m), rng.randrange(f.m))
                 for _ in range(rng.randint(0, 6))]
        olx = O.ordered_locale_from_relation(f, pairs)
        # cones are monads
        O.ConePair(f, list(olx.up_map), list(olx.down_map)).validate()
        # monads -> order -> cones is the identity
        back = O.ordered_locale_from_monads(
            O.ConePair(f, list(olx.up_map), list(olx.down_map)))
        assert back.up_map == olx.up_map and back.down_map == olx.down_map
        # order -> monads -> order is the identity exactly under C-order
        same = all(back.related(u, v) == olx.related(u, v)
                   for u in f.elements() for v in f.elements())
        assert same == O.check_axiom(olx, "C-order").ok
        done += 1
    report(3, "50 random join-saturated orders: monad round trips")


def test_criterion_04_secondary_structure(m33, loc33):
    f = loc33.frame
    assert derived.convex_hull(loc33, grid(m33, (0, 0), (2, 0))) == \
        grid(m33, (0, 0), (1, 0), (1, 1), (2, 0))
    c = grid(m33, (1, 1))
    assert derived.causal_complement(loc33, c) == grid(m33, (1, 0), (1, 2))
    assert derived.diamond(loc33, c) == c
    hull = [derived.convex_hull(loc33, u) for u in f.elements()]
    compl = [derived.causal_complement(loc33, u) for u in f.elements()]
    for u in f.elements():
        assert f.leq(u, hull[u])                            # inflationary
        assert hull[hull[u]] == hull[u]                     # idempotent
        assert f.leq(hull[u], compl[compl[u]])              # hull <= diamond
    assert compl[f.top] == f.bottom                         # (c)
    assert compl[f.bottom] == f.top                         # (d)
    for u in f.elements():
        assert f.meet(u, compl[u]) == f.bottom              # (a)
        assert f.leq(u, compl[compl[u]])                    # (e)
        um = f.mask_of(u)
        for v in f.elements():
            vm = f.mask_of(v)
            if um & ~vm == 0:
                assert f.leq(hull[u], hull[v])              # hull monotone
                assert f.leq(compl[v], compl[u])            # (b)
            assert f.leq(u, compl[v]) == f.leq(v, compl[u])  # (f)
            assert compl[f.join(u, v)] == f.meet(compl[u], compl[v])  # (g)
    report(4, "hulls, complements, diamonds on M33, laws (a)-(g) exhaustive")


def test_criterion_05_boundary_suite(m33, loc33):
    ips = D.ideal_points(loc33)
    assert len(ips.ips) == 9
    assert {loc33.frame.mask_of(i) for i in ips.ips} == \
        {m33.down[p] for p in range(9)}
    lv = gen.em_locale("vertical33")
    assert len(D.ideal_points(lv).ips) == 9
    # negation bijection, elementwise
    f = loc33.frame
    assert ips.negation_bijection is True
    assert sorted(f.neg(p) for p in ips.future_points) == sorted(ips.ips)
    assert sorted(f.neg(p) for p in ips.past_points) == sorted(ips.ifs)
    assert D.double_negation_transport(loc33).ok
    report(5, "ideal points and negation bijection on M33/vertical33")


def test_criterion_06_duality_suite(m33, bowtie):
    rep = D.unit_check(m33)
    assert rep.ok and rep.details["fixed_point"]
    pts = rep.points_space
    eta = rep.eta
    assert sorted(eta) == list(range(9))                    # bijective
    for x in range(9):
        for y in range(9):
            assert m33.leq_points(x, y) == pts.leq_points(eta[x], eta[y])

    brep = D.unit_check(bowtie)
    d = brep.details
    assert d["sober"] and d["open_cones"] and not d["T0_ordered"]
    assert not brep.ok
    lbl = {l: i for i, l in enumerate(bowtie.labels)}
    i, j = brep.witness
    assert {i, j} == {brep.eta[lbl["x"]], brep.eta[lbl["y"]]}

    for name, inst in gen.standard_suite():
        olx = inst if isinstance(inst, O.OrderedLocale) \
            else S.induced_locale(inst, "em")
        if olx.frame.m <= 1024:
            assert derived.is_T0_ordered(D.points_space(olx)).ok, name
    report(6, "duality fixed points, bowtie witness, pt always T0-ordered")


def test_criterion_07_coverage_suite(m22, loc22, m33, loc33):
    f = loc33.frame
    row0 = grid(m33, (0, 0), (0, 1), (0, 2))
    yes = C.covers_below(loc33, row0, grid(m33, (2, 1)), 4)
    assert yes.status == "yes"
    a2 = grid(m33, (0, 0), (0, 2))
    no = C.covers_below(loc33, a2, grid(m33, (1, 0)), 4)
    assert no.status == "no" and no.witness is not None
    assert [f.pretty(s) for s in no.witness.steps] == ["{(0,1)}", "{(1,0)}"]

    d_row0 = C.domain_of_dependence(loc33, row0, "future")
    assert d_row0.region == f.top and d_row0.exact
    d_a2 = C.domain_of_dependence(loc33, a2, "future")
    assert d_a2.region == a2 and d_a2.exact
    assert f.mask_of(d_a2.region) == \
        derived.pointwise_domain_of_dependence(m33, f.mask_of(a2), "future").mask

    rng = random.Random(77)
    for olx, space, exhaustive in ((loc22, m22, True), (loc33, m33, False)):
        fr = olx.frame
        rows = C.coverage_rows(olx, "past")
        rows_up = C.coverage_rows(olx, "future")
        up, dn = olx.up_map, olx.down_map
        for u in fr.elements():
            assert rows[u] >> u & 1 and rows_up[u] >> u & 1          # (a)
            assert rows[u] >> dn[u] & 1 and rows_up[u] >> up[u] & 1  # (b)
            assert C.region_of_influence(fr, rows, u) == dn[u]       # L- = down
            assert C.region_of_influence(fr, rows_up, u) == up[u]    # L+ = up
            for a in bits(rows[u]):
                assert rows[a] & ~rows[u] == 0                       # (c)
                assert olx.related(a, u)                             # (e)
        assert rows[fr.bottom] == 1 << fr.bottom                     # (f)
        # (d) pullback stability and (Cov-v): exhaustive on M22, sampled on
        # the 512-element M33 (the same laws, lower arity scans above, are
        # exhaustive there)
        pair_iter = ((u1, u2) for u1 in fr.elements() for u2 in fr.elements()) \
            if exhaustive else (
                (rng.randrange(fr.m), rng.randrange(fr.m)) for _ in range(1500))
        for u1, u2 in pair_iter:
            j = fr.join(u1, u2)
            combo = 0
            for x1 in bits(rows[u1]):
                for x2 in bits(rows[u2]):
                    combo |= 1 << fr.join(x1, x2)
            assert combo == rows[j], (u1, u2)
        duw_iter = ((u, w) for u in fr.elements()
                    for w in bits(fr.down_row(u))) if exhaustive else (
            (lambda u: (u, rng.choice(list(bits(fr.down_row(u))))))(
                rng.randrange(fr.m)) for _ in range(1200))
        for u, w in duw_iter:
            for a in bits(rows[u]):
                assert rows[w] >> fr.meet(a, dn[w]) & 1, (u, w, a)   # (d-)
        # D+/D- monads and L o D = L
        dplus = []
        for a in fr.elements():
            vs = mask_of_iter(v for v in fr.elements() if rows[v] >> a & 1)
            dplus.append(fr.join_of_idmask(vs))
        for a in fr.elements():
            assert fr.leq(a, dplus[a])
            assert dplus[dplus[a]] == dplus[a]
            assert up[dplus[a]] == up[a]                 # L+ o D+ = L+
            assert fr.leq(dplus[a], up[a])               # D+ <= L+
        for a in fr.elements():
            for b in bits(fr.up_row(a)):
                assert fr.leq(dplus[a], dplus[b])        # monotone
        # chain coverage never contradicts the localic one
        chain_iter = ((a, u) for a in fr.elements() for u in fr.elements()) \
            if exhaustive else (
                (rng.randrange(fr.m), rng.randrange(fr.m)) for _ in range(2500))
        for a, u in chain_iter:
            if derived.chain_covers_below(space, fr.mask_of(a), fr.mask_of(u)).ok:
                assert rows[u] >> a & 1, (a, u)
    report(7, "coverage suite: certified verdicts, domains, laws (a)-(f), "
              "Cov-v, L/D identities, chain vs localic")


def test_criterion_08_path_suite(loc22):
    f = loc22.frame
    rows = loc22.rel_rows()
    nonbottom = [e for e in f.elements() if e != f.bottom]
    paths = [[e] for e in nonbottom]
    all_paths = []
    while paths:
        p = paths.pop()
        all_paths.append(p)
        if len(p) < 3:
            for nxt in bits(rows[p[-1]]):
                if nxt != f.bottom and nxt != p[-1]:
                    paths.append(p + [nxt])
    rng = random.Random(8)
    for steps in all_paths:
        p = C.Path(tuple(steps))
        assert C.restrict_path(loc22, p, p.end).steps == p.steps
        subs = [w for w in bits(f.down_row(p.end)) if w != f.bottom]
        for v in subs:
            pv = C.restrict_path(loc22, p, v)
            for w in bits(f.down_row(v)):
                if w == f.bottom:
                    continue
                assert C.restrict_path(loc22, pv, w).steps == \
                    C.restrict_path(loc22, p, w).steps
        # join over restrictions recovers every step: every cover of the
        # endpoint refines the atom cover, and restriction is monotone in
        # the endpoint region, so the atom cover decides all covers; a few
        # random general covers are checked on top
        atoms = [a for a in f.atoms() if f.leq(a, p.end)]
        restr = [C.restrict_path(loc22, p, a) for a in atoms]
        for n in range(len(steps)):
            assert f.join_all(r.steps[n] for r in restr) == steps[n]
        for v in subs:
            rv = C.restrict_path(loc22, p, v)
            for a in atoms:
                if f.leq(a, v):
                    ra = C.restrict_path(loc22, p, a)
                    assert all(f.leq(x, y) for x, y in zip(ra.steps, rv.steps))
        if len(subs) >= 2:
            cover = rng.sample(subs, min(3, len(subs)))
            if f.join_all(cover) == p.end:
                rs = [C.restrict_path(loc22, p, w) for w in cover]
                for n in range(len(steps)):
                    assert f.join_all(r.steps[n] for r in rs) == steps[n]
    report(8, f"path suite over {len(all_paths)} paths on M22")


def test_criterion_09_grothendieck():
    rep22 = C.check_down_grothendieck(gen.em_locale("m22"))
    assert rep22.ok and rep22.abstentions == 0
    b4 = L.frame_from_topology(2, [0, 1, 2, 3])
    repb = C.check_down_grothendieck(O.equality_order(b4))
    assert repb.ok and repb.abstentions == 0
    report(9, "Grothendieck axioms with zero abstentions on M22 and B4")


def _suite_frames_upto_64():
    frames = []
    for name, inst in gen.standard_suite():
        if inst.frame.m <= 64:
            frames.append((name, inst.frame))
    loc22 = gen.em_locale("m22")
    frames.append(("m22-pasts", derived.pasts_frame(loc22)[0]))
    frames.append(("m22-futures", derived.futures_frame(loc22)[0]))
    bow = gen.suite_instance("bowtie").frame
    frames.append(("bowtie-dn", derived.double_negation_frame(bow)[0]))
    frames.append(("m22-diamond",
                   gen.minkowski_grid(gen.GridSpec(2, 2,
                                                   topology="diamond_basis")).frame))
    return frames


def test_criterion_10_lattice_suite():
    for name, f in _suite_frames_upto_64():
        assert f.m <= 64
        for x in f.elements():
            assert f.leq(x, f.neg(f.neg(x)))
            assert f.neg(f.neg(f.neg(x))) == f.neg(x)
            for y in f.elements():
                assert f.neg(f.neg(f.meet(x, y))) == \
                    f.meet(f.neg(f.neg(x)), f.neg(f.neg(y)))
                assert f.neg(f.join(x, y)) == f.meet(f.neg(x), f.neg(y))
                assert (f.meet(x, y) == f.bottom) == f.leq(x, f.neg(y))
        fmap = derived.identity_map(f)
        assert derived.galois_law_holds(fmap)
        assert sorted(f.primes()) == sorted(oracles.primes_by_definition(f)), name
        assert sorted(f.coprimes()) == sorted(oracles.coprimes_by_definition(f))
        if f.is_boolean():
            # Boolean primes are exactly the Heyting complements of atoms
            assert sorted(f.primes()) == sorted(f.neg(a) for a in f.atoms())
        idl, wit = derived.ideal_frame(f)
        assert idl.m == f.m
        for x in f.elements():
            for y in f.elements():
                assert f.leq(x, y) == idl.leq(wit[x], wit[y])
    # primes of a T0 topology biject with the points
    for name in ("m22", "bowtie", "non_oc", "total3", "chain3"):
        sp = gen.suite_instance(name)
        if derived.is_T0(sp) and sp.frame.m <= 64:
            assert len(sp.frame.primes()) == sp.n, name
    report(10, "lattice suite exhaustive on all suite frames <= 64 elements")


def test_criterion_11_triangle_ideals(m33):
    ideals = D.triangle_ideals(m33.n, list(m33.up))
    masks = {i.mask for i in ideals}
    for p in range(m33.n):
        assert m33.down[p] in masks
    assert D.is_past_semi_full(m33.n, list(m33.up)).ok

    strict = [m33.up[p] & ~(1 << p) for p in range(m33.n)]
    assert D.triangle_ideals(m33.n, strict) == []
    rep = D.is_past_semi_full(m33.n, strict)
    assert not rep.ok
    lbl = {l: i for i, l in enumerate(m33.labels)}
    x, y1, y2 = lbl["(2,1)"], lbl["(1,0)"], lbl["(1,2)"]
    assert strict[y1] >> x & 1 and strict[y2] >> x & 1
    assert not any(strict[y1] >> z & 1 and strict[y2] >> z & 1
                   and strict[z] >> x & 1 for z in range(m33.n))
    report(11, "relation ideals: preorder vs strict chronology degeneration")


def test_criterion_12_cli():
    for name, inst in gen.standard_suite():
        doc = (cli.doc_of_space(inst, name) if isinstance(inst, S.OrderedSpace)
               else cli.doc_of_locale(inst, name))
        text = cli.serialize(doc)
        assert cli.serialize(cli.parse(text)) == text, name
    # documented exit codes, exercised in-process
    m22 = gen.suite_instance("m22")
    m22_text = cli.serialize(cli.doc_of_space(m22))
    import tempfile
    import os as _os
    with tempfile.TemporaryDirectory() as td:
        bad = _os.path.join(td, "bad.json")
        with open(bad, "w") as fh:
            fh.write("{not json")
        assert cli.main(["check", bad]) == 2
        p = _os.path.join(td, "m22.json")
        with open(p, "w") as fh:
            fh.write(m22_text)
        out = _os.path.join(td, "out.txt")
        assert cli.main(["check", p, "--axiom", "all", "--out", out]) == 0
        ts = gen.suite_instance("two_speed_2x3")
        tp = _os.path.join(td, "ts.json")
        with open(tp, "w") as fh:
            fh.write(cli.serialize(cli.doc_of_locale(ts, "ts")))
        assert cli.main(["check", tp, "--axiom", "parallel", "--out", out]) == 1
        chain = gen.suite_instance("chain3")
        cp = _os.path.join(td, "chain.json")
        with open(cp, "w") as fh:
            fh.write(cli.serialize(cli.doc_of_space(chain)))
        # non-atomistic frame: coverage is honestly inconclusive -> exit 3
        assert cli.main(["cov", cp, "--region", "0", "--target", "0,1",
                         "--out", out]) == 3
    # golden DOT comparisons on small frames (big discrete frames are
    # rejected by the size flag)
    import os
    golden = os.path.join(os.path.dirname(__file__), "golden")
    bow = derived.export_dot(S.induced_locale(gen.suite_instance("bowtie"), "em"), "hasse")
    with open(os.path.join(golden, "bowtie_hasse.dot")) as fh:
        assert bow == fh.read()
    m22d = gen.minkowski_grid(gen.GridSpec(2, 2, topology="diamond_basis"))
    dot = derived.export_dot(S.induced_locale(m22d, "em"), "cones")
    with open(os.path.join(golden, "m22_diamond_cones.dot")) as fh:
        assert dot == fh.read()
    with tempfile.TemporaryDirectory() as td:
        mp = os.path.join(td, "m33.json")
        with open(mp, "w") as fh:
            fh.write(cli.serialize(cli.doc_of_space(gen.suite_instance("m33"))))
        assert cli.main(["dot", mp]) == 2
    report(12, "CLI round trips, exit codes, golden DOT files")
