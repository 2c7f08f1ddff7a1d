"""Generators: grid orders, defects, determinism, catalogue expectations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordloc import cli, derived, gen, lattice as L, olocale as O, ospace as S
from ordloc.errors import SlopesUnequal, ValidationError
from ordloc.lattice import bits, mask_of_iter, popcount

import oracles

SLOPES = tuple(map(Fraction, ("1", "2", "1/2", "3/2", "2/3", "5/3")))


def _single_step_closure_oracle(t, x, slope, dead=()):
    """Independent order oracle: reachability along one-row moves."""
    alive = [(a, b) for a in range(t) for b in range(x) if (a, b) not in dead]
    idx = {p: i for i, p in enumerate(alive)}
    n = len(alive)
    rows = [0] * n
    for (a, b) in alive:
        for b2 in range(x):
            if abs(b2 - b) <= slope and (a + 1, b2) in idx:
                rows[idx[(a, b)]] |= 1 << idx[(a + 1, b2)]
    # reflexive-transitive closure by plain iteration
    for i in range(n):
        rows[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in bits(acc):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return alive, idx, rows


def test_m33_order_matches_single_step_oracle(m33):
    alive, idx, rows = _single_step_closure_oracle(3, 3, 1)
    assert [m33.up[i] for i in range(9)] == rows
    strict = sum(popcount(r) for r in rows) - 9
    assert strict == 23


def test_one_row_grid_is_antichain():
    g = gen.minkowski_grid(gen.GridSpec(1, 4))
    assert all(g.up[p] == 1 << p for p in range(4))


def test_slope_mismatch_rejected():
    with pytest.raises(SlopesUnequal):
        gen.minkowski_grid(gen.GridSpec(2, 2, Fraction(1), Fraction(2)))


def test_punctured_lightcone_reachability():
    one_gone = gen.punctured_lightcone()
    lbl = {l: i for i, l in enumerate(one_gone.labels)}
    assert one_gone.leq_points(lbl["(0,1)"], lbl["(2,1)"])  # detours survive
    all_gone = gen.minkowski_grid(
        gen.GridSpec(3, 3, defects=((1, 0), (1, 1), (1, 2))))
    lbl2 = {l: i for i, l in enumerate(all_gone.labels)}
    assert not all_gone.leq_points(lbl2["(0,1)"], lbl2["(2,1)"])


def test_defect_order_matches_oracle():
    sp = gen.minkowski_grid(gen.GridSpec(3, 3, defects=((1, 1),)))
    alive, idx, rows = _single_step_closure_oracle(3, 3, 1, dead={(1, 1)})
    assert list(sp.up) == rows


def test_two_speed_equal_slopes_matches_em(m22, loc22):
    ts = gen.two_speed_grid(gen.GridSpec(2, 2, Fraction(1), Fraction(1)))
    assert ts.up_map == loc22.up_map
    assert ts.down_map == loc22.down_map
    f = loc22.frame
    for u in f.elements():
        for v in f.elements():
            assert ts.related(u, v) == loc22.related(u, v)


def test_two_speed_one_row_parallel():
    ts = gen.two_speed_grid(gen.GridSpec(1, 3, Fraction(1), Fraction(2)))
    assert O.check_axiom(ts, "parallel").ok


def test_two_speed_witness_computation():
    ts = gen.suite_instance("two_speed_2x3")
    f = ts.frame
    lbl = {l: i for i, l in enumerate(f.labels)}
    u = f.id_of_mask(1 << lbl["(0,2)"])
    v = f.id_of_mask(1 << lbl["(1,0)"])
    assert f.meet(ts.up_map[u], v) == f.bottom
    assert f.meet(u, ts.down_map[v]) != f.bottom


def test_vertical_grid_columns():
    v = gen.suite_instance("vertical33")
    lbl = {l: i for i, l in enumerate(v.labels)}
    col0 = mask_of_iter(lbl[f"(0,{y})"] for y in range(3))
    assert v.up_mask(1 << lbl["(0,0)"]) == col0


@pytest.mark.parametrize("t", range(1, 6))
@pytest.mark.parametrize("x", range(1, 6))
def test_vertical_grid_rows_match_the_closed_chain_pairs(t, x):
    # the rows written down closed against `OrderedSpace.build` on the pairs
    # (x, y) < (x, y + 1) of each column, point (x, y) at index x t + y
    pts = [(a, b) for a in range(x) for b in range(t)]
    pairs = [(pts.index(p), pts.index((p[0], p[1] + 1))) for p in pts if p[1] + 1 < t]
    want = S.OrderedSpace.build(len(pts), pairs, opens="discrete",
                                labels=[f"({a},{b})" for a, b in pts], name=f"vertical{x}x{t}")
    got = gen.vertical_grid(t, x)
    assert (got.n, got.up, got.down) == (want.n, want.up, want.down)
    assert (got.labels, got.name, got.frame.kind, got.frame.m) == \
        (want.labels, want.name, want.frame.kind, want.frame.m)


def test_fixed_instances(non_oc, bowtie):
    assert not derived.has_open_cones(non_oc).ok
    assert derived.has_open_cones(bowtie).ok
    assert not derived.is_T0_ordered(bowtie).ok
    assert derived.is_sober(bowtie)


def test_suite_catalogue():
    suite = gen.standard_suite()
    assert len(suite) == 12
    names = [n for n, _ in suite]
    assert len(set(names)) == 12


def test_generators_deterministic():
    a = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(3, 3))))
    b = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(3, 3))))
    assert a == b
    ta = cli.serialize(cli.doc_of_locale(
        gen.two_speed_grid(gen.GridSpec(2, 3, Fraction(1), Fraction(2)))))
    tb = cli.serialize(cli.doc_of_locale(
        gen.two_speed_grid(gen.GridSpec(2, 3, Fraction(1), Fraction(2)))))
    assert ta == tb


def test_diamond_basis_topology():
    sp = gen.minkowski_grid(gen.GridSpec(2, 2, topology="diamond_basis"))
    f = sp.frame
    assert f.kind in ("mask", "powerset")
    # every diamond upcone(p) & downcone(q) is an open
    for p in range(sp.n):
        for q in range(sp.n):
            assert f.has_mask(sp.up[p] & sp.down[q])


def test_m44_locales_list_no_opens(monkeypatch):
    # the discrete 4x4 grid is a powerset frame: no mask is listed, sorted or hashed
    calls = []
    listed = L.frame_from_topology

    def counted(*args, **kwargs):
        calls.append(args)
        return listed(*args, **kwargs)

    monkeypatch.setattr(L, "frame_from_topology", counted)
    sp = gen.minkowski_grid(gen.GridSpec(4, 4))
    for v in ("em", "upper", "lower"):
        S.induced_locale(sp, v)
    assert calls == [] and sp.frame.kind == "powerset" and sp.frame._ext is None
    # diamond_basis is discrete by the lemma of minkowski_grid: no diamond is listed
    sp = gen.minkowski_grid(gen.GridSpec(4, 4, topology="diamond_basis"))
    assert calls == [] and sp.frame.kind == "powerset" and sp.frame._ext is None


def _alive(t, x, defects):
    return [(a, b) for a in range(t) for b in range(x) if (a, b) not in defects]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from(SLOPES),
       st.sampled_from(SLOPES), st.sampled_from(("discrete", "diamond_basis")),
       st.sets(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=3))
def test_integer_slopes_match_fraction_rows(t, x, up, down, topology, cells):
    defects = tuple(sorted((a, b) for a, b in cells if a < t and b < x))
    alive = _alive(t, x, defects)
    if defects:
        steps = oracles.fraction_cone_rows(alive, up, step=True)
        rows = L.transitive_closure_rows([r | 1 << i for i, r in enumerate(steps)])
    else:
        rows = oracles.fraction_cone_rows(alive, up)
    sp = gen.minkowski_grid(gen.GridSpec(t, x, up, up, topology, defects))
    assert list(sp.up) == rows and list(sp.down) == L.transpose_rows(rows)
    ts = gen.two_speed_grid(gen.GridSpec(t, x, up, down))
    alive = _alive(t, x, ())
    points = [1 << i for i in range(len(alive))]
    assert [ts.cones.u[p] for p in points] == oracles.fraction_cone_rows(alive, up)
    assert [ts.cones.d[p] for p in points] == L.transpose_rows(
        oracles.fraction_cone_rows(alive, down))


def _all_but(t, x, keep):
    return tuple((a, b) for a in range(t) for b in range(x) if (a, b) != keep)


# (t, x, slope, defects): one-row and one-column grids, reaches wider than
# the grid (slopes 3 and 5/2), defects in the first and last time rows, and
# grids where every cell but one is dead
BAND_EDGES = [
    (1, 5, "1", ()), (1, 1, "2", ()), (4, 1, "1/2", ()), (5, 1, "3", ()),
    (3, 3, "3", ()), (2, 5, "5/2", ()), (4, 3, "5/2", ()), (3, 2, "3", ((1, 0),)),
    (1, 4, "1", ((0, 2),)), (4, 1, "1/2", ((3, 0),)), (3, 4, "1", ((0, 0), (2, 3))),
    (3, 4, "5/2", ((0, 3), (2, 0))), (4, 4, "3", ((0, 1), (3, 2), (3, 3))),
    (3, 3, "1", _all_but(3, 3, (1, 1))), (2, 4, "5/2", _all_but(2, 4, (0, 0))),
    (4, 2, "1/2", _all_but(4, 2, (3, 1))), (1, 1, "3", ()),
]


@pytest.mark.parametrize("t, x, slope, defects", BAND_EDGES)
def test_band_rows_match_fraction_rows_at_the_edges(t, x, slope, defects):
    # the band form (gen._grid_rows): rows, labels and name as the
    # Fraction-arithmetic rows give them, for minkowski_grid and for both
    # cones of two_speed_grid (whose rows are the cones restricted to the
    # alive points, with no closure)
    slope = Fraction(slope)
    alive = _alive(t, x, defects)
    labels = [f"({a},{b})" for a, b in alive]
    if defects:
        rows = L.transitive_closure_rows(oracles.fraction_cone_rows(alive, slope, step=True))
    else:
        rows = oracles.fraction_cone_rows(alive, slope)
    sp = gen.minkowski_grid(gen.GridSpec(t, x, slope, slope, defects=defects))
    assert (list(sp.up), sp.labels, sp.name) == \
        (rows, labels, f"M{t}{x}" + ("-defects" if defects else ""))
    other = 1 / slope
    ts = gen.two_speed_grid(gen.GridSpec(t, x, slope, other, defects=defects))
    points = [1 << i for i in range(len(alive))]
    assert [ts.cones.u[p] for p in points] == oracles.fraction_cone_rows(alive, slope)
    assert [ts.cones.d[p] for p in points] == L.transpose_rows(
        oracles.fraction_cone_rows(alive, other))
    assert ts.frame.labels == labels


def _space_key(sp):
    f = sp.frame
    opens = None if f.kind == "powerset" else [f.mask_of(i) for i in f.elements()]
    return sp.n, sp.up, sp.down, sp.labels, sp.name, f.kind, f.m, opens


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.sampled_from(SLOPES[:4]),
       st.sampled_from(("discrete", "codiscrete", "diamond_basis")))
def test_defect_free_grid_rows_are_closed(t, x, slope, topology):
    # the cone relation is reflexive and transitive, so its rows reach the
    # constructor as they are: closing them from pairs changes nothing
    # (diamond_basis is discrete: test_diamond_basis_is_the_closure_of_the_diamonds)
    sp = gen.minkowski_grid(gen.GridSpec(t, x, slope, slope, topology))
    assert L.transitive_closure_rows(list(sp.up)) == sp.up
    built = S.OrderedSpace.build(
        sp.n, [(i, j) for i in range(sp.n) for j in bits(sp.up[i])],
        opens="codiscrete" if topology == "codiscrete" else "discrete",
        labels=sp.labels, name=sp.name)
    assert _space_key(built) == _space_key(sp)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SLOPES),
       st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
def test_diamond_basis_is_the_closure_of_the_diamonds(t, x, slope, cells):
    # the lemma of minkowski_grid: the order is antisymmetric, so the
    # diamonds up(a) & down(b) generate every set of points
    defects = tuple(sorted((a, b) for a, b in cells if a < t and b < x))
    sp = gen.minkowski_grid(gen.GridSpec(t, x, slope, slope, "diamond_basis", defects))
    assert all(sp.up[p] & sp.down[p] == 1 << p for p in range(sp.n))
    diamonds = [sp.up[a] & sp.down[b] for a in range(sp.n) for b in range(sp.n)]
    built = S.OrderedSpace.build(
        sp.n, [(i, j) for i in range(sp.n) for j in bits(sp.up[i])],
        opens=oracles.close_family_under_union_intersection(sp.n, diamonds),
        labels=sp.labels, name=sp.name)
    assert _space_key(built) == _space_key(sp)


def test_grid_spec_rejects_unknown_topology():
    with pytest.raises(ValidationError, match="unknown topology 'bogus'"):
        gen.GridSpec(2, 2, topology="bogus")


def test_minkowski_grid_makes_no_fraction_product(monkeypatch):
    # the slope is compared as |dx| q <= p dt in integers
    expect = oracles.fraction_cone_rows(_alive(4, 4, ()), Fraction(1))
    calls = [0]

    def counting(fn):
        def call(*args):
            calls[0] += 1
            return fn(*args)
        return call

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    sp = gen.minkowski_grid(gen.GridSpec(4, 4))
    assert calls[0] == 0 and list(sp.up) == expect
