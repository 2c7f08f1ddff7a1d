"""Generators: grid orders, defects, determinism, catalogue expectations."""

from fractions import Fraction

import pytest

from ordloc import cli, gen, lattice as L, olocale as O, ospace as S
from ordloc.errors import SlopesUnequal
from ordloc.lattice import bits, mask_of_iter, popcount


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


def test_fixed_instances(non_oc, bowtie):
    assert not S.has_open_cones(non_oc).ok
    assert S.has_open_cones(bowtie).ok
    assert not S.is_T0_ordered(bowtie).ok
    assert S.is_sober(bowtie)


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
