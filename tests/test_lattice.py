"""Frames: construction, Heyting structure, irreducibles, adjoints,
derived frames.  Expected values are computed against independent oracles
(defining quantifiers, brute-force subset scans) before being asserted.
"""

import ast
import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ordloc import lattice as L
from ordloc.errors import (
    MissingBottomOrTop,
    NotAFrameMap,
    NotALattice,
    NotClosedUnderJoin,
    NotClosedUnderMeet,
    NotDistributive,
)

import oracles


def pts(*ids):
    return L.mask_of_iter(ids)


BOWTIE_OPENS = [0, pts(0), pts(3), pts(0, 3), pts(0, 1, 3), pts(0, 2, 3),
                pts(0, 1, 2, 3)]


@pytest.fixture(scope="module")
def bowtie_frame():
    return L.frame_from_topology(4, BOWTIE_OPENS, labels=["z", "x", "y", "t"])


# -- construction ---------------------------------------------------------------


def test_pointset_validation():
    ps = L.PointSet.from_members(4, [2, 0])
    assert ps.members == (0, 2) and len(ps) == 2 and 2 in ps
    with pytest.raises(Exception):
        L.PointSet(2, 0b100)      # member id out of range


def test_value_records_compare_and_hash_by_fields():
    from fractions import Fraction

    from ordloc import coverage as C, gen
    for make, other in ((lambda: L.PointSet(3, 0b101), L.PointSet(4, 0b101)),
                        (lambda: oracles.LocalePoint(2, 0b1011),
                         oracles.LocalePoint(2, 0b1010)),
                        (lambda: C.Path((1, 3)), C.Path((1, 3, 3))),
                        (lambda: gen.GridSpec(2, 3, Fraction(1), Fraction(2)),
                         gen.GridSpec(2, 3, Fraction(1), Fraction(2), defects=((0, 1),)))):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and len({a, b, other}) == 2
        assert a != other and a != tuple(a._key())


def test_powerset_detection():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    assert f.kind == "powerset" and f.m == 4
    assert f.atoms() == [1, 2]
    assert sorted(f.primes()) == [1, 2]  # coatoms of the square
    assert f.coprimes() == [1, 2]


def test_bowtie_frame_has_seven_elements(bowtie_frame):
    assert bowtie_frame.m == 7
    # hand enumeration: the listed family is already closed
    masks = {bowtie_frame.mask_of(i) for i in bowtie_frame.elements()}
    assert masks == set(BOWTIE_OPENS)


def test_missing_join_witness():
    with pytest.raises(NotClosedUnderJoin) as e:
        L.frame_from_topology(3, [0, pts(0), pts(1), pts(0, 1, 2)])
    assert set(e.value.pair) == {pts(0), pts(1)}


def test_missing_meet_and_bounds():
    with pytest.raises(MissingBottomOrTop):
        L.frame_from_topology(2, [1, 3])
    with pytest.raises(NotClosedUnderMeet):
        L.frame_from_topology(3, [0, pts(0, 1), pts(1, 2), pts(0, 1, 2)])


def _m3_leq(a, b):
    # 0 below the three atoms 1, 2, 3, all below 4
    return a == b or a == 0 or b == 4


def _n5_leq(a, b):
    # 0 < 1 < 3 < 4, with 2 beside the chain 1 < 3
    return a == b or a == 0 or b == 4 or (a, b) == (1, 3)


@pytest.mark.parametrize("leq", [_m3_leq, _n5_leq], ids=["M3", "N5"])
def test_nondistributive_lattices_are_rejected(leq):
    items = range(5)
    with pytest.raises(NotDistributive) as e:
        L.frame_from_down_rows(oracles.order_rows(items, leq))
    # the named triple really breaks a & (b | c) == (a & b) | (a & c)
    a, b, c = ast.literal_eval(str(e.value).rsplit(" at ", 1)[1])
    meet = functools.partial(oracles.order_meet, items, leq)
    join = functools.partial(oracles.order_join, items, leq)
    assert meet(a, join(b, c)) != join(meet(a, b), meet(a, c))


def test_non_lattice_is_not_reported_as_non_distributive():
    # atoms a, c, b, d (masks 1, 4, 2, 8) under abc and abd: a | c has a
    # join (abc), so closing the carriers first fails with a join at hand,
    # yet a | b has two minimal upper bounds and the order is no lattice
    items = [0, 1, 4, 2, 8, 7, 11, 15]
    rows = oracles.order_rows(items, lambda x, y: x & ~y == 0)
    with pytest.raises(NotALattice) as e:
        L.frame_from_down_rows(rows)
    with pytest.raises(NotALattice) as want:
        oracles.frame_by_tables(rows)
    assert str(e.value) == str(want.value) == "no join for (1,3)"


def test_distributive_table_frame_passes():
    # the product of a 2-chain and a 3-chain, ordered componentwise
    items = [(x, y) for x in range(2) for y in range(3)]
    f = L.frame_from_down_rows(
        oracles.order_rows(items, lambda p, q: p[0] <= q[0] and p[1] <= q[1]))
    assert f.kind == "mask" and f.m == 6 and not f.realized
    for i, p in enumerate(items):
        for j, q in enumerate(items):
            assert items[f.meet(i, j)] == (min(p[0], q[0]), min(p[1], q[1]))
            assert items[f.join(i, j)] == (max(p[0], q[0]), max(p[1], q[1]))
    assert sorted(items[j] for j in f.coprimes()) == [(0, 1), (0, 2), (1, 0)]


def test_downset_frames():
    one = oracles.downset_frame([[True]])
    assert one.m == 2
    antichain = oracles.downset_frame([[True, False], [False, True]])
    assert antichain.m == 4 and antichain.is_boolean()
    chain = oracles.downset_frame([[True, True], [False, True]])
    assert chain.m == 3
    assert [chain.pretty(c) for c in chain.coprimes()] == ["{0}", "{0,1}"]
    assert [chain.pretty(p) for p in chain.primes()] == ["{}", "{0}"]


def test_downset_frame_collapses_preorder_cycles():
    # the two points of a 2-cycle lie in the same down-sets
    f = oracles.downset_frame([[True, True], [True, True]])
    assert f.m == 2


# -- Heyting structure ------------------------------------------------------------


def test_heyting_boolean():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    a, b = f.id_of_mask(1), f.id_of_mask(2)
    assert f.heyting(a, b) == b
    assert f.heyting(a, a) == f.top


def test_heyting_bowtie_negation(bowtie_frame):
    f = bowtie_frame
    z, t = f.id_of_mask(pts(0)), f.id_of_mask(pts(3))
    assert f.neg(z) == t  # largest open disjoint from {z}
    assert f.neg(t) == z


def heyting_laws_hold(f):
    for x in f.elements():
        assert f.leq(x, f.neg(f.neg(x)))
        assert f.neg(f.neg(f.neg(x))) == f.neg(x)
        for y in f.elements():
            assert f.neg(f.neg(f.meet(x, y))) == f.meet(f.neg(f.neg(x)),
                                                        f.neg(f.neg(y)))
            assert f.neg(f.join(x, y)) == f.meet(f.neg(x), f.neg(y))
            assert (f.meet(x, y) == f.bottom) == f.leq(x, f.neg(y))
            # adjunction defining the implication
            h = f.heyting(x, y)
            for w in f.elements():
                assert f.leq(f.meet(x, w), y) == f.leq(w, h)


def test_heyting_laws_small_frames(bowtie_frame):
    heyting_laws_hold(bowtie_frame)
    heyting_laws_hold(L.frame_from_topology(2, [0, 1, 2, 3]))
    heyting_laws_hold(oracles.downset_frame([[True, True], [False, True]]))


# -- irreducibles -----------------------------------------------------------------


def test_bowtie_primes_match_quantifier(bowtie_frame):
    f = bowtie_frame
    assert sorted(f.primes()) == sorted(oracles.primes_by_definition(f))
    assert sorted(f.coprimes()) == sorted(oracles.coprimes_by_definition(f))
    expected = {pts(0), pts(3), pts(0, 1, 3), pts(0, 2, 3)}
    assert {f.mask_of(p) for p in f.primes()} == expected


def test_boolean_primes_are_complements_of_atoms():
    f = L.frame_from_topology(3, range(8))
    full = 7
    assert {f.mask_of(p) for p in f.primes()} == \
        {full ^ f.mask_of(a) for a in f.atoms()}


# -- frame maps and adjoints --------------------------------------------------------


def test_identity_adjoint(bowtie_frame):
    fmap = L.identity_map(bowtie_frame)
    fmap.validate()
    for u in bowtie_frame.elements():
        assert L.right_adjoint(fmap, u) == u
    assert L.galois_law_holds(fmap)


def test_two_point_map_adjoint():
    # powerset of one point -> two-element frame, preimage the identity
    f = L.frame_from_topology(1, [0, 1])
    fmap = L.identity_map(f)
    assert L.right_adjoint(fmap, f.bottom) == f.bottom
    assert L.right_adjoint(fmap, f.top) == f.top


def test_frame_map_validation_rejects_nonmap(bowtie_frame):
    f = bowtie_frame
    bad = L.FrameMap(f, f, [f.top] * f.m)
    with pytest.raises(NotAFrameMap):
        bad.validate()


@pytest.mark.parametrize("pre, message", [
    # every join kept, but {0,1} & {0,2} = {0} goes to {0,1,2}, not to the base
    ([0, 4, 5, 5, 5, 5], "meet not preserved at (2, 3)"),
    # every meet kept, but {0,1} | {0,2} = {0,1,2} goes to {0}, not to {}
    ([0, 0, 0, 0, 1, 5], "join not preserved at (2, 3)"),
])
def test_frame_map_breaking_only_meets_or_only_joins_is_rejected(pre, message):
    # opens {}, {0}, {0,1}, {0,2}, {0,1,2} and the base
    f = L.frame_from_topology(4, [0, 1, 3, 5, 7, 15])
    kept = L.join_failure(f, pre) if message.startswith("meet") else L.meet_failure(f, pre, f)
    assert kept is None
    with pytest.raises(NotAFrameMap) as e:
        L.FrameMap(f, f, pre).validate()
    assert str(e.value) == message


# -- double negation ---------------------------------------------------------------


def test_double_negation_boolean_is_identity():
    f = L.frame_from_topology(2, [0, 1, 2, 3])
    sub, fmap = L.double_negation_frame(f)
    assert sub is f
    assert fmap.preimage == list(f.elements())


def test_double_negation_bowtie(bowtie_frame):
    sub, fmap = L.double_negation_frame(bowtie_frame)
    # direct not-not scan: {} {z} {t} S survive
    assert {sub.mask_of(i) for i in sub.elements()} == \
        {0, pts(0), pts(3), pts(0, 1, 2, 3)}
    assert sub.is_boolean()
    fmap.validate()
    assert L.galois_law_holds(fmap)


def test_double_negation_chain():
    chain = oracles.downset_frame([[True, True], [False, True]])
    sub, _ = L.double_negation_frame(chain)
    assert sub.m == 2


# -- ideals ------------------------------------------------------------------------


def test_ideal_frame_is_isomorphic(bowtie_frame):
    for f in (L.frame_from_topology(1, [0, 1]),
              L.frame_from_topology(2, [0, 1, 2, 3]),
              bowtie_frame):
        idl, wit = L.ideal_frame(f)
        assert idl.m == f.m
        for x in f.elements():
            for y in f.elements():
                assert f.leq(x, y) == idl.leq(wit[x], wit[y])
        # brute force: every ideal is principal
        assert sorted(oracles.all_ideals_bruteforce(f)) == \
            sorted(f.down_row(x) for x in f.elements())


# -- property tests on random posets -------------------------------------------------


@st.composite
def random_downset_frame(draw):
    n = draw(st.integers(1, 4))
    rel = [[i == j or (i < j and draw(st.booleans())) for j in range(n)]
           for i in range(n)]
    return oracles.downset_frame(rel)


@settings(max_examples=30, deadline=None)
@given(random_downset_frame())
def test_random_frames_satisfy_heyting_laws(f):
    heyting_laws_hold(f)


@settings(max_examples=30, deadline=None)
@given(random_downset_frame())
def test_random_frames_prime_oracle(f):
    assert sorted(f.primes()) == sorted(oracles.primes_by_definition(f))
    assert sorted(f.coprimes()) == sorted(oracles.coprimes_by_definition(f))


@settings(max_examples=20, deadline=None)
@given(random_downset_frame())
def test_random_frames_galois_law(f):
    fmap = L.FrameMap(f, f, list(f.elements()))
    fmap.validate()
    assert L.galois_law_holds(fmap)


def random_relation(rng, n):
    """Successor rows on n elements: a few pairs, about 2n pairs, a chain
    with random breaks, or a few pairs among a random subset of rows."""
    kind = rng.choice(("sparse", "dense", "chain", "clustered"))
    rows = [0] * n
    if n == 0:
        return rows
    if kind == "chain":
        for i in range(n - 1):
            if rng.random() < 0.9:
                rows[i] |= 1 << i + 1
        return rows
    count = {"sparse": rng.randint(0, n // 4 + 2), "dense": 2 * n,
             "clustered": rng.randint(n // 2, 2 * n)}[kind]
    pool = rng.sample(range(n), max(1, n // 8)) if kind == "clustered" else range(n)
    for _ in range(count):
        rows[rng.choice(pool)] |= 1 << rng.choice(pool)
    return rows


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 140), st.integers(0, 10_000))
@example(128, 1)
@example(129, 1)
@example(127, 2)
def test_transitive_closure_rows_matches_the_fixpoint(n, seed):
    # Warshall on the packed matrix up to 128 rows and on row and column
    # lists above, against the definition's fixpoint, on sizes that are
    # and are not multiples of 8; the input rows are left as they are
    rows = random_relation(random.Random(seed), n)
    given_rows = list(rows)
    assert L.transitive_closure_rows(rows) == oracles.transitive_closure_loop(rows)
    assert rows == given_rows
