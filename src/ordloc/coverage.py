"""Paths, causal coverages, and domains of dependence.

Membership in the path-based coverage quantifies over unboundedly many
paths, so the public verdict is an honest tri-state.  On atomistic frames
(every suite instance) the search is backed by an exact slot analysis:

* a path made of atoms admits a local past refinement inhabiting A
  exactly when A can be inserted at some slot: before the start, inside a
  self-loop, between consecutive steps, or because a step already lies in
  A (any refining path must literally contain each atom step, and an
  inhabiting step must sit causally between two of them);
* each slot is decided by its largest candidate, the meet of A with the
  bounding cones (`_AtomCoverage.slot`, whose docstring has the lemma);
  a relation that fails C-order has explicit rows, and its slots scan
  below that meet;
* on a parallel ordered locale with join-preserving cones, every path is
  refinable iff all its endpoint's backward atom chains are, because
  atoms are join-prime and parallelism turns "future touches" into "past
  touches".

"no" verdicts therefore come with an obstruction (an atom chain all of
whose insertion slots are empty), and "yes" verdicts are cross-validated
by constructing and verifying an explicit refinement for every
enumerated path.  "inconclusive" comes only from a non-atomistic frame
(where A is neither U nor the cone of U), the path-enumeration cap, or an
enumerated path for which no refinement was found.

Domains of dependence and the bulk membership rows need no scan over the
covered regions.  On atomistic frames A covers exactly the U below K(A),
the join of the atoms that no unrefinable chain reaches, whose cone holds
A; so D(A) is K(A) or bottom (`domain_of_dependence` has the lemma), one
slot analysis over the atoms at every frame size.  The sieve axioms are
read from those rows at sieve joins, never by listing sieves.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from . import olocale as ol
from .errors import (
    BottomStep,
    EmptyRestriction,
    FrameTooLarge,
    NotASubregion,
    NotParallelOrdered,
    NotRelated,
    PreconditionAxioms,
    ValidationError,
)
from .lattice import FiniteFrame, Value, bits, mask_of_iter, rows_above, transpose_rows
from .olocale import CheckReport, OrderedLocale


class Path(Value):
    """A finite causal chain of nonempty open regions."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[int, ...]):
        self.steps = steps

    @property
    def start(self) -> int:
        return self.steps[0]

    @property
    def end(self) -> int:
        return self.steps[-1]

    def __len__(self):
        return len(self.steps)


def validate_path(olx: OrderedLocale, elems: Sequence[int]) -> Path:
    if not elems:
        raise ValidationError("a path needs at least one step")
    for i, e in enumerate(elems):
        if e == olx.frame.bottom:
            raise BottomStep(i)
    for i in range(len(elems) - 1):
        if not olx.related(elems[i], elems[i + 1]):
            raise NotRelated(i)
    return Path(tuple(elems))


def refines(olx: OrderedLocale, q: Path, p: Path) -> bool:
    """q refines p: every step of p contains some step of q."""
    f = olx.frame
    return all(any(f.leq(qs, ps) for qs in q.steps) for ps in p.steps)


def restrict_path(olx: OrderedLocale, p: Path, w: int) -> Path:
    """Past restriction p|_w: same flow, forced to end in w."""
    f = olx.frame
    if not f.leq(w, p.end):
        raise NotASubregion("restriction target must sit inside the endpoint")
    if w == f.bottom:
        raise EmptyRestriction("restriction to the empty region")
    if not ol.check_axiom(olx, "parallel").ok:
        raise NotParallelOrdered("path restriction needs a parallel order")
    steps = [w]
    for n in range(len(p.steps) - 2, -1, -1):
        steps.append(f.meet(p.steps[n], olx.down(steps[-1])))
    steps.reverse()
    return validate_path(olx, steps)


class LocalRefinement:
    """A family of paths witnessing a local past refinement."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[tuple[Path, int]]):
        self.pieces = pieces              # (path q_j, endpoint W_j)


def is_local_past_refinement(olx: OrderedLocale, family: LocalRefinement,
                             p: Path) -> bool:
    f = olx.frame
    if f.join_all(w for _, w in family.pieces) != p.end:
        return False
    for q, w in family.pieces:
        if q.end != w or w == f.bottom:
            return False
        if not refines(olx, q, restrict_path(olx, p, w)):
            return False
    return True


class CoverageVerdict:
    __slots__ = ("status", "witness", "bound_used", "note")

    def __init__(self, status: str, witness: object = None, bound_used: int = 0,
                 note: str = ""):
        self.status = status              # yes | no | inconclusive
        self.witness = witness
        self.bound_used = bound_used
        self.note = note

    def __bool__(self):
        return self.status == "yes"


# -- atom slot machinery --------------------------------------------------------


class _AtomCoverage:
    """Slot analysis for one ordered locale and one covering region A."""

    def __init__(self, olx: OrderedLocale, amask_id: int):
        self.ol = olx
        self.f = olx.frame
        self.up, self.down = olx.cones.u, olx.cones.d
        self.a = amask_id
        self.atoms = self.f.atoms()
        self.in_a = [self.f.leq(b, self.a) for b in self.atoms]
        self.cone_order = ol.check_axiom(olx, "C-order").ok
        self._slots = {}
        self._badreach = None

    def slot(self, b: Optional[int], c: int) -> Optional[int]:
        """A nonempty V <= A with b rel V rel c, or None; with b None, the
        slot before c: a nonempty V <= A with V rel c.

        Lemma: under C-order the largest candidate decides.  The relation
        is the cone formula, so V <= m0 = A & up(b) & down(c) (A & down(c)
        when b is None) already gives V <= up(b) and V <= down(c); every V
        that fits lies below m0.  The two conditions left, b <= down(V) and
        c <= up(V), only get easier as V grows, because the cones are
        monotone (they preserve joins: C-join, a coverage precondition).
        So some V fits iff m0 fits, and m0 is the vertex.

        Without C-order the locale has explicit rows (monad locales satisfy
        it by definition), which every constructor caps at REL_LIMIT, so
        the slot scans down_row(m0) from the top, in decreasing id order:
        on a powerset frame, the submasks of m0 from m0 down.
        """
        key = (b, c)
        if key in self._slots:
            return self._slots[key]
        f, olx = self.f, self.ol
        m0 = f.meet(self.a, self.down[c])
        if b is not None:
            m0 = f.meet(m0, self.up[b])

        def fits(v):
            return (v != f.bottom and (b is None or olx.related(b, v))
                    and olx.related(v, c))

        v = m0 if fits(m0) else None
        if v is None and not self.cone_order:
            v = next((v for v in reversed(list(bits(f.down_row(m0)))) if fits(v)), None)
        self._slots[key] = v
        return v

    def atom_rel(self):
        """The atom relation as atom-index rows.  It does not depend on A,
        so it is memoized in the locale's `memo` (of `work`, one per direction)."""
        memo, atoms = self.ol.memo, self.atoms
        if "atom-rel" not in memo:
            memo["atom-rel"] = [mask_of_iter(j for j, y in enumerate(atoms)
                                             if self.ol.related(x, y)) for x in atoms]
        return memo["atom-rel"]

    def bad_reach(self) -> dict[int, Optional[int]]:
        """Atoms reachable by an unrefinable chain, with parents.

        Nodes: atoms outside A whose self-slot is empty.
        Starts: nodes whose slot before them is empty.
        Edges: related atom pairs whose between-slot is empty.
        """
        if self._badreach is not None:
            return self._badreach
        atoms, slot = self.atoms, self.slot
        arel = self.atom_rel()
        node_ok = [not self.in_a[i] and slot(x, x) is None for i, x in enumerate(atoms)]
        parent = {}
        work = []
        for i, x in enumerate(atoms):
            if node_ok[i] and slot(None, x) is None:
                parent[i] = None
                work.append(i)
        while work:
            i = work.pop()
            for j in bits(arel[i]):
                if j == i or not node_ok[j] or j in parent:
                    continue
                if slot(atoms[i], atoms[j]) is None:
                    parent[j] = i
                    work.append(j)
        self._badreach = parent
        return parent

    def good_join(self) -> int:
        """K(A): the join of the atoms that `bad_reach` does not reach."""
        parent = self.bad_reach()
        return self.f.join_all(x for i, x in enumerate(self.atoms) if i not in parent)

    def bad_chain_to(self, umask_id: int) -> Optional[list[int]]:
        """The unrefinable chain ending at the least bad atom inside U, as
        its atoms in path order, or None."""
        parent = self.bad_reach()
        i = next((i for i in sorted(parent) if self.f.leq(self.atoms[i], umask_id)),
                 None)
        if i is None:
            return None
        chain = [i]
        while parent[i] is not None:
            i = parent[i]
            chain.append(i)
        return [self.atoms[i] for i in reversed(chain)]

    def refine_atom_chain(self, chain: list[int]) -> Optional[Path]:
        """An explicit causal path through the chain's atoms inhabiting A."""
        olx = self.ol
        steps = [self.atoms[i] for i in chain]
        if any(self.in_a[i] for i in chain):
            return validate_path(olx, steps)
        v = self.slot(None, steps[0])
        if v is not None:
            return validate_path(olx, [v] + steps)
        for k in range(len(steps)):
            v = self.slot(steps[k], steps[k])
            if v is not None:
                return validate_path(olx, steps[:k + 1] + [v] + steps[k:])
        for k in range(len(steps) - 1):
            v = self.slot(steps[k], steps[k + 1])
            if v is not None:
                return validate_path(olx, steps[:k + 1] + [v] + steps[k + 1:])
        return None


def _require_coverage_axioms(olx: OrderedLocale) -> None:
    for law in ("parallel", "C-join"):
        if not ol.check_axiom(olx, law).ok:
            raise PreconditionAxioms(law)


def _atom_chains_landing(cover: _AtomCoverage, u: int, bound: int) -> list[list[int]]:
    """Backward-extended atom chains ending inside u, consecutive repeats
    collapsed, up to the length bound."""
    preds = [c & ~(1 << i) for i, c in enumerate(transpose_rows(cover.atom_rel()))]
    ends = [i for i, x in enumerate(cover.atoms) if cover.f.leq(x, u)]
    out = []
    work = [[i] for i in ends]
    while work:
        chain = work.pop()
        out.append(chain)
        if len(out) > ATOM_CHAIN_LIMIT:
            raise FrameTooLarge("atom path enumeration exceeded the cap")
        if len(chain) < bound:
            for j in bits(preds[chain[0]]):
                if j not in chain:
                    work.append([j] + chain)
    return out


def covers_below(olx: OrderedLocale, a: int, u: int,
                 bound: Optional[int] = None) -> CoverageVerdict:
    """Does A cover U from below: A inside down(U), and every path landing
    in U locally past-refines to touch A?"""
    return _covers(olx, a, u, bound, future=False)


def covers_above(olx: OrderedLocale, a: int, u: int,
                 bound: Optional[int] = None) -> CoverageVerdict:
    return _covers(olx, a, u, bound, future=True)


def _unrefinable_path(olx: OrderedLocale, cover: _AtomCoverage, u: int,
                      future: bool) -> Optional[Path]:
    """The chain of `cover.bad_chain_to(u)` as a path of olx (reversed when
    `cover` analyses the dual), or None."""
    steps = cover.bad_chain_to(u)
    if steps is None:
        return None
    return validate_path(olx, steps[::-1] if future else steps)


def _covers(olx: OrderedLocale, a: int, u: int, bound, future: bool) -> CoverageVerdict:
    _require_coverage_axioms(olx)
    work = ol.dual_order(olx) if future else olx
    f = olx.frame
    if bound is None:
        bound = 2 * (f.m - 1)
    cone = work.down(u)
    if not f.leq(a, cone):
        # decisive already; still exhibit an unrefinable path when one exists
        # (insertable steps always live inside A & cone(U), so the hunt with
        # the truncated region is sound for chains landing in U)
        witness = None
        if f.is_atomistic():
            witness = _unrefinable_path(olx, _AtomCoverage(work, f.meet(a, cone)),
                                        u, future)
        return CoverageVerdict("no", witness, bound,
                               "precondition: A is not inside the cone of U"
                               + ("; witness path cannot be refined into A"
                                  if witness else ""))
    if a == f.bottom:
        if u == f.bottom:
            return CoverageVerdict("yes", None, bound, "empty covers empty")
        return CoverageVerdict("no", None, bound, "empty covers only empty")
    if a == u or a == cone:
        # every path landing in U already inhabits U, and each of its steps
        # sits inside the cone of U; exact in any ordered locale
        p = Path((u,))
        fam = LocalRefinement([(p, u)])
        return CoverageVerdict("yes", fam, bound,
                               "the region itself / its cone always covers")
    if not f.is_atomistic():
        return CoverageVerdict("inconclusive", None, bound,
                               "frame is not atomistic; no certified search "
                               "available")
    cover = _AtomCoverage(work, a)
    p = _unrefinable_path(olx, cover, u, future)
    if p is not None:
        return CoverageVerdict("no", p, bound,
                               "certified: all insertion slots along the "
                               "witness chain are empty")
    # yes: construct + verify a refinement for every enumerated atom path
    try:
        chains = _atom_chains_landing(cover, u, bound)
    except FrameTooLarge:
        return CoverageVerdict("inconclusive", None, bound,
                               "path enumeration exceeded the cap")
    family_example = None
    for chain in chains:
        q = cover.refine_atom_chain(chain)
        if q is None:
            return CoverageVerdict("inconclusive", chain, bound,
                                   "slot analysis found no refinement for an "
                                   "enumerated path")
        p = validate_path(work, [cover.atoms[i] for i in chain])
        fam = LocalRefinement([(q, q.end)])
        if not is_local_past_refinement(work, fam, p):
            raise ValidationError("constructed refinement failed verification")
        if family_example is None:
            family_example = fam
    return CoverageVerdict("yes", family_example, bound,
                           f"verified refinements for {len(chains)} enumerated "
                           "atom paths; slot analysis certifies the rest")


# -- bulk membership -------------------------------------------------------------


def coverage_rows(olx: OrderedLocale, direction: str = "past") -> list[int]:
    """Membership id-bitmask rows: rows[u] = {a : a covers u}.

    Refuses non-atomistic frames, where coverage is left undecided; on
    atomistic ones column A is down_row(K(A)) & {U : A <= down(U)}, in
    closed form (`domain_of_dependence` has the lemma), so each row is
    exact.
    """
    cached = olx.memo.setdefault("coverage-rows", {})
    if direction in cached:
        return cached[direction]
    _require_coverage_axioms(olx)
    f = olx.frame
    if f.m > ol.REL_LIMIT:
        raise FrameTooLarge("bulk coverage capped at materializable sizes")
    if not f.is_atomistic():
        raise FrameTooLarge("bulk coverage needs an atomistic frame")
    work = olx if direction == "past" else ol.dual_order(olx)
    above = rows_above(f, work.down_map)
    rows = transpose_rows([f.down_row(_AtomCoverage(work, a).good_join()) & above[a]
                           for a in f.elements()])
    cached[direction] = rows
    return rows


class DependenceResult:
    __slots__ = ("region", "exact", "unresolved")

    def __init__(self, region: int, exact: bool, unresolved: int = 0):
        self.region = region
        self.exact = exact
        self.unresolved = unresolved


def region_of_influence(frame: FiniteFrame, cov_rows: list[int], u: int) -> int:
    """L(U) = join of the covering regions of U (rows of `coverage_rows`):
    the paper's region of influence of U under a causal coverage, which
    the tests compare with the cones (L- = down, L+ = up)."""
    return frame.join_of_idmask(cov_rows[u])


def domain_of_dependence(olx: OrderedLocale, a: int,
                         direction: str = "future") -> DependenceResult:
    """D(A) = join of the regions covered by A (from below for future).

    On atomistic frames in closed form.  Let K(A) be the join of the atoms
    that no unrefinable chain reaches (`_AtomCoverage.good_join`).  Atoms
    are join-prime, so U holds a bad atom iff U is not below K(A), and the
    regions A covers are {U : A <= down(U) and U <= K(A)}.  The first
    condition is up-closed, as the cones are monotone (C-join, a coverage
    precondition), and the second is down-closed.  Hence D(A) = K(A) if
    A <= down(K(A)), and bottom otherwise.  For A = bottom every atom is
    bad, so K(A) = bottom.

    Elsewhere only A = U and A = cone(U) certainly cover U among the U
    with A inside cone(U); `unresolved` counts the others, which stay out.
    """
    _require_coverage_axioms(olx)
    f = olx.frame
    work = olx if direction == "future" else ol.dual_order(olx)
    if f.is_atomistic():
        k = _AtomCoverage(work, a).good_join()
        return DependenceResult(k if f.leq(a, work.cones.d[k]) else f.bottom, True)
    if a == f.bottom:
        return DependenceResult(f.bottom, True)
    down = work.down_map
    inside = [u for u in f.elements() if f.leq(a, down[u])]
    members = [u for u in inside if a == u or a == down[u]]
    pending = len(inside) - len(members)
    return DependenceResult(f.join_all(members), not pending, pending)


# -- Grothendieck axioms ----------------------------------------------------------

ATOM_CHAIN_LIMIT = 20000    # atom chains enumerated per coverage verdict


def check_down_grothendieck(olx: OrderedLocale) -> CheckReport:
    """The coverage as a cone-shifted Grothendieck topology on the frame.

    A sieve on down(U) is a down-set below down(U); J-(U) holds of it when
    its join covers U from below.  Each axiom is read from sieve joins, by
    three facts about a finite frame, (b) and (c) by distributivity:
    (a) membership depends only on the join, and the joins of sieves on
        down(U) are the x <= down(U), as the down-set of x is one;
    (b) the pullback along W of a sieve with join j has join j & down(W);
    (c) a down-set D holds a sieve with join x iff x <= join(D): the
        down-closure of {x & d : d in D} lies in D, with join x & join(D).
    Let P_j be the W at which j & down(W) covers W.  Pullback fails at the
    least W <= U outside P_j for a covering j <= down(U).  A sieve on
    down(U) inside P_j lies in its largest down-set D_j and below down(U),
    a down-set of join K_j & down(U), K_j = join(D_j); so by (c)
    transitivity fails at U iff a covering x <= down(U) lies below K_j for
    a j <= down(U) that does not cover U.  With P_j and K_j memoized the
    check is O(m^2) row operations, guarded only by `coverage_rows`.  By
    (a) the pass is exhaustive over every sieve up to its join, as its
    note says; exact rows leave no abstention (`abstentions` is 0).
    """
    f = olx.frame
    rows = coverage_rows(olx, "past")
    down = olx.down_map

    @cache
    def pullback(j):
        """P_j, the W at which down(W) & j covers W, as an id-bitmask."""
        return mask_of_iter(w for w in f.elements() if rows[w] >> f.meet(down[w], j) & 1)

    @cache
    def below_inside(j):
        """The down-set of K_j, the join of the join-irreducibles in D_j."""
        p = pullback(j)
        return f.down_row(f.join_all(c for c in f.coprimes() if f.down_row(c) & ~p == 0))

    def fail(witness, note):
        return CheckReport("grothendieck", "fail", witness, note)

    for u in f.elements():
        # (i) the maximal sieve on down(U), (i') its pushforward onto U
        if not rows[u] >> down[u] & 1:
            return fail((u,), "maximal sieve on down(U) does not cover U")
        if not rows[u] >> u & 1:
            return fail((u,), "unit pushforward sieve does not cover U")
        joins = f.down_row(down[u])
        covering = joins & rows[u]
        # (ii) pullback stability along W <= U
        held = -1
        for j in bits(covering):
            held &= pullback(j)
        fails = f.down_row(u) & ~held
        if fails:
            return fail((u, (fails & -fails).bit_length() - 1),
                        "pullback of a covering sieve stopped covering")
        # (iii) transitivity: no covering join is below K_j for a non-covering j
        if any(covering & below_inside(j) for j in bits(joins & ~rows[u])):
            return fail((u,), "locally covering sieve does not cover")
    rep = CheckReport("grothendieck", "pass", None,
                      "exhaustive sieve enumeration; 0 abstentions")
    rep.abstentions = 0
    return rep
