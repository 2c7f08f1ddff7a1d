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
slot analysis over the atoms at every frame size.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import olocale as ol
from .errors import (
    BottomStep,
    ConcatMismatch,
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


def concat(olx: OrderedLocale, q: Path, p: Path) -> Path:
    """Concatenation q.p: first travel p, then q; shares the joint step."""
    if p.end != q.start:
        raise ConcatMismatch(f"endpoint {p.end} differs from start {q.start}")
    return Path(p.steps + q.steps[1:])


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


def restrict_path_future(olx: OrderedLocale, p: Path, v: int) -> Path:
    """Future restriction p|^v: same flow, forced to start in v."""
    f = olx.frame
    if not f.leq(v, p.start):
        raise NotASubregion("restriction source must sit inside the start")
    if v == f.bottom:
        raise EmptyRestriction("restriction to the empty region")
    if not ol.check_axiom(olx, "parallel").ok:
        raise NotParallelOrdered("path restriction needs a parallel order")
    steps = [v]
    for n in range(1, len(p.steps)):
        steps.append(f.meet(p.steps[n], olx.up(steps[-1])))
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
        so it is memoized on the locale (`work`, one per direction)."""
        cached = getattr(self.ol, "_atom_rel", None)
        if cached is None:
            n = len(self.atoms)
            cached = [mask_of_iter(j for j in range(n)
                                   if self.ol.related(self.atoms[i], self.atoms[j]))
                      for i in range(n)]
            self.ol._atom_rel = cached
        return cached

    def bad_reach(self) -> dict[int, Optional[int]]:
        """Atoms reachable by an unrefinable chain, with parents.

        Nodes: atoms outside A whose self-slot is empty.
        Starts: nodes whose slot before them is empty.
        Edges: related atom pairs whose between-slot is empty.
        """
        cached = getattr(self, "_badreach", None)
        if cached is not None:
            return cached
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


def _atom_chains_landing(olx: OrderedLocale, cover: _AtomCoverage, u: int,
                         bound: int) -> list[list[int]]:
    """Backward-extended atom chains ending inside u, consecutive repeats
    collapsed, up to the length bound."""
    arel = cover.atom_rel()
    n = len(cover.atoms)
    preds = [mask_of_iter(j for j in range(n) if arel[j] >> i & 1 and j != i)
             for i in range(n)]
    ends = [i for i in range(n) if cover.f.leq(cover.atoms[i], u)]
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


def _dual_with_axioms(olx: OrderedLocale) -> OrderedLocale:
    """Memoized opposite order; parallel, C-join and C-order transfer by
    symmetry."""
    dual = getattr(olx, "_dual", None)
    if dual is None:
        dual = ol.dual_order(olx)
        for law in ("parallel", "C-join", "C-order", "empty"):
            rep = olx._axiom_cache.get(law)
            if rep is not None and rep.ok:
                dual._axiom_cache[law] = rep
        for mine, theirs in (("wedge+", "wedge-"), ("wedge-", "wedge+")):
            rep = olx._axiom_cache.get(mine)
            if rep is not None and rep.ok:
                dual._axiom_cache[theirs] = rep
        olx._dual = dual
    return dual


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
    work = _dual_with_axioms(olx) if future else olx
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
        chains = _atom_chains_landing(work, cover, u, bound)
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
    cached = vars(olx).setdefault("_cov_rows", {})
    if direction in cached:
        return cached[direction]
    _require_coverage_axioms(olx)
    f = olx.frame
    if f.m > ol.REL_LIMIT:
        raise FrameTooLarge("bulk coverage capped at materializable sizes")
    if not f.is_atomistic():
        raise FrameTooLarge("bulk coverage needs an atomistic frame")
    work = olx if direction == "past" else _dual_with_axioms(olx)
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
    """L(U) = join of the covering regions of U (rows of `coverage_rows`)."""
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
    work = olx if direction == "future" else _dual_with_axioms(olx)
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


# -- abstract coverage axioms ----------------------------------------------------


def _norm_table(frame: FiniteFrame, cov) -> list[int]:
    rows = [0] * frame.m
    if isinstance(cov, dict):
        items = cov.items()
    else:
        items = enumerate(cov)
    for u, members in items:
        if isinstance(members, int):
            rows[u] = members
        else:
            rows[u] = mask_of_iter(members)
    return rows


def abstract_coverage_check(frame: FiniteFrame, cov_minus, cov_plus) -> list[CheckReport]:
    """Verify the causal-coverage axioms (C1)-(C5) on explicit tables.  A
    failure names the least witness of the scan over Cov-, then Cov+."""
    f = frame
    minus, plus = _norm_table(f, cov_minus), _norm_table(f, cov_plus)

    def c2(rows):
        # Cov(U1 v U2) == {A1 v A2}; nullary join forces Cov(bottom)={bottom}
        if rows[f.bottom] != 1 << f.bottom:
            return (f.bottom,)
        return next(((u1, u2) for u1 in f.elements() for u2 in f.elements()
                     if rows[f.join(u1, u2)] != mask_of_iter(
                         f.join(a1, a2) for a1 in bits(rows[u1]) for a2 in bits(rows[u2]))),
                    None)

    def c3(rows):
        # transitivity: the least b of a member a's cover outside Cov(U)
        return next(((next(bits(rows[a] & ~rows[u])), a, u) for u in f.elements()
                     for a in bits(rows[u]) if rows[a] & ~rows[u]), None)

    def c4(rows):
        # interval closure: members a <= c <= b exist iff c is in up_row(a)
        # and below some member; the least such a, then b, then c is the
        # least (a, c, b, u) of the member-pair scan
        for u in f.elements():
            below = 0
            for b in bits(rows[u]):
                below |= f.down_row(b)
            for a in bits(rows[u]):
                out = f.up_row(a) & ~rows[u]
                if out & below:
                    b = next(b for b in bits(rows[u]) if f.down_row(b) & out)
                    gap = f.down_row(b) & out
                    return a, (gap & -gap).bit_length() - 1, b, u
        return None

    def c5(rows, other):
        # flip: each member A of Cov(U) has some W >= U in the other Cov(A)
        return next(((a, u) for u in f.elements() for a in bits(rows[u])
                     if not any(f.leq(u, w) for w in bits(other[a]))), None)

    witnesses = {
        "C1": next(((u,) for u in f.elements()
                    if not (minus[u] >> u & 1 and plus[u] >> u & 1)), None),
        "C2": c2(minus) or c2(plus),
        "C3": c3(minus) or c3(plus),
        "C4": c4(minus) or c4(plus),
        "C5": c5(minus, plus) or c5(plus, minus),
    }
    return [CheckReport(law, "pass", None, "exhaustive") if w is None
            else CheckReport(law, "fail", w, "") for law, w in witnesses.items()]


# -- Grothendieck axioms ----------------------------------------------------------

SIEVE_FRAME_LIMIT = 24      # sieves are enumerated exhaustively up to this size
SIEVE_LIMIT = 4096          # sieves enumerated on one element
ATOM_CHAIN_LIMIT = 20000    # atom chains enumerated per coverage verdict


def _downsets_of(frame: FiniteFrame, top_elem: int) -> list[int]:
    """Down-closed subsets of the interval below top_elem, as id-bitmasks."""
    carrier = list(bits(frame.down_row(top_elem)))
    out = {0}
    for x in carrier:
        dx = frame.down_row(x)
        new = set()
        for s in out:
            if not s >> x & 1:
                new.add(s | dx)
        out |= new
        if len(out) > SIEVE_LIMIT:
            raise FrameTooLarge("sieve enumeration exceeded the cap")
    return sorted(out)


def check_down_grothendieck(olx: OrderedLocale) -> CheckReport:
    """The coverage as a cone-shifted Grothendieck topology on the frame.

    J-(U) holds of a sieve R on down(U) when the join of R covers U from
    below.  Verifies the maximal-sieve, pushforward-unit, pullback and
    transitivity axioms by exhaustive sieve enumeration, on frames of at
    most SIEVE_FRAME_LIMIT elements.  Membership is read from the exact
    `coverage_rows`, so nothing is left undecided: the note's abstention
    count, and `abstentions`, are always 0.

    The pullback and transitivity axioms read, for a sieve join J, whether
    down(W) & J covers W at many W: one id-bitmask of those W per J.
    """
    f = olx.frame
    if f.m > SIEVE_FRAME_LIMIT:
        raise FrameTooLarge(f"sieve check capped at {SIEVE_FRAME_LIMIT} elements")
    rows = coverage_rows(olx, "past")
    down = olx.down_map
    pulled = {}

    def pullback(j):
        """The W at which down(W) & J covers W, as an id-bitmask."""
        if j not in pulled:
            pulled[j] = mask_of_iter(w for w in f.elements()
                                     if rows[w] >> f.meet(down[w], j) & 1)
        return pulled[j]

    def fail(witness, note):
        return CheckReport("grothendieck", "fail", witness, note)

    for u in f.elements():
        sieves = _downsets_of(f, down[u])
        # (i) the maximal sieve on down(U), (i') its pushforward onto U
        if not rows[u] >> down[u] & 1:
            return fail((u,), "maximal sieve on down(U) does not cover U")
        if not rows[u] >> u & 1:
            return fail((u,), "unit pushforward sieve does not cover U")
        joins = [f.join_of_idmask(s) for s in sieves]
        covering = [(s, j) for s, j in zip(sieves, joins) if rows[u] >> j & 1]
        # (ii) pullback stability along W <= U
        below = f.down_row(u)
        for _, j in covering:
            fails = below & ~pullback(j)
            if fails:
                return fail((u, (fails & -fails).bit_length() - 1),
                            "pullback of a covering sieve stopped covering")
        # (iii) transitivity: no covering sieve lies inside the pullback of
        # a sieve join that does not cover U
        if any(s & ~pullback(j) == 0 for j in set(joins) if not rows[u] >> j & 1
               for s, _ in covering):
            return fail((u,), "locally covering sieve does not cover")
    rep = CheckReport("grothendieck", "pass", None,
                      "exhaustive sieve enumeration; 0 abstentions")
    rep.abstentions = 0
    return rep
