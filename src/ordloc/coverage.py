"""Paths, causal coverages, and domains of dependence.

Membership in the path-based coverage quantifies over unboundedly many
paths, so the public verdict is an honest tri-state.  On atomistic frames
(every suite instance) the search is backed by an exact slot analysis:

* a path made of atoms admits a local past refinement inhabiting A
  exactly when A can be inserted at some slot: before the start, inside a
  self-loop, between consecutive steps, or because a step already lies in
  A (any refining path must literally contain each atom step, and an
  inhabiting step must sit causally between two of them);
* on a parallel ordered locale with join-preserving cones, every path is
  refinable iff all its endpoint's backward atom chains are, because
  atoms are join-prime and parallelism turns "future touches" into "past
  touches".

"no" verdicts therefore come with a machine-checked obstruction (an atom
chain all of whose insertion slots are provably empty), and "yes"
verdicts are cross-validated by constructing and verifying an explicit
refinement for every enumerated path.  Non-atomistic frames fall back to
"inconclusive".

Domains of dependence and the bulk membership rows read the same slot
analysis one covering region at a time (`_coverage_column`): D(A) needs
only A's column, so it costs one analysis at every frame size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
from .lattice import FiniteFrame, bits, mask_of_iter, popcount
from .olocale import CheckReport, OrderedLocale


@dataclass(frozen=True)
class Path:
    """A finite causal chain of nonempty open regions."""

    steps: tuple[int, ...]

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
        steps.append(f.meet(p.steps[n], olx.down_map[steps[-1]]))
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
        steps.append(f.meet(p.steps[n], olx.up_map[steps[-1]]))
    return validate_path(olx, steps)


@dataclass
class LocalRefinement:
    """A family of paths witnessing a local past refinement."""

    pieces: list[tuple[Path, int]]        # (path q_j, endpoint W_j)


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


@dataclass
class CoverageVerdict:
    status: str                            # yes | no | inconclusive
    witness: object = None
    bound_used: int = 0
    note: str = ""

    def __bool__(self):
        return self.status == "yes"


# -- atom slot machinery --------------------------------------------------------


class _AtomCoverage:
    """Slot analysis for one ordered locale and one covering region A."""

    def __init__(self, olx: OrderedLocale, amask_id: int):
        self.ol = olx
        self.f = olx.frame
        self.up, self.down = olx.up_map, olx.down_map
        self.a = amask_id
        self.atoms = self.f.atoms()
        self.in_a = [self.f.leq(b, self.a) for b in self.atoms]
        self._bridge = {}
        self._prepend = {}

    def _slot_certain(self, candidates_meet: int, lo: Optional[int],
                      hi: Optional[int]):
        """Is there a nonempty V <= A & bounds with lo rel V (and V rel hi)?

        Returns (feasible, vertex, certain).  Tries the largest candidate
        first; exhaustive downset scan below a small cap gives certainty.
        """
        f, olx = self.f, self.ol
        m0 = candidates_meet
        if m0 == f.bottom:
            return (False, None, True)

        def fits(v):
            if v == f.bottom or not f.leq(v, m0):
                return False
            if lo is not None and not olx.related(lo, v):
                return False
            if hi is not None and not olx.related(v, hi):
                return False
            return True

        if fits(m0):
            return (True, m0, True)
        if f.kind == "powerset" or f.m <= 64:
            # exhaustive scan of the downset of the largest candidate
            if f.kind == "powerset":
                sub = m0
                s = sub
                while True:
                    if s and fits(s):
                        return (True, s, True)
                    if s == 0:
                        break
                    s = (s - 1) & sub
                return (False, None, True)
            for v in bits(f.down_row(m0)):
                if fits(v):
                    return (True, v, True)
            return (False, None, True)
        return (False, None, False)

    def bridge(self, bi: int, ci: int):
        """Insertability between atoms b and c (b rel V rel c, V inside A)."""
        key = (bi, ci)
        r = self._bridge.get(key)
        if r is None:
            f = self.f
            b, c = self.atoms[bi], self.atoms[ci]
            meet = f.meet(f.meet(self.a, self.up[b]), self.down[c])
            r = self._slot_certain(meet, b, c)
            self._bridge[key] = r
        return r

    def prepend(self, bi: int):
        """Insertability before atom b (V rel b, V inside A)."""
        r = self._prepend.get(bi)
        if r is None:
            f = self.f
            b = self.atoms[bi]
            meet = f.meet(self.a, self.down[b])
            r = self._slot_certain(meet, None, b)
            self._prepend[bi] = r
        return r

    def atom_rel(self):
        cached = getattr(self, "_arel", None)
        if cached is None:
            n = len(self.atoms)
            cached = [mask_of_iter(j for j in range(n)
                                   if self.ol.related(self.atoms[i], self.atoms[j]))
                      for i in range(n)]
            self._arel = cached
        return cached

    def bad_reach(self):
        """Atoms reachable by a certified-unrefinable chain, with parents.

        Nodes: atoms outside A whose self-slot is certainly empty.
        Starts: nodes whose prepend slot is certainly empty.
        Edges: related atom pairs whose between-slot is certainly empty.
        Unknown slots poison the analysis (tracked separately).
        """
        cached = getattr(self, "_badreach", None)
        if cached is not None:
            return cached
        n = len(self.atoms)
        arel = self.atom_rel()
        unknown = False
        node_ok = []
        for i in range(n):
            if self.in_a[i]:
                node_ok.append(False)
                continue
            feas, _, certain = self.bridge(i, i)
            if feas:
                node_ok.append(False)
            elif not certain:
                node_ok.append(False)
                unknown = True
            else:
                node_ok.append(True)
        parent = {}
        work = []
        for i in range(n):
            if not node_ok[i]:
                continue
            feas, _, certain = self.prepend(i)
            if not certain:
                unknown = True
            elif not feas:
                parent[i] = None
                work.append(i)
        while work:
            i = work.pop()
            for j in bits(arel[i]):
                if j == i or not node_ok[j] or j in parent:
                    continue
                feas, _, certain = self.bridge(i, j)
                if not certain:
                    unknown = True
                elif not feas:
                    parent[j] = i
                    work.append(j)
        self._badreach = (parent, unknown)
        return self._badreach

    def bad_chain_to(self, umask_id: int) -> Optional[list[int]]:
        parent, _ = self.bad_reach()
        best = None
        for i in sorted(parent):
            if self.f.leq(self.atoms[i], umask_id):
                best = i
                break
        if best is None:
            return None
        chain = [best]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()
        return chain

    def refine_atom_chain(self, chain: list[int]) -> Optional[Path]:
        """An explicit causal path through the chain's atoms inhabiting A."""
        olx = self.ol
        steps = [self.atoms[i] for i in chain]
        if any(self.in_a[i] for i in chain):
            return validate_path(olx, steps)
        feas, v, _ = self.prepend(chain[0])
        if feas:
            return validate_path(olx, [v] + steps)
        for k in range(len(chain)):
            feas, v, _ = self.bridge(chain[k], chain[k])
            if feas:
                return validate_path(olx, steps[:k + 1] + [v] + steps[k:])
        for k in range(len(chain) - 1):
            feas, v, _ = self.bridge(chain[k], chain[k + 1])
            if feas:
                return validate_path(olx, steps[:k + 1] + [v] + steps[k + 1:])
        return None


def _require_coverage_axioms(olx: OrderedLocale) -> None:
    for law in ("parallel", "C-join"):
        if not ol.check_axiom(olx, law).ok:
            raise PreconditionAxioms(law)


def _atom_chains_landing(olx: OrderedLocale, cover: _AtomCoverage, u: int,
                         bound: int, cap: int = 20000) -> list[list[int]]:
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
        if len(out) > cap:
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
    """Memoized opposite order; parallel and C-join transfer by symmetry."""
    dual = getattr(olx, "_dual", None)
    if dual is None:
        dual = ol.dual_order(olx)
        for law in ("parallel", "C-join", "empty"):
            rep = olx._axiom_cache.get(law)
            if rep is not None and rep.ok:
                dual._axiom_cache[law] = rep
        for mine, theirs in (("wedge+", "wedge-"), ("wedge-", "wedge+")):
            rep = olx._axiom_cache.get(mine)
            if rep is not None and rep.ok:
                dual._axiom_cache[theirs] = rep
        olx._dual = dual
    return dual


def _covers(olx: OrderedLocale, a: int, u: int, bound, future: bool) -> CoverageVerdict:
    _require_coverage_axioms(olx)
    work = _dual_with_axioms(olx) if future else olx
    f = olx.frame
    if bound is None:
        bound = 2 * (f.m - 1)
    cone = work.down_map[u]
    if not f.leq(a, cone):
        # decisive already; still exhibit an unrefinable path when one exists
        # (insertable steps always live inside A & cone(U), so the hunt with
        # the truncated region is sound for chains landing in U)
        witness = None
        if f.is_atomistic():
            cover = _AtomCoverage(work, f.meet(a, cone))
            chain = cover.bad_chain_to(u)
            if chain is not None:
                steps = [cover.atoms[i] for i in chain]
                witness = validate_path(olx, list(reversed(steps))) if future \
                    else validate_path(work, steps)
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
    _, unknown = cover.bad_reach()
    chain = cover.bad_chain_to(u)
    if chain is not None:
        steps = [cover.atoms[i] for i in chain]
        path = validate_path(work, steps)
        # re-check the obstruction certificate slot by slot
        cert = (not any(cover.in_a[i] for i in chain)
                and cover.prepend(chain[0]) == (False, None, True)
                and all(cover.bridge(i, i) == (False, None, True) for i in chain)
                and all(cover.bridge(chain[k], chain[k + 1]) == (False, None, True)
                        for k in range(len(chain) - 1)))
        if cert:
            p = validate_path(olx, list(reversed(steps))) if future else path
            return CoverageVerdict("no", p, bound,
                                   "certified: all insertion slots along the "
                                   "witness chain are empty")
        return CoverageVerdict("inconclusive", path, bound,
                               "a candidate obstruction chain exists but some "
                               "slot could not be certified")
    if unknown:
        return CoverageVerdict("inconclusive", None, bound,
                               "some insertion slot could not be certified")
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


def _coverage_column(olx: OrderedLocale, work: OrderedLocale,
                     a: int) -> tuple[list[int], list[int]]:
    """The regions U that A covers from below in `work` (olx or its dual),
    and the U the analysis abstains on: (members, pending).

    A outside cone(U) never covers U, and the empty region covers only
    itself.  On atomistic frames U is out when it holds an atom of a
    certified-unrefinable chain, and pending wherever some slot could not
    be certified.  Elsewhere only A = U and A = cone(U) are certain.
    """
    f = olx.frame
    if a == f.bottom:
        return [f.bottom], []
    down = work.down_map
    atomistic = f.is_atomistic()
    if atomistic:
        cover = _AtomCoverage(work, a)
        parent, unknown = cover.bad_reach()
        bad = f.join_all(cover.atoms[i] for i in parent)
    members, pending = [], []
    for u in f.elements():
        cone = down[u]
        if not f.leq(a, cone):
            continue
        if atomistic:
            # atoms are join-prime, so U meets `bad` iff it holds a bad atom
            if f.meet(u, bad) != f.bottom:
                continue
            certain = not unknown
        else:
            certain = a == u or a == cone
        (members if certain else pending).append(u)
    return members, pending


def coverage_rows(olx: OrderedLocale, direction: str = "past"):
    """Membership id-bitmask rows: rows[u] = {a : a covers u}.

    Uses the exact slot decision; returns (rows, unresolved) where
    unresolved collects (a, u) pairs the analysis abstained on.
    """
    cached = getattr(olx, "_cov_rows", None)
    if cached is not None and direction in cached:
        return cached[direction]
    _require_coverage_axioms(olx)
    f = olx.frame
    if f.m > ol.REL_LIMIT:
        raise FrameTooLarge("bulk coverage capped at materializable sizes")
    if not f.is_atomistic():
        raise FrameTooLarge("bulk coverage needs an atomistic frame")
    work = olx if direction == "past" else _dual_with_axioms(olx)
    rows = [0] * f.m
    unresolved = []
    for a in f.elements():
        members, pending = _coverage_column(olx, work, a)
        for u in members:
            rows[u] |= 1 << a
        unresolved.extend((a, u) for u in pending)
    if not hasattr(olx, "_cov_rows"):
        olx._cov_rows = {}
    olx._cov_rows[direction] = (rows, unresolved)
    return rows, unresolved


@dataclass
class DependenceResult:
    region: int
    exact: bool
    unresolved: int = 0


def region_of_influence(frame: FiniteFrame, cov_rows: list[int], u: int) -> int:
    """L(U) = join of the covering regions of U (rows of `coverage_rows`)."""
    return frame.join_of_idmask(cov_rows[u])


def domain_of_dependence(olx: OrderedLocale, a: int,
                         direction: str = "future") -> DependenceResult:
    """D(A) = join of the regions covered by A (from below for future).

    Reads A's coverage column at every frame size; `unresolved` counts
    the regions the slot analysis abstained on.
    """
    _require_coverage_axioms(olx)
    work = olx if direction == "future" else _dual_with_axioms(olx)
    members, pending = _coverage_column(olx, work, a)
    return DependenceResult(olx.frame.join_all(members), not pending, len(pending))


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
    """Verify the causal-coverage axioms (C1)-(C5) on explicit tables."""
    minus = _norm_table(frame, cov_minus)
    plus = _norm_table(frame, cov_plus)
    out = []

    def fail(law, witness, note=""):
        out.append(CheckReport(law, "fail", witness, note))

    def ok(law):
        out.append(CheckReport(law, "pass", None, "exhaustive"))

    # C1
    bad = next(((u,) for u in frame.elements()
                if not (minus[u] >> u & 1 and plus[u] >> u & 1)), None)
    if bad:
        fail("C1", bad)
    else:
        ok("C1")

    # C2: Cov(U1 v U2) == {A1 v A2}; nullary join forces Cov(bottom)={bottom}
    law = "C2"
    witness = None
    for rows in (minus, plus):
        if rows[frame.bottom] != 1 << frame.bottom:
            witness = (frame.bottom,)
            break
        for u1 in frame.elements():
            for u2 in frame.elements():
                j = frame.join(u1, u2)
                combo = 0
                for a1 in bits(rows[u1]):
                    for a2 in bits(rows[u2]):
                        combo |= 1 << frame.join(a1, a2)
                if combo != rows[j]:
                    witness = (u1, u2)
                    break
            if witness:
                break
        if witness:
            break
    fail(law, witness) if witness else ok(law)

    # C3 transitivity
    law = "C3"
    witness = None
    for rows in (minus, plus):
        for u in frame.elements():
            for a in bits(rows[u]):
                if rows[a] & ~rows[u]:
                    b = next(bits(rows[a] & ~rows[u]))
                    witness = (b, a, u)
                    break
            if witness:
                break
        if witness:
            break
    fail(law, witness) if witness else ok(law)

    # C4 interval closure
    law = "C4"
    witness = None
    for rows in (minus, plus):
        for u in frame.elements():
            members = list(bits(rows[u]))
            for a in members:
                for b in members:
                    for c in frame.elements():
                        if frame.leq(a, c) and frame.leq(c, b) \
                                and not rows[u] >> c & 1:
                            witness = (a, c, b, u)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    fail(law, witness) if witness else ok(law)

    # C5 flip
    law = "C5"
    witness = None
    for rows, other in ((minus, plus), (plus, minus)):
        for u in frame.elements():
            for a in bits(rows[u]):
                if not any(frame.leq(u, w) for w in bits(other[a])):
                    witness = (a, u)
                    break
            if witness:
                break
        if witness:
            break
    fail(law, witness) if witness else ok(law)
    return out


# -- Grothendieck axioms ----------------------------------------------------------


def _downsets_of(frame: FiniteFrame, top_elem: int, cap: int = 4096) -> list[int]:
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
        if len(out) > cap:
            raise FrameTooLarge("sieve enumeration exceeded the cap")
    return sorted(out)


def check_down_grothendieck(olx: OrderedLocale, max_frame: int = 24) -> CheckReport:
    """The coverage as a cone-shifted Grothendieck topology on the frame.

    J-(U) holds of a sieve R on down(U) when the join of R covers U from
    below.  Verifies the maximal-sieve, pushforward-unit, pullback and
    transitivity axioms by exhaustive sieve enumeration; abstains (and
    counts abstentions) wherever the underlying membership is unresolved.

    The pullback and transitivity axioms read, for a sieve join J, the
    tri-state "down(W) & J covers W" at many W.  Those are two masks per J,
    the W where it holds and the W where it is pending; a scan over the W
    of a sieve is decided by the lowest W that does not hold, and that W,
    when pending, is the scan's one abstention.
    """
    f = olx.frame
    if f.m > max_frame:
        raise FrameTooLarge(f"sieve check capped at {max_frame} elements")
    rows, unresolved = coverage_rows(olx, "past")
    pend = [0] * f.m
    for a, u in unresolved:
        pend[u] |= 1 << a
    abstained = 0
    pulled = {}

    def member(a, u):
        nonlocal abstained
        if pend[u] >> a & 1:
            abstained += 1
            return None
        return bool(rows[u] >> a & 1)

    def pullback(j):
        """(holds, pending): the W at which down(W) & J covers W, and the W
        at which that is unresolved, as id-bitmasks."""
        if j not in pulled:
            holds = pending = 0
            for w in f.elements():
                x = f.meet(olx.down_map[w], j)
                if pend[w] >> x & 1:
                    pending |= 1 << w
                elif rows[w] >> x & 1:
                    holds |= 1 << w
            pulled[j] = holds, pending
        return pulled[j]

    for u in f.elements():
        du = olx.down_map[u]
        sieves = _downsets_of(f, du)
        # (i) maximal sieve covers
        if member(du, u) is False:
            return CheckReport("grothendieck", "fail", (u,),
                               "maximal sieve on down(U) does not cover U")
        # (i') pushforward of the maximal sieve on U itself
        if member(u, u) is False:
            return CheckReport("grothendieck", "fail", (u,),
                               "unit pushforward sieve does not cover U")
        joins = {s: f.join_of_idmask(s) for s in sieves}
        covering = [s for s in sieves if member(joins[s], u)]
        # (ii) pullback stability along W <= U
        below = f.down_row(u)
        for s in covering:
            holds, pending = pullback(joins[s])
            fails = below & ~holds & ~pending
            if fails:
                return CheckReport("grothendieck", "fail",
                                   (u, (fails & -fails).bit_length() - 1),
                                   "pullback of a covering sieve stopped "
                                   "covering")
            abstained += popcount(below & pending)
        # (iii) transitivity: the premise holds at every V of s.  Sieves
        # with one join read the same masks, so each join is tested once
        # and its outcome counted once per sieve
        per_join = Counter(joins.values())
        for s in covering:
            for jr, times in per_join.items():
                holds, pending = pullback(jr)
                rest = s & ~holds
                if rest:
                    abstained += times * bool(pending & rest & -rest)
                elif pend[u] >> jr & 1:
                    abstained += times
                elif not rows[u] >> jr & 1:
                    return CheckReport("grothendieck", "fail", (u,),
                                       "locally covering sieve does not cover")
    note = f"exhaustive sieve enumeration; {abstained} abstentions"
    rep = CheckReport("grothendieck", "pass", None, note)
    rep.abstentions = abstained
    return rep
