"""Ordered locales: causal preorders on finite frames.

The causal relation of an `OrderedLocale` is either materialized as
element-id bitmask rows (small frames, explicit user relations) or given
by the cone formula U rel V iff U <= down(V) and V <= up(U), for locales
built from a pair of monads (every space-induced order; 2^16-element
frames stay workable).  Rows are read in bulk from the cones, never by a
pair scan (`cone_rows`, from `lattice.rows_above`).  The futures and
pasts frames are built once per locale; convexity and the biframe
predicate are decided at the join-irreducibles J.

An explicit relation R becomes the least join-closed preorder T(R*)*
that holds it: R* is its reflexive-transitive closure (Warshall's, on
one packed integer up to 128 elements, `lattice.transitive_closure_rows`)
and T translation by every j in J (`_translation_closure`).  On powersets
the relation is one integer, bit (U, V) at U*s + V, and the gap test and
each translation are O(1) wide operations per point j: with h = x & colH,
pre = h | h >> j and y = h | (x ^ h) << j, moved along rows by j*s
(`_translation_gap`); other frames map join fibres.

Axiom checks run in tiers and say which tier ran in the report note:

* exhaustive scans over all element pairs (or triples, for the wedge laws);
* exact theorem certificates whose premises are verified: the
  join-irreducible kernel `lattice.join_failure` (memoized per cone, and
  unscanned for the join-preserving `lattice.SubsetCone`s of powersets)
  certifies monotone cones, cuts monad validation to bottom and J,
  decides C-join and cuts F+/F- to pairs over bottom and J (on powersets
  one transposed row test per point); with monotone cones J decides each
  row of F+/F- (on powersets one column test per point); cone-determined
  relations with monotone cones are join-closed; a preorder is
  join-closed iff it is closed under translation by J; the wedge laws
  follow from C-order and F+/F- once C-order holds, else an exact scan;
* construction records, theorems the constructor made true: a locale
  built by `ordered_locale_from_relation` is a reflexive join-closed
  preorder, so V passes without a gap pass, its cones are monotone
  without a cover walk, and where ids extend the order they are the
  greatest members of its rows and columns; `dual_order` keeps both.

Nothing is sampled.  A check that no tier decides (F+/F- with cones that
are not monotone, above PAIR_LIMIT) refuses with FrameTooLarge.  A failing
certificate hands over to the id-order scan it replaces (wherever
affordable), so failing reports keep the least witness, and `revalidate`
re-checks a witness against the law it claims to break.
"""

from __future__ import annotations

from functools import cached_property
from operator import or_
from typing import Callable, Iterable, Optional, Sequence

from . import lattice as lat
from .errors import (
    AxiomVFailure,
    ConesDoNotPreserveJoins,
    FrameTooLarge,
    NotAMonad,
    ValidationError,
)
from .lattice import (FiniteFrame, FrameMap, bits, join_failure, mask_of_iter,
                      or_rows)

PAIR_LIMIT = 1050        # full O(m^2) pair scans allowed up to this size
TRIPLE_LIMIT = 40        # wedge laws always by exact scan up to this size
REL_LIMIT = 2048         # explicit relation rows materialized up to this size
SATURATION_LIMIT = 250_000   # pairs of a join-saturated explicit relation


class CheckReport:
    """Verdict of one law check; fail comes with a re-checkable witness.

    Some checks attach details as further attributes, so it keeps a
    `__dict__`."""

    def __init__(self, law: str, verdict: str, witness: Optional[tuple] = None,
                 note: str = ""):
        self.law = law
        self.verdict = verdict            # "pass" | "fail"
        self.witness = witness
        self.note = note

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def __bool__(self):
        return self.ok

    def pretty(self, frame: Optional[FiniteFrame] = None) -> str:
        msg = f"{self.law}: {self.verdict}"
        if self.witness is not None and frame is not None:
            parts = ", ".join(frame.pretty(w) if isinstance(w, int) else str(w)
                              for w in self.witness)
            msg += f" [witness {parts}]"
        elif self.witness is not None:
            msg += f" [witness {self.witness}]"
        if self.note:
            msg += f" ({self.note})"
        return msg


def _ok(law, note=""):
    return CheckReport(law, "pass", None, note)


def _fail(law, witness, note=""):
    return CheckReport(law, "fail", witness, note)


class ConePair:
    """Two candidate localic cones: monads u (future) and d (past)."""

    __slots__ = ("frame", "u", "d", "joins", "monotone")

    def __init__(self, frame: FiniteFrame, u: Sequence[int], d: Sequence[int],
                 joins: Optional[dict] = None):
        self.frame = frame
        self.u = u                        # a list, or a lattice.SubsetCone
        self.d = d
        self.joins = {} if joins is None else joins   # name -> witness
        self.monotone = None              # memo of `_cones_monotone`

    def join_failure(self, name: str) -> Optional[tuple[int, int]]:
        if name not in self.joins:
            self.joins[name] = join_failure(self.frame, getattr(self, name))
        return self.joins[name]

    def listed(self, name: str) -> list[int]:
        """Cone `name` as a list, which from then on also serves its reads
        here (a SubsetCone memoizes the list, so pairs sharing one share it)."""
        t = getattr(self, name)
        if isinstance(t, lat.SubsetCone):
            t = t.tolist()
            setattr(self, name, t)
        return t

    def validate(self) -> None:
        """Monad laws, raising NotAMonad at the least witness.  A map that
        preserves binary joins is monotone, and inflationary and idempotent
        once it is so at bottom and on J, as each a != bottom is a join of
        the j below it and c o c preserves joins (a `SubsetCone` does so by
        construction, so it costs O(n) reads).  Any other map gets the full
        scan, monotonicity included: along covers (which generate <=) on
        powerset frames and above PAIR_LIMIT, over all pairs x <= y (least
        in id order) otherwise.
        Both maps are then monotone, so a pass sets the `monotone` memo."""
        f = self.frame
        by_covers = f.kind == "powerset" or f.m > PAIR_LIMIT
        for name, t in (("u", self.u), ("d", self.d)):
            if len(t) != f.m:
                raise NotAMonad(f"{name} totality", (len(t),))
            if self.join_failure(name) is None and _is_closure(f, t):
                continue
            t = self.listed(name)
            for x in f.elements():
                if not f.leq(x, t[x]):
                    raise NotAMonad(f"{name} inflationary", (x,))
                if t[t[x]] != t[x]:
                    raise NotAMonad(f"{name} idempotent", (x,))
            for x in f.elements():
                for y in f.upper_covers(x) if by_covers else bits(f.up_row(x)):
                    if not f.leq(t[x], t[y]):
                        raise NotAMonad(f"{name} monotone", (x, y))
        self.monotone = True


class OrderedLocale:
    """A finite frame with a causal preorder closed under joins.

    The cones have two read paths.  Per-element queries (the law checks,
    `related`, `up`/`down`, hulls, complements) index `cones.u` and
    `cones.d`, which on powerset frames may be generator-form
    `lattice.SubsetCone`s with O(1) reads.  Whole-locale consumers read
    `up_map`/`down_map`, plain lists built on first access
    (`ConePair.listed`), which then serve the per-element reads too.

    Its state:
    * cones: `cones`, the monad pair with its join-failure and monotone
      memos, and the lists `up_map`/`down_map`;
    * rows: the relation as element-id bitmask rows, given or built from
      the cones on first use (`rel_rows`), and their transpose, built on
      first use or given by `dual_order` (`rel_cols`);
    * law cache: one `CheckReport` per law (`check_axiom`);
    * construction records: `cone_definitional`, `meta`, and whether the
      rows are a reflexive, translation-closed preorder (set by
      `ordered_locale_from_relation`, kept by `dual_order`; this holds as
      long as no caller writes to the rows after construction);
    * `memo`: derived structures, built once each and keyed by name
      ("futures", "pasts", "regular-cones", "points", "ideal-points", "dual",
      "atom-rel", "coverage-rows"), whichever module derives them.
    """

    def __init__(self, frame: FiniteFrame, *, up_map, down_map, rel_rows=None,
                 cone_definitional=False, joins=None, meta=None):
        self.frame = frame
        self.cones = ConePair(frame, up_map, down_map, dict(joins or {}))
        self._rel_rows = rel_rows
        self._rel_cols = None
        self.cone_definitional = cone_definitional
        self.meta = dict(meta or {})
        self._axiom_cache: dict[str, CheckReport] = {}
        self._join_closed = False
        self.memo: dict[str, object] = {}

    @cached_property
    def up_map(self) -> list[int]:
        """The future cone as a list, elem -> elem."""
        return self.cones.listed("u")

    @cached_property
    def down_map(self) -> list[int]:
        """The past cone as a list."""
        return self.cones.listed("d")

    # -- relation access --------------------------------------------------

    def related(self, u: int, v: int) -> bool:
        if self._rel_rows is not None:
            return bool(self._rel_rows[u] >> v & 1)
        f = self.frame
        return f.leq(u, self.cones.d[v]) and f.leq(v, self.cones.u[u])

    def rel_rows(self) -> list[int]:
        if self._rel_rows is None:
            if self.frame.m > REL_LIMIT:
                raise FrameTooLarge(
                    f"will not materialize a relation on {self.frame.m} elements")
            self._rel_rows = cone_rows(self.frame, self.up_map, self.down_map)
        return self._rel_rows

    def rel_cols(self) -> list[int]:
        """The columns {U : U rel V} of `rel_rows()`, transposed once and kept
        for the L+ scan, wedge- and the dual's rows."""
        if self._rel_cols is None:
            self._rel_cols = lat.transpose_rows(self.rel_rows())
        return self._rel_cols

    def adopt_cone_rows(self, rows: list[int]) -> None:
        """Keep `rows`, which a caller built as `cone_rows` of this locale's
        own cones, as the rows `rel_rows()` would build; rows the locale
        already has stay."""
        if self._rel_rows is None:
            self._rel_rows = rows

    def up(self, u: int) -> int:
        return self.cones.u[u]

    def down(self, u: int) -> int:
        return self.cones.d[u]

    def check(self, law: str) -> CheckReport:
        return check_axiom(self, law)

    def __repr__(self):
        return f"OrderedLocale(m={self.frame.m})"


# -- constructors -------------------------------------------------------------


def cone_rows(frame: FiniteFrame, up: Sequence[int], down: Sequence[int]) -> list[int]:
    """Rows of the cone formula U rel V iff V <= up(U) and U <= down(V):
    row U is down_row(up(U)) & rows_above(frame, down)[U]."""
    below = frame.down_rows()
    return [below[v] & a for v, a in zip(up, lat.rows_above(frame, down))]


def cones_from_rows(frame: FiniteFrame, rows: list[int]) -> tuple[list[int], list[int]]:
    """The cones as joins of rows and of columns.  A join-irreducible j is
    below the join of column V iff some U >= j has V in its row (j is
    join-prime), so the columns are never built: O(m |J|)."""
    up_map = [frame.join_of_idmask(r) for r in rows]
    reach = [(j, or_rows(rows, frame.up_row(j))) for j in frame.coprimes()]
    down_map = [frame.join_all(j for j, r in reach if r >> v & 1)
                for v in frame.elements()]
    return up_map, down_map


def _translation_gap(frame: FiniteFrame, rows: Sequence[int], masks=None) -> Optional[tuple]:
    """The least (U, V, J, J) with U rel V, J join-irreducible and U | J not
    rel V | J (least U, then V, then J in `coprimes()` order), or None.

    Lemma: a reflexive, transitive relation R on a finite frame is closed
    under binary joins iff U R V implies (U | J) R (V | J) for every
    join-irreducible J.
    * If: translations compose, and every W is a join of join-irreducibles,
      so U R V gives (U | W) R (V | W) for every W.  For U1 R V1 and
      U2 R V2 then U1 | U2 R V1 | U2 R V1 | V2, and transitivity ends it.
    * Only if: join U R V with J R J.
    So for a preorder a gap decides V, and (U, V, J, J) is a V witness.

    Preimage masks: with t = U | J, row U translates into row t iff
    rows[U] & ~pre_J(t) == 0, where pre_J(t) = {V : V | J in rows[t]}
    depends on t >= J alone.  The lowest bit of rows[U] & ~pre_J(t) is the
    least V of a gap.  pre_J(t) is the OR of the fibres {V : V | J = x}
    over the x in rows[t] & up_row(J): O(m |J|) row tests, plus the sum
    over J and t >= J of |rows[t] & up_row(J)| fibre ORs.  On powersets V | J
    is V on H = up_row(J) and V + J off it, so pre_J(Y) = h | h >> J for
    h = Y & H.  Packed (`lattice.pack_rows`, bit (U, V) at U*s + V for
    s = max(8, m)), with h = x & colH that is every row at once; read back
    at U | J, U on rowH and U + J off it, the gaps of J are
    x & ~(g | g >> J*s) for g = pre & rowH, and the least gap is their
    lowest bit over J in `coprimes()` order, the first J on ties: O(1) wide
    operations per J (`masks`: `_point_masks`, elsewhere `_join_fibres`)."""
    f = frame
    if f.kind == "powerset":
        stride = max(8, f.m)
        x, low, gap = lat.pack_rows(rows, stride >> 3), 0, None
        for j, (col, row) in zip(f.coprimes(), masks or _point_masks(f)):
            h = x & col
            g = (h | h >> j) & row
            lack = x ^ x & (g | g >> j * stride)           # x & ~(g | g >> J*s)
            if lack:
                pos = (lack ^ lack - 1).bit_length() - 1
                if gap is None or pos < low:
                    low, gap = pos, divmod(pos, stride) + (j, j)
        return gap
    tests = []
    for j, (shift, fibre) in zip(f.coprimes(), masks or _join_fibres(f)):
        up = f.up_row(j)
        tests.append((j, shift, {t: or_rows(fibre, rows[t] & up) for t in bits(up)}))
    for u in f.elements():
        lacks = [(lack & -lack, j) for j, shift, pre in tests
                 if (lack := rows[u] & ~pre[shift[u]])]
        if lacks:
            low, j = min(lacks)            # the least V, then the first J
            return u, low.bit_length() - 1, j, j
    return None


def _translation_closure(frame: FiniteFrame, rows: list[int], masks=None) -> list[int]:
    """Close `rows` under translation by every join-irreducible J
    (U R V gives (U | J) R (V | J)), one pass per J in `coprimes()` order.

    One pass per J suffices.  Translation by J is idempotent, so the pairs
    a J pass adds are their own J-images, and the pass leaves the rows
    closed under J in any row order.  A later J' pass keeps that: for
    (U, V) in the J-closed rows, the J-image of its J'-image is the
    J'-image of (U | J, V | J), which is in those rows too, so the J' pass
    adds it.

    The image of row U lands in row U | J: image_J(X) = {V | J : V in X}.
    Row t >= J gains the images of the V that the rows of its fibre
    {U : U | J = t} reach outside pre_J(t) (the notation of
    `_translation_gap`), so only the missing pairs are mapped bit by bit,
    in place.  On powersets, packed, y = h | (x ^ h) << J maps the columns
    and x |= (y | y << J*s) & rowH the rows, into fresh rows.
    """
    f = frame
    if f.kind == "powerset":
        stride = max(8, f.m)
        x = lat.pack_rows(rows, stride >> 3)
        for j, (col, row) in zip(f.coprimes(), masks or _point_masks(f)):
            h = x & col
            y = h | (x ^ h) << j
            x |= (y | y << j * stride) & row
        return lat.unpack_rows(x, stride >> 3, f.m)
    for j, (shift, fibre) in zip(f.coprimes(), masks or _join_fibres(f)):
        up = f.up_row(j)
        for t in bits(up):
            lack = or_rows(rows, fibre[t]) & ~or_rows(fibre, rows[t] & up)
            rows[t] |= mask_of_iter(shift[v] for v in bits(lack))
    return rows


_POINT_MASKS: dict[int, list[tuple[int, int]]] = {}   # m -> (colH, rowH) per point


def _point_masks(f: FiniteFrame) -> list[tuple[int, int]]:
    """Per point J = 2^b of a packed powerset, the masks colH and rowH of the
    bits b and log2(s) + b of the index, whose V and U hold J.  Cached up to
    128 rows; above, built once per `ordered_locale_from_relation`."""
    m, stride = f.m, max(8, f.m)
    masks = _POINT_MASKS.get(m)
    if masks is None:
        def index_bit(k):
            return lat.repeat_bits(((1 << k) - 1) << k, 2 * k, stride * m)
        masks = [(index_bit(j), index_bit(stride * j)) for j in f.coprimes()]
        if m <= lat.PACK_ROWS // 4:
            _POINT_MASKS[m] = masks
    return masks


def _join_fibres(f: FiniteFrame) -> list[tuple[list[int], list[int]]]:
    """Per J in `coprimes()` order, shift[x] = x | J and fibre[t] = {x : x | J = t}."""
    out = []
    for j in f.coprimes():
        shift = [f.join(x, j) for x in f.elements()]
        fibre = [0] * f.m
        for x, t in enumerate(shift):
            fibre[t] |= 1 << x
        out.append((shift, fibre))
    return out


def ordered_locale_from_relation(frame: FiniteFrame, pairs: Iterable[tuple[int, int]],
                                 strict: bool = False, meta=None) -> OrderedLocale:
    """Ordered locale from generator pairs: the least join-closed preorder
    containing them, T(R*)*, R* the reflexive-transitive closure and T the
    closure under translation by the join-irreducibles.  T(R*)* is a
    preorder, translation-closed as a transitive closure keeps that
    (U R X R V gives U|J R X|J R V|J), so join-closed by the lemma of
    `_translation_gap`, and every join-closed preorder holding the pairs
    holds it.  The least translation gap of R*, a V witness against R*, is
    an error (AxiomVFailure) in strict mode and is recorded as
    meta["join_saturated"] otherwise; a saturation of more than
    SATURATION_LIMIT pairs is refused.

    The locale keeps what construction proved:
    * Closure: the rows are a reflexive translation-closed preorder, the
      record `_check_V` answers from.
    * Monotone cones: U <= U' and U rel X give U' = U | U' rel X | U', so
      up(U) <= up(U'), and the past cone is the mirror: `cones.monotone`
      is set, and `_cones_monotone` walks no cover.
    * Greatest members: a row (or column) of a reflexive join-closed
      relation is closed under binary joins, so its join is its greatest
      member.  Where ids extend the order (`FiniteFrame.ids_extend_order`)
      that member has the highest id, so up(U) is the top bit of rows[U]
      and down(V) the highest U whose row holds V (`_greatest_members`);
      other frames take `cones_from_rows`.
    """
    if frame.m > REL_LIMIT:
        raise FrameTooLarge(
            f"explicit relations supported up to {REL_LIMIT} elements; "
            "use a cone-based constructor")
    rows = [0] * frame.m
    for u, v in pairs:
        if not (0 <= u < frame.m and 0 <= v < frame.m):
            raise ValidationError(f"relation pair {(u, v)} out of range")
        rows[u] |= 1 << v
    rows = lat.transitive_closure_rows(rows)
    masks = _point_masks(frame) if frame.kind == "powerset" else _join_fibres(frame)
    gap = _translation_gap(frame, rows, masks)
    if gap is not None:
        if strict:
            raise AxiomVFailure(gap)
        meta = dict(meta or {})
        meta["join_saturated"] = gap
        rows = lat.transitive_closure_rows(_translation_closure(frame, rows, masks))
        if sum(map(lat.popcount, rows)) > SATURATION_LIMIT:
            raise FrameTooLarge(f"join saturation exceeded {SATURATION_LIMIT} pairs")
    up_map, down_map = (_greatest_members(rows) if frame.ids_extend_order()
                        else cones_from_rows(frame, rows))
    olx = OrderedLocale(frame, up_map=up_map, down_map=down_map, rel_rows=rows,
                        meta=meta)
    olx._join_closed = olx.cones.monotone = True
    return olx


def _greatest_members(rows: list[int]) -> tuple[list[int], list[int]]:
    """The cones of reflexive join-closed rows on a frame whose ids extend
    its order: the highest id of each row, and of each column, the highest
    U whose row holds V, from a sweep down the rows that assigns each V
    once (greatest-member lemma of `ordered_locale_from_relation`)."""
    up_map = [r.bit_length() - 1 for r in rows]
    down_map = [0] * len(rows)
    left = (1 << len(rows)) - 1
    for u in range(len(rows) - 1, -1, -1):
        new = rows[u] & left
        for v in bits(new):
            down_map[v] = u
        left ^= new
    return up_map, down_map


def ordered_locale_from_monads(cones: ConePair, *, validated=False,
                               meta=None) -> OrderedLocale:
    """Ordered locale whose order is determined by a validated monad pair."""
    if not validated:
        cones.validate()
    olx = OrderedLocale(cones.frame, up_map=cones.u, down_map=cones.d,
                        cone_definitional=True, joins=cones.joins, meta=meta)
    olx.cones.monotone = cones.monotone
    return olx


def equality_order(frame: FiniteFrame) -> OrderedLocale:
    ident = list(frame.elements())
    return ordered_locale_from_monads(ConePair(frame, ident, ident), validated=True,
                                      meta={"name": "equality"})


def inclusion_order(frame: FiniteFrame) -> OrderedLocale:
    top = [frame.top] * frame.m
    ident = list(frame.elements())
    return ordered_locale_from_monads(ConePair(frame, top, ident), validated=True,
                                      meta={"name": "inclusion"})


def dual_order(ol: OrderedLocale) -> OrderedLocale:
    """The opposite causal order; cones swap, and so does their join memo.
    Rows are transposed only for a locale they define: the dual's rows are
    the locale's columns (`rel_cols`), and its columns the locale's rows.
    The dual of a cone-definitional one derives its own rows from the
    swapped cones.
    Built once per locale and memoized both ways, so the dual's dual is
    `ol` itself.

    Both other memos carry over.  Swapping the cones does not change
    whether both are monotone.  The transpose of a reflexive join-closed
    preorder is one: V1 R U1 and V2 R U2 give V1 | V2 R U1 | U2.  So do
    the passing reports of the laws that reversal maps to themselves:
    C-order and C-join swap the cones, empty is symmetric, and parallel is
    empty with wedge+ and wedge-, which reversal exchanges.
    """
    dual = ol.memo.get("dual")
    if dual is not None:
        return dual
    rows = None if ol.cone_definitional else ol._rel_rows
    swap = {"u": "d", "d": "u"}
    dual = OrderedLocale(ol.frame, up_map=ol.cones.d, down_map=ol.cones.u,
                         rel_rows=None if rows is None else ol.rel_cols(),
                         cone_definitional=ol.cone_definitional,
                         joins={swap[k]: w for k, w in ol.cones.joins.items()})
    dual.cones.monotone, dual._join_closed = ol.cones.monotone, ol._join_closed
    dual._rel_cols = rows
    for law in ("C-order", "C-join", "empty", "parallel"):
        rep = ol._axiom_cache.get(law)
        if rep is not None and rep.ok:
            dual._axiom_cache[law] = rep
    ol.memo["dual"], dual.memo["dual"] = dual, ol
    return dual


# -- axiom checking ------------------------------------------------------------


def check_axiom(ol: OrderedLocale, law: str) -> CheckReport:
    """Check one ordered-locale law; see module docstring for the tiers.

    Laws: V | L+ | L- | C-order | C-join | wedge+ | wedge- | F+ | F- |
    empty | parallel.  Failing reports carry the lexicographically least
    witness found by the scan order (increasing element ids).
    """
    cached = ol._axiom_cache.get(law)
    if cached is not None:
        return cached
    fn = _AXIOM_CHECKS.get(law)
    if fn is None:
        raise ValidationError(f"unknown law {law!r}")
    rep = fn(ol)
    ol._axiom_cache[law] = rep
    return rep


def _cones_monotone(ol) -> bool:
    """Both cones monotone: one that preserves binary joins is, and any
    other is checked along covers, which generate <=.  Memoized on the
    locale's cone pair; `ordered_locale_from_relation` sets the memo by
    its monotone-cone lemma."""
    f, cones = ol.frame, ol.cones
    if cones.monotone is None:
        cones.monotone = all(
            cones.join_failure(name) is None
            or all(f.leq(t[x], t[y]) for x in f.elements() for y in f.upper_covers(x))
            for name, t in (("u", cones.u), ("d", cones.d)))
    return cones.monotone


def _check_V(ol: OrderedLocale) -> CheckReport:
    """Join closure.  The cone certificate first.  A locale built by
    `ordered_locale_from_relation` (or its dual) then passes by its
    construction record, with the translation note, and runs no preorder
    test or gap pass.  The record rests on the three lemmas of that
    constructor: its rows are a translation-closed preorder (closure), its
    cones are monotone, so the certificate reads `_cones_monotone` from a
    memo (monotone cones), and where ids extend the order its cones are
    the greatest members of rows and columns, which are the joins that
    `cones_from_rows` takes, so C-order sees the same cones on either
    route (greatest members).  On other rows, a translation gap
    (`_translation_gap`) decides a preorder at every size.  A gap, or rows
    that are not a preorder, get the id-order pair scan for the least
    witness while P^2 <= 4,000,000; above that a preorder fails with its
    gap and anything else is refused."""
    f = ol.frame
    if check_axiom(ol, "C-order").ok and _cones_monotone(ol):
        return _ok("V", "exact: cone-determined relation with monotone cones "
                        "is closed under joins of arbitrary families")
    rows = ol.rel_rows()
    npairs = sum(lat.popcount(r) for r in rows)
    if ol._join_closed:
        preorder, gap = True, None
    else:
        preorder = all(rows[u] >> u & 1 and or_rows(rows, rows[u]) == rows[u]
                       for u in f.elements())
        gap = _translation_gap(f, rows) if preorder else None
    if preorder and gap is None:
        return _ok("V", f"exact: preorder closed under translation by the "
                        f"{len(f.coprimes())} join-irreducibles ({npairs} pairs)")
    if npairs * npairs <= 4_000_000:
        pairs = [(u, v) for u in range(f.m) for v in bits(rows[u])]
        for u1, v1 in pairs:
            for u2, v2 in pairs:
                if not rows[f.join(u1, u2)] >> f.join(v1, v2) & 1:
                    return _fail("V", (u1, v1, u2, v2),
                                 "exhaustive binary join closure")
        return _ok("V", f"exhaustive binary join closure over {npairs} pairs "
                        "(binary closure covers all finite families)")
    if gap is not None:
        return _fail("V", gap, f"translation by a join-irreducible ({npairs} pairs)")
    raise FrameTooLarge(f"V on a relation of {npairs} pairs that is not a preorder")


def _check_L(ol: OrderedLocale, plus: bool) -> CheckReport:
    """L+ : U rel U' and U <= V give some V' with V rel V' and U' <= V';
    L- : U rel U' and V <= U' give some W with W rel V and W <= U.

    Tiers.  At every size a passing V on a reflexive relation certifies
    L+: joining U rel U' with V rel V gives V = U v V rel U' v V >= U'.  A
    cone-definitional relation is reflexive, as its monads are
    inflationary; other rows cost m bit tests.  Above 24 elements a passing
    V still certifies L- too, unsoundly: joins give L+, not L-.  Everywhere
    else the exact scan grouped by U names the least (U, U', V): L+ fails
    on up(U) minus the V that reach above U' (read from the kept columns,
    `rel_cols`), L- on down(U') minus the successors of the W below U.
    """
    law = "L+" if plus else "L-"
    f = ol.frame
    certified = (ol.cone_definitional or all(r >> u & 1 for u, r in enumerate(ol.rel_rows()))
                 if plus else f.m > 24)
    if certified and check_axiom(ol, "V").ok:
        return _ok(law, "exact: follows from join closure with witness U'vV / UvV'")
    rows = ol.rel_rows()
    cols = ol.rel_cols() if plus else None
    reach = {}                               # U' -> {V : V rel some V' >= U'}
    for u in f.elements():
        below = 0 if plus else or_rows(rows, f.down_row(u))
        for uq in bits(rows[u]):
            if plus:
                if uq not in reach:
                    reach[uq] = or_rows(cols, f.up_row(uq))
                bad = f.up_row(u) & ~reach[uq]
            else:
                bad = f.down_row(uq) & ~below
            if bad:
                return _fail(law, (u, uq, next(bits(bad))), "exhaustive")
    return _ok(law, "exhaustive")


def _check_C_order(ol: OrderedLocale) -> CheckReport:
    """U rel V iff U <= down(V) and V <= up(U).  In row form (`cone_rows`)
    the least U whose cone row differs from rows[U], at the lowest
    differing V, is the least witness in id order."""
    f = ol.frame
    if ol.cone_definitional:
        return _ok("C-order", "definitional: relation is built from its cones "
                              "(validated monad pair)")
    rows = ol.rel_rows()
    cone = cone_rows(f, ol.up_map, ol.down_map)
    for u in f.elements():
        diff = cone[u] ^ rows[u]
        if diff:
            v = next(bits(diff))
            if rows[u] >> v & 1:
                # cannot happen if the cones are the joins of the relation;
                # flag inconsistent memoization loudly
                return _fail("C-order", (u, v), "relation exceeds its cones")
            return _fail("C-order", (u, v), "exhaustive")
    return _ok("C-order", "exhaustive")


def _cone_join_failure(ol: OrderedLocale) -> Optional[tuple[tuple, str]]:
    """(pair, note) where a cone breaks a binary join, or None.  The kernel
    decides; up to PAIR_LIMIT the id-order scan names the least pair."""
    f, up, dn = ol.frame, ol.cones.u, ol.cones.d
    wu, wd = ol.cones.join_failure("u"), ol.cones.join_failure("d")
    if wu is None and wd is None:
        return None
    if f.m <= PAIR_LIMIT:
        for u in range(f.m):
            for v in range(u, f.m):
                j = f.join(u, v)
                if up[j] != f.join(up[u], up[v]):
                    return (u, v), "exhaustive (future cone)"
                if dn[j] != f.join(dn[u], dn[v]):
                    return (u, v), "exhaustive (past cone)"
    if wu is not None:
        return wu, "join-irreducible kernel (future cone)"
    return wd, "join-irreducible kernel (past cone)"


def _check_C_join(ol: OrderedLocale) -> CheckReport:
    f = ol.frame
    if ol.cones.u[f.bottom] != f.bottom or ol.cones.d[f.bottom] != f.bottom:
        return _fail("C-join", (f.bottom, f.bottom),
                     "empty family: cone of bottom is not bottom")
    bad = _cone_join_failure(ol)
    if bad is not None:
        return _fail("C-join", *bad)
    return _ok("C-join", "exact: empty family + join-irreducible kernel on both "
                         "cones (binary joins, so all finite families)")


def _check_F(ol: OrderedLocale, plus: bool) -> CheckReport:
    """F+ : down(U) & V <= down(U & up(V));  F- : up(U) & V <= up(U & down(V)).

    Once both cones preserve binary joins, so do both sides in each
    argument (meets distribute over joins), and every element but bottom
    is a join of join-irreducibles: the pairs over bottom and J decide.

    Powerset lemma: ids are point masks, {b} & x is {b} or bottom, and
    {a} & up({b}) is {a} or bottom.  So F+ fails at ({a}, {b}) iff
    b in down({a}), b not in down(bottom) and a not in up({b}); pairs with
    bottom hold.  Hence F+ holds iff down({a}) & ~down(bottom) & ~UT[a] == 0
    for every point a, UT the transpose of the point rows up({b}) (F- swaps
    up and down): one n x n transpose and n row tests in place of (n+1)^2
    `holds` calls.  The least failing a, at the lowest bit of its row, is
    the least pair in `gens` order, so the witness is the pair scan's.

    Row lemma: with monotone cones, the V in J decide row U.  Proof for F+
    (F- is the mirror): the left side down(U) & V preserves binary joins
    in V, as meets distribute over joins, and the right side
    r(V) = down(U & up(V)) is monotone in V.  So the law at V1 and V2
    gives it at V1 | V2: down(U) & (V1 | V2) = (down(U) & V1) |
    (down(U) & V2) <= r(V1) | r(V2) <= r(V1 | V2).  It holds at bottom,
    and every V != bottom is a join of join-irreducibles.  Hence the first
    U that fails some j, with the least failing V from a scan of that one
    row, is the least pair in id order: the pair scan's witness, found in
    O(m |J|) plus one row.

    Cones that are not monotone get the pair scan up to PAIR_LIMIT and are
    refused (FrameTooLarge) above it.
    """
    law = "F+" if plus else "F-"
    f = ol.frame
    side, other = (ol.cones.d, ol.cones.u) if plus else (ol.cones.u, ol.cones.d)

    def holds(u, v):
        return f.leq(f.meet(side[u], v), side[f.meet(u, other[v])])

    irreducibles = f.coprimes()
    if ol.cones.join_failure("u") is None and ol.cones.join_failure("d") is None:
        gens = sorted({f.bottom, *irreducibles})
        bad = _gens_failure(f, side, other, gens, holds)
        if bad is None:
            return _ok(law, f"exact: cones preserve binary joins; {len(gens) ** 2} "
                            "pairs over bottom and the join-irreducibles")
        if f.m > PAIR_LIMIT:
            return _fail(law, bad, "pairs over bottom and the join-irreducibles")
    if _cones_monotone(ol):
        tests, route = irreducibles, (f"exact: monotone cones; {f.m} rows over "
                                      f"the {len(irreducibles)} join-irreducibles")
    elif f.m <= PAIR_LIMIT:
        tests, route = f.elements(), "exhaustive"
    else:
        raise FrameTooLarge(f"{law} with cones that are not monotone is decided "
                            f"by a pair scan, capped at {PAIR_LIMIT} elements")
    if f.kind == "powerset" and tests is irreducibles:
        bad = _point_failures(f, side, other)
        u = (bad & -bad).bit_length() - 1 if bad else None
    else:
        u = next((u for u in f.elements() if not all(holds(u, v) for v in tests)), None)
    if u is None:
        return _ok(law, route)
    return _fail(law, (u, next(v for v in f.elements() if not holds(u, v))), route)


def _gens_failure(f: FiniteFrame, side, other, gens, holds) -> Optional[tuple[int, int]]:
    """The least pair over `gens` (bottom, then J) that `holds` fails, or
    None; on powersets by the powerset lemma of `_check_F`, reading the
    transposed point rows that a `SubsetCone` carries (`cols`)."""
    if f.kind != "powerset":
        return next(((u, v) for u in gens for v in gens if not holds(u, v)), None)
    floor, pts = side[f.bottom], gens[1:]
    ut = getattr(other, "cols", None) or lat.transpose_rows([other[p] for p in pts])
    rows = [side[p] & ~floor & ~col for p, col in zip(pts, ut)]
    return next(((p, r & -r) for p, r in zip(pts, rows) if r), None)


def _point_failures(f: FiniteFrame, side, other) -> int:
    """The U, as an id-bitmask, that fail F+ (F-) at a point {b} of a
    powerset: those in col_b = {U : b in side(U)} with U & A not in it, A =
    other({b}).  {U : U & A in col_b} is col_b on the subsets of A doubled
    over each point outside A; col_b is every s-th binary digit of the
    side cone packed at stride s.  O(n) operations per point, not m n
    `holds` calls."""
    width = (f.base_size + 7) >> 3
    digits = format(lat.pack_rows([side[u] for u in f.elements()], width), f"0{8 * width * f.m}b")
    bad = 0
    for b in range(f.base_size):
        a, col = other[1 << b], int(digits[8 * width - 1 - b::8 * width], 2)
        keep = col & f.down_row(a)
        for p in bits(f.top & ~a):
            keep |= keep << (1 << p)
        bad |= col & ~keep
    return bad


def _check_wedge(ol: OrderedLocale, plus: bool) -> CheckReport:
    """wedge+ : U <= V rel V' gives some U' with U rel U' <= V';
    wedge- : U' <= V' with V rel V' gives some U with U rel U' and U <= V.

    Two lemmas shrink the scan on large frames:

    * Lemma A: C-order and F+ imply wedge+.  Given U <= V rel V', put
      U' = up(U) & V'.  F+ gives U = down(V') & U <= down(U'), and C-order
      then gives U rel U' <= V'.  Mirror for wedge- with F-.
    * Lemma B: wedge+ implies F+ when both cones are monotone.  Split
      down(U) & V into the joins W & V over W rel U; wedge+ on
      W & V <= W rel U gives U' with W & V rel U' <= U & up(V), so
      W & V <= down(U & up(V)).  Mirror for wedge- with F-.

    Hence, where C-order holds, wedge+ is equivalent to F+ (given monotone
    cones), and the F witness also breaks the wedge law.  Without C-order
    neither direction holds: wedge may pass while F fails.  So above
    TRIPLE_LIMIT the F route is taken only once C-order is verified and the
    cones are known monotone (validated monads for cone-definitional
    locales, the join-irreducible kernel or a cover scan otherwise).
    Everywhere else the exact scan `_wedge_scan` decides.
    """
    law = "wedge+" if plus else "wedge-"
    corder = check_axiom(ol, "C-order") if ol.frame.m > TRIPLE_LIMIT else None
    if corder is not None and corder.ok and (
            ol.cone_definitional or _cones_monotone(ol)):
        frep = check_axiom(ol, "F+" if plus else "F-")
        if frep.ok:
            return _ok(law, f"exact: equals C-order plus {frep.law} "
                            f"({corder.note}; {frep.note})")
        return _fail(law, frep.witness, f"via {frep.law}: {frep.note}")
    w = _wedge_scan(ol, plus)
    if w is not None:
        return _fail(law, w, "exhaustive triple scan")
    return _ok(law, "exhaustive triple scan")


def _wedge_scan(ol: OrderedLocale, plus: bool) -> Optional[tuple]:
    """The least (U, V, V') in id order that breaks the wedge law, or None.

    The triple scan grouped by U, with element-id bitmasks.  wedge+: every
    V' with U <= V rel V' must lie above some successor of U.  wedge-:
    every V with V rel V' >= U must lie above some predecessor of U.  The
    first bad group holds the least triple.
    """
    f = ol.frame
    rows = ol.rel_rows()
    links = rows if plus else ol.rel_cols()   # successors / predecessors
    for u in range(f.m):
        above = f.up_row(u)
        need, reach = or_rows(links, above), 0
        for w in bits(links[u]):
            reach |= f.up_row(w)
        bad = need & ~reach
        if not bad:
            continue
        if plus:
            v = next(v for v in bits(above) if rows[v] & bad)
            return u, v, next(bits(rows[v] & bad))
        v = next(bits(bad))
        return u, v, next(bits(rows[v] & above))
    return None


def _check_empty(ol: OrderedLocale) -> CheckReport:
    f, up, dn = ol.frame, ol.cones.u, ol.cones.d
    b = f.bottom
    if up[b] != b:
        return _fail("empty", (b, up[b]),
                     "future cone of the empty region is not empty")
    if dn[b] != b:
        return _fail("empty", (dn[b], b),
                     "past cone of the empty region is not empty")
    if ol.cone_definitional:
        # U rel V needs V <= up(U) and U <= down(V): with both cones of the
        # empty region empty, it is related only to itself
        return _ok("empty", "exhaustive")
    rows = ol.rel_rows()
    for v in range(f.m):
        if v != b and rows[b] >> v & 1:
            return _fail("empty", (b, v), "bottom related to a non-bottom region")
        if v != b and rows[v] >> b & 1:
            return _fail("empty", (v, b), "non-bottom region related to bottom")
    return _ok("empty", "exhaustive")


def _check_parallel(ol: OrderedLocale) -> CheckReport:
    for sub in ("empty", "wedge+", "wedge-"):
        rep = check_axiom(ol, sub)
        if not rep.ok:
            return _fail("parallel", rep.witness, f"fails {sub}: {rep.note}")
    return _ok("parallel", "wedge+ and wedge- and empty all hold")


_AXIOM_CHECKS: dict[str, Callable] = {
    "V": _check_V,
    "L+": lambda ol: _check_L(ol, True),
    "L-": lambda ol: _check_L(ol, False),
    "C-order": _check_C_order,
    "C-join": _check_C_join,
    "wedge+": lambda ol: _check_wedge(ol, True),
    "wedge-": lambda ol: _check_wedge(ol, False),
    "F+": lambda ol: _check_F(ol, True),
    "F-": lambda ol: _check_F(ol, False),
    "empty": _check_empty,
    "parallel": _check_parallel,
}

ALL_AXIOMS = tuple(_AXIOM_CHECKS)


def revalidate(ol: OrderedLocale, report: CheckReport) -> bool:
    """Re-check a failing report's witness against its law definition."""
    if report.verdict != "fail" or report.witness is None:
        return False
    f, w = ol.frame, report.witness
    up, dn = ol.cones.u, ol.cones.d
    law = report.law
    if law == "parallel":
        for sub in ("empty", "wedge+", "wedge-"):
            if sub in report.note:
                law = sub
                break
    if law == "V":
        u1, v1, u2, v2 = w
        return (ol.related(u1, v1) and ol.related(u2, v2)
                and not ol.related(f.join(u1, u2), f.join(v1, v2)))
    if law in ("L+", "L-"):
        u, uq, v = w
        if law == "L+":
            return (ol.related(u, uq) and f.leq(u, v)
                    and not any(ol.related(v, vq) and f.leq(uq, vq)
                                for vq in f.elements()))
        return (ol.related(u, uq) and f.leq(v, uq)
                and not any(ol.related(x, v) and f.leq(x, u)
                            for x in f.elements()))
    if law == "C-order":
        u, v = w
        cone_form = f.leq(u, dn[v]) and f.leq(v, up[u])
        return cone_form != ol.related(u, v)
    if law == "C-join":
        u, v = w
        if u == f.bottom and v == f.bottom:
            return up[u] != f.bottom or dn[u] != f.bottom
        j = f.join(u, v)
        return (up[j] != f.join(up[u], up[v])
                or dn[j] != f.join(dn[u], dn[v]))
    if law in ("F+", "F-") or (law in ("wedge+", "wedge-") and len(w) == 2):
        u, v = w
        if law in ("F+", "wedge+"):
            return not f.leq(f.meet(dn[u], v), dn[f.meet(u, up[v])])
        return not f.leq(f.meet(up[u], v), up[f.meet(u, dn[v])])
    if law in ("wedge+", "wedge-"):
        u, v, vq = w
        if law == "wedge+":
            return (f.leq(u, v) and ol.related(v, vq)
                    and not any(ol.related(u, uq) and f.leq(uq, vq)
                                for uq in f.elements()))
        return (f.leq(u, vq) and ol.related(v, vq)
                and not any(ol.related(x, u) and f.leq(x, v)
                            for x in f.elements()))
    if law == "empty":
        u, v = w
        return ol.related(u, v) and (u == f.bottom or v == f.bottom) and u != v \
            or (u == f.bottom and up[f.bottom] == v and v != f.bottom) \
            or (v == f.bottom and dn[f.bottom] == u and u != f.bottom)
    raise ValidationError(f"no revalidator for law {report.law!r}")


# -- morphisms -----------------------------------------------------------------


def is_monotone(fmap: FrameMap, source: OrderedLocale,
                target: OrderedLocale) -> CheckReport:
    """Monotonicity of a locale map via cones:
    up(f^{-1}(V)) <= f^{-1}(up(V)) and dually, for every target element."""
    if fmap.source is not source.frame or fmap.target is not target.frame:
        raise ValidationError("ordered locales do not match the frame map")
    f, g = source.frame, target.frame
    pre = fmap.preimage
    for v in g.elements():
        if not f.leq(source.up_map[pre[v]], pre[target.up_map[v]]):
            return _fail("monotone", (v,), "future cone escapes the preimage")
        if not f.leq(source.down_map[pre[v]], pre[target.down_map[v]]):
            return _fail("monotone", (v,), "past cone escapes the preimage")
    return _ok("monotone", "exhaustive over target elements")


# -- derived structure ---------------------------------------------------------


def convex_hull(ol: OrderedLocale, u: int) -> int:
    return ol.frame.meet(ol.cones.u[u], ol.cones.d[u])


def is_convex_open(ol: OrderedLocale, u: int) -> bool:
    return convex_hull(ol, u) == u


def is_convex_locale(ol: OrderedLocale) -> CheckReport:
    """Convex opens form a base: every element is a join of convex ones.

    Lemma: generators form a base iff they hold every join-irreducible j,
    as each element is the join of the j below it, and a join equal to j
    holds j.  An element that is no join of generators lies above a j that
    is none, so where ids extend the order the least such element is the
    least such j.  O(|J|) hulls, and no cone is listed.
    """
    js = ol.frame.coprimes()
    u = next((j for j in js if not is_convex_open(ol, j)), None)
    if u is not None:
        return _fail("convex", (u,), "not a join of convex subregions")
    return _ok("convex", f"exact: the {len(js)} join-irreducibles are convex")


def causal_complement(ol: OrderedLocale, u: int) -> int:
    f = ol.frame
    return f.meet(f.neg(ol.cones.u[u]), f.neg(ol.cones.d[u]))


def diamond(ol: OrderedLocale, u: int) -> int:
    return causal_complement(ol, causal_complement(ol, u))


def futures_frame(ol: OrderedLocale) -> tuple[FiniteFrame, FrameMap]:
    """Subframe on the image of the future cone, when cones preserve joins.

    The empty-family case may fail in pathological orders (e.g. the
    inclusion order, where the future cone of bottom is the top); then the
    ambient bottom is adjoined and flagged in frame.meta["adjoined_bottom"].
    """
    return _cone_frame(ol, "u", "futures")


def pasts_frame(ol: OrderedLocale) -> tuple[FiniteFrame, FrameMap]:
    return _cone_frame(ol, "d", "pasts")


def _cone_frame(ol: OrderedLocale, name, label) -> tuple[FiniteFrame, FrameMap]:
    """The subframe on the image of cone `name` and its inclusion map, built
    once per locale and shared by every caller (none mutates them); a
    refusal is not cached.

    Generator lemma: a cone c that preserves binary joins is monotone and
    has c(x) = c(bottom) | join{c(j) : j in J, j <= x}, and c(bottom)
    joined with the c(j) of any set S of j is c(join S).  So its image is
    {c(bottom)} closed under join with each c(j), built by doubling over
    the distinct c(j): O(|image| |J|) joins, and no cone is listed.

    Size lemma: k values c(j) each with a carrier bit that c(bottom) and the
    other c(j) lack give 2^k joins (carrier ORs): refused (FrameTooLarge)
    above SUBSET_LIMIT, before the closure where 2^k is.  Inclusion lemma:
    the image is join-closed and holds bottom (adjoined where c(bottom) is
    not); a closure c adds c(top) = top and meets, c(a & b) <= c(a) & c(b)
    = a & b <= c(a & b), so `FrameMap.validate` runs only elsewhere."""
    cached = ol.memo.get(label)
    if cached is not None:
        return cached
    f = ol.frame
    bad = _cone_join_failure(ol)
    if bad is not None:
        raise ConesDoNotPreserveJoins(bad[0])
    cone, join = getattr(ol.cones, name), or_ if f.kind == "powerset" else f.join
    gens, car = {cone[j] for j in f.coprimes()}, f.carriers()
    once = twice = car[cone[f.bottom]]          # bits of c(bottom) count as shared
    for g in gens:
        once, twice = once | car[g], twice | once & car[g]
    least = 1 << sum(car[g] & ~twice != 0 for g in gens)       # the size lemma's bound
    image = {cone[f.bottom]}
    for g in gens:
        new = {join(x, g) for x in image}
        new -= image
        if max(least, len(image) + len(new)) > lat.SUBSET_LIMIT:
            raise FrameTooLarge(f"{label} frame exceeds {lat.SUBSET_LIMIT} elements")
        image |= new
    meta = {"construction": label}
    if f.bottom not in image:
        image.add(f.bottom)
        meta["adjoined_bottom"] = True
    sub, incl = lat.subframe(f, image, meta=meta)
    fmap = FrameMap(source=f, target=sub, preimage=list(incl))
    if not _is_closure(f, cone):
        fmap.validate()
    cached = ol.memo[label] = sub, fmap
    return cached


def _is_closure(f: FiniteFrame, c: Sequence[int]) -> bool:
    """Is the join-preserving c a closure?  Read at bottom and J (`ConePair.validate`)."""
    return all(f.leq(x, c[x]) and c[c[x]] == c[x] for x in (f.bottom, *f.coprimes()))


def is_biframe(ol: OrderedLocale) -> CheckReport:
    """Do (O(X), im(up), im(down)) form a biframe?

    Needs join-preserving cones and every element a join of hull-shaped
    elements up(V) & down(W); the latter is the surjectivity of the
    canonical map into the product of the futures and pasts locales.  By
    the lemma of `is_convex_locale`, the boxes form a base iff every
    join-irreducible is a box, and the least one that is not is the witness.

    Generator lemma: once C-join passes, j in J is a box iff
    j = up(x) & down(y) for some x, y in J.  Write V and W as joins of the
    j below them (bottom as the empty join, which the cones send to
    bottom); the cones preserve those joins, and meets distribute over
    them, so up(V) & down(W) is the join of the up(x) & down(y) over those
    x and y, and a join-irreducible j equal to such a join is one of its
    terms.  So the boxes that matter are |J|^2 meets of cone reads.
    """
    cj = check_axiom(ol, "C-join")
    if not cj.ok:
        return _fail("biframe", cj.witness, f"cones do not preserve joins: {cj.note}")
    f, js = ol.frame, ol.frame.coprimes()
    boxes = {f.meet(ol.up(x), ol.down(y)) for x in js for y in js}
    u = next((j for j in js if j not in boxes), None)
    if u is not None:
        return _fail("biframe", (u,),
                     "not a join of future-meet-past boxes; the map "
                     "from the futures x pasts product is not surjective")
    return _ok("biframe", "cones preserve joins and hull boxes form a base "
                          "(product map surjective)")


def causal_heyting(ol: OrderedLocale, u: int, v: int, direction: str) -> int:
    """Causal Heyting implication: largest W with U & cone(W) <= V."""
    cj = check_axiom(ol, "C-join")
    if not cj.ok:
        raise ConesDoNotPreserveJoins(cj.witness)
    f = ol.frame
    cone = ol.cones.d if direction == "past" else ol.cones.u
    return f.join_all(w for w in f.elements() if f.leq(f.meet(u, cone[w]), v))


def check_regular_cones(ol: OrderedLocale) -> CheckReport:
    """not not up(U) == up(U) == up(not not U), and dually, for every U.
    One scan per locale; the report is memoized on it."""
    rep = ol.memo.get("regular-cones")
    if rep is None:
        rep = ol.memo["regular-cones"] = _regular_cones(ol)
    return rep


def _regular_cones(ol: OrderedLocale) -> CheckReport:
    f = ol.frame
    if f.is_boolean():
        return _ok("regular-cones", "exact: the frame is Boolean, so not not is the identity")
    for u in f.elements():
        nn = f.neg(f.neg(u))
        for cone, name in ((ol.up_map, "future"), (ol.down_map, "past")):
            if f.neg(f.neg(cone[u])) != cone[u]:
                return _fail("regular-cones", (u,),
                             f"{name} cone is not a regular element")
            if cone[nn] != cone[u]:
                return _fail("regular-cones", (u,),
                             f"{name} cone changes under double negation of "
                             "the argument")
    return _ok("regular-cones", "exhaustive")
