"""Reference answers: the definitional wedge scan and answer comparison.

Stored references come from `make_refs.py`. Most of them are the
program's own answers at the commit that defined the benchmark, kept so
that any later change to a verdict, witness or output shows as an error.
The exception is the pair of wedge laws (and `parallel`, which rests on
them) on frames of up to REL_LIMIT elements: there the reference verdict
comes from `wedge_scan` below, which restates the definitional triple scan
and never reads the program's wedge route.
"""

from __future__ import annotations

from ordloc import olocale
from ordloc.lattice import bits

# laws whose reference verdict `definitional_laws` recomputes
WEDGE_LAWS = ("wedge+", "wedge-", "parallel")


def relation_rows(olx) -> list[int]:
    """Element-id bitmask rows of the causal relation.

    A cone-definitional locale on a powerset frame relates U to V iff
    V <= up(U) and U <= down(V); with ids equal to point masks that is a
    walk over the submasks of up(U). Other locales materialize their rows.
    """
    f = olx.frame
    if f.kind != "powerset" or not olx.cone_definitional:
        return olx.rel_rows()
    rows = []
    for u in range(f.m):
        top = olx.up_map[u]
        row, s = 0, top
        while True:
            if u & ~olx.down_map[s] == 0:
                row |= 1 << s
            if s == 0:
                break
            s = (s - 1) & top
        rows.append(row)
    return rows


def _or_over(masks: list[int], idmask: int) -> int:
    acc = 0
    for i in bits(idmask):
        acc |= masks[i]
    return acc


def wedge_scan(f, rows: list[int], plus: bool):
    """Definitional wedge check; returns None or the least failing triple.

    wedge+: for U <= V and V rel V' some U' has U rel U' and U' <= V'.
    wedge-: for U <= V' and V rel V' some W has W rel U and W <= V.
    The triple scan over (U, V, V') in id order is grouped by U: the V'
    reached from V >= U (wedge+), or the V that reach some V' >= U
    (wedge-), must lie in the up-closure of U's successors (wedge+) or
    of U's predecessors (wedge-). The first failing group gives the least
    triple, as the scan would.
    """
    m = f.m
    up = [f.up_row(i) for i in range(m)]
    cols = [0] * m
    for u in range(m):
        for v in bits(rows[u]):
            cols[v] |= 1 << u
    for u in range(m):
        if plus:
            bad = _or_over(rows, up[u]) & ~_or_over(up, rows[u])
        else:
            bad = _or_over(cols, up[u]) & ~_or_over(up, cols[u])
        if not bad:
            continue
        if plus:
            v = next(v for v in bits(up[u]) if rows[v] & bad)
            vq = next(bits(rows[v] & bad))
        else:
            v = next(bits(bad))
            vq = next(bits(rows[v] & up[u]))
        return (u, v, vq)
    return None


def definitional_laws(olx, empty_verdict: str) -> dict:
    """Reference (verdict, witness) for wedge+, wedge- and parallel.

    parallel is empty and wedge+ and wedge-; the program's `empty` verdict
    is taken as given.
    """
    rows = relation_rows(olx)
    out = {}
    for law, plus in (("wedge+", True), ("wedge-", False)):
        w = wedge_scan(olx.frame, rows, plus)
        out[law] = ("pass", None) if w is None else ("fail", list(w))
    if empty_verdict == "fail":
        out["parallel"] = ("fail", None)
    else:
        out["parallel"] = next((out[s] for s in ("wedge+", "wedge-")
                                if out[s][0] == "fail"), ("pass", None))
    return out


def _wit(w):
    return None if w is None else list(w)


def law_rows(reports) -> list[list]:
    return [[r.law, r.verdict, _wit(r.witness)] for r in reports]


def compare(answer, ref) -> list[str]:
    """Differences between an answer and its reference, as messages.

    Law lists are compared law by law on verdict and witness; a law listed
    in the reference's `definitional` gets its verdict compared only,
    because its witness is re-checked with `olocale.revalidate` instead.
    Any other answer must equal the reference exactly.
    """
    if not (isinstance(ref, dict) and "laws" in ref):
        return [] if answer == ref else [f"answer {answer!r} != reference {ref!r}"]
    problems = [f"{k} {answer.get(k)!r} != {ref[k]!r}"
                for k in ref if k not in ("laws", "definitional")
                and answer.get(k) != ref[k]]
    got = answer.get("laws", [])
    if [row[0] for row in got] != [row[0] for row in ref["laws"]]:
        return problems + ["law list differs"]
    loose = set(ref.get("definitional", ()))
    for (law, verdict, witness), (_, rverdict, rwitness) in zip(got, ref["laws"]):
        if verdict != rverdict:
            problems.append(f"{law}: {verdict} != reference {rverdict}")
        elif law not in loose and witness != rwitness:
            problems.append(f"{law}: witness {witness} != reference {rwitness}")
    return problems


def revalidate_problems(fails) -> list[str]:
    """Every failing law report must carry a witness revalidate accepts."""
    return [f"{rep.law}: revalidate rejects witness {rep.witness}"
            for olx, rep in fails
            if rep.law in olocale.ALL_AXIOMS and not olocale.revalidate(olx, rep)]
