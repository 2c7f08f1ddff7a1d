"""Regenerate the stored reference answers and the explicit-docs pool.

    python3 perfbench/make_refs.py [workload ...]

Runs every request a seed can produce once and stores its answer in
`refs/<workload>.json`. For law checks on frames of TRIPLE_LIMIT < m <=
REL_LIMIT elements the wedge+, wedge- and parallel verdicts come from
`reference.definitional_laws`, not from the program. At m <= TRIPLE_LIMIT
the program runs the triple scan itself, and must agree with the
definitional scan, witness included; that tests the scan. Takes a few
minutes.

For explicit-docs it also stores, as `known_defects`, the keys of the
requests whose program answer differs from the reference or carries a
witness `revalidate` rejects. The timed runs leave these out and check
them apart (see workloads.ExplicitDocs).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ordloc import lattice, olocale, ospace  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 20240615
# saturated pair counts of the dense relations: large enough that a request
# takes tens of milliseconds, small enough that saturation stays well below
# the quadratic cliff of the two-speed 2x4 document
PAIRS_LOW, PAIRS_HIGH = 120, 260


def random_frame(rng: random.Random, low: int, high: int):
    """A discrete or down-set frame of low..high elements: (base, opens, m)."""
    while True:
        if rng.random() < 0.5:
            base = rng.choice([b for b in range(3, 7) if low <= 1 << b <= high])
            return base, "discrete", 1 << base
        base = rng.randint(4, 8)
        up = [1 << p for p in range(base)]
        for p in range(base):
            for q in range(p + 1, base):
                if rng.random() < 0.35:
                    up[p] |= 1 << q
        space = ospace.OrderedSpace(
            base, lattice.transitive_closure_rows(up),
            lattice.frame_from_topology(base, [0, (1 << base) - 1]))
        opens = wl.downsets(space)
        if low <= len(opens) <= high:
            return base, opens, len(opens)


def random_pool() -> dict:
    """Seeded random generator sets on frames of 8-64 elements, two strata.

    dense: 2-12 generators, saturated pair count PAIRS_LOW..PAIRS_HIGH.
    sparse: 1-3 generators on frames above TRIPLE_LIMIT, where the program
    answers wedge+ and wedge- through C-order and F instead of the triple
    scan; the pinned (16,47) relation is of this kind.
    """
    rng = random.Random(POOL_SEED)
    pool = {}
    for stratum, size, low, gens, pairs_low in (
            ("dense", wl.POOL_SIZES["dense"], 8, (2, 12), PAIRS_LOW),
            ("sparse", wl.POOL_SIZES["sparse"], olocale.TRIPLE_LIMIT + 1, (1, 3), 0)):
        docs = pool[stratum] = []
        while len(docs) < size:
            base, opens, m = random_frame(rng, low, 64)
            rel = [[rng.randrange(m), rng.randrange(m)] for _ in range(rng.randint(*gens))]
            doc = {"base": base, "opens": opens, "rel": rel}
            loc = wl.relation_request("probe", doc).run(wl.NullTracer(), {})[0]
            if pairs_low <= sum(map(lattice.popcount, loc.rel_rows())) <= PAIRS_HIGH:
                docs.append(doc)
    return pool


def override_wedges(answer: dict, olx, disagreements: list, key: str) -> dict:
    """Replace the wedge-based verdicts by the definitional ones."""
    m = olx.frame.m
    if m > olocale.REL_LIMIT:
        return answer
    rows = {row[0]: row for row in answer["laws"]}
    truth = reference.definitional_laws(olx, rows["empty"][1])
    for law, (verdict, witness) in truth.items():
        row = rows[law]
        if row[1] != verdict:
            disagreements.append(f"{key} {law}: program {row[1]}, definitional {verdict}")
        if m <= olocale.TRIPLE_LIMIT:
            # the program scans triples itself here: a difference is a
            # defect of wedge_scan (text witnesses cannot be compared)
            exact = law == "parallel" or isinstance(row[2], str) or row[2] == witness
            if row[1] != verdict or not exact:
                raise SystemExit(f"{key} {law}: triple scan {row[1:]} "
                                 f"!= definitional {[verdict, witness]}")
            continue
        row[1], row[2] = verdict, witness
    if m > olocale.TRIPLE_LIMIT:
        answer["definitional"] = list(reference.WEDGE_LAWS)
    if "exit" in answer:
        answer["exit"] = int(any(row[1] == "fail" for row in answer["laws"]))
    return answer


def law_refs(requests, disagreements, wrong=None) -> dict:
    """References of in-process requests; the keys of requests the program
    answers wrongly are added to `wrong`."""
    refs, ctx = {}, {}
    for req in requests:
        before = len(disagreements)
        raw = req.run(wl.NullTracer(), ctx)
        ans = req.answer(raw)
        refs[req.key] = ans.value
        if isinstance(ans.value, dict) and "laws" in ans.value:
            override_wedges(ans.value, raw[0], disagreements, req.key)
        rejected = reference.revalidate_problems(ans.fails)
        if rejected:
            disagreements.append(f"{req.key}: {rejected}")
        if wrong is not None and len(disagreements) > before:
            wrong.append(req.key)
        print(req.key, flush=True)
    return refs


def cli_refs(disagreements) -> dict:
    session = wl.CliSession()
    docs = wl.cli_docs(wl.NullTracer())
    refs = {}
    for argv, doc in wl.cli_catalogue():
        req = session.request(argv, doc, docs)
        ans = req.answer(req.run(wl.NullTracer(), {}))
        if argv[0] == "check":
            olx = session.locale(doc, argv[argv.index("--variant") + 1], docs)
            override_wedges(ans.value, olx, disagreements, req.key)
        refs[req.key] = ans.value
        print(req.key, flush=True)
    return refs


def main(names) -> None:
    for name in names:
        disagreements = []
        out = {}
        if name == "cli-session":
            out["refs"] = cli_refs(disagreements)
        elif name == "explicit-docs":
            out["pool"] = random_pool()
            out["known_defects"] = []
            out["refs"] = law_refs(wl.ExplicitDocs(out["pool"]).catalogue(),
                                   disagreements, out["known_defects"])
        else:
            out["refs"] = law_refs(wl.WORKLOADS[name].catalogue(), disagreements)
        out["program_disagrees"] = disagreements
        with open(wl.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(out['refs'])} references, "
              f"{len(disagreements)} program disagreements", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or list(wl.WORKLOADS))
