"""The four workloads, as lists of requests.

A request is one question a user asks. `run(tr, ctx)` makes the public
calls that answer it, each through the tracer `tr`, and returns the raw
result; only `run` is timed. `answer(raw)` then turns the raw result into
JSON for comparison with the stored reference and lists the failing law
reports that `olocale.revalidate` must accept.

Seeds choose from fixed pools (defect cells, regions, suite names,
variants, random relations), so every request a seed can produce has a
reference in `refs/<workload>.json`. Inputs are built with the `gen`
constructors only: `gen.suite_instance`, `gen.em_locale` and
`gen.standard_suite` are cached, and would warm every request after the
first.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ordloc import cli, coverage, duality, gen, lattice, olocale, ospace
from ordloc.lattice import bits

import reference
from yardstick import cli_env

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"
VARIANTS = ("em", "upper", "lower")
G = gen.GridSpec


@dataclass
class Answer:
    value: object                                  # compared with the reference
    fails: list = field(default_factory=list)      # (locale, failing CheckReport)
    counts: dict = field(default_factory=dict)     # per-layer counters


@dataclass
class Request:
    key: str
    run: Callable                                  # (tracer, ctx) -> raw result
    answer: Callable[[object], Answer]


@dataclass
class CliRequest(Request):
    argv: list = field(default_factory=list)
    stdin: str = ""


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def law_checks(tr, loc):
    return [tr.call(f"olocale.check_axiom.{law}", olocale.check_axiom, loc, law)
            for law in olocale.ALL_AXIOMS]


def law_answer(raw) -> Answer:
    loc, reports = raw
    counts = {"lattice.frame_elements": loc.frame.m,
              "olocale.sampled_verdicts": sum("SAMPLED" in r.note for r in reports)}
    if not loc.cone_definitional:
        counts["olocale.rel_pairs"] = sum(map(lattice.popcount, loc.rel_rows()))
    return Answer({"m": loc.frame.m, "laws": reference.law_rows(reports)},
                  [(loc, r) for r in reports if not r.ok], counts)


def report_value(rep) -> list:
    return [rep.law, rep.verdict, None if rep.witness is None else list(rep.witness)]


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- cli-session -----------------------------------------------------------------

CHECK_DOCS = ("m22", "bowtie", "non_oc", "two_speed_2x3", "punctured_lightcone",
              "m33")
JSON_CHECK_DOCS = ("two_speed_2x3", "punctured_lightcone", "m33")
SUITE_NAMES = ("m22", "bowtie", "non_oc", "vertical33", "total3", "chain3")
M33_REGIONS = ("0,4", "1", "0,2", "3,4,5", "4,8", "2,6", "1,3,5,7", "0,1,2",
               "6,7,8", "0,8", "3", "2,4,6")
COV_PAIRS = (("0,1,2", "3,4,5"), ("0,1,2", "4"), ("0,2", "4"), ("1", "4"),
             ("3,4,5", "7"), ("0,1", "4"), ("1,2", "5"), ("0,1,2", "6,7,8"))


def cli_docs(tr) -> dict:
    """The stdin documents of a session, built with the gen constructors."""
    def space(fn, *args):
        return tr.call("cli.serialize", cli.serialize,
                       tr.call("cli.doc_of_space", cli.doc_of_space,
                               tr.call(f"gen.{fn.__name__}", fn, *args)))

    two = tr.call("gen.two_speed_grid", gen.two_speed_grid,
                  G(2, 3, Fraction(1), Fraction(2)))
    return {
        "m22": space(gen.minkowski_grid, G(2, 2)),
        "m33": space(gen.minkowski_grid, G(3, 3)),
        "bowtie": space(gen.bowtie),
        "non_oc": space(gen.non_OC_example),
        "punctured_lightcone": space(gen.punctured_lightcone),
        "vertical33": space(gen.vertical_grid, 3, 3),
        "two_speed_2x3": tr.call("cli.serialize", cli.serialize,
                                 tr.call("cli.doc_of_locale", cli.doc_of_locale,
                                         two, "two_speed_2x3")),
    }


CLI_GEN = (["gen", "minkowski", "--t", "3", "--x", "3"], ["gen", "bowtie"],
           ["gen", "two-speed", "--t", "2", "--x", "3", "--up", "1", "--down", "2"])
# Six fixed requests are heavier than any seeded one, so that the tail
# (10 samples beyond it in a two-pass run) falls on a fixed request rather
# than on whichever seeded variant or region is heaviest
CLI_FIXED = ((["dot", "-", "--what", "cones"], "m22"), (["ideals", "-"], "m33"),
             (["futures", "-"], "m33"), (["ips", "-"], "vertical33"),
             (["points", "-"], "vertical33"), (["points", "-"], "m33"),
             (["dod", "-", "--region", "0,1,2", "--direction", "future"], "m33"),
             (["dod", "-", "--region", "6,7,8", "--direction", "past"], "m33"),
             (["grothendieck", "-"], "m22"))
REGION_COMMANDS = ("hull", "complement", "diamond", "cones")


def _check(doc, variant, as_json=False):
    return (["check", "-", "--axiom", "all"] + (["--json"] if as_json else [])
            + ["--variant", variant], doc)


def _cov(region, target):
    return ["cov", "-", "--region", region, "--target", target], "m33"


def cli_pass(rng: random.Random) -> list[tuple]:
    """(argv, stdin document name or None) of one session."""
    out = [(argv, None) for argv in CLI_GEN]
    out.append((["gen", "suite", "--name", rng.choice(SUITE_NAMES)], None))
    out += [_check(d, rng.choice(VARIANTS)) for d in CHECK_DOCS]
    out += [_check(d, rng.choice(VARIANTS), True) for d in JSON_CHECK_DOCS]
    out += [([cmd, "-", "--region", rng.choice(M33_REGIONS)], "m33")
            for cmd in REGION_COMMANDS]
    return out + [_cov(*rng.choice(COV_PAIRS)), *CLI_FIXED]


def cli_catalogue() -> list[tuple]:
    """Every (argv, doc) a seed can produce."""
    out = [(argv, None) for argv in CLI_GEN]
    out += [(["gen", "suite", "--name", n], None) for n in SUITE_NAMES]
    out += [_check(d, v) for d in CHECK_DOCS for v in VARIANTS]
    out += [_check(d, v, True) for d in JSON_CHECK_DOCS for v in VARIANTS]
    out += [([cmd, "-", "--region", r], "m33")
            for cmd in REGION_COMMANDS for r in M33_REGIONS]
    return out + [_cov(*p) for p in COV_PAIRS] + list(CLI_FIXED)


def cli_key(argv, doc) -> str:
    return "ordloc " + " ".join(argv) + (f" < {doc}" if doc else "")


def parse_check_text(text: str) -> list[list]:
    """`law: verdict [witness ...] (note)` lines, without the note."""
    rows = []
    for line in text.splitlines():
        law, _, rest = line.partition(": ")
        verdict = rest.split(" ", 1)[0]
        witness = None
        if " [witness " in rest:
            witness = rest.split(" [witness ", 1)[1].split("]", 1)[0]
        rows.append([law, verdict, witness])
    return rows


class CliSession:
    """One `python -m ordloc.cli` subprocess per request."""

    name = "cli-session"

    def __init__(self):
        self.env = cli_env()
        self._locales = {}

    def setup(self, seed: int, tr) -> dict:
        return {"docs": cli_docs(tr), "argvs": cli_pass(random.Random(seed))}

    def requests(self, inputs) -> list[Request]:
        return [self.request(argv, doc, inputs["docs"]) for argv, doc in inputs["argvs"]]

    def request(self, argv, doc, docs) -> Request:
        stdin = docs[doc] if doc else ""

        def run(tr, ctx):
            proc = subprocess.run([sys.executable, "-m", "ordloc.cli", *argv],
                                  input=stdin, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=170)
            return proc.returncode, proc.stdout

        def answer(raw):
            return self.answer(argv, doc, docs, *raw)

        return CliRequest(cli_key(argv, doc), run, answer, argv, stdin)

    def answer(self, argv, doc, docs, code, out) -> Answer:
        if argv[0] != "check":
            counts = {}
            if argv[0] == "dod":
                counts = {"coverage.attempted": 1,
                          "coverage.exact": int(out.rstrip().endswith("[exact]"))}
            return Answer({"exit": code, "stdout": out}, counts=counts)
        if "--json" not in argv:
            return Answer({"exit": code, "laws": parse_check_text(out)})
        blob = json.loads(out)
        laws = [[r["law"], r["verdict"], r["witness"]] for r in blob["reports"]]
        loc = self.locale(doc, argv[argv.index("--variant") + 1], docs)
        fails = [(loc, olocale.CheckReport(r["law"], "fail",
                                           tuple(r["witness"] or ()), r["note"]))
                 for r in blob["reports"] if r["verdict"] == "fail"]
        return Answer({"exit": blob["exit"], "laws": laws}, fails)

    def locale(self, doc, variant, docs):
        """The locale a check ran on, rebuilt for revalidating its witnesses."""
        key = (doc, variant)
        if key not in self._locales:
            payload = cli.parse(docs[doc]).payload
            self._locales[key] = (payload if isinstance(payload, olocale.OrderedLocale)
                                  else ospace.induced_locale(payload, variant))
        return self._locales[key]

    def in_process(self, tr, req) -> tuple[float, dict]:
        """Run a request through `cli.main` in this process.

        Returns the seconds `cli.main` took and the per-layer counts.

        The `gen` caches are cleared first, as a fresh process would have
        them. The document is also parsed and serialized on its own.
        """
        for cached in (gen.standard_suite, gen.suite_instance, gen.em_locale):
            cached.cache_clear()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(req.stdin), io.StringIO(),
                                             io.StringIO())
        t0 = time.perf_counter()
        try:
            tr.call("cli.main", cli.main, list(req.argv))
        finally:
            elapsed = time.perf_counter() - t0
            sys.stdin, sys.stdout, sys.stderr = saved
        if req.stdin:
            sys.stderr = io.StringIO()
            try:
                parsed = tr.call("cli.parse", cli.parse, req.stdin)
            finally:
                sys.stderr = saved[2]
            tr.call("cli.serialize", cli.serialize, parsed)
            return elapsed, {"lattice.frame_elements": parsed.payload.frame.m}
        return elapsed, {}


# -- grid-laws -------------------------------------------------------------------

# grid size -> seeded defect cells per pass. M44 gets three, so that the
# upper and lower M44 defect requests (six a pass) hold the tail percentile
# and the em ones sit with M33 and vertical 3x3 around the median: neither
# then falls on a gap between cost groups.
GRID_SIZES = {(3, 3): 1, (3, 4): 1, (4, 4): 3}


def grid_specs(rng: random.Random) -> list[tuple]:
    """(t, x, defect cell or None) for one pass; vertical 3x3 has t = 0."""
    out = []
    for (t, x), defects in GRID_SIZES.items():
        cells = rng.sample([(a, b) for a in range(t) for b in range(x)], defects)
        out += [(t, x, None)] + [(t, x, cell) for cell in sorted(cells)]
    return out + [(0, 0, None)]


def grid_key(t, x, defect, variant) -> str:
    if t == 0:
        return f"vertical33/{variant}"
    return f"M{t}{x}" + (f"-d{defect[0]},{defect[1]}" if defect else "") + f"/{variant}"


class GridLaws:
    """Build a grid space, its induced locale, and check all eleven laws."""

    name = "grid-laws"

    def setup(self, seed: int, tr) -> dict:
        return {"specs": grid_specs(random.Random(seed))}

    def requests(self, inputs) -> list[Request]:
        return [self.request(*spec, v) for spec in inputs["specs"] for v in VARIANTS]

    @staticmethod
    def request(t, x, defect, variant) -> Request:
        def run(tr, ctx):
            if t == 0:
                space = tr.call("gen.vertical_grid", gen.vertical_grid, 3, 3)
            else:
                spec = G(t, x, defects=(tuple(defect),) if defect else ())
                space = tr.call("gen.minkowski_grid", gen.minkowski_grid, spec)
            loc = tr.call("ospace.induced_locale", ospace.induced_locale, space, variant)
            return loc, law_checks(tr, loc)

        return Request(grid_key(t, x, defect, variant), run, law_answer)

    @staticmethod
    def catalogue() -> list[Request]:
        specs = [(0, 0, None)]
        for t, x in GRID_SIZES:
            specs += [(t, x, None)] + [(t, x, (a, b)) for a in range(t) for b in range(x)]
        return [GridLaws.request(*s, v) for s in specs for v in VARIANTS]


# -- derived-structures ------------------------------------------------------------

DERIVED = {"m33": (gen.minkowski_grid, (G(3, 3),)),
           "vertical33": (gen.vertical_grid, (3, 3)),
           "punctured_lightcone": (gen.punctured_lightcone, ()),
           "m34": (gen.minkowski_grid, (G(3, 4),))}
DOD_REGIONS = {"m33": (1, 7, 5, 18, 56, 84, 273, 448),
               "vertical33": (1, 9, 3, 73, 146, 292, 56, 7),
               "punctured_lightcone": (1, 7, 3, 5, 12, 24, 96, 224)}


def _derived_build(name):
    fn, args = DERIVED[name]

    def run(tr, ctx):
        space = tr.call(f"gen.{fn.__name__}", fn, *args)
        ctx[name] = space, tr.call("ospace.induced_locale", ospace.induced_locale,
                                   space, "em")
        return ctx[name][1]

    return Request(f"{name}/build", run, lambda loc: Answer(
        {"m": loc.frame.m}, counts={"lattice.frame_elements": loc.frame.m}))


def _cone_frame(raw):
    sub, fmap = raw
    return {"m": sub.m, "image": list(fmap.preimage)}


def _ideal_points(ips):
    return {"ips": ips.ips, "ifs": ips.ifs, "future_points": ips.future_points,
            "past_points": ips.past_points,
            "negation_bijection": ips.negation_bijection}


def _dod(name, direction, region):
    def run(tr, ctx):
        loc = ctx[name][1]
        label = ("coverage.domain_of_dependence.large"
                 if loc.frame.m > olocale.REL_LIMIT else "coverage.domain_of_dependence")
        return tr.call(label, coverage.domain_of_dependence, loc, region, direction)

    return Request(f"{name}/dod/{direction}/{region}", run, lambda res: Answer(
        [res.region, res.exact],
        counts={"coverage.attempted": 1, "coverage.exact": int(res.exact)}))


def _on_locale(name, span, fn, value):
    def run(tr, ctx):
        space, loc = ctx[name]
        return tr.call(span, fn, space if fn is duality.unit_check else loc)

    return Request(f"{name}/{fn.__name__}", run, lambda raw: Answer(value(raw)))


# in the order of the README tour; unit_check takes the space, the rest the locale
LOCALE_CALLS = (("olocale.futures_frame", olocale.futures_frame, _cone_frame),
                ("olocale.pasts_frame", olocale.pasts_frame, _cone_frame),
                ("duality.ideal_points", duality.ideal_points, _ideal_points),
                ("duality.counit_check", duality.counit_check, report_value),
                ("duality.unit_check", duality.unit_check, report_value),
                ("olocale.is_biframe", olocale.is_biframe, report_value),
                ("duality.double_negation_transport", duality.double_negation_transport,
                 report_value))


def derived_group(name, fut_region, past_region) -> list[Request]:
    """Requests on one shared em locale."""
    return ([_derived_build(name)] + [_on_locale(name, *call) for call in LOCALE_CALLS]
            + [_dod(name, "future", fut_region), _dod(name, "past", past_region)])


def _ideal_frame() -> Request:
    def run(tr, ctx):
        space = tr.call("gen.punctured_lightcone", gen.punctured_lightcone)
        return tr.call("lattice.ideal_frame", lattice.ideal_frame, space.frame)

    return Request("punctured_lightcone/ideal_frame", run, lambda raw: Answer(
        {"m": raw[0].m, "witness": raw[1]},
        counts={"lattice.frame_elements": raw[0].m}))


def _grothendieck() -> Request:
    def run(tr, ctx):
        space = tr.call("gen.minkowski_grid", gen.minkowski_grid, G(2, 2))
        loc = tr.call("ospace.induced_locale", ospace.induced_locale, space, "em")
        return tr.call("coverage.check_down_grothendieck",
                       coverage.check_down_grothendieck, loc)

    return Request("m22/check_down_grothendieck", run, lambda rep: Answer(
        report_value(rep) + [rep.abstentions]))


def derived_fixed() -> list[Request]:
    """The unseeded requests. Row 0 of M34 is the point mask 0b1111; above
    REL_LIMIT the coverage answers it with one verdict per frame element."""
    return [_derived_build("m34"), _dod("m34", "future", 15), _ideal_frame(),
            _grothendieck()]


class DerivedStructures:
    """Duality, coverage and table-frame work on shared em locales."""

    name = "derived-structures"

    def setup(self, seed: int, tr) -> dict:
        rng = random.Random(seed)
        return {"regions": {n: (rng.choice(r), rng.choice(r))
                            for n, r in DOD_REGIONS.items()}}

    def requests(self, inputs) -> list[Request]:
        out = []
        for name, (fut, past) in inputs["regions"].items():
            out += derived_group(name, fut, past)
        return out + derived_fixed()

    @staticmethod
    def catalogue() -> list[Request]:
        out = []
        for name, regions in DOD_REGIONS.items():
            out += derived_group(name, regions[0], regions[0])
            out += [_dod(name, d, r) for r in regions[1:] for d in ("future", "past")]
        return out + derived_fixed()


# -- explicit-docs -----------------------------------------------------------------

PINNED = {"base": 6, "opens": "discrete", "rel": [[16, 47]]}
PINNED_KEY = "pinned_16_47"
# random relations: pooled per stratum (see make_refs.random_pool), and
# drawn per pass in fixed numbers, so every seed gets the same mix. Every
# pass runs the whole dense pool: the median request is a dense one, and
# drawing 64 of the 80 moved the median by 7% from seed to seed.
POOL_SIZES = {"dense": 80, "sparse": 40}
PER_PASS = {"dense": 80, "sparse": 16}


def random_key(stratum: str, index: int) -> str:
    return f"random/{stratum}/{index}"


def downsets(space) -> list[int]:
    """Point masks of the down-closed sets of a space's order."""
    return [s for s in range(1 << space.n)
            if all(space.down[p] & ~s == 0 for p in bits(s))]


def explicit_space_doc(tr, t, x) -> dict:
    """Vertical t x x grid with its down-set topology spelled out as opens."""
    space = tr.call("gen.vertical_grid", gen.vertical_grid, t, x)
    return {"n": space.n, "labels": list(space.labels),
            "order": [[p, q] for p in range(space.n) for q in bits(space.up[p])
                      if p != q],
            "opens": downsets(space)}


def two_speed_doc(tr, t, x) -> dict:
    loc = tr.call("gen.two_speed_grid", gen.two_speed_grid,
                  G(t, x, Fraction(1), Fraction(2)))
    doc = tr.call("cli.doc_of_locale", cli.doc_of_locale, loc)
    return {"base": t * x, "opens": "discrete", "rel": doc.raw["rel"]}


def _space_request(key, doc, variant) -> Request:
    def run(tr, ctx):
        space = tr.call("ospace.OrderedSpace.build", ospace.OrderedSpace.build,
                        doc["n"], [tuple(p) for p in doc["order"]],
                        opens=doc["opens"], labels=doc["labels"])
        loc = tr.call("ospace.induced_locale", ospace.induced_locale, space, variant)
        return loc, law_checks(tr, loc)

    return Request(f"{key}/{variant}", run, law_answer)


def relation_request(key, doc) -> Request:
    base = doc["base"]
    opens = range(1 << base) if doc["opens"] == "discrete" else doc["opens"]
    pairs = [tuple(p) for p in doc["rel"]]

    def run(tr, ctx):
        frame = tr.call("lattice.frame_from_topology", lattice.frame_from_topology,
                        base, opens)
        loc = tr.call("olocale.ordered_locale_from_relation",
                      olocale.ordered_locale_from_relation, frame, pairs)
        return loc, law_checks(tr, loc)

    return Request(key, run, law_answer)


class ExplicitDocs:
    """Structure a user writes down: explicit opens and explicit relations.

    Requests the program answers wrongly at the commit of the references
    (`known_defects` in the refs; ROADMAP item 1) are not timed. `probes`
    lists them with the pinned relation, and each run checks them once,
    apart from the timed loop.
    """

    name = "explicit-docs"

    def __init__(self, pool=None, known_defects=()):
        if pool is None:
            refs = load_refs(self.name)
            pool, known_defects = refs["pool"], refs["known_defects"]
        self.pool = pool
        self.known_defects = set(known_defects)

    def setup(self, seed: int, tr) -> dict:
        rng = random.Random(seed)
        timed = {s: [i for i in range(len(docs))
                     if random_key(s, i) not in self.known_defects]
                 for s, docs in self.pool.items()}
        return {"spaces": {f"vertical{t}x{x}-downsets": explicit_space_doc(tr, t, x)
                           for t, x in ((3, 4), (2, 6))},
                "relations": {f"two_speed_{t}x{x}": two_speed_doc(tr, t, x)
                              for t, x in ((2, 3), (3, 2))},
                "random": [(s, i) for s, n in PER_PASS.items()
                           for i in sorted(rng.sample(timed[s], n))]}

    def requests(self, inputs) -> list[Request]:
        out = [_space_request(k, d, v) for k, d in inputs["spaces"].items()
               for v in VARIANTS]
        out += [relation_request(k, d) for k, d in inputs["relations"].items()]
        return out + [relation_request(random_key(s, i), self.pool[s][i])
                      for s, i in inputs["random"]]

    def probes(self) -> list[Request]:
        return [relation_request(PINNED_KEY, PINNED)] + [
            relation_request(random_key(s, i), doc)
            for s, docs in self.pool.items() for i, doc in enumerate(docs)
            if random_key(s, i) in self.known_defects]

    def catalogue(self) -> list[Request]:
        inputs = self.setup(0, NullTracer())
        inputs["random"] = [(s, i) for s, docs in self.pool.items()
                            for i in range(len(docs))]
        return self.requests(inputs) + [relation_request(PINNED_KEY, PINNED)]


WORKLOADS = {w.name: w for w in (CliSession, GridLaws, DerivedStructures, ExplicitDocs)}
