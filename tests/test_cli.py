"""CLI: serialization round trips, exit codes, reports, DOT export."""

import argparse
import contextlib
import copy
import functools
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordloc import cli, derived, duality as D, gen, lattice as L, olocale as O, ospace as S

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ROOT = os.path.dirname(HERE)


def run_cli(argv, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ordloc.cli", *argv],
        input=stdin_text, capture_output=True, text=True)
    return proc


def run_in_process(argv, stdin_text=None):
    """`run_cli` through `cli.main` in this process: for the tests that
    assert only stdout, stderr and the exit code."""
    code, out, err = _run_in_process(argv, stdin_text or "")
    return subprocess.CompletedProcess(argv, code, out, err)


def doc_for(name, inst):
    if isinstance(inst, S.OrderedSpace):
        return cli.doc_of_space(inst, name)
    return cli.doc_of_locale(inst, name)


def test_round_trip_all_suite_instances():
    for name, inst in gen.standard_suite():
        doc = doc_for(name, inst)
        text = cli.serialize(doc)
        again = cli.serialize(cli.parse(text))
        assert text == again, name


def test_round_trip_preserves_structure(m33):
    doc = cli.parse(cli.serialize(cli.doc_of_space(m33)))
    sp = doc.payload
    assert sp.n == m33.n and list(sp.up) == list(m33.up)
    assert sp.frame.m == m33.frame.m


def test_parse_rejects_bad_topology():
    bad = json.dumps({"kind": "space", "points": ["a", "b", "c"],
                      "order": [], "opens": [[], [0], [1], [0, 1, 2]]})
    with pytest.raises(Exception) as e:
        cli.parse(bad)
    assert "union" in str(e.value) or "NotClosedUnderJoin" in type(e.value).__name__


def test_parse_autocloses_relation(capsys):
    frame = {"base": 2, "points": ["0", "1"], "opens": "discrete"}
    doc = json.dumps({"kind": "locale", "frame": frame,
                      "rel": [[1, 2], [2, 3]]})     # not transitive
    parsed = cli.parse(doc)
    assert parsed.payload.related(1, 3)
    with pytest.raises(Exception):
        cli.parse(doc, strict=True)


def test_parse_two_speed_3x3_document():
    # 42,902 related pairs on 512 elements, already join-closed
    loc = gen.two_speed_grid(gen.GridSpec(3, 3, Fraction(1), Fraction(2)))
    parsed = cli.parse(cli.serialize(cli.doc_of_locale(loc))).payload
    assert parsed.rel_rows() == loc.rel_rows()
    assert "join_saturated" not in parsed.meta


def test_cli_check_exit_codes():
    gen_out = run_in_process(["gen", "minkowski", "--t", "2", "--x", "2"])
    assert gen_out.returncode == 0
    ok = run_in_process(["check", "-", "--axiom", "all"], gen_out.stdout)
    assert ok.returncode == 0
    two = run_in_process(["gen", "two-speed", "--t", "2", "--x", "3",
                          "--up", "1", "--down", "2"])
    bad = run_in_process(["check", "-", "--axiom", "parallel"], two.stdout)
    assert bad.returncode == 1
    assert "witness" in bad.stdout
    garbage = run_in_process(["check", "-", "--axiom", "all"], "{not json")
    assert garbage.returncode == 2


def test_cli_dod(m33):
    doc_text = cli.serialize(cli.doc_of_space(m33))
    out = run_in_process(["dod", "-", "--region", "0,2", "--direction", "future"], doc_text)
    assert out.returncode == 0
    assert "{(0,0),(0,2)}" in out.stdout and "exact" in out.stdout


def test_cli_cov_codes(m33):
    doc_text = cli.serialize(cli.doc_of_space(m33))
    yes = run_in_process(["cov", "-", "--region", "0,1,2", "--target", "7"], doc_text)
    assert yes.returncode == 0 and yes.stdout.startswith("yes")
    no = run_in_process(["cov", "-", "--region", "0,2", "--target", "3"], doc_text)
    assert no.returncode == 1 and no.stdout.startswith("no")


def test_cli_hull_and_friends(m33):
    doc_text = cli.serialize(cli.doc_of_space(m33))
    hull = run_cli(["hull", "-", "--region", "0,6"], doc_text)
    assert hull.stdout.strip() == "{(0,0),(1,0),(1,1),(2,0)}"
    compl = run_cli(["complement", "-", "--region", "4"], doc_text)
    assert compl.stdout.strip() == "{(1,0),(1,2)}"
    diam = run_cli(["diamond", "-", "--region", "4"], doc_text)
    assert diam.stdout.strip() == "{(1,1)}"
    cones = run_cli(["cones", "-", "--region", "4"], doc_text)
    assert "up: " in cones.stdout and "down: " in cones.stdout


@pytest.mark.parametrize("field, message", [
    ({"order": [[0, 5]]}, "parse error: id 5 out of range 0..1 (at order)"),
    ({"order": [[0]]}, "parse error: expected a list of [a, b] pairs (at order)"),
    ({"opens": "weird"}, 'parse error: opens must be "discrete", "codiscrete" or a '
                         "list of point-id lists, got 'weird' (at opens)"),
    ({"order": [[0, 1.9]]}, "parse error: 1.9 is not an integer id (at order)"),
    ({"order": [[False, True]]}, "parse error: False is not an integer id (at order)"),
    ({"order": [["0", "1"]]}, "parse error: '0' is not an integer id (at order)"),
], ids=["order-out-of-range", "order-not-a-pair", "opens-not-a-list", "order-float-id",
        "order-bool-id", "order-string-id"])
def test_cli_rejects_malformed_space_documents(field, message):
    doc = json.dumps({"kind": "space", "points": ["a", "b"], **field})
    out = run_in_process(["check", "-"], doc)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == message + "\n"


M22_DOC = "m22"   # stands for the serialized m22 space


@pytest.mark.parametrize("argv, stdin, message", [
    (["hull", "-", "--region", "a"], M22_DOC,
     "parse error: 'a' is not an integer id (at --region)"),
    (["hull", "-", "--region", "-1"], M22_DOC,
     "parse error: id -1 out of range 0..3 (at --region)"),
    (["cov", "-", "--region", "0", "--target", "x"], M22_DOC,
     "parse error: 'x' is not an integer id (at --target)"),
    (["gen", "minkowski", "--defect", "1"], None,
     "parse error: expected a t,x cell, got '1' (at --defect)"),
    (["gen", "minkowski", "--slope", "abc"], None,
     "parse error: 'abc' is not a valid value (at --slope)"),
    (["check", "-"], json.dumps({"kind": "coverage-table", "cov_plus": [],
                                 "frame": {"base": 1, "opens": "discrete"}}),
     "parse error: unknown document kind 'coverage-table'"),
    (["check", "-"], json.dumps({"kind": "locale", "rel": [],
                                 "frame": {"base": -1, "opens": "discrete"}}),
     "parse error: malformed frame: negative base -1 (at frame)"),
    (["check", "-"], json.dumps({"kind": "locale", "rel": [],
                                 "frame": {"base": 2.9, "opens": "discrete"}}),
     "parse error: malformed frame: base 2.9 is not an integer (at frame)"),
    (["hull", "-", "--region", "1"],
     json.dumps({"kind": "locale", "rel": [],
                 "frame": {"base": 2, "opens": "discrete", "points": ["a"]}}),
     "parse error: malformed frame: 1 point names for base 2 (at frame)"),
    (["check", "-"], json.dumps({"kind": "locale", "rel": [["1_0", 3]],
                                 "frame": {"base": 2, "opens": "discrete"}}),
     "parse error: '1_0' is not an integer id (at rel)"),
    (["gen", "suite", "--name", "nope"], None, "error: unknown suite instance 'nope'"),
    (["gen", "two-speed", "--topology", "codiscrete"], None,
     "error: two_speed_grid wants the discrete topology"),
    (["gen", "vertical", "--t", "2", "--x", "2", "--slope", "5"], None,
     "parse error: not a flag of gen vertical (at --slope)"),
    (["gen", "bowtie", "--t", "4"], None, "parse error: not a flag of gen bowtie (at --t)"),
    (["gen", "vertical", "--topology", "codiscrete"], None,
     "parse error: not a flag of gen vertical (at --topology)"),
    (["gen", "minkowski", "--up", "2"], None,
     "parse error: not a flag of gen minkowski (at --up)"),
    (["gen", "suite", "--name", "m22", "--defect", "0,0"], None,
     "parse error: not a flag of gen suite (at --defect)"),
], ids=["region-not-an-id", "region-negative", "target-not-an-id",
        "defect-not-a-cell", "slope-not-a-number", "coverage-table-kind-unknown",
        "frame-negative-base", "frame-float-base", "frame-too-few-point-names",
        "rel-string-id", "unknown-suite-instance", "two-speed-not-discrete",
        "vertical-takes-no-slope", "bowtie-takes-no-size", "vertical-takes-no-topology", "minkowski-takes-no-up",
        "suite-takes-no-defect"])
def test_cli_bad_input_exits_2_with_one_line(argv, stdin, message):
    if stdin == M22_DOC:
        stdin = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    out = run_in_process(argv, stdin)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == message + "\n"


def _cap_address_space(limit=512 << 20):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_diamond_basis_m66_is_the_discrete_document():
    # the diamonds generate the discrete topology (gen.minkowski_grid), so
    # 2**36 opens are never listed
    outs = [subprocess.run([sys.executable, "-m", "ordloc.cli", "gen", "minkowski",
                            "--t", "6", "--x", "6", "--topology", topology],
                           capture_output=True, text=True, timeout=10,
                           preexec_fn=_cap_address_space)
            for topology in ("diamond_basis", "discrete")]
    assert outs[0].returncode == 0 and outs[0].stderr == ""
    assert outs[0].stdout == outs[1].stdout


def run_discrete(n, argv):
    """The CLI on an n-point discrete space document, within a memory cap
    and a time limit, so a regression fails instead of swapping."""
    doc = json.dumps({"kind": "space", "points": [f"p{i}" for i in range(n)],
                      "order": []})
    return subprocess.run([sys.executable, "-m", "ordloc.cli", *argv], input=doc,
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=_cap_address_space)


@pytest.mark.parametrize("argv", [
    ["points", "-"], ["futures", "-"], ["pasts", "-"], ["dot", "-"],
], ids=lambda argv: argv[0])
def test_cli_refuses_40_point_discrete_space(argv):
    # `points` reads pt(U) for every element and `dot` draws every element,
    # so 2**40 opens are refused before any list is allocated; the cone
    # frames of `futures` and `pasts` are all 2**40 subsets, refused before
    # their closure, as 40 generator values each hold a point of their own
    out = run_discrete(40, argv)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_cli_lists_futures_frame_of_14_point_discrete_space():
    # the futures frame is the whole powerset, 2**14 elements: its tables
    # are transposed in lattice.PACK_ROWS-square tiles, so no packed matrix
    # or block-swap mask of 2**28 bits is built under the 512 MB cap
    out = run_discrete(14, ["futures", "-"])
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert lines[0] == "futures frame: 16384 elements" and len(lines) == 16385


@pytest.mark.parametrize("argv,expect", [
    (["check", "-", "--axiom", "all"], None), (["hull", "-", "--region", "0"], "{p0}\n"),
    (["dod", "-", "--region", "0"], "D+({p0}) = {p0} [exact]\n"),
    (["ideals", "-"], "ideals (40):\n" + "".join(f"  {{p{i}}}\n" for i in range(40))
     + "past-semi-full: pass (exhaustive)\n"),
    (["ips", "-"], "".join(f"{name} (40):\n" + "".join(f"  {{p{i}}}\n" for i in range(40))
                           for name in ("IPs", "IFs"))
     + "future points: 40, past points: 40, negation bijection: True\n"),
], ids=["check", "hull", "dod", "ideals", "ips"])
def test_cli_answers_40_point_discrete_space(argv, expect):
    # the laws, per-element queries and the closed-form domain of
    # dependence read generator-form cones from two half tables of 2**20
    # entries each; the ideals of the relation are its greatest-member
    # candidates, one per point, and the ideal points are read from the
    # 41 generator values of each cone frame, which is never built
    out = run_discrete(40, argv)
    assert out.returncode == 0 and out.stderr == ""
    if expect is None:
        lines = out.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == list(O.ALL_AXIOMS)
        assert all(": pass (" in line for line in lines)
    else:
        assert out.stdout == expect


def test_cli_cov_at_generator_scale():
    # the coverage search reads the cones one element at a time, never a
    # cone list: M55 (2**25 opens) and a 40-point discrete space answer
    m55 = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(5, 5))))
    out = subprocess.run([sys.executable, "-m", "ordloc.cli", "cov", "-", "--region",
                          "0,1,2,3,4", "--target", "12"], input=m55, capture_output=True,
                         text=True, timeout=10, preexec_fn=_cap_address_space)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == ("yes (verified refinements for 18 enumerated atom paths; "
                          "slot analysis certifies the rest)\n")
    out = run_discrete(40, ["cov", "-", "--region", "0", "--target", "0,1"])
    assert (out.returncode, out.stderr) == (1, "")
    assert out.stdout == ("no witness path {p1} (certified: all insertion slots along "
                          "the witness chain are empty)\n")


@pytest.mark.parametrize("t,size,ips", [(5, 340, 25), (6, 1193, 36)], ids=["m55", "m66"])
def test_cli_cone_frames_and_ips_at_generator_scale(t, size, ips):
    # the cone frames close the t*t generator values under union, so M55
    # (2**25 opens) and M66 (2**36) list their frames without a cone list
    doc = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(t, t))))
    outs = {cmd: subprocess.run([sys.executable, "-m", "ordloc.cli", cmd, "-"], input=doc,
                                capture_output=True, text=True, timeout=10,
                                preexec_fn=functools.partial(_cap_address_space, 1 << 30))
            for cmd in ("futures", "pasts", "ips")}
    assert all((o.returncode, o.stderr) == (0, "") for o in outs.values())
    for cmd in ("futures", "pasts"):
        lines = outs[cmd].stdout.splitlines()
        assert lines[0] == f"{cmd} frame: {size} elements" and len(lines) == size + 1
    lines = outs["ips"].stdout.splitlines()
    assert (lines[0], lines[ips + 1]) == (f"IPs ({ips}):", f"IFs ({ips}):")
    assert lines[-1] == f"future points: {ips}, past points: {ips}, negation bijection: True"


def test_cli_refuses_41_point_discrete_check():
    out = run_discrete(41, ["check", "-", "--axiom", "all"])
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: cone tables on 2097152 subsets exceed 1048576\n"


def test_cli_ideals_on_m66_and_above_the_guard():
    # the ideals of a partial order are its principal down-sets, one per
    # point; above IDEAL_LIMIT points the listing is refused in one line
    m66 = gen.minkowski_grid(gen.GridSpec(6, 6))
    out = subprocess.run([sys.executable, "-m", "ordloc.cli", "ideals", "-"],
                         input=cli.serialize(cli.doc_of_space(m66)), capture_output=True,
                         text=True, timeout=10, preexec_fn=_cap_address_space)
    lines = out.stdout.splitlines()
    assert out.returncode == 0 and out.stderr == ""
    assert lines[0] == "ideals (36):" and lines[-1] == "past-semi-full: pass (exhaustive)"
    assert lines[1:-1] == ["  " + m66.pretty_points(m) for m in sorted(m66.down)]
    out = run_discrete(D.IDEAL_LIMIT + 1, ["ideals", "-"])
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"error: ideals listed only up to {D.IDEAL_LIMIT} points\n"


def test_cli_json_report(m33):
    import jsonschema
    doc_text = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    out = run_in_process(["check", "-", "--axiom", "parallel", "--json"], doc_text)
    blob = json.loads(out.stdout)
    jsonschema.validate(blob, cli.REPORT_SCHEMA)
    assert blob["exit"] == 0
    assert blob["reports"][0]["law"] == "parallel"
    assert blob["reports"][0]["verdict"] == "pass"
    two = run_in_process(["gen", "two-speed", "--t", "2", "--x", "3",
                          "--up", "1", "--down", "2"])
    bad = run_in_process(["check", "-", "--axiom", "all", "--json"], two.stdout)
    blob2 = json.loads(bad.stdout)
    jsonschema.validate(blob2, cli.REPORT_SCHEMA)
    assert blob2["exit"] == 1


def test_cli_grothendieck_and_ideals():
    m22_text = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    g = run_cli(["grothendieck", "-"], m22_text)
    assert g.returncode == 0
    assert g.stdout == "grothendieck: pass (exhaustive sieve enumeration; 0 abstentions)\n"
    # the sieve check has no cap of its own: M23 answers like M22, and only
    # the membership rows refuse (M34 has 4,096 elements); an upper locale
    # of M23 fails the coverage's required axioms first
    m23_text = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(2, 3))))
    g = run_in_process(["grothendieck", "-"], m23_text)
    assert g.returncode == 0
    assert g.stdout == "grothendieck: pass (exhaustive sieve enumeration; 0 abstentions)\n"
    m34_text = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(3, 4))))
    g = run_in_process(["grothendieck", "-"], m34_text)
    assert g.returncode == 2 and g.stdout == ""
    assert g.stderr == "error: bulk coverage capped at materializable sizes\n"
    g = run_in_process(["grothendieck", "-", "--variant", "upper"], m23_text)
    assert g.returncode == 2 and g.stdout == ""
    assert g.stderr == "error: required axiom parallel does not hold\n"
    ide = run_in_process(["ideals", "-"], m22_text)
    assert ide.returncode == 0 and "ideals (" in ide.stdout


def em(space):
    return S.induced_locale(space, "em")


def test_dot_small_exports():
    dot = derived.export_dot(em(S.OrderedSpace.build(1, [], opens="discrete")))
    assert dot.count("->") == 1 and dot.count("[label=") == 2
    dot4 = derived.export_dot(em(S.OrderedSpace.build(2, [], opens="discrete")))
    assert dot4.count("->") == 4 and dot4.count("[label=") == 4


def test_dot_limit(m33):
    out = run_in_process(["dot", "-"], cli.serialize(cli.doc_of_space(m33)))   # 512 > 128
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: frame has 512 elements; DOT export limited to 128 "
                          "(raise with --dot-limit)\n")


def test_dot_limit_is_checked_before_the_locale_is_built(monkeypatch):
    # the em locale of 40 discrete points takes about 0.5 s and 190 MB to
    # build; the frame size is known from the document alone
    calls = []
    induced = S.induced_locale
    monkeypatch.setattr(S, "induced_locale", lambda *a: calls.append(a) or induced(*a))
    doc = json.dumps({"kind": "space", "points": [f"p{i}" for i in range(40)], "order": []})
    out = run_in_process(["dot", "-"], doc)
    assert out.returncode == 2
    assert out.stderr == ("error: frame has 1099511627776 elements; DOT export limited to "
                          "128 (raise with --dot-limit)\n")
    assert calls == []


def test_dot_golden_files():
    bow = derived.export_dot(em(gen.suite_instance("bowtie")), "hasse")
    with open(os.path.join(GOLDEN, "bowtie_hasse.dot")) as fh:
        assert bow == fh.read()
    m22d = gen.minkowski_grid(gen.GridSpec(2, 2, topology="diamond_basis"))
    dot = derived.export_dot(em(m22d), "cones")
    with open(os.path.join(GOLDEN, "m22_diamond_cones.dot")) as fh:
        assert dot == fh.read()


def test_cli_inspection_subcommands(tmp_path):
    m22 = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    bow = cli.serialize(cli.doc_of_space(gen.suite_instance("bowtie")))
    p22 = tmp_path / "m22.json"
    p22.write_text(m22)
    pb = tmp_path / "bow.json"
    pb.write_text(bow)
    out = tmp_path / "out.txt"
    for cmd, head in ((["points", str(pb)], "points: 4"),
                      (["ips", str(p22)], "IPs (4):"),
                      (["futures", str(p22)], "futures frame: 7 elements"),
                      (["pasts", str(p22)], "pasts frame: 7 elements"),
                      (["ideals", str(p22)], "ideals (4):"),
                      (["dot", str(pb), "--what", "hulls"], "digraph frame {")):
        assert cli.main(cmd + ["--out", str(out)]) == 0, cmd
        assert out.read_text().splitlines()[0].startswith(head), cmd


@pytest.mark.parametrize("where", ["input", "out"])
def test_cli_file_errors_exit_2_with_one_line(where, tmp_path, capsys):
    # a document that cannot be read, or an --out path that cannot be
    # written, ends in one error line and exit 2, not a traceback
    doc = tmp_path / "m22.json"
    doc.write_text(cli.serialize(cli.doc_of_space(gen.suite_instance("m22"))))
    missing = tmp_path / "no-such-dir" / "x.json"
    argv = (["check", str(missing)] if where == "input"
            else ["check", str(doc), "--out", str(missing)])
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_cli_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    # a MemoryError inside a command ends in one error line and exit 2,
    # not a traceback
    def exhausted(*args):
        raise MemoryError

    help_text, _, reads = cli.COMMANDS["gen"]
    monkeypatch.setitem(cli.COMMANDS, "gen", (help_text, exhausted, reads))
    assert cli.main(["gen", "bowtie"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: out of memory\n"


def test_dot_pasts_coloring(loc22):
    # the "cones" coloring marks exactly the cone images
    dot = derived.export_dot(em(gen.suite_instance("m22")), "cones")
    filled = {line.split()[0] for line in dot.splitlines() if "filled" in line}
    expect = {f"e{u}" for u in set(loc22.up_map) | set(loc22.down_map)}
    assert filled == expect


# -- parser: only the invoked subparser is configured ---------------------------


def _parse(parser, argv, capsys):
    """(namespace or None, exit code, stdout, stderr) of parsing argv."""
    try:
        ns, code = parser.parse_args(argv), None
    except SystemExit as e:
        ns, code = None, e.code
    out = capsys.readouterr()
    return ns, code, out.out, out.err


def _catalogue_argvs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads
    return [argv for argv, _ in workloads.cli_catalogue()]


def _readme_argvs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(cmd)[1:] for line in block.splitlines()
            for cmd in line.split("|") if cmd.strip().startswith("ordloc ")]


def _every_flag_argv(name):
    """One argv for subcommand `name` that gives each of its options a value."""
    p = argparse.ArgumentParser()
    cli._add_options(name, p)
    argv = [name]
    for action in p._actions:
        value = (action.choices[-1] if action.choices
                 else "5" if action.type is int else "0,1")
        if not action.option_strings:
            argv.append("-" if action.dest == "input" else value)
        elif action.dest != "help":
            argv += [action.option_strings[-1]] + ([] if action.nargs == 0 else [value])
    return argv


MALFORMED_ARGVS = [
    ["check", "-", "--bogus"], ["check", "-", "--variant", "mid"], ["check"],
    ["nosuch", "-"], ["-h"], ["check", "-h"], [], ["dot", "-", "--dot-limit", "x"],
    ["gen", "--help"], ["--json", "check", "-"],
]


# subcommand -> the shared options it reads; each also takes the document,
# --strict and --out (gen: its generator flags and --out)
READS = {"gen": (), "check": ("--variant", "--axiom", "--json"),
         **dict.fromkeys(["cones", "hull", "complement", "diamond"], ("--variant", "--region")),
         **dict.fromkeys(["points", "ips", "futures", "pasts", "grothendieck"], ("--variant",)),
         "dod": ("--variant", "--region", "--direction"),
         "cov": ("--variant", "--region", "--target", "--direction", "--max-path-len"),
         "ideals": ("--strict-rel",), "dot": ("--what", "--dot-limit")}
SHARED = {"--variant": ["upper"], "--axiom": ["V"], "--json": [], "--region": ["0"],
          "--target": ["0"], "--direction": ["past"], "--max-path-len": ["3"],
          "--strict-rel": [], "--what": ["cones"], "--dot-limit": ["5"]}


def test_each_subcommand_refuses_the_options_it_does_not_read(capsys):
    assert set(READS) == set(cli.COMMANDS)
    for name, reads in READS.items():
        head = [name, "bowtie" if name == "gen" else "-"]
        for flag, value in SHARED.items():
            argv = head + [flag, *value]
            _, code, _, err = _parse(cli.build_parser(argv), argv, capsys)
            if flag in reads:
                assert code is None, argv
            else:
                assert code == 2 and f"unrecognized arguments: {flag}" in err, argv


def test_lazy_parser_matches_the_fully_configured_one(monkeypatch, capsys):
    readme = _readme_argvs()
    assert readme
    argvs = (_catalogue_argvs(monkeypatch) + readme
             + [_every_flag_argv(name) for name in cli.COMMANDS])
    for argv in argvs:
        lazy = _parse(cli.build_parser(argv), argv, capsys)
        assert lazy[1:] == (None, "", ""), argv
        assert lazy == _parse(cli.build_parser(), argv, capsys), argv
    for argv in MALFORMED_ARGVS:
        lazy = _parse(cli.build_parser(argv), argv, capsys)
        assert lazy[0] is None and lazy[1] in (0, 2), argv
        assert lazy == _parse(cli.build_parser(), argv, capsys), argv


# -- import footprint ---------------------------------------------------------------

# one interpreter imports cli, then forks a child per request, so each
# request starts from the modules `import ordloc.cli` loads
FOOTPRINT = """
import io, json, os, sys
from ordloc import cli
for argv, doc in json.load(sys.stdin):
    pid = os.fork()
    if pid == 0:
        sys.stdin, sys.stdout = io.StringIO(doc), io.StringIO()
        code = cli.main(argv)
        print(json.dumps([code, sorted(sys.modules)]), file=sys.__stdout__, flush=True)
        os._exit(0)
    os.waitpid(pid, 0)
"""

# what `import ordloc.cli` loads, and every request with it
CLI_MODULES = {"ordloc", "ordloc.cli", "ordloc.errors", "ordloc.lattice", "ordloc.olocale",
               "ordloc.ospace"}
COVERAGE, DERIVED = {"ordloc.coverage"}, {"ordloc.derived"}
DUALITY = {"ordloc.derived", "ordloc.duality"}
# (argv, document, exit code, the other ordloc modules its process loads):
# the law path, gen and the coverage never load the derived structures
IMPORTS = [
    (["check", "-", "--axiom", "all"], "m22", 0, set()),
    (["check", "-", "--axiom", "all", "--json"], "two_speed_2x3", 1, set()),
    (["gen", "minkowski", "--t", "2", "--x", "2"], None, 0, {"ordloc.gen"}),
    (["cones", "-", "--region", "0"], "m22", 0, set()),
    (["dod", "-", "--region", "0"], "m22", 0, COVERAGE),
    (["cov", "-", "--region", "0", "--target", "1"], "m22", 1, COVERAGE),
    (["grothendieck", "-"], "m22", 0, COVERAGE),
    (["hull", "-", "--region", "0"], "m22", 0, DERIVED),
    (["complement", "-", "--region", "0"], "m22", 0, DERIVED),
    (["diamond", "-", "--region", "0"], "m22", 0, DERIVED),
    (["futures", "-"], "m22", 0, DERIVED),
    (["pasts", "-"], "m22", 0, DERIVED),
    (["dot", "-"], "m22", 0, DERIVED),
    (["points", "-"], "m22", 0, DUALITY),
    (["ips", "-"], "m22", 0, DUALITY),
    (["ideals", "-"], "m22", 0, DUALITY),
]


def test_each_subcommand_imports_only_what_it_runs():
    # -S: no site hooks, so only what ordloc imports shows up
    assert {argv[0] for argv, _, _, _ in IMPORTS} == set(cli.COMMANDS)
    docs = {name: cli.serialize(doc_for(name, gen.suite_instance(name)))
            for name in ("m22", "two_speed_2x3")}
    requests = [(argv, docs[doc] if doc else "") for argv, doc, _, _ in IMPORTS]
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT], input=json.dumps(requests),
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(answers) == len(IMPORTS), proc.stderr
    for (argv, _, expected, loads), (code, modules) in zip(IMPORTS, answers):
        assert code == expected, argv
        assert {m for m in modules if m.startswith("ordloc")} == CLI_MODULES | loads, argv
        if argv[0] == "check":
            assert not set(modules) & {"fractions", "dataclasses", "inspect"}, argv


def test_olocale_and_lattice_forward_the_benchmark_names_to_derived():
    for module, name in ((O, "futures_frame"), (O, "pasts_frame"), (O, "is_biframe"),
                         (L, "ideal_frame")):
        assert getattr(module, name) is getattr(derived, name)
        assert vars(module)[name] is getattr(derived, name)      # bound on first read
    for module, name in ((O, "convex_hull"), (O, "no_such_name"), (L, "subframe")):
        with pytest.raises(AttributeError):
            getattr(module, name)


# -- fuzz: mutated suite documents through cli.main ---------------------------------

# m44 (65,536 opens) is left out: its whole-list commands take seconds
FUZZ_DOCS = [cli.serialize(cli.doc_of_space(inst) if isinstance(inst, S.OrderedSpace)
                           else cli.doc_of_locale(inst, name))
             for name, inst in gen.standard_suite() if name != "m44"]
JUNK = [None, -1, 0, 3, 40, 1.5, True, "x", "discrete", "codiscrete", "space", "locale",
        "cones", "coverage-table", [], {}, [0], [[0]], [[0, 1]], [[1, 0]], [[0, 99]],
        [["a", 0]], [[0, 1, 2]], {"base": 2, "opens": "discrete"}, "0", "1_0", [["0", 1]]]
KEYS = ["kind", "points", "order", "opens", "frame", "rel", "base", "up", "down",
        "cov_minus", "cov_plus"]
REGIONS = ["", "0", "1", "0,1", "1,2", "0,1,2", "3,4,5", "9", "-1", "a", ",", "0,,3"]


@st.composite
def mutated_doc(draw):
    obj = json.loads(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(0, 3))):
        target = obj["frame"] if isinstance(obj.get("frame"), dict) and draw(st.booleans()) \
            else obj
        key = draw(st.sampled_from(KEYS))
        action = draw(st.sampled_from(["set", "delete", "append", "drop"]))
        if action == "set":
            target[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif action == "delete":
            target.pop(key, None)
        elif isinstance(target.get(key), list):
            if action == "append":
                target[key].append(copy.deepcopy(draw(st.sampled_from(JUNK))))
            elif target[key]:
                del target[key][draw(st.integers(0, len(target[key]) - 1))]
    text = json.dumps(obj)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


# where the document is read from and --out writes to: stdin or stdout, a
# file, or a path that cannot be opened (`fuzz_paths` makes them)
INPUTS = ["-", "-", "-", "<file>", "<missing>", "<dir>"]
OUTS = [None, None, None, "<file>", "<missing>", "<dir>"]


@st.composite
def doc_argv(draw):
    # check half the time, so that exits 1 of check --json come up often
    # only the options the drawn subcommand reads; a None value leaves one out
    cmd = draw(st.just("check") | st.sampled_from([c for c in cli.COMMANDS if c != "gen"]))
    reads = cli.COMMANDS[cmd][2]
    argv = [cmd, draw(st.sampled_from(INPUTS))]
    out = draw(st.sampled_from(OUTS))
    if out is not None:
        argv += ["--out", out]
    for flag, values in (("--region", REGIONS), ("--target", REGIONS),
                         ("--variant", [None, "em", "upper", "lower"]),
                         ("--direction", ["future", "past"]),
                         ("--max-path-len", [None, "-1", "0", "1", "3"]),
                         ("--what", ["hasse", "cones", "hulls"])):
        value = draw(st.sampled_from(values)) if flag in reads else None
        if value is not None:
            argv += [flag, value]
    for flag in ("--strict", "--json", "--strict-rel"):
        if flag in ("--strict", *reads) and draw(st.booleans()):
            argv.append(flag)
    if "--axiom" in reads and draw(st.booleans()):
        argv += ["--axiom", draw(st.sampled_from(O.ALL_AXIOMS))]
    return argv


def _run_in_process(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def fuzz_paths(argv, text, tmp):
    """argv with each <file>, <missing> and <dir> made a path under tmp:
    the input <file> holds the document, an output <file> is new, a
    <missing> one lies in a directory that does not exist, <dir> is tmp."""
    paths = {"<missing>": os.path.join(tmp, "no-such-dir", "x.json"), "<dir>": tmp}
    out = list(argv)
    for i, arg in enumerate(out):
        if arg == "<file>":
            out[i] = os.path.join(tmp, "out.txt" if out[i - 1] == "--out" else "doc.json")
        else:
            out[i] = paths.get(arg, arg)
    with open(os.path.join(tmp, "doc.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return out


@settings(max_examples=120, deadline=None)
@given(mutated_doc(), doc_argv())
def test_cli_fuzz_on_mutated_suite_documents(text, argv):
    # a document read from a file answers as from stdin, and --out writes
    # to its file what stdout would get; a document or --out path that
    # cannot be opened ends in exit 2, an empty stdout and one error line
    # last on stderr, never a traceback
    target = argv[argv.index("--out") + 1] if "--out" in argv else None
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_in_process(fuzz_paths(argv, text, tmp), text)
        if argv[1] == "<file>":
            assert (code, out, err) == _run_in_process(
                fuzz_paths(["-" if a == "<file>" and i == 1 else a for i, a in enumerate(argv)],
                           text, tmp), text)
        if target == "<file>" and os.path.exists(os.path.join(tmp, "out.txt")):
            assert out == ""
            with open(os.path.join(tmp, "out.txt"), encoding="utf-8") as fh:
                out = fh.read()
    assert code in (0, 1, 2, 3)
    if argv[1] in ("<missing>", "<dir>"):
        assert (code, out) == (2, "") and err.startswith("error: [Errno ")
        assert err.count("\n") == 1
    elif target in ("<missing>", "<dir>"):
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(("error: ", "parse error: "))
    if code == 1 and argv[0] == "check" and "--json" in argv:
        with contextlib.redirect_stderr(io.StringIO()):
            doc = cli.parse(text, strict="--strict" in argv)
        variant = argv[argv.index("--variant") + 1] if "--variant" in argv else "em"
        olx = cli._as_locale(doc, variant)
        fails = [r for r in json.loads(out)["reports"] if r["verdict"] == "fail"]
        assert fails
        for r in fails:
            assert O.revalidate(olx, O.CheckReport(r["law"], "fail", tuple(r["witness"] or ()),
                                                   r["note"])), r
