"""CLI: serialization round trips, exit codes, reports, DOT export."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ordloc import cli, gen, ospace as S
from ordloc.errors import ValidationError

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ordloc.cli", *argv],
        input=stdin_text, capture_output=True, text=True)
    return proc


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
    gen_out = run_cli(["gen", "minkowski", "--t", "2", "--x", "2"])
    assert gen_out.returncode == 0
    ok = run_cli(["check", "-", "--axiom", "all"], gen_out.stdout)
    assert ok.returncode == 0
    two = run_cli(["gen", "two-speed", "--t", "2", "--x", "3",
                   "--up", "1", "--down", "2"])
    bad = run_cli(["check", "-", "--axiom", "parallel"], two.stdout)
    assert bad.returncode == 1
    assert "witness" in bad.stdout
    garbage = run_cli(["check", "-", "--axiom", "all"], "{not json")
    assert garbage.returncode == 2


def test_cli_dod(m33):
    doc_text = cli.serialize(cli.doc_of_space(m33))
    out = run_cli(["dod", "-", "--region", "0,2", "--direction", "future",
                   "--max-path-len", "4"], doc_text)
    assert out.returncode == 0
    assert "{(0,0),(0,2)}" in out.stdout and "exact" in out.stdout


def test_cli_cov_codes(m33):
    doc_text = cli.serialize(cli.doc_of_space(m33))
    yes = run_cli(["cov", "-", "--region", "0,1,2", "--target", "7"], doc_text)
    assert yes.returncode == 0 and yes.stdout.startswith("yes")
    no = run_cli(["cov", "-", "--region", "0,2", "--target", "3"], doc_text)
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
], ids=["order-out-of-range", "order-not-a-pair", "opens-not-a-list"])
def test_cli_rejects_malformed_space_documents(field, message):
    doc = json.dumps({"kind": "space", "points": ["a", "b"], **field})
    out = run_cli(["check", "-"], doc)
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
     "parse error: cov_minus and cov_plus must be lists of [open, [ids]] rows"),
    (["check", "-"], json.dumps({"kind": "locale", "rel": [],
                                 "frame": {"base": -1, "opens": "discrete"}}),
     "parse error: malformed frame: negative base -1 (at frame)"),
    (["hull", "-", "--region", "1"],
     json.dumps({"kind": "locale", "rel": [],
                 "frame": {"base": 2, "opens": "discrete", "points": ["a"]}}),
     "parse error: malformed frame: 1 point names for base 2 (at frame)"),
], ids=["region-not-an-id", "region-negative", "target-not-an-id",
        "defect-not-a-cell", "slope-not-a-number", "coverage-table-without-cov-minus",
        "frame-negative-base", "frame-too-few-point-names"])
def test_cli_bad_input_exits_2_with_one_line(argv, stdin, message):
    if stdin == M22_DOC:
        stdin = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    out = run_cli(argv, stdin)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == message + "\n"


def test_cli_json_report(m33):
    import jsonschema
    doc_text = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    out = run_cli(["check", "-", "--axiom", "parallel", "--json"], doc_text)
    blob = json.loads(out.stdout)
    jsonschema.validate(blob, cli.REPORT_SCHEMA)
    assert blob["exit"] == 0
    assert blob["reports"][0]["law"] == "parallel"
    assert blob["reports"][0]["verdict"] == "pass"
    two = run_cli(["gen", "two-speed", "--t", "2", "--x", "3",
                   "--up", "1", "--down", "2"])
    bad = run_cli(["check", "-", "--axiom", "all", "--json"], two.stdout)
    blob2 = json.loads(bad.stdout)
    jsonschema.validate(blob2, cli.REPORT_SCHEMA)
    assert blob2["exit"] == 1


def test_cli_grothendieck_and_ideals():
    m22_text = cli.serialize(cli.doc_of_space(gen.suite_instance("m22")))
    g = run_cli(["grothendieck", "-"], m22_text)
    assert g.returncode == 0
    assert g.stdout == "grothendieck: pass (exhaustive sieve enumeration; 0 abstentions)\n"
    # the sieve check keeps its own 24-element cap; --dot-limit sizes DOT
    # output only
    m23_text = cli.serialize(cli.doc_of_space(gen.minkowski_grid(gen.GridSpec(2, 3))))
    g = run_cli(["grothendieck", "-", "--dot-limit", "128"], m23_text)
    assert g.returncode == 2 and g.stdout == ""
    assert g.stderr == "error: sieve check capped at 24 elements\n"
    ide = run_cli(["ideals", "-"], m22_text)
    assert ide.returncode == 0 and "ideals (" in ide.stdout


def test_dot_small_exports():
    two = cli.doc_of_space(S.OrderedSpace.build(1, [], opens="discrete"))
    dot = cli.export_dot(two)
    assert dot.count("->") == 1 and dot.count("[label=") == 2
    square = cli.doc_of_space(S.OrderedSpace.build(2, [], opens="discrete"))
    dot4 = cli.export_dot(square)
    assert dot4.count("->") == 4 and dot4.count("[label=") == 4


def test_dot_limit(m33):
    with pytest.raises(ValidationError):
        cli.export_dot(cli.doc_of_space(m33))          # 512 > 128


def test_dot_golden_files():
    bow = cli.export_dot(cli.doc_of_space(gen.suite_instance("bowtie")), "hasse")
    with open(os.path.join(GOLDEN, "bowtie_hasse.dot")) as fh:
        assert bow == fh.read()
    m22d = gen.minkowski_grid(gen.GridSpec(2, 2, topology="diamond_basis"))
    dot = cli.export_dot(cli.doc_of_space(m22d), "cones")
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


def test_dot_pasts_coloring(loc22):
    # the "cones" coloring marks exactly the cone images
    doc = cli.doc_of_space(gen.suite_instance("m22"))
    dot = cli.export_dot(doc, "cones")
    filled = {line.split()[0] for line in dot.splitlines() if "filled" in line}
    expect = {f"e{u}" for u in set(loc22.up_map) | set(loc22.down_map)}
    assert filled == expect
