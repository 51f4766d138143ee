import json
import random
from pathlib import Path

import pytest

import plotgarden.cli as cli
from plotgarden.cli import run_cli
from plotgarden.garden import Flower
from plotgarden.generators import (Profile, generate_instances, parse_profile,
                                   random_plot)
from plotgarden.workspace import instance_workspace, parse_workspace
from conftest import fixture_with

FIXTURES = str(Path(__file__).resolve().parent.parent / "fixtures.ws")


def ref(name):
    return FIXTURES + "#" + name


def test_validate(capsys):
    assert run_cli(["validate", FIXTURES]) == 0
    out = capsys.readouterr().out
    assert "15 objects validated" in out
    assert len([l for l in out.splitlines() if l.startswith("ok ")]) == 15


def test_verify_plot(tmp_path, capsys):
    report = tmp_path / "sierp.json"
    assert run_cli(["verify", ref("sierp"), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert len(doc["records"]) == 11


def test_verify_garden(capsys):
    assert run_cli(["verify", ref("sierp_garden")]) == 0
    out = capsys.readouterr().out
    assert "LAW.240B" in out and "LAW.250L" in out


def test_verify_lentile_map(capsys):
    assert run_cli(["verify", ref("tight")]) == 0
    out = capsys.readouterr().out
    assert "LAW.230D" in out and "LAW.250N.R" in out


def test_verify_non_lentile_map(tmp_path, capsys):
    report = tmp_path / "homeo.json"
    assert run_cli(["verify", ref("homeo"), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "not a lentile map" in out
    doc = json.loads(report.read_text())
    assert doc["classification"]["is_lentile"] is False


def test_verify_non_garden_morphism(tmp_path, capsys):
    # swapping the points breaks the square, so LAW.230D fails and the
    # laws of garden morphisms do not apply
    identity = [["{P,Q}", "{P,Q}"], ["{Q}", "{Q}"], ["{}", "{}"]]
    swap = {"kind": "garden_morphism", "source": "sierp_garden",
            "target": "sierp_garden", "frame_map": identity,
            "point_map": [["P", "Q"], ["Q", "P"]]}
    ws = tmp_path / "swap.ws"
    ws.write_text(fixture_with(("maps", "swap"), swap))
    report = tmp_path / "swap.json"
    assert run_cli(["verify", str(ws) + "#swap",
                    "--report", str(report)]) == 1
    assert "INTERNAL" not in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert [(r["id"], r["passed"], r["witness"]) for r in doc["records"]] == [
        ("LAW.230D", False, {"square": "{Q}"})]


def test_check_map(tmp_path, capsys):
    report = tmp_path / "homeo.json"
    assert run_cli(["check-map", ref("homeo"), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "is_lentile" in out
    doc = json.loads(report.read_text())
    assert doc["classification"]["is_plot_map"] is True
    assert doc["classification"]["minus_condition"] is False


def test_check_map_rejects_a_map_that_loses_a_transition(tmp_path, capsys):
    # the identity from sierp onto flat drops the transition P -> Q
    identity = [["P", "P"], ["Q", "Q"]]
    drop = {"kind": "plot_map", "source": "sierp", "target": "flat",
            "node_map": identity, "point_map": identity}
    ws = tmp_path / "drop.ws"
    ws.write_text(fixture_with(("maps", "drop"), drop))
    report = tmp_path / "drop.json"
    assert run_cli(["check-map", str(ws) + "#drop",
                    "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "is_plot_map         False" in out
    assert "witness[edge]: ('P', 'Q')" in out
    doc = json.loads(report.read_text())
    assert sorted(doc["classification"]) == [
        "is_lentile", "is_plot_map", "minus_condition", "up_condition",
        "witnesses"]
    assert doc["classification"]["witnesses"] == {"edge": ["P", "Q"]}
    assert run_cli(["verify", str(ws) + "#drop"]) == 0
    out = capsys.readouterr().out
    assert "not a lentile map" in out and "INTERNAL" not in out


def test_lift_and_harvest(capsys):
    assert run_cli(["lift", ref("sierp")]) == 0
    out = capsys.readouterr().out
    assert "box" in out and "{Q}" in out
    assert run_cli(["harvest", ref("sierp_garden")]) == 0
    out = capsys.readouterr().out
    assert "(P;{};^{Q})" in out


def test_unit_commands(capsys):
    assert run_cli(["unit", "--geometric", ref("sierp")]) == 0
    out = capsys.readouterr().out
    assert "P  ->  (P;{};^{Q})" in out
    assert run_cli(["unit", "--algebraic", ref("sierp_garden")]) == 0
    assert run_cli(["unit", "--algebraic", ref("sierp")]) == 2
    assert run_cli(["unit", "--geometric", ref("sierp_garden")]) == 2


def test_oracle_command(capsys):
    assert run_cli(["oracle", "ORACLE.HARVEST", ref("sierp_garden")]) == 0
    assert run_cli(["oracle", "LAW.220G", ref("sierp")]) == 0
    assert run_cli(["oracle", "LAW.999", ref("sierp")]) == 2


def test_oracle_runs_only_the_oracle_asked_for(tmp_path, capsys):
    # an 8-point plot whose lifted frame is over ORACLE.FILTERS' cap: the
    # lens oracle, capped at 8 points, still runs
    plot = random_plot(random.Random("medium:0"),
                       parse_profile("nodes=16,points=8"))
    assert len(plot.space.opens) > 16
    target = write_plot(tmp_path, plot)
    assert run_cli(["oracle", "ORACLE.LENS", target]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run_cli(["oracle", "ORACLE.FILTERS", target]) == 2
    assert "oracle cap is 16" in capsys.readouterr().err


def test_bad_inputs(tmp_path, capsys):
    assert run_cli(["verify", ref("nope")]) == 2
    assert run_cli(["verify", str(tmp_path / "missing.ws") + "#x"]) == 2
    assert run_cli(["verify", "no-separator"]) == 2
    assert run_cli(["lift", ref("sierp_garden")]) == 2
    bad = tmp_path / "bad.ws"
    bad.write_text("{broken")
    assert run_cli(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_help_and_missing_command():
    assert run_cli(["--help"]) == 0
    assert run_cli([]) == 2


def test_fuzz_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["fuzz", "--seed", "3", "--count", "8",
                    "--report", str(r1)]) == 0
    assert run_cli(["fuzz", "--seed", "3", "--count", "8",
                    "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    out = capsys.readouterr().out
    assert "8/8 instances pass" in out
    doc = json.loads(r1.read_text())
    assert doc["passed"] is True and len(doc["runs"]) == 8


def test_fuzz_bad_profile(capsys):
    for profile in ("shrubs=3", "edge_density=nan", "edge_density=-1",
                    "open_density=inf"):
        assert run_cli(["fuzz", "--seed", "1", "--profile", profile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line[:6] for line in captured.err.splitlines()] == ["error:"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fuzz_count_below_one(count, capsys):
    assert run_cli(["fuzz", "--seed", "1", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count %s is below 1\n" % (count,)


def test_fuzz_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    def fake_suite(kind, obj):
        return [{"id": "LAW.210C", "passed": kind != "garden",
                 "witness": None}]
    monkeypatch.setattr(cli, "_safe_suite", fake_suite)
    report = tmp_path / "run.json"
    assert run_cli(["fuzz", "--seed", "3", "--count", "4",
                    "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "counterexample written" in captured.err
    cex = tmp_path / "run.cex.ws"
    assert cex.exists()
    ws = parse_workspace(cex.read_text())
    assert ws.category_of("cex") == "gardens"


def test_fuzz_medium_tier_passes(capsys):
    # instance 9 is a 39-element garden, beyond the old 32-element default
    assert run_cli(["fuzz", "--seed", "7", "--count", "10",
                    "--profile", "nodes=16,points=8"]) == 0
    assert "10/10 instances pass" in capsys.readouterr().out


def write_plot(tmp_path, plot):
    path = tmp_path / "plot.ws"
    path.write_text(json.dumps(instance_workspace("plot", plot)))
    return str(path) + "#cex"


def shrunk_size(tmp_path):
    ws = parse_workspace((tmp_path / "run.cex.ws").read_text())
    return len(ws.resolve("cex").structure.nodes)


def test_counterexample_keeps_the_first_failing_law(tmp_path, monkeypatch):
    plot = random_plot(random.Random("shrink:1"),
                       Profile(min_nodes=5, max_nodes=6))
    target = write_plot(tmp_path, plot)

    def fake_suite(kind, obj):
        # below four nodes only the later law fails
        big = len(obj.structure.nodes) >= 4
        return [{"id": "LAW.210C", "passed": True, "witness": None},
                {"id": "LAW.220G", "passed": not big, "witness": None},
                {"id": "LAW.250L", "passed": False, "witness": None}]
    monkeypatch.setattr(cli, "_safe_suite", fake_suite)
    assert run_cli(["verify", target,
                    "--report", str(tmp_path / "run.json")]) == 1
    assert 4 <= shrunk_size(tmp_path) < len(plot.structure.nodes)


def test_oracle_counterexample_keeps_the_law_asked_about(tmp_path,
                                                        monkeypatch):
    plot = random_plot(random.Random("shrink:1"),
                       Profile(min_nodes=5, max_nodes=6))
    target = write_plot(tmp_path, plot)

    def fake_suite(kind, obj):
        # the suite fails another law first, on every size
        big = len(obj.structure.nodes) >= 4
        return [{"id": "LAW.220G", "passed": False, "witness": None},
                {"id": "LAW.250L", "passed": not big, "witness": None}]
    monkeypatch.setattr(cli, "_safe_suite", fake_suite)
    assert run_cli(["oracle", "LAW.250L", target,
                    "--report", str(tmp_path / "run.json")]) == 1
    assert 4 <= shrunk_size(tmp_path) < len(plot.structure.nodes)


def test_garden_morphism_counterexample_is_shrunk(tmp_path, monkeypatch):
    gm = generate_instances("3", count=16)[15]["object"]
    assert len(gm.source.space.points) == len(gm.target.space.points) == 5
    path = tmp_path / "gm.ws"
    path.write_text(json.dumps(instance_workspace("garden_morphism", gm)))

    def fake_suite(kind, obj):
        # the law fails while the source garden keeps two points
        big = len(obj.source.space.points) >= 2
        return [{"id": "LAW.230D", "passed": not big, "witness": None}]
    monkeypatch.setattr(cli, "_safe_suite", fake_suite)
    assert run_cli(["verify", str(path) + "#cex",
                    "--report", str(tmp_path / "run.json")]) == 1
    ws = parse_workspace((tmp_path / "run.cex.ws").read_text())
    small = ws.resolve("cex")
    assert len(small.source.space.points) == 2
    assert len(small.target.space.points) < 5


def test_geometric_unit_counterexample_is_shrunk_and_replays(tmp_path, capsys,
                                                            monkeypatch):
    # the third fuzz instance of seed 14 is a geometric unit: its target
    # nodes are flowers, which the shrinker must not try to sort
    unit = generate_instances("14", count=3)[2]["object"]
    assert all(isinstance(n, str) for n in unit.source.structure.nodes)
    assert all(isinstance(n, Flower) for n in unit.target.structure.nodes)
    assert len(unit.source.structure.edges) > 1

    def fake_suite(kind, obj):
        # the law fails while the map keeps a source transition
        failing = kind == "plot_map" and bool(obj.source.structure.edges)
        return [{"id": "LAW.230D", "passed": not failing, "witness": None}]
    monkeypatch.setattr(cli, "_safe_suite", fake_suite)
    assert run_cli(["fuzz", "--seed", "14", "--count", "3",
                    "--report", str(tmp_path / "run.json")]) == 1
    cex = tmp_path / "run.cex.ws"
    small = parse_workspace(cex.read_text()).resolve("cex")
    assert len(small.source.structure.edges) == 1
    assert len(small.source.structure.nodes) < len(unit.source.structure.nodes)

    replay = tmp_path / "replay.json"
    assert run_cli(["verify", str(cex) + "#cex", "--report", str(replay)]) == 1
    doc = json.loads(replay.read_text())
    assert [r["id"] for r in doc["records"] if not r["passed"]] == ["LAW.230D"]
    assert "counterexample written" in capsys.readouterr().err


SIERP_BOX = [["{P,Q}", "{P,Q}"], ["{Q}", "{P,Q}"], ["{}", "{Q}"]]
SIERP_COVERING = [["{P,Q}", ["P", "Q"]], ["{Q}", ["Q"]], ["{}", []]]

# Each edit of the fixture file makes invalid input, so validate must exit
# 2 with one error line, whatever the defect, and never crash.
INVALID_EDITS = {
    "numeric names": (
        ("structures", "st"), {"nodes": [1, 2], "edges": [[1, 2]]},
        "names in nodes of 'st' must be strings, not 1"),
    "list as a name": (
        ("plots", "sierp", "valuation"), [[["P"], "P"], ["Q", "Q"]],
        'names in valuation of \'sierp\' must be strings, not ["P"]'),
    "object as a reference": (
        ("plots", "sierp", "structure"), {"x": 1},
        'names in structure of \'sierp\' must be strings, not {"x": 1}'),
    "string as a name array": (
        ("spaces", "sierp_space", "opens"), ["", "Q", "PQ"],
        'opens of \'sierp_space\' must be an array, not ""'),
    "extra valuation key": (
        ("plots", "sierp", "valuation"), [["P", "P"], ["Q", "Q"], ["R", "Q"]],
        "valuation of 'sierp' names unknown 'R'"),
    "extra box key": (
        ("beds", "sierp_bed", "box"), SIERP_BOX + [["{P}", "{P,Q}"]],
        "box of 'sierp_bed' names unknown '{P}'"),
    "extra covering key": (
        ("gardens", "sierp_garden", "covering"),
        SIERP_COVERING + [["{P}", []]],
        "covering of 'sierp_garden' names unknown '{P}'"),
    "extra node_map key": (
        ("maps", "tight", "node_map"), [["P", "Q"], ["X", "R"]],
        "node_map of 'tight' names unknown 'X'"),
    "repeated box key": (
        ("beds", "sierp_bed", "box"), SIERP_BOX + [["{}", "{}"]],
        "box of 'sierp_bed' names '{}' twice"),
    "missing diamond key": (
        ("beds", "sierp_bed", "diamond"), [["{P,Q}", "{}"], ["{}", "{}"]],
        "diamond of 'sierp_bed' misses '{Q}'"),
    "missing point_map key": (
        ("maps", "tight", "point_map"), [],
        "point_map of 'tight' misses 's'"),
    "point_map leaves its target": (
        ("maps", "tight", "point_map"), [["s", "t"]],
        "point_map of 'tight' sends 's' outside the target"),
    "unknown entry field": (
        ("structures", "sierp_nodes", "note"), "not part of the format",
        "entry 'sierp_nodes' has unknown field 'note'"),
    "field of the other map kind": (
        ("maps", "tight", "frame_map"), [["{}", "{}"]],
        "entry 'tight' has unknown field 'frame_map'"),
    "unrooted as a string": (
        ("plots", "sierp", "unrooted"), "no",
        'unrooted of \'sierp\' must be true or false, not "no"'),
}


def test_repeated_section_entry_exits_2(tmp_path, capsys):
    # two spaces named sp: the second must not silently replace the first
    space = '{"points": ["p"], "opens": [[], ["p"]]}'
    ws = tmp_path / "twice.ws"
    ws.write_text('{"spaces": {"sp": %s, "sp": %s}}' % (space, space))
    assert run_cli(["validate", str(ws)]) == 2
    assert capsys.readouterr().err == (
        "error: key 'sp' is given twice in one object\n")


@pytest.mark.parametrize("label", sorted(INVALID_EDITS))
def test_invalid_workspace_exits_2(label, tmp_path, capsys):
    path, value, message = INVALID_EDITS[label]
    ws = tmp_path / "bad.ws"
    ws.write_text(fixture_with(path, value))
    assert run_cli(["validate", str(ws)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % (message,)
