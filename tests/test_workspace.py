import json
import random
from pathlib import Path

import pytest

from plotgarden.workspace import (UnresolvedReference, ValidationError,
                                  WorkspaceError, WorkspaceSyntaxError,
                                  instance_workspace, parse_workspace,
                                  serialize_workspace)
from plotgarden.plot import classify_plot_map, functor_G_object
from plotgarden.generators import (generate_instances, parse_profile,
                                   random_garden, random_plot)
from plotgarden.garden import (check_garden_morphism, harvest,
                               identity_garden_morphism)
from plotgarden.adjunction import algebraic_unit, geometric_unit
from conftest import fixture_with

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures.ws"


def test_fixture_file_round_trips():
    text = FIXTURES.read_text()
    ws = parse_workspace(text)
    assert serialize_workspace(ws) == text
    assert len(ws.names()) == 15
    assert ws.category_of("sierp") == "plots"
    assert ws.category_of("tight") == "maps"
    assert ws.resolve("sierp").valuation == {"P": "P", "Q": "Q"}
    with pytest.raises(UnresolvedReference):
        ws.resolve("nope")
    with pytest.raises(UnresolvedReference):
        ws.category_of("nope")


def test_fixture_objects_behave():
    ws = parse_workspace(FIXTURES.read_text())
    assert classify_plot_map(ws.resolve("tight"))["is_lentile"]
    assert not classify_plot_map(ws.resolve("homeo"))["is_lentile"]
    assert len(harvest(ws.resolve("sierp_garden")).structure.nodes) == 3


def test_syntax_errors():
    with pytest.raises(WorkspaceSyntaxError) as info:
        parse_workspace('{\n  "format_version": 1,\n}\n')
    assert "line 3" in str(info.value)
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace("[]")
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace('{"format_version": 2}')
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace(json.dumps({"format_version": 1, "shrubs": {}}))
    assert parse_workspace("{}").names() == []


def test_duplicate_names_rejected():
    raw = {"format_version": 1,
           "spaces": {"x": {"points": ["p"], "opens": [[], ["p"]]}},
           "structures": {"x": {"nodes": ["n"], "edges": []}}}
    with pytest.raises(ValidationError):
        parse_workspace(json.dumps(raw))


@pytest.mark.parametrize("text", [
    '{"spaces": {"sp": {"points": ["p"], "opens": [[], ["p"]], '
    '"points": ["p", "q"]}}}',
    '{"format_version": 1, "format_version": 1}',
], ids=["field", "top level"])
def test_repeated_keys_rejected(text):
    with pytest.raises(WorkspaceSyntaxError, match="given twice"):
        parse_workspace(text)


def test_unresolved_reference_in_entry():
    raw = {"format_version": 1,
           "plots": {"p": {"structure": "missing", "space": "missing",
                           "valuation": []}}}
    with pytest.raises(UnresolvedReference):
        parse_workspace(json.dumps(raw))


def test_unrooted_flag_round_trip():
    raw = {"format_version": 1,
           "spaces": {"sp": {"points": ["P", "Q"],
                             "opens": [[], ["Q"], ["P", "Q"]]}},
           "structures": {"st": {"nodes": ["a"], "edges": []}},
           "plots": {"pl": {"structure": "st", "space": "sp",
                            "valuation": [["a", "P"]], "unrooted": True}}}
    ws = parse_workspace(json.dumps(raw))
    plot = ws.resolve("pl")
    assert plot.unrooted_points == frozenset(["Q"])
    again = instance_workspace("plot", plot, name="pl")
    assert again["plots"]["pl"]["unrooted"] is True
    ws2 = parse_workspace(json.dumps(again))
    assert ws2.resolve("pl").unrooted_points == frozenset(["Q"])

    del raw["plots"]["pl"]["unrooted"]
    with pytest.raises(ValidationError):
        parse_workspace(json.dumps(raw))

    # only a JSON boolean marks a plot unrooted
    for flag in ("no", 1, [1], None):
        raw["plots"]["pl"]["unrooted"] = flag
        with pytest.raises(ValidationError, match="unrooted of 'pl' must be "
                                                  "true or false"):
            parse_workspace(json.dumps(raw))


def test_instance_round_trip_plot(sierp_plot):
    ws = parse_workspace(json.dumps(instance_workspace("plot", sierp_plot)))
    assert ws.resolve("cex") == sierp_plot


def test_instance_round_trip_garden(sierp_garden):
    raw = instance_workspace("garden", sierp_garden)
    ws = parse_workspace(json.dumps(raw))
    assert ws.resolve("cex") == sierp_garden


def test_instance_round_trip_plot_map(tight_map):
    raw = instance_workspace("plot_map", tight_map)
    ws = parse_workspace(json.dumps(raw))
    assert ws.resolve("cex") == tight_map


def test_instance_round_trip_garden_morphism(sierp_garden):
    eta = algebraic_unit(sierp_garden)
    raw = instance_workspace("garden_morphism", eta)
    ws = parse_workspace(json.dumps(raw))
    back = ws.resolve("cex")
    assert back.frame_map.mapping == eta.frame_map.mapping
    assert back.point_map.mapping == eta.point_map.mapping
    assert check_garden_morphism(back)["passed"]


def test_instance_with_flower_nodes_reloads(sierp_plot):
    unit = geometric_unit(sierp_plot)
    raw = instance_workspace("plot_map", unit)
    ws = parse_workspace(json.dumps(raw))
    back = ws.resolve("cex")
    verdict = classify_plot_map(back)
    assert verdict["is_plot_map"] and verdict["is_lentile"]
    assert "(P;{};^{Q})" in back.target.structure.nodes


def test_medium_tier_garden_reloads_byte_for_byte():
    profile = parse_profile("nodes=16,points=8")
    garden = functor_G_object(random_plot(random.Random("reload:0"), profile))
    assert len(garden.bed.frame) > 32
    text = json.dumps(instance_workspace("garden", garden),
                      sort_keys=True, indent=2) + "\n"
    ws = parse_workspace(text)
    assert ws.resolve("cex") == garden
    assert serialize_workspace(ws) == text


def _written(kind, obj):
    return json.dumps(instance_workspace(kind, obj),
                      sort_keys=True, indent=2) + "\n"


def test_generated_instances_round_trip():
    instances = generate_instances(7, count=40)
    assert {inst["kind"] for inst in instances} == {
        "plot", "garden", "plot_map", "garden_morphism"}
    for inst in instances:
        text = _written(inst["kind"], inst["object"])
        assert serialize_workspace(parse_workspace(text)) == text, inst["name"]


def test_medium_tier_instances_round_trip():
    profile = parse_profile("nodes=16,points=8")
    for i in range(3):
        for kind, make in (("plot", random_plot), ("garden", random_garden)):
            obj = make(random.Random("round-trip:%d" % i), profile)
            text = _written(kind, obj)
            assert serialize_workspace(parse_workspace(text)) == text


def test_accepted_file_reaches_its_written_form_in_one_pass():
    fixture = FIXTURES.read_text()
    raw = json.loads(fixture)
    raw["plots"]["sierp"]["valuation"].reverse()
    raw["plots"]["sierp"]["unrooted"] = True    # but its valuation is onto
    raw["spaces"]["sierp_space"]["points"] = ["Q", "P", "P"]
    once = serialize_workspace(parse_workspace(json.dumps(raw)))
    assert once == fixture
    assert serialize_workspace(parse_workspace(once)) == once


def _leaf_paths(x, path=()):
    if path:
        yield path
    items = x.items() if isinstance(x, dict) else (
        enumerate(x) if isinstance(x, list) else ())
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def test_mutated_fixtures_are_rejected_or_written_stably():
    """Whatever the parser accepts is written as text that parses back and
    is written again unchanged; whatever it rejects raises a
    WorkspaceError, never a TypeError or KeyError."""
    rng = random.Random("mutate")
    paths = list(_leaf_paths(json.loads(FIXTURES.read_text())))
    values = [1, None, True, "", "P", "{Q}", [], {}, ["P"], [["P"]],
              {"a": 1}, [1, 2], ["P", "Q"], [["P", "P"]]]
    accepted = 0
    for _ in range(400):
        text = fixture_with(rng.choice(paths), rng.choice(values))
        try:
            once = serialize_workspace(parse_workspace(text))
        except WorkspaceError:
            continue
        accepted += 1
        assert serialize_workspace(parse_workspace(once)) == once
    assert accepted


def test_frame_map_table_is_checked(sierp_garden):
    raw = instance_workspace("garden_morphism",
                             identity_garden_morphism(sierp_garden))
    parse_workspace(json.dumps(raw))
    raw["maps"]["cex"]["frame_map"].append(["{P}", "{}"])
    with pytest.raises(ValidationError, match="frame_map of 'cex' names "
                                              "unknown"):
        parse_workspace(json.dumps(raw))
    raw["maps"]["cex"]["frame_map"][-1] = ["{}", "{P}"]
    with pytest.raises(ValidationError, match="frame_map of 'cex' names "
                                              "'{}' twice"):
        parse_workspace(json.dumps(raw))
