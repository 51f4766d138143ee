import json
from pathlib import Path

import pytest

from plotgarden import (ContinuousMap, NodeMap, Plot, PlotMap,
                        TransitionStructure, functor_G_object, validate_space)


def build_space(points, opens):
    return validate_space(points, [frozenset(o) for o in opens])


def build_plot(nodes, edges, space, valuation):
    return Plot(TransitionStructure(nodes, edges=edges), space, valuation)


def build_map(source, target, node_map, point_map):
    return PlotMap(source, target,
                   NodeMap(source.structure, target.structure, node_map),
                   ContinuousMap(source.space, target.space, point_map))


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures.ws"


def fixture_with(path, value):
    """The fixture workspace's text with the value at path replaced."""
    raw = json.loads(FIXTURES.read_text())
    holder = raw
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return json.dumps(raw)


@pytest.fixture
def sierp_space():
    return build_space(["P", "Q"], [[], ["Q"], ["P", "Q"]])


@pytest.fixture
def sierp_plot(sierp_space):
    return build_plot(["P", "Q"], [("P", "Q")], sierp_space,
                      {"P": "P", "Q": "Q"})


@pytest.fixture
def sierp_garden(sierp_plot):
    return functor_G_object(sierp_plot)


@pytest.fixture
def point_space():
    return build_space(["s"], [[], ["s"]])


@pytest.fixture
def tight_map(point_space):
    source = build_plot(["P"], [("P", "P")], point_space, {"P": "s"})
    target = build_plot(["Q", "R"], [("Q", "Q"), ("Q", "R")], point_space,
                        {"Q": "s", "R": "s"})
    return build_map(source, target, {"P": "Q"}, {"s": "s"})


@pytest.fixture
def homeo_map(sierp_space, sierp_plot):
    flat = build_plot(["P", "Q"], [], sierp_space, {"P": "P", "Q": "Q"})
    return build_map(flat, sierp_plot, {"P": "P", "Q": "Q"},
                     {"P": "P", "Q": "Q"})
