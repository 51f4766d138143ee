"""Derived data is computed once per object and shared without aliasing.

A space builds its topology frame and specialization order once; a plot
lifts once, builds its valued successor images once and its geometric
unit once.  Law suites run twice on one object must still hand each
caller records of its own.
"""

import collections
import copy
import random

import pytest

from plotgarden import adjunction, cli
from plotgarden import plot as plot_mod
from plotgarden.generators import parse_profile, random_plot
from plotgarden.plot import LiftedBed, functor_G_object
from plotgarden.topology import FiniteSpace, TopologyFrame, topology_frame

MEDIUM = parse_profile("nodes=16,points=8")


def medium_plot(seed):
    return random_plot(random.Random(seed), MEDIUM)


@pytest.fixture(params=["fixture", "medium:3"])
def plot(request, sierp_plot):
    if request.param == "fixture":
        return sierp_plot
    return medium_plot(request.param)


def test_topology_frame_is_shared_per_space(sierp_space):
    fr = topology_frame(sierp_space)
    assert topology_frame(sierp_space) is fr
    twin = FiniteSpace(sierp_space.points, sierp_space.opens)
    other = topology_frame(twin)
    assert other is not fr
    assert other == fr
    assert other.open_sets == fr.open_sets


@pytest.mark.parametrize("seed", ["medium:0", "medium:3", "medium:7"])
def test_specialization_is_the_brute_force_order(seed):
    space = medium_plot(seed).space
    order = frozenset(
        (p, q) for p in space.points for q in space.points
        if all(q in V for V in space.opens if p in V))
    assert space.specialization() == order
    assert space.specialization() is space.specialization()


def _assert_unaliased(run):
    first, second = run(), run()
    assert first == second
    kept = copy.deepcopy(second)
    for record in first:
        if isinstance(record["witness"], (dict, list)):
            record["witness"].clear()
        record["passed"] = None
        record["witness"] = "mutated"
    first.append({"id": "EXTRA", "passed": False, "witness": None})
    assert second == kept
    assert run() == kept


def test_plot_suite_twice_gives_equal_unaliased_records(plot):
    _assert_unaliased(lambda: cli.law_suite("plot", plot))


def test_garden_suite_twice_gives_equal_unaliased_records(plot):
    garden = functor_G_object(plot)
    _assert_unaliased(lambda: cli.law_suite("garden", garden))


def test_plot_suite_derives_each_object_once(plot, monkeypatch):
    frames = collections.Counter()
    lifted = []
    asked = set()
    units = []

    frame_init = TopologyFrame.__init__
    bed_init = LiftedBed.__init__
    lift = plot_mod.lift_operators
    build_unit = adjunction._build_geometric_unit

    def count_frame(self, space, *args):
        frames[id(space)] += 1
        frame_init(self, space, *args)

    def count_bed(self, *args):
        lifted.append(self)
        bed_init(self, *args)

    def ask_lift(p):
        asked.add(id(p))
        return lift(p)

    def count_unit(p):
        units.append(p)
        return build_unit(p)

    monkeypatch.setattr(TopologyFrame, "__init__", count_frame)
    monkeypatch.setattr(LiftedBed, "__init__", count_bed)
    monkeypatch.setattr(plot_mod, "lift_operators", ask_lift)
    monkeypatch.setattr(adjunction, "_build_geometric_unit", count_unit)

    records = cli.law_suite("plot", plot)
    assert all(r["passed"] for r in records)
    assert frames and set(frames.values()) == {1}
    # the plot and its harvest, each lifted once
    assert len(asked) == 2 and len(lifted) == 2
    assert units == [plot]
