"""Derived data is computed once per object and shared without aliasing.

A space builds its topology frame and specialization order once; a plot
lifts once, builds its valued successor images once and its geometric
unit once; a bed's law verdict is computed once.  Law suites run twice
on one object must still hand each caller records of its own.
"""

import collections
import copy
import random

import pytest

from plotgarden import adjunction, cli, lattice
from plotgarden import garden as garden_mod
from plotgarden import plot as plot_mod
from plotgarden.garden import (Bed, bed_violations, functor_F_report,
                               identity_garden_morphism, validate_garden)
from plotgarden.generators import (parse_profile, random_lentile_map,
                                   random_plot)
from plotgarden.plot import PostconditionFailure, functor_G_object
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
    verdicts = collections.Counter()
    arrows = []
    frame_checks = []

    frame_init = TopologyFrame.__init__
    bed_init = Bed.__init__
    lift = plot_mod.lift_operators
    build_unit = adjunction._build_geometric_unit
    bed_laws = garden_mod._bed_law_witnesses
    g_arrow = adjunction.functor_G_arrow
    check_fm = lattice.check_frame_morphism

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

    def count_verdict(bed):
        verdicts[id(bed)] += 1
        return bed_laws(bed)

    def count_arrow(m):
        arrows.append(m)
        return g_arrow(m)

    def count_frame_check(*args):
        frame_checks.append(args)
        return check_fm(*args)

    monkeypatch.setattr(TopologyFrame, "__init__", count_frame)
    monkeypatch.setattr(Bed, "__init__", count_bed)
    monkeypatch.setattr(plot_mod, "lift_operators", ask_lift)
    monkeypatch.setattr(adjunction, "_build_geometric_unit", count_unit)
    monkeypatch.setattr(garden_mod, "_bed_law_witnesses", count_verdict)
    monkeypatch.setattr(adjunction, "functor_G_arrow", count_arrow)
    monkeypatch.setattr(lattice, "check_frame_morphism", count_frame_check)
    monkeypatch.setattr(garden_mod, "check_frame_morphism", count_frame_check)

    records = cli.law_suite("plot", plot)
    assert all(r["passed"] for r in records)
    assert frames and set(frames.values()) == {1}
    # the plot and its harvest, each lifted once
    assert len(asked) == 2 and len(lifted) == 2
    assert units == [plot]
    # one bed-law verdict per distinct bed: the two lifted beds
    assert len(verdicts) == 2 and set(verdicts.values()) == {1}
    # LAW.250L transposes the geometric unit once for both composites
    assert len(arrows) == 1
    # the transposed unit and the algebraic unit; the identity coverings
    # of functor_G_object are not rechecked
    assert len(frame_checks) == 2


@pytest.mark.parametrize("seed", range(8))
def test_plot_map_suite_classifies_its_map_twice(seed, monkeypatch):
    # functor_G_arrow and the geometric naturality check, and no third
    # time in the law suite itself
    m = random_lentile_map(random.Random("classify:%d" % seed))
    classify = plot_mod.classify_plot_map
    calls = []

    def count_classify(candidate):
        if candidate is m:
            calls.append(candidate)
        return classify(candidate)

    for module in (plot_mod, adjunction):
        monkeypatch.setattr(module, "classify_plot_map", count_classify)
    records = cli.law_suite("plot_map", m)
    assert records and all(r["passed"] for r in records)
    assert len(calls) == 2


def _report_broken_box_meet(monkeypatch):
    monkeypatch.setattr(garden_mod, "_bed_law_witnesses",
                        lambda bed: [("box-meet", "x='{}' y='{}'")])


def test_bed_law_violation_raises_in_lift(plot, monkeypatch):
    _report_broken_box_meet(monkeypatch)
    with pytest.raises(PostconditionFailure, match="box-meet"):
        plot_mod.lift_operators(plot)


def test_bed_law_violation_makes_an_internal_record(plot, monkeypatch):
    _report_broken_box_meet(monkeypatch)
    records = cli._safe_suite("plot", plot)
    assert [r["id"] for r in records] == ["INTERNAL"]
    assert not records[0]["passed"]
    assert "box-meet" in records[0]["witness"]


def test_unhealthy_survivors_fail_the_harvest_record(plot, monkeypatch):
    garden = functor_G_object(plot)
    monkeypatch.setattr(garden_mod, "healthy_witness",
                        lambda g, flowers: (flowers[0], "{}", "planted"))
    record = cli._harvest_record(garden)
    assert record["id"] == "LAW.240E" and not record["passed"]
    assert "planted" in record["witness"]


def test_bed_violations_lists_are_unaliased(sierp_space):
    fr = topology_frame(sierp_space)
    ident = {x: x for x in fr.elements}
    bed = Bed(fr, {x: fr.bottom for x in fr.elements}, ident)
    first = bed_violations(bed)
    assert [law for law, _ in first] == ["box-top"]
    kept = list(first)
    first.append(("extra", None))
    first[0] = ("mutated", None)
    second = bed_violations(bed)
    assert second == kept and second is not first
    assert bed_violations(bed) == kept


def test_lift_violations_add_the_empty_diamond_law(sierp_space):
    fr = topology_frame(sierp_space)
    bed = Bed(fr, {x: x for x in fr.elements}, {x: fr.top for x in fr.elements})
    assert bed_violations(bed) == []
    assert garden_mod._lift_violations(bed, True) == [("diamond-empty", fr.top)]
    assert garden_mod._lift_violations(bed, False) == []


def test_flower_fault_names_the_broken_part(sierp_garden, point_space):
    assert garden_mod._flower_fault(sierp_garden, "P", "{}", "{Q}") is None
    assert garden_mod._flower_fault(sierp_garden, "Q", "{}", "{Q}") == "bloom"
    fr = topology_frame(point_space)
    ident = {x: x for x in fr.elements}
    g = validate_garden(Bed(fr, ident, ident), point_space,
                        {"{}": [], "{s}": ["s"]})
    assert garden_mod._flower_fault(g, "s", "{s}", "{}") == "stalk"


def test_flower_condition_is_read_from_one_helper(plot, monkeypatch):
    garden = functor_G_object(plot)
    for module in (garden_mod, adjunction):
        monkeypatch.setattr(module, "_flower_fault", lambda *args: "bloom")
    assert cli._flower_record(garden)["witness"][0] == "bloom"
    unit_records = adjunction._build_geometric_unit(plot)[1]
    assert [(r["id"], r["passed"]) for r in unit_records] == [
        ("LAW.250G", False)]
    f_records = functor_F_report(identity_garden_morphism(garden))[1]
    assert [(r["id"], r["passed"]) for r in f_records] == [("LAW.240G", False)]
