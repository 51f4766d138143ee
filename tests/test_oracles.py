import pytest

from plotgarden.oracles import (OracleTooLarge, oracle_filters,
                                oracle_flowers, oracle_harvest, oracle_lens,
                                oracle_records)
from plotgarden.lattice import FiniteFrame
from plotgarden.topology import TopologyFrame, topology_frame
from plotgarden.garden import harvest
from plotgarden.plot import Plot
from plotgarden.transition import TransitionStructure
from plotgarden.generators import generate_instances
from plotgarden.adjunction import algebraic_unit
from plotgarden.workspace import parse_workspace
from conftest import FIXTURES, build_space


def test_oracles_pass_on_fixtures(sierp_plot, sierp_garden):
    assert oracle_lens(sierp_plot.space)["passed"]
    assert oracle_filters(topology_frame(sierp_plot.space))["passed"]
    assert oracle_flowers(sierp_garden)["passed"]
    assert oracle_harvest(sierp_garden)["passed"]


def test_oracle_records_by_kind(sierp_plot, sierp_garden, tight_map):
    ids = [r["id"] for r in oracle_records("plot", sierp_plot)]
    assert ids == ["ORACLE.LENS", "ORACLE.FILTERS"]
    ids = [r["id"] for r in oracle_records("garden", sierp_garden)]
    assert ids == ["ORACLE.LENS", "ORACLE.FILTERS", "ORACLE.FLOWERS",
                   "ORACLE.HARVEST"]
    ids = [r["id"] for r in oracle_records("plot_map", tight_map)]
    assert ids == ["ORACLE.LENS"]
    eta = algebraic_unit(sierp_garden)
    ids = [r["id"] for r in oracle_records("garden_morphism", eta)]
    assert ids == ["ORACLE.FLOWERS", "ORACLE.HARVEST",
                   "ORACLE.FLOWERS", "ORACLE.HARVEST"]


def test_oracles_pass_on_generated_instances():
    for e in generate_instances("oracle", count=16):
        for r in oracle_records(e["kind"], e["object"]):
            assert r["passed"], (e["name"], r)


def test_size_guards():
    big = build_space(list("abcdefghi"), [[], list("abcdefghi")])
    with pytest.raises(OracleTooLarge):
        oracle_lens(big)
    # a discrete space on five points has 32 opens, past the element cap
    subsets = [[p for k, p in enumerate("abcde") if i & (1 << k)]
               for i in range(32)]
    wide = build_space(list("abcde"), subsets)
    with pytest.raises(OracleTooLarge):
        oracle_filters(topology_frame(wide))


def test_oracle_detects_tampered_harvest(sierp_garden):
    good = harvest(sierp_garden)
    assert oracle_harvest(sierp_garden)["passed"]
    keep = [n for n in good.structure.nodes if repr(n) != "(P;{P,Q};^{})"]
    fake = Plot(TransitionStructure(keep, edges=[]), good.space,
                {n: n.root for n in keep}, _allow_unrooted=True)
    sierp_garden.__dict__["_harvest"] = fake
    try:
        assert not oracle_harvest(sierp_garden)["passed"]
    finally:
        del sierp_garden.__dict__["_harvest"]
    assert oracle_harvest(sierp_garden)["passed"]


def test_filter_and_harvest_oracles_read_no_masks(monkeypatch):
    # The oracles are the second way: they read a frame's elements and up
    # sets, never the int masks of the fast path.  The fast-path results
    # they compare with, harvests and up sets, are computed first; then
    # every frame's masks raise on access.
    gardens = [e["object"] for e in generate_instances("masks", count=24)
               if e["kind"] == "garden"]
    gardens += [parse_workspace(FIXTURES.read_text()).resolve("sierp_garden")]
    assert any(not isinstance(g.bed.frame, TopologyFrame) for g in gardens)
    for g in gardens:
        harvest(g)
        for frame in (g.bed.frame, g.top_frame):
            for x in frame.elements:
                frame.up(x)

    def hidden(frame):
        raise AssertionError("an oracle read the masks of %r" % (frame,))
    monkeypatch.setattr(FiniteFrame, "mask", property(hidden), raising=False)
    for g in gardens:
        assert oracle_filters(g.bed.frame)["passed"]
        assert oracle_harvest(g)["passed"]
    with pytest.raises(AssertionError):
        gardens[0].bed.frame.le(gardens[0].bed.frame.top,
                                gardens[0].bed.frame.top)
