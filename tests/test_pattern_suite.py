"""The garden law suite at pattern cost against the paths it replaced.

LAW.240B tests the flower condition per (point, pattern) instead of per
candidate flower, filter_images decides both transfers on masks with
one size or monotonicity test, and classify_plot_map holds valued images
as point masks.  Each test compares them with the old forms kept in
references.py on the medium tier (nodes=16, points=8), medium gardens
over quotient spaces and the large plot large:19, and on inputs that
fail: an injected flower fault, maps that are not monotone, and plot
maps with a moved node, a dropped edge or a target that is not lentile.
Verdicts, exception messages and witnesses must be equal.
"""

import collections
import functools
import random

import pytest

import references
from plotgarden import cli
from plotgarden import garden as garden_mod
from plotgarden.adjunction import algebraic_unit, geometric_unit
from plotgarden.garden import (GardenMorphism, functor_F_arrow, functor_F_report,
                               harvest, identity_garden_morphism)
from plotgarden.generators import parse_profile, random_garden, random_plot
from plotgarden.lattice import Filter, FrameMorphism, NotAFilter, filter_images
from plotgarden.plot import Plot, PlotMap, classify_plot_map, functor_G_object
from plotgarden.topology import ContinuousMap
from plotgarden.transition import NodeMap
from conftest import build_map, build_plot, build_space

MEDIUM = parse_profile("nodes=16,points=8")
LARGE = parse_profile("nodes=24,points=10")
SEEDS = ["medium:%d" % i for i in range(8)]


def medium_plot(seed):
    return random_plot(random.Random(seed), MEDIUM)


@functools.lru_cache(maxsize=None)
def large_plot():
    return random_plot(random.Random("large:19"), LARGE)


@functools.lru_cache(maxsize=None)
def gardens(seed):
    """The lifted garden of a medium plot and a medium garden over a
    quotient space."""
    return [functor_G_object(medium_plot(seed)),
            random_garden(random.Random("quotient:" + seed), MEDIUM)]


def all_gardens():
    for seed in SEEDS:
        yield from gardens(seed)
    yield functor_G_object(large_plot())


# -- LAW.240B per (point, pattern) ------------------------------------------

def test_flower_record_matches_the_flower_enumeration():
    for g in all_gardens():
        got = cli._flower_record(g)
        assert got["passed"]
        assert got == references.flower_record(g)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_an_injected_fault_gives_the_same_least_witness(seed, monkeypatch):
    for g in gardens(seed):
        names = sorted(map(repr, references.enumerate_flowers(g)))
        # fault a late triple and a middle one, whose name is the lesser
        faults = {names[-1]: "stalk", names[len(names) // 2]: "bloom"}
        monkeypatch.setattr(garden_mod, "_flower_fault", lambda g, *triple:
                            faults.get("(%s;%s;^%s)" % triple))
        got = cli._flower_record(g)
        assert got["witness"] == ("bloom", names[len(names) // 2])
        assert got == references.flower_record(g)
        monkeypatch.undo()


def test_garden_suite_builds_patterns_once_per_garden(monkeypatch):
    g = random_garden(random.Random("quotient:medium:2"), MEDIUM)
    builds = collections.Counter()
    patterns = garden_mod._patterns

    def count(garden):
        builds[id(garden)] += "_patterns" not in garden.__dict__
        return patterns(garden)

    monkeypatch.setattr(garden_mod, "_patterns", count)
    records = cli.law_suite("garden", g)
    assert all(r["passed"] for r in records)
    # LAW.240B and the harvest share one build
    assert builds[id(g)] == 1 and set(builds.values()) == {1}


# -- filter transfers on masks ----------------------------------------------

def transfer(transfer_with, f, filt, direction):
    try:
        return transfer_with(f, filt, direction).generator
    except NotAFilter as err:
        return "NotAFilter: %s" % (err,)


def assert_transfers_agree(f, elements=None):
    """Both directions of f on every filter, or on the given generators."""
    outcomes = collections.Counter()
    for direction, frame in (("direct", f.source), ("inverse", f.target)):
        for c in frame.elements if elements is None else elements(frame):
            filt = Filter(frame, c)
            got = transfer(filter_images, f, filt, direction)
            assert got == transfer(references.filter_images, f, filt, direction)
            outcomes[str(got).startswith("NotAFilter")] += 1
    return outcomes


def test_filter_transfers_match_the_set_definitions():
    for seed in SEEDS:
        for g in gardens(seed):
            for f in (g.covering, algebraic_unit(g).frame_map):
                assert assert_transfers_agree(f)[True] == 0
    large = functor_G_object(large_plot())
    sample = lambda frame: frame.elements[::17]     # noqa: E731
    assert assert_transfers_agree(large.covering, sample)[True] == 0


def random_maps(source, target, rng, count):
    """Maps that send each element anywhere, and the source's maps with
    one image moved: most are not monotone."""
    names = list(target.elements)
    for _ in range(count):
        yield FrameMorphism(source, target,
                            {x: rng.choice(names) for x in source.elements})
        yield FrameMorphism(source, target, {x: x for x in source.elements} | {
            rng.choice(source.elements): rng.choice(names)})


def test_maps_that_are_not_monotone_raise_the_same_message():
    rng = random.Random(13)
    outcomes = collections.Counter()
    for seed in SEEDS[:4]:
        for g in gardens(seed)[:1]:
            frame = g.bed.frame
            for f in random_maps(frame, frame, rng, 6):
                outcomes += assert_transfers_agree(f)
    assert outcomes[True] > 100 and outcomes[False] > 100


# -- classify_plot_map on point masks ---------------------------------------

def moved(m, rng, same_root):
    """m with one node's image moved to another target node, with the same
    value or any; m itself when it has no node."""
    nodes = m.target.structure.nodes
    mapping = dict(m.node_map.mapping)
    if not mapping:
        return m
    n = rng.choice(sorted(mapping, key=str))
    tau = m.target.valuation
    choices = [R for R in nodes if R is not mapping[n]
               and (not same_root or tau[R] == tau[mapping[n]])]
    if choices:
        mapping[n] = rng.choice(choices)
    return PlotMap(m.source, m.target,
                   NodeMap(m.source.structure, m.target.structure, mapping),
                   m.point_map)


def with_edges(plot, edges):
    return build_plot(sorted(plot.structure.nodes, key=str),
                      sorted(edges, key=str), plot.space, plot.valuation)


def maps(seed, rng):
    """Geometric units and F arrows, with a node moved, and plot maps
    into a plot with an edge dropped or added, or from one with an edge
    dropped."""
    plot = medium_plot(seed)
    unit = geometric_unit(plot)
    arrows = [functor_F_arrow(gm) for g in gardens(seed)
              for gm in (identity_garden_morphism(g), algebraic_unit(g))]
    for m in [unit] + arrows:
        yield m
        yield moved(m, rng, same_root=True)
        yield moved(m, rng, same_root=False)
    points = {p: p for p in plot.space.points}
    nodes = {n: n for n in plot.structure.nodes}
    edges = list(plot.structure.edges)
    i = rng.randrange(len(edges))
    dropped = with_edges(plot, edges[:i] + edges[i + 1:])
    yield build_map(plot, dropped, nodes, points)
    yield build_map(dropped, plot, nodes, points)
    node_list = sorted(nodes, key=str)
    for count in (1, 3, 8):
        more = set(edges) | {(rng.choice(node_list), rng.choice(node_list))
                             for _ in range(count)}
        yield build_map(plot, with_edges(plot, more), nodes, points)


def test_classification_matches_the_frozenset_route():
    rng = random.Random(17)
    witnesses = set()
    for seed in SEEDS:
        for m in maps(seed, rng):
            got = classify_plot_map(m)
            assert got == references.classify_plot_map_on_sets(m)
            witnesses |= set(got["witnesses"])
    assert witnesses == {"square", "edge", "up", "minus", "lentile"}


def test_large_geometric_unit_matches_the_frozenset_route():
    rng = random.Random(19)
    unit = geometric_unit(large_plot())
    for m in (unit, moved(unit, rng, same_root=True)):
        assert classify_plot_map(m) == references.classify_plot_map_on_sets(m)


def test_maps_into_a_harvest_land_on_its_own_flowers():
    for g in gardens(SEEDS[0]):
        m = functor_F_arrow(identity_garden_morphism(g))
        own = set(map(id, m.target.structure.nodes))
        assert all(id(fl) in own for fl in m.node_map.mapping.values())
    unit = geometric_unit(medium_plot(SEEDS[0]))
    own = set(map(id, unit.target.structure.nodes))
    assert all(id(fl) in own for fl in unit.node_map.mapping.values())


def test_an_image_missing_from_the_harvest_is_named_by_a_fresh_flower():
    # two equal gardens, the first with one flower pruned from its harvest
    X, Y = (functor_G_object(medium_plot(SEEDS[1])) for _ in range(2))
    full = harvest(X).structure.nodes
    kept = full[1:]
    X.__dict__["_harvest"] = Plot(garden_mod._transitions(X, kept), X.space,
                                  {fl: fl.root for fl in kept}, _allow_unrooted=True)
    frame = X.bed.frame
    gm = GardenMorphism(X, Y, FrameMorphism(frame, Y.bed.frame,
                                            {x: x for x in frame.elements}),
                        ContinuousMap(Y.space, X.space, {p: p for p in X.space.points}))
    _, records = functor_F_report(gm)
    assert [(r["id"], r["passed"]) for r in records] == [
        ("LAW.240G", True), ("LAW.240H", True), ("LAW.240I", False)]
    assert records[-1]["witness"] == full[0]
    assert records[-1]["witness"] is not full[0]


def test_the_first_bad_point_is_the_least_by_str():
    # p10 sorts between p1 and p2 by str, so it holds the lower bit of the
    # two points that the pushed image {p1} cannot reach
    discrete = [[], ["p1"], ["p2"], ["p10"], ["p1", "p2"], ["p1", "p10"],
                ["p2", "p10"], ["p1", "p2", "p10"]]
    space = build_space(["p1", "p2", "p10"], discrete)
    one = build_space(["p1"], [[], ["p1"]])
    source = build_plot(["a"], [("a", "a")], one, {"a": "p1"})
    target = build_plot(["A", "B", "C"], [("A", "A"), ("A", "B"), ("A", "C")],
                        space, {"A": "p1", "B": "p2", "C": "p10"})
    m = build_map(source, target, {"a": "A"}, {"p1": "p1"})
    got = classify_plot_map(m)
    assert got["witnesses"] == {"up": ("a", "C"), "minus": ("a", "C", "{p10}"),
                                "lentile": ("a", "C")}
    assert got == references.classify_plot_map_on_sets(m)
