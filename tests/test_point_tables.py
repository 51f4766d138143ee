"""Per-point tables against the scans they replaced, above the default size.

The space operators, validate_space, the lift, classify_plot_map,
_stalk_bloom's frame, check_frame_morphism, validate_frame's transitivity
and the harvest read each point's least open U_p, or each bit's least
element, instead of scanning every open, every pair or every candidate
flower.  Each test compares them with the scans kept in references.py on
the medium tier (nodes=16, points=8), medium gardens over quotient
spaces and the large plot large:19, and on corrupted inputs, so that
every witness route runs: families that are no topologies, coverings
that are no frame morphisms, relations that are not transitive, maps
that are not lentile and lift tables with a wrong entry.  Verdicts and
witness strings must be equal.
"""

import functools
import random

import pytest

import references
from plotgarden.adjunction import geometric_unit
from plotgarden.garden import _enumerate_flowers, harvest
from plotgarden.generators import parse_profile, random_garden, random_plot
from plotgarden.lattice import NotAPoset, check_frame_morphism, validate_frame
from plotgarden.plot import (PostconditionFailure, classify_plot_map,
                             functor_G_object, lift_operators)
from plotgarden.topology import NotATopology, topology_frame, validate_space
from conftest import build_map, build_plot

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


def spaces():
    for seed in SEEDS:
        yield medium_plot(seed).space
        yield gardens(seed)[1].space
    yield large_plot().space


def sample_subsets(space, rng, count):
    points = list(space.points)
    if len(points) <= 8:
        yield from references.subsets(points)
        return
    for _ in range(count):
        yield frozenset(p for p in points if rng.random() < 0.4)


def test_space_operators_match_the_scans():
    rng = random.Random(5)
    for space in spaces():
        assert space.specialization() == references.specialization(space)
        assert space.sorted_opens() == references.sorted_opens(space)
        for E in sample_subsets(space, rng, 300):
            assert space.closure(E) == references.closure(space, E)
            assert space.interior(E) == references.interior(space, E)
            assert space.saturation(E) == references.saturation(space, E)
            assert space.lens(E) == references.lens(space, E)


def corrupted_families(space, rng, count):
    """The space's opens with one member dropped, one subset added, or
    one member cut by a point."""
    opens = sorted(space.opens, key=sorted)
    points = list(space.points)
    for _ in range(count):
        family = set(opens)
        how = rng.randrange(3)
        if how == 0:
            family.discard(rng.choice(opens))
        elif how == 1:
            family.add(frozenset(p for p in points if rng.random() < 0.5))
        else:
            V = rng.choice(opens)
            family.discard(V)
            family.add(V - {rng.choice(points)})
        yield family


def test_validate_space_names_the_same_defect():
    rng = random.Random(11)
    rejected = 0
    for space in spaces():
        assert validate_space(space.points, space.opens) == space
        for family in corrupted_families(space, rng, 30):
            want = references.topology_defect(space.points, family)
            try:
                validate_space(space.points, family)
                got = None
            except NotATopology as err:
                got = str(err)
                rejected += 1
            assert got == want
    assert rejected > 200


def plots():
    for seed in SEEDS:
        plot = medium_plot(seed)
        yield plot
        yield harvest(functor_G_object(plot))
    yield large_plot()


def test_lift_matches_the_join_over_every_open():
    for plot in plots():
        bed = lift_operators(plot)
        assert (bed.box, bed.diamond) == references.lift(plot)
        assert references.lift_defect(plot, bed.box, bed.diamond) is None


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("wrong", ["bottom", "top", "diamond"])
def test_a_corrupted_lift_table_names_the_same_witness(seed, wrong,
                                                       monkeypatch):
    plot = medium_plot(seed)
    frame = topology_frame(plot.space)
    interior = frame.interior_mask
    eligible = references.eligible_points(plot)
    # empty the lifted open of one diamond-eligible set that no box
    # shares, so that only the diamond table is wrong
    boxes = {B for B, _ in eligible.values()}
    lone = next(D for _, D in eligible.values()
                if D not in boxes and interior(D))
    wrong_mask = {"bottom": lambda m: 0,
                  "top": lambda m: frame.mask[frame.top],
                  "diamond": lambda m: 0 if m == lone else interior(m)}[wrong]
    monkeypatch.setattr(frame, "interior_mask", wrong_mask)
    box, diamond = {}, {}
    for U, (B, D) in eligible.items():
        box[U], diamond[U] = (frame.element[wrong_mask(E)] for E in (B, D))
    want = references.lift_defect(plot, box, diamond)
    assert want.startswith("diamond" if wrong == "diamond" else "box")
    with pytest.raises(PostconditionFailure) as err:
        lift_operators(plot)
    assert str(err.value) == "lift_operators on %r: %s" % (plot, want)


def with_extra_edges(plot, rng, count):
    """The plot with count more transitions, same space and valuation."""
    st = plot.structure
    nodes = sorted(st.nodes, key=str)
    edges = set(st.edges)
    for _ in range(count):
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    return build_plot(nodes, sorted(edges, key=str), plot.space,
                      plot.valuation)


def maps(seed, rng):
    """A geometric unit, maps from a plot into itself with transitions
    added to the target, which are rarely lentile, or to the source, which
    are no plot maps, and maps whose node map is moved."""
    plot = medium_plot(seed)
    yield geometric_unit(plot)
    points = {p: p for p in plot.space.points}
    nodes = {n: n for n in plot.structure.nodes}
    for count in (1, 3, 8):
        yield build_map(plot, with_extra_edges(plot, rng, count), nodes,
                        points)
    yield build_map(with_extra_edges(plot, rng, 4), plot, nodes, points)
    moved = dict(nodes)
    a, b = rng.sample(sorted(nodes, key=str), 2)
    moved[a] = b
    yield build_map(plot, plot, moved, points)
    yield build_map(plot, with_extra_edges(plot, rng, 5), moved, points)


def test_classification_matches_the_scans_over_opens_and_pairs():
    rng = random.Random(3)
    verdicts = set()
    for seed in SEEDS:
        for m in maps(seed, rng):
            got = classify_plot_map(m)
            assert got == references.classify_plot_map(m)
            verdicts.add((got["is_plot_map"], got["up_condition"],
                          got["minus_condition"], got["is_lentile"],
                          tuple(got["witnesses"])))
    assert (True, True, True, True, ()) in verdicts
    assert (True, True, False, False, ("minus", "lentile")) in verdicts
    assert {witness for *_, witnesses in verdicts for witness in witnesses} \
        == {"square", "edge", "up", "minus", "lentile"}


@pytest.mark.parametrize("seed", SEEDS)
def test_harvest_matches_the_flower_enumeration(seed):
    for g in gardens(seed):
        assert _enumerate_flowers(g) == references.enumerate_flowers(g)
        assert list(harvest(g).structure.nodes) == \
            references.harvest_flowers(g)


def test_large_harvest_matches_the_flower_enumeration():
    g = functor_G_object(large_plot())
    assert list(harvest(g).structure.nodes) == references.harvest_flowers(g)


def corrupted_coverings(g, rng, count):
    """The covering of g, as element -> open name, with one value moved."""
    mapping = dict(g.covering.mapping)
    names = sorted(g.top_frame.elements)
    for _ in range(count):
        bad = dict(mapping)
        bad[rng.choice(sorted(bad))] = rng.choice(names)
        yield bad


def test_frame_morphism_verdicts_match_the_pairwise_scan():
    rng = random.Random(7)
    failed = 0
    for seed in SEEDS:
        for g in gardens(seed):
            source, target = g.bed.frame, g.top_frame
            for mapping in [g.covering.mapping] + list(
                    corrupted_coverings(g, rng, 12)):
                got = check_frame_morphism(mapping, source, target)
                assert got == references.frame_morphism_pairs(
                    mapping, source, target)
                failed += not got["is_frame_morphism"]
    frame = topology_frame(large_plot().space)
    identity = {x: x for x in frame.elements}
    assert check_frame_morphism(identity, frame, frame) == \
        references.frame_morphism_pairs(identity, frame, frame)
    assert failed > 100


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_validate_frame_names_the_same_intransitive_triple(seed):
    rng = random.Random(seed)
    frame = gardens(seed)[1].bed.frame
    leq = {(a, b) for a in frame.elements for b in frame.up(a)}
    assert references.transitivity_defect(frame.elements, leq) is None
    for _ in range(10):
        # drop a pair a <= c that is implied through some b
        a, c = rng.choice(sorted(
            (a, c) for a, c in leq if a != c and any(
                (a, b) in leq and (b, c) in leq and b not in (a, c)
                for b in frame.elements)))
        broken = leq - {(a, c)}
        with pytest.raises(NotAPoset) as err:
            validate_frame(frame.elements, broken)
        assert str(err.value) == references.transitivity_defect(
            frame.elements, broken)


def test_least_opens_of_the_sierpinski_space(sierp_space):
    frame = topology_frame(sierp_space)
    assert frame.least == {frame.bit["P"]: frame.mask["{P,Q}"],
                           frame.bit["Q"]: frame.mask["{Q}"]}
