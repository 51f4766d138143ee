"""The garden's covering as point masks against its point-set definitions.

A garden derives alpha_mask, each bed element's open as a point mask,
once in its constructor; point_filters, the pattern table and the
transition region read it.  Each test compares them with the forms on
point sets kept in references.py, on the lifted gardens of the medium
tier (nodes=16, points=8), on quotient gardens whose covering sends two
elements to one open, and on the lifted garden of the large plot
large:19.  The last two tests reach LAW.240H's failing branch.
"""

import functools
import itertools
import random
from pathlib import Path

import pytest

import references
from plotgarden import garden as garden_mod
from plotgarden.garden import (GardenMorphism, _patterns, _region,
                               functor_F_report, point_filters,
                               validate_garden)
from plotgarden.generators import parse_profile, random_plot
from plotgarden.lattice import FrameMorphism
from plotgarden.plot import Plot, functor_G_object, lift_operators
from plotgarden.topology import ContinuousMap, topology_frame, validate_space
from plotgarden.transition import TransitionStructure
from plotgarden.workspace import parse_workspace

MEDIUM = parse_profile("nodes=16,points=8")
LARGE = parse_profile("nodes=24,points=10")
SEEDS = ["medium:%d" % i for i in range(8)]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures.ws"


def quotient_garden(seed):
    """The lifted bed of a medium plot over five fresh points, covered
    through the preimages of a point map that misses some plot points."""
    base = random_plot(random.Random(seed), MEDIUM)
    bed = lift_operators(base)
    rng = random.Random("quotient:" + seed)
    psi = {"q%d" % i: rng.choice(base.space.points) for i in range(5)}
    covering = {x: frozenset(q for q, p in psi.items()
                             if p in bed.frame.set_of(x))
                for x in bed.frame.elements}
    space = validate_space(psi, set(covering.values()))
    return validate_garden(bed, space, covering)


@functools.lru_cache(maxsize=None)
def garden_named(name):
    kind, _, seed = name.partition("/")
    if kind == "quotient":
        return quotient_garden(seed)
    profile = LARGE if seed == "large:19" else MEDIUM
    return functor_G_object(random_plot(random.Random(seed), profile))


@pytest.fixture(params=(["lifted/" + s for s in SEEDS]
                        + ["quotient/" + s for s in SEEDS]
                        + ["lifted/large:19"]))
def garden(request):
    return garden_named(request.param)


@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_coverings_send_two_elements_to_one_open(seed):
    g = garden_named("quotient/" + seed)
    names = list(g.covering.mapping.values())
    assert len(set(names)) < len(names)
    assert g.top_frame is not g.bed.frame


def test_alpha_mask_is_the_mask_of_alpha(garden):
    top = garden.top_frame
    assert top is garden.covering.target is topology_frame(garden.space)
    assert set(garden.alpha_mask) == set(garden.bed.frame.elements)
    for x, m in garden.alpha_mask.items():
        assert m == top.mask_of(garden.alpha(x))
        assert garden.alpha(x) == top.set_of(garden.covering(x))


def test_point_filters_match_the_set_definitions(garden):
    fr = garden.bed.frame
    for p in garden.space.points:
        got = point_filters(garden, p)
        want = references.point_filters_on_sets(garden, p)
        assert fr.up(got["nabla"].generator) == want["nabla"]
        assert fr.up(got["pbb"].generator) == want["pbb"]
        assert got["pdd"] == want["pdd"]


def test_patterns_match_the_pdd_scan(garden):
    got = _patterns(garden)
    assert got
    assert list(got.items()) == list(references.patterns_on_sets(garden).items())


def test_region_is_the_set_region(garden):
    elements = garden.bed.frame.elements
    points_of = garden.top_frame.points_of
    for a in elements:
        for c in elements:
            assert points_of(_region(garden, a, c)) == \
                references.region_on_sets(garden, a, c)


def test_validate_garden_on_its_own_covering_gives_an_equal_garden(garden):
    again = validate_garden(garden.bed, garden.space,
                            {x: garden.alpha(x)
                             for x in garden.bed.frame.elements})
    assert again == garden and again is not garden
    assert again.covering.mapping == garden.covering.mapping
    assert again.alpha_mask == garden.alpha_mask


def test_a_swapped_point_fails_law_240h(monkeypatch):
    # The swap of P and Q carries no flower to a flower, so LAW.240G stops
    # the report first; with the flower condition stubbed out, the first
    # source region point whose image leaves the target region is Q.
    g = parse_workspace(FIXTURES.read_text()).resolve("sierp_garden")
    fr = g.bed.frame
    swap = GardenMorphism(g, g, FrameMorphism(fr, fr, {x: x for x in fr.elements}),
                          ContinuousMap(g.space, g.space, {"P": "Q", "Q": "P"}))
    assert [r["id"] for r in functor_F_report(swap)[1]] == ["LAW.240G"]
    monkeypatch.setattr(garden_mod, "_flower_fault", lambda *args: None)
    result, records = functor_F_report(swap)
    assert result is None
    assert records == [
        {"id": "LAW.240G", "passed": True, "witness": None},
        {"id": "LAW.240H", "passed": False, "witness": ("{}", "Q")}]


@pytest.mark.parametrize("edges", [
    [("a", "b"), ("b", "c"), ("c", "a")],
    [("a", "b"), ("a", "c"), ("b", "c")],
    [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")]])
def test_law_240h_witness_matches_the_set_scan(edges, monkeypatch):
    # every point map of a three-point discrete garden into itself, over
    # the identity frame map, with the flower condition stubbed out
    points = ["a", "b", "c"]
    space = validate_space(points, [frozenset(s) for r in range(4)
                                    for s in itertools.combinations(points, r)])
    g = functor_G_object(Plot(TransitionStructure(points, edges=edges),
                              space, {p: p for p in points}))
    fr = g.bed.frame
    identity = FrameMorphism(fr, fr, {x: x for x in fr.elements})
    monkeypatch.setattr(garden_mod, "_flower_fault", lambda *args: None)
    failed = 0
    for image in itertools.product(points, repeat=3):
        gm = GardenMorphism(g, g, identity,
                            ContinuousMap(space, space, dict(zip(points, image))))
        law = [r for r in functor_F_report(gm)[1] if r["id"] == "LAW.240H"]
        want = references.transition_witness(gm)
        assert law == [{"id": "LAW.240H", "passed": want is None,
                        "witness": want}]
        failed += want is not None
    assert failed
