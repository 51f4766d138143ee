import random

import pytest

from plotgarden.generators import (Profile, ProfileUnsatisfiable,
                                   generate_instances, parse_profile,
                                   random_garden, random_garden_morphism,
                                   random_lentile_map, random_plot,
                                   shrink_instance)
from plotgarden.plot import classify_plot_map, lift_operators
from plotgarden.garden import (Flower, check_garden_morphism, harvest,
                              validate_garden)
from conftest import build_plot, build_space


def test_profile_bounds():
    with pytest.raises(ProfileUnsatisfiable):
        Profile(min_nodes=3, max_nodes=2)
    with pytest.raises(ProfileUnsatisfiable):
        Profile(max_nodes=1, min_points=2, max_points=2)
    with pytest.raises(ProfileUnsatisfiable):
        Profile(min_points=0)
    for key in ("edge_density", "open_density"):
        for bad in (float("nan"), -1.0, 1.5, float("inf")):
            with pytest.raises(ProfileUnsatisfiable, match=key):
                Profile(**{key: bad})
        for good in (0.0, 1.0):
            assert getattr(Profile(**{key: good}), key) == good
    with pytest.raises(ProfileUnsatisfiable):
        parse_profile("edge_density=nan")


def test_parse_profile():
    p = parse_profile("nodes=1..4, points=2, edge_density=0.5")
    assert (p.min_nodes, p.max_nodes) == (1, 4)
    assert (p.min_points, p.max_points) == (2, 2)
    assert p.edge_density == 0.5
    assert parse_profile("").min_nodes == 1
    with pytest.raises(ProfileUnsatisfiable):
        parse_profile("shrubs=3")
    with pytest.raises(ProfileUnsatisfiable):
        parse_profile("nodes=a..b")
    with pytest.raises(ProfileUnsatisfiable):
        parse_profile("nodes")


def test_generate_instances_deterministic():
    a = generate_instances("seed", count=12)
    b = generate_instances("seed", count=12)
    assert {e["kind"] for e in a} == {
        "plot", "garden", "plot_map", "garden_morphism"}
    for x, y in zip(a, b):
        assert x["name"] == y["name"]
        assert x["kind"] == y["kind"]
        assert x["object"] == y["object"]
    c = generate_instances("other", count=4)
    assert any(c[i]["object"] != a[i]["object"] for i in range(4))


def test_generated_objects_are_valid():
    for e in generate_instances("valid", count=20):
        obj = e["object"]
        if e["kind"] == "plot":
            assert obj.surjective
        elif e["kind"] == "garden":
            assert harvest(obj) is not None
        elif e["kind"] == "plot_map":
            verdict = classify_plot_map(obj)
            assert verdict["is_plot_map"] and verdict["is_lentile"]
        else:
            assert check_garden_morphism(obj)["passed"]


def test_random_plot_respects_profile():
    prof = Profile(min_nodes=2, max_nodes=3, min_points=2, max_points=2)
    for i in range(30):
        p = random_plot(random.Random("prof:%d" % i), prof)
        assert 2 <= len(p.structure.nodes) <= 3
        assert len(p.space.points) == 2
        assert p.surjective


def test_garden_generator_covers_nonidentity_coverings():
    identity = nontrivial = 0
    for i in range(60):
        g = random_garden(random.Random("cover:%d" % i))
        if all(g.covering(x) == x for x in g.bed.frame.elements):
            identity += 1
        else:
            nontrivial += 1
    assert identity and nontrivial


def test_quotient_covering_garden():
    base_space = build_space(["x", "y", "z"],
                             [[], ["x"], ["x", "y"], ["x", "y", "z"]])
    base = build_plot(["n0", "n1", "n2"], [("n0", "n1")], base_space,
                      {"n0": "x", "n1": "y", "n2": "z"})
    bed = lift_operators(base)
    psi = {"Q": "x", "P": "y"}
    cover = {el: sorted(p for p in psi if psi[p] in bed.frame.set_of(el))
             for el in bed.frame.elements}
    space = build_space(["P", "Q"], [[], ["Q"], ["P", "Q"]])
    g = validate_garden(bed, space, cover)
    assert any(g.covering(x) != x for x in g.bed.frame.elements)
    assert harvest(g) is not None


def test_random_lentile_maps_are_lentile():
    for i in range(40):
        m = random_lentile_map(random.Random("lent:%d" % i))
        verdict = classify_plot_map(m)
        assert verdict["is_plot_map"] and verdict["is_lentile"]


def test_random_garden_morphisms_pass():
    for i in range(25):
        gm = random_garden_morphism(random.Random("gm:%d" % i))
        assert check_garden_morphism(gm)["passed"]


def test_shrink_keeps_failure():
    plot = random_plot(random.Random("shrink:1"),
                       Profile(min_nodes=5, max_nodes=6))
    def still_fails(p):
        return len(p.structure.nodes) >= 2
    small = shrink_instance("plot", plot, still_fails)
    assert len(small.structure.nodes) == 2
    assert still_fails(small)

    g = random_garden(random.Random("shrink:2"))
    small_g = shrink_instance("garden", g, lambda x: True)
    assert len(small_g.space.points) <= len(g.space.points)


def test_shrink_rejects_candidates_whose_check_raises():
    plot = random_plot(random.Random("shrink:1"))

    def broken_check(p):
        raise RuntimeError("the check itself is broken")
    assert shrink_instance("plot", plot, broken_check) is plot


def test_shrink_plot_maps_whose_nodes_are_flowers():
    # geometric units and F-arrows have flowers for nodes, which do not
    # order: 23 of these draws once made the shrinker sort them and raise
    flowered = 0
    for i in range(60):
        m = random_lentile_map(random.Random("shr:%d" % i), Profile())
        nodes = m.source.structure.nodes + m.target.structure.nodes
        flowered += any(isinstance(n, Flower) for n in nodes)
        small = shrink_instance("plot_map", m, lambda x: True)
        assert len(small.source.structure.nodes) <= len(
            m.source.structure.nodes)
        assert classify_plot_map(small)["is_plot_map"]
    assert flowered >= 23
