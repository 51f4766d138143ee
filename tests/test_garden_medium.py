"""The garden fast path against plain definitions, above the default size.

The gardens come from the medium tier (nodes=16, points=8): 18 to 64
frame elements and up to 4.9k candidate flowers, beyond both the default
fuzz profile and the oracles' size caps.
"""

import pickle
import random
from pathlib import Path

import pytest

from plotgarden import cli
from plotgarden import garden as garden_mod
from plotgarden import oracles
from plotgarden.garden import (Flower, _enumerate_flowers, _region,
                               flower_structure, harvest, point_filters)
from plotgarden.generators import parse_profile, random_plot
from plotgarden.lattice import Filter
from plotgarden.oracles import oracle_flowers, oracle_harvest
from plotgarden.plot import _successor_images, functor_G_object
from plotgarden.transition import TransitionStructure
from plotgarden.workspace import parse_workspace

MEDIUM = parse_profile("nodes=16,points=8")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures.ws"


def medium_garden(seed):
    return functor_G_object(random_plot(random.Random(seed), MEDIUM))


@pytest.fixture(scope="module", params=["medium:0", "medium:5", "medium:6"])
def garden(request):
    return medium_garden(request.param)


def scanned_flowers(g):
    """Candidate flowers by the triple scan oracle_flowers makes, without
    its size cap."""
    frame = g.bed.frame
    up = {c: frozenset(frame.up(c)) for c in frame.elements}
    flowers = set()
    for p in g.space.points:
        boxed = frozenset(x for x in frame.elements
                          if p in g.alpha(g.bed.box[x]))
        for a in frame.elements:
            if p in g.alpha(g.bed.diamond[a]):
                continue
            for c in frame.elements:
                if boxed <= up[c]:
                    flowers.add(Flower(p, a, Filter(frame, c)))
    return flowers


def flower_record_from_structure(g):
    """LAW.240B as computed from flower_structure's flower set."""
    flowers = flower_structure(g)["flowers"]
    frame = g.bed.frame
    expected = 0
    for p in sorted(g.space.points):
        pf = point_filters(g, p)
        expected += len(pf["pdd"]) * len(frame.down(pf["pbb"].generator))
    bad = None
    for fl in sorted(flowers, key=repr):
        pf = point_filters(g, fl.root)
        if fl.stalk not in pf["pdd"]:
            bad = ("stalk", repr(fl))
            break
        if not frame.le(fl.bloom.generator, pf["pbb"].generator):
            bad = ("bloom", repr(fl))
            break
    if bad is None and expected != len(flowers):
        bad = ("count", expected, len(flowers))
    return {"id": "LAW.240B", "passed": bad is None, "witness": bad}


def test_flower_hash_follows_its_parts(garden):
    frame = garden.bed.frame
    for fl in _enumerate_flowers(garden)[::25]:
        twin = Flower(fl.root, fl.stalk, Filter(frame, fl.bloom.generator))
        assert twin is not fl
        assert twin == fl and hash(twin) == hash(fl)


def test_unpickled_flower_rehashes_its_parts(sierp_garden):
    fl = _enumerate_flowers(sierp_garden)[0]
    stale = Flower(fl.root, fl.stalk, fl.bloom)
    stale._hash = hash(fl) + 1    # as if hashed under another hash seed
    back = pickle.loads(pickle.dumps(stale))
    assert back == fl and hash(back) == hash(fl)


def test_enumeration_matches_triple_scan(garden):
    enumerated = _enumerate_flowers(garden)
    assert len(garden.bed.frame) > 16
    assert set(enumerated) == scanned_flowers(garden)
    assert len(set(enumerated)) == len(enumerated)


@pytest.mark.parametrize("seed", ["medium:1", "medium:2", "medium:4"])
def test_flower_oracle_on_medium_gardens_under_its_cap(seed):
    assert oracle_flowers(medium_garden(seed))["passed"]


def test_oracle_harvest_builds_no_flower_structure(monkeypatch):
    def refuse(g):
        raise AssertionError("flower_structure called")
    monkeypatch.setattr(garden_mod, "flower_structure", refuse)
    monkeypatch.setattr(oracles, "flower_structure", refuse)
    assert oracle_harvest(medium_garden("medium:1"))["passed"]


def fixture_gardens():
    ws = parse_workspace(FIXTURES.read_text())
    for name in ws.names():
        if ws.category_of(name) == "gardens":
            yield name, ws.resolve(name)
        elif ws.category_of(name) == "plots":
            yield name, functor_G_object(ws.resolve(name))


def assert_images_are_valued_successors(g):
    # harvest plots share one root set among a pattern's flowers, which
    # the image cache keys on
    plot = harvest(g)
    images = _successor_images(plot)
    assert set(images) == set(plot.structure.nodes)
    for fl in plot.structure.nodes:
        assert images[fl] == frozenset(
            plot.valuation[x] for x in plot.structure.succ[fl])


def test_harvest_images_match_successors_on_fixture_gardens():
    gardens = dict(fixture_gardens())
    assert len(gardens) == 5
    for g in gardens.values():
        assert_images_are_valued_successors(g)


def test_harvest_images_match_successors(garden):
    assert_images_are_valued_successors(garden)


def candidate_structure(g):
    """The transition structure flower_structure reads its edges from."""
    return garden_mod._transitions(g, _enumerate_flowers(g))


@pytest.mark.parametrize("seed,live,candidates", [
    ("medium:0", 41, 234), ("medium:5", 87, 686), ("medium:6", 112, 1344)])
def test_one_root_set_per_pattern(seed, live, candidates):
    # each pattern stores one set of roots, shared by its flowers, which
    # _successor_images keys on; flower edges exist only when read
    g = medium_garden(seed)
    points = len(g.space.points)
    for st, patterns in ((harvest(g).structure, live),
                         (candidate_structure(g), candidates)):
        assert set(st.groups) <= g.space.full
        ids = {}
        for fl, keys in st.steps.items():
            ids.setdefault((fl.stalk, fl.bloom.generator), set()).add(id(keys))
        assert len(ids) == patterns
        assert {len(one) for one in ids.values()} == {1}
        stored = {id(keys): keys for keys in st.steps.values()}
        assert len(stored) == patterns
        size = sum(len(keys) for keys in stored.values())
        assert size <= patterns * points
        edges = sum(len(st.groups[q]) for keys in st.steps.values()
                    for q in keys)
        assert edges > 100 * size


def assert_patterns_expand_to_their_regions(g, st):
    live = frozenset(st.groups)
    by_root = {}
    for fl in st.nodes:
        by_root.setdefault(fl.root, set()).add(fl)
    assert live == frozenset(by_root)
    seen = set()
    for fl in st.nodes:
        key = (fl.stalk, fl.bloom.generator)
        if key in seen:
            continue
        seen.add(key)
        region = _region(g, *key)
        assert st.steps[fl] == region & live
        assert st.succ[fl] == frozenset(
            s for q in region for s in by_root.get(q, ()))


def test_every_pattern_expands_to_its_region(garden):
    assert_patterns_expand_to_their_regions(garden, harvest(garden).structure)
    assert_patterns_expand_to_their_regions(garden, candidate_structure(garden))


def test_harvest_successors_are_the_live_rooted_region(garden):
    plot = harvest(garden)
    survivors = plot.structure.nodes
    assert survivors
    live_roots = frozenset(fl.root for fl in survivors)
    for fl in survivors:
        region = garden.alpha(fl.bloom.generator) - garden.alpha(fl.stalk)
        reach = region & live_roots
        expected = frozenset(s for s in survivors if s.root in reach)
        assert plot.structure.succ[fl] == expected


def test_equal_harvests_compare_without_expanding(monkeypatch):
    one = harvest(medium_garden("medium:5")).structure
    other = harvest(medium_garden("medium:5")).structure
    assert one is not other and one.groups is not other.groups
    edges = one.edges
    monkeypatch.setattr(type(one.succ), "__getitem__", refuse_expansion)
    assert one == other
    monkeypatch.undo()
    assert other.edges == edges
    explicit = TransitionStructure(one.nodes, edges=edges)
    assert explicit == one and one == explicit
    assert TransitionStructure(one.nodes, edges=edges[1:]) != one


def refuse_expansion(succ, n):
    raise AssertionError("successors of %r expanded" % (n,))


def test_flower_record_matches_flower_structure(garden):
    got = cli._flower_record(garden)
    assert got["passed"]
    assert got == flower_record_from_structure(garden)


def test_flower_record_counts_a_dropped_root(sierp_garden, monkeypatch):
    count = len(_enumerate_flowers(sierp_garden))
    patterns = dict(garden_mod._patterns(sierp_garden))
    key = min(patterns, key=str)
    patterns[key] &= patterns[key] - 1      # drop the pattern's lowest root bit
    monkeypatch.setattr(garden_mod, "_patterns", lambda g: patterns)
    got = cli._flower_record(sierp_garden)
    assert not got["passed"]
    assert got["witness"] == ("count", count, count - 1)
