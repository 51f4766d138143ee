"""Frames held as int masks against their order alone, above the default size.

The package runs meet, join and order as &, | and inclusion of int
masks: point sets in a topology frame, join-irreducibles in a frame that
validate_frame builds.  Each test compares the mask path with
references.Order, which reads a frame's up sets and nothing else.  The
frames are the topology frames of the medium tier (nodes=16, points=8),
their copies loaded back from a workspace, chains, products and the
frames of test_lattice.  The bed-law witnesses, the harvest's health
bounds, the first unhealthy flower and check_frame_morphism are compared
the same way, on beds and mappings with one entry corrupted.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest

import references
from references import Order
from plotgarden.garden import (Bed, _bed_law_witnesses, _enumerate_flowers,
                               harvest, healthy_witness)
from plotgarden.generators import parse_profile, random_garden, random_plot
from plotgarden.lattice import (FrameLawViolation, NotALattice,
                                check_frame_morphism, validate_frame)
from plotgarden.plot import functor_G_object
from plotgarden.topology import TopologyFrame, topology_frame
from plotgarden.workspace import instance_workspace, parse_workspace
from conftest import FIXTURES

MEDIUM = parse_profile("nodes=16,points=8")
SEEDS = ["medium:%d" % i for i in range(8)]
LAWS = {"box-top", "box-meet", "diamond-monotone", "mixed-law"}


def medium_plot(seed):
    return random_plot(random.Random(seed), MEDIUM)


@functools.lru_cache(maxsize=None)
def gardens(seed):
    """The lifted garden of a medium plot, a medium garden that may cover
    a quotient space, and each one loaded back from a workspace, whose
    bed frame validate_frame builds."""
    built = [functor_G_object(medium_plot(seed)),
             random_garden(random.Random("quotient:" + seed), MEDIUM)]
    return built + [loaded("garden", g) for g in built]


def loaded(kind, obj):
    text = json.dumps(instance_workspace(kind, obj))
    return parse_workspace(text).resolve("cex")


def order_of(frame):
    # a topology frame's up sets come from its masks; read them off the
    # open sets instead
    if isinstance(frame, TopologyFrame):
        return Order.of_space(frame.space)
    return Order.of_frame(frame)


def disagreements(frame, order):
    """Every pair on which the frame's masks and the order disagree."""
    bad = []
    if (frame.bottom, frame.top) != (order.bottom, order.top):
        bad.append(("bounds", frame.bottom, frame.top))
    for a in frame.elements:
        if frame.up(a) != order.up[a] or frame.down(a) != order.down[a]:
            bad.append(("sections", a))
        for b in frame.elements:
            got = (frame.le(a, b), frame.meet(a, b), frame.join(a, b))
            if got != (order.le(a, b), order.meet(a, b), order.join(a, b)):
                bad.append((a, b))
    rng = random.Random(len(frame.elements))
    for _ in range(20):
        xs = rng.sample(frame.elements, rng.randint(0, len(frame.elements)))
        if (frame.meet_all(xs), frame.join_all(xs)) != (
                order.meet_all(xs), order.join_all(xs)):
            bad.append(("folds", tuple(xs)))
    return bad


def birkhoff_masks(order):
    """Each element's join-irreducibles, as bits of their positions."""
    irreducible = [j for j in order.elements if j != order.bottom
                   and order.join_all(order.down[j] - {j}) != j]
    return {x: sum(1 << i for i, j in enumerate(irreducible)
                   if order.le(j, x)) for x in order.elements}


def chain(labels):
    return validate_frame(labels, [(a, b) for i, a in enumerate(labels)
                                   for b in labels[i:]])


def product(*lengths):
    """The product of chains of these lengths, ordered coordinatewise."""
    els = ["".join(map(str, t))
           for t in itertools.product(*(range(n) for n in lengths))]
    return validate_frame(els, [(a, b) for a in els for b in els
                                if all(x <= y for x, y in zip(a, b))])


@pytest.mark.parametrize("seed", SEEDS)
def test_topology_frame_agrees_with_inclusion(seed):
    frame = topology_frame(medium_plot(seed).space)
    order = order_of(frame)
    assert frame.elements == tuple(sorted(order.elements))
    assert disagreements(frame, order) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_loaded_frame_agrees_with_its_relation(seed):
    lifted, _, reloaded, _ = gardens(seed)
    lifted, frame = lifted.bed.frame, reloaded.bed.frame
    order = Order.of_frame(frame)
    assert not isinstance(frame, TopologyFrame)
    assert disagreements(frame, order) == []
    assert frame.mask == birkhoff_masks(order)
    # the same names and order under another encoding: equal both ways
    assert frame.mask != lifted.mask
    assert frame == lifted and lifted == frame


SMALL_FRAMES = {
    "chain 1": lambda: chain(["0"]),
    "chain 2": lambda: chain(["0", "1"]),
    "chain 3": lambda: chain(["0", "1", "2"]),
    "chain 0 m 1": lambda: chain(["0", "m", "1"]),
    "chain 5": lambda: chain(["a", "b", "c", "d", "e"]),
    "square": lambda: product(2, 2),
    "2 x 3": lambda: product(2, 3),
    "3 x 3": lambda: product(3, 3),
    "cube": lambda: product(2, 2, 2),
    "2 x 2 x 3": lambda: product(2, 2, 3),
}


@pytest.mark.parametrize("name", sorted(SMALL_FRAMES))
def test_validate_frame_agrees_with_its_relation(name):
    frame = SMALL_FRAMES[name]()
    order = Order.of_frame(frame)
    assert disagreements(frame, order) == []
    assert frame.mask == birkhoff_masks(order)


def test_validate_frame_rejects_with_the_same_messages():
    # messages and exception types as before the masks
    def closed(els, rel):
        pairs = {(e, e) for e in els} | set(rel)
        for _ in els:
            pairs |= {(a, d) for a, b in pairs for c, d in pairs if b == c}
        return pairs
    cases = [
        (["0", "x", "y", "z", "1"],
         [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"),
          ("z", "1")],
         FrameLawViolation,
         "a='x' x='y' y='z': a^(xvy)='x' but (a^x)v(a^y)='0'"),
        (["0", "a", "b", "c", "1"],
         [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
         FrameLawViolation,
         "a='b' x='a' y='c': a^(xvy)='b' but (a^x)v(a^y)='a'"),
        (["0", "a", "b"], [("0", "a"), ("0", "b")],
         NotALattice, "pair ('a', 'b') has no join"),
        (["a", "b", "1"], [("a", "1"), ("b", "1")],
         NotALattice, "pair ('a', 'b') has no meet"),
        (["0", "a", "b", "c", "d"],
         [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"),
          ("b", "d")],
         NotALattice, "pair ('a', 'b') has no join"),
    ]
    for els, rel, error, message in cases:
        with pytest.raises(error) as raised:
            validate_frame(els, closed(els, rel))
        assert str(raised.value) == message


def corrupted_beds(bed, rng, count):
    """count beds, each with one box or diamond entry changed."""
    els = bed.frame.elements
    for _ in range(count):
        tables = {"box": dict(bed.box), "diamond": dict(bed.diamond)}
        table = tables[rng.choice(sorted(tables))]
        x = rng.choice(els)
        table[x] = rng.choice([y for y in els if y != table[x]])
        yield Bed(bed.frame, tables["box"], tables["diamond"])


@pytest.mark.parametrize("seed", SEEDS)
def test_bed_law_witnesses_agree(seed):
    rng = random.Random(seed)
    seen = set()
    for g in gardens(seed):
        bed, order = g.bed, order_of(g.bed.frame)
        assert _bed_law_witnesses(bed) == references.bed_law_witnesses(
            bed, order) == []
        top, bottom = bed.frame.top, bed.frame.bottom
        beds = list(corrupted_beds(bed, rng, 12))
        beds.append(Bed(bed.frame, {**bed.box, top: bottom}, bed.diamond))
        for bad in beds:
            found = _bed_law_witnesses(bad)
            assert found == references.bed_law_witnesses(bad, order)
            seen.update(law for law, _ in found)
    assert seen == LAWS


def test_every_single_corruption_of_small_beds_agrees():
    # every one-entry change of the small medium beds and the fixture bed
    beds = [parse_workspace(FIXTURES.read_text()).resolve("sierp_garden").bed]
    beds += [g.bed for seed in SEEDS for g in gardens(seed)
             if len(g.bed.frame) <= 12]
    seen = set()
    for bed in beds:
        order = order_of(bed.frame)
        for table in ("box", "diamond"):
            for x in bed.frame.elements:
                for y in bed.frame.elements:
                    entries = {"box": dict(bed.box),
                               "diamond": dict(bed.diamond)}
                    entries[table][x] = y
                    bad = Bed(bed.frame, entries["box"], entries["diamond"])
                    found = _bed_law_witnesses(bad)
                    assert found == references.bed_law_witnesses(bad, order)
                    seen.update(law for law, _ in found)
    assert seen == LAWS


@pytest.mark.parametrize("seed", SEEDS)
def test_harvest_agrees_with_pruning_by_the_order(seed):
    for g in gardens(seed):
        order = order_of(g.bed.frame)
        survivors = harvest(g).structure.nodes
        patterns = {(fl.stalk, fl.bloom.generator) for fl in survivors}
        assert patterns == references.harvest_patterns(g, order)


@pytest.mark.parametrize("seed", SEEDS)
def test_first_unhealthy_flower_agrees(seed):
    rng = random.Random(seed)
    for g in gardens(seed):
        order = order_of(g.bed.frame)
        survivors = list(harvest(g).structure.nodes)
        candidates = _enumerate_flowers(g)
        samples = [survivors, candidates]
        samples += [rng.sample(survivors, len(survivors) // 2)
                    for _ in range(3)]
        samples += [rng.sample(candidates, len(candidates) // 3)
                    for _ in range(3)]
        for flowers in samples:
            assert healthy_witness(g, flowers) == references.healthy_witness(
                g, order, flowers)
        assert healthy_witness(g, survivors) is None


def corrupted_mappings(mapping, target, rng, count):
    for _ in range(count):
        bad = dict(mapping)
        x = rng.choice(sorted(bad))
        bad[x] = rng.choice([y for y in target.elements if y != bad[x]])
        yield bad


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_morphism_verdicts_agree(seed):
    rng = random.Random(seed)
    seen = set()
    for g in gardens(seed):
        source, target = g.bed.frame, g.top_frame
        orders = order_of(source), order_of(target)
        mappings = [g.covering.mapping]
        mappings += corrupted_mappings(g.covering.mapping, target, rng, 10)
        mappings.append({**g.covering.mapping, source.top: target.bottom})
        for mapping in mappings:
            verdict = check_frame_morphism(mapping, source, target)
            assert verdict == references.check_frame_morphism(mapping,
                                                              *orders)
            seen.update(law for law, _ in verdict["violations"])
        assert check_frame_morphism(mappings[0], source,
                                    target)["is_frame_morphism"]
    assert seen == {"top", "bottom", "meet", "join"}


def test_fixture_covering_verdicts_are_unchanged():
    # all 27 maps from the fixture garden's bed frame to its topology;
    # the digest is of the verdicts before frames were held as masks
    g = parse_workspace(FIXTURES.read_text()).resolve("sierp_garden")
    source, target = g.bed.frame, g.top_frame
    orders = order_of(source), order_of(target)
    verdicts = []
    for images in itertools.product(target.elements,
                                    repeat=len(source.elements)):
        mapping = dict(zip(source.elements, images))
        verdict = check_frame_morphism(mapping, source, target)
        assert verdict == references.check_frame_morphism(mapping, *orders)
        verdicts.append((images, verdict["is_frame_morphism"],
                         verdict["is_surjective"], verdict["violations"]))
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "a17aa05e3c7239b5ab3079beeea9d6986f716331660db0da552f2f6162397a76")


def test_frames_compare_by_names_and_order_across_encodings():
    ws = parse_workspace(FIXTURES.read_text())
    loaded_frame = ws.resolve("sierp_garden").bed.frame
    top = topology_frame(ws.resolve("sierp_space"))
    assert not isinstance(loaded_frame, TopologyFrame)
    assert loaded_frame == top and top == loaded_frame
    # the same names in another order, and other names
    reordered = chain(["{}", "{P,Q}", "{Q}"])
    assert reordered.elements == top.elements
    assert reordered != top and top != reordered
    assert chain(["0", "1", "2"]) != top
    assert (top == "{}") is False
