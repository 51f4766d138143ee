import random

import pytest

from plotgarden.topology import (ContinuousMap, NotATopology, NotContinuous,
                                 continuity_witness, open_frame, set_name,
                                 topology_frame)
from plotgarden.generators import random_space
from conftest import build_space


def test_missing_empty_set_rejected():
    with pytest.raises(NotATopology):
        build_space(["a"], [["a"]])


def test_family_not_closed_under_intersection():
    with pytest.raises(NotATopology):
        build_space(["a", "b", "c"],
                    [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]])


def test_family_not_closed_under_union():
    with pytest.raises(NotATopology):
        build_space(["a", "b", "c"],
                    [[], ["a"], ["b"], ["a", "b", "c"]])


def test_sierpinski_closure_interior(sierp_space):
    s = sierp_space
    assert s.closure(frozenset(["P"])) == frozenset(["P"])
    assert s.closure(frozenset(["Q"])) == frozenset(["P", "Q"])
    assert s.interior(frozenset(["Q"])) == frozenset(["Q"])
    assert s.interior(frozenset(["P"])) == frozenset()


def test_sierpinski_specialization(sierp_space):
    assert sierp_space.specialization() == frozenset(
        [("P", "P"), ("Q", "Q"), ("P", "Q")])


def test_lens_is_saturation_meet_closure():
    for i in range(40):
        rng = random.Random("lens:%d" % i)
        space = random_space(rng, ["a", "b", "c", "d"][:rng.randint(1, 4)])
        pts = sorted(space.points)
        for mask in range(1 << len(pts)):
            E = frozenset(p for j, p in enumerate(pts) if mask >> j & 1)
            sat = space.full
            for U in space.opens:
                if E <= U:
                    sat &= U
            assert space.saturation(E) == sat
            assert space.lens(E) == sat & space.closure(E)


def test_set_name_sorted():
    assert set_name(frozenset(["b", "a"])) == "{a,b}"
    assert set_name(frozenset()) == "{}"


def test_topology_frame_roundtrip(sierp_space):
    fr = topology_frame(sierp_space)
    assert set(fr.elements) == {"{}", "{Q}", "{P,Q}"}
    for U in sierp_space.opens:
        assert fr.set_of(set_name(U)) == U
        assert fr.mask[set_name(U)] == sum(fr.bit[p] for p in U)
    assert fr.le("{}", "{Q}") and not fr.le("{P,Q}", "{Q}")


def test_continuity_witness(sierp_space):
    swap = ContinuousMap(sierp_space, sierp_space, {"P": "Q", "Q": "P"})
    assert continuity_witness(swap) == frozenset(["Q"])
    with pytest.raises(NotContinuous):
        open_frame(swap)
    ident = ContinuousMap(sierp_space, sierp_space, {"P": "P", "Q": "Q"})
    assert continuity_witness(ident) is None


def test_open_frame_of_identity_is_identity(sierp_space):
    ident = ContinuousMap(sierp_space, sierp_space, {"P": "P", "Q": "Q"})
    f = open_frame(ident)
    assert f.mapping == {x: x for x in f.source.elements}

