import random

import pytest

from plotgarden.transition import (NodeMap, TransitionStructure,
                                   characterize_operators, classify_node_map,
                                   powerset, powerset_operators)


def test_structure_normalizes_and_validates():
    st = TransitionStructure(["b", "a"], edges=[("a", "b"), ("a", "b")])
    assert st.nodes == ("a", "b")
    assert st.succ["a"] == frozenset(["b"])
    assert st.edges == (("a", "b"),)
    with pytest.raises(ValueError):
        TransitionStructure(["a"], edges=[("a", "zz")])


def test_operators_match_definitions():
    for i in range(30):
        rng = random.Random("ops:%d" % i)
        nodes = ["n%d" % k for k in range(rng.randint(1, 5))]
        edges = [(a, b) for a in nodes for b in nodes if rng.random() < 0.4]
        st = TransitionStructure(nodes, edges=edges)
        ops = powerset_operators(st)
        full = frozenset(nodes)
        for E in powerset(nodes):
            box = frozenset(n for n in nodes if st.succ[n] <= E)
            assert ops.box(E) == box
            assert ops.diamond(E) == full - ops.box(full - E)


def test_operators_monotone_and_multiplicative():
    st = TransitionStructure(["a", "b", "c"],
                             edges=[("a", "b"), ("b", "c"), ("c", "a")])
    ops = powerset_operators(st)
    subsets = list(powerset(st.nodes))
    for E in subsets:
        for F in subsets:
            assert ops.box(E & F) == ops.box(E) & ops.box(F)
            if E <= F:
                assert ops.diamond(E) <= ops.diamond(F)
            assert ops.box(E) & ops.diamond(F) <= ops.diamond(E & F)


def test_classify_node_map_tight_is_not_simulation(tight_map):
    verdict = classify_node_map(tight_map.node_map)
    assert verdict["is_transition_morphism"]
    assert not verdict["is_simulation"]
    assert verdict["witnesses"]["simulation"] == ("P", "R")


def test_classify_node_map_morphism_failure():
    src = TransitionStructure(["a", "b"], edges=[("a", "b")])
    tgt = TransitionStructure(["x", "y"], edges=[])
    verdict = classify_node_map(NodeMap(src, tgt, {"a": "x", "b": "y"}))
    assert not verdict["is_transition_morphism"]
    assert verdict["witnesses"]["morphism"] == ("a", "b")


def test_characterize_operators_accepts_genuine_pair():
    st = TransitionStructure(["a", "b"], edges=[("a", "a"), ("a", "b")])
    ops = powerset_operators(st)
    report = characterize_operators(st, ops.box, ops.diamond)
    assert report["lemma_holds"]
    assert report["reconstructed_relation_matches"]
    assert report["matches_structure_relation"]
    assert frozenset(report["reconstructed_relation"]) == frozenset(st.edges)


def test_characterize_operators_rejects_non_multiplicative_box():
    st = TransitionStructure(["a", "b"], edges=[("a", "b")])
    full = frozenset(["a", "b"])

    def fake_box(E):
        return full if len(E) >= 1 else frozenset()

    def fake_diamond(E):
        return frozenset() if not E else frozenset(["a"])

    report = characterize_operators(st, fake_box, fake_diamond)
    assert not report["lemma_holds"]


def test_node_map_rejects_missing_and_foreign_images():
    src = TransitionStructure(["a", "b"], edges=[("a", "b")])
    tgt = TransitionStructure(["x", "y"], edges=[])
    with pytest.raises(ValueError, match="no image for node 'b'"):
        NodeMap(src, tgt, {"a": "x"})
    with pytest.raises(ValueError, match="image of 'b' not in target"):
        NodeMap(src, tgt, {"a": "x", "b": "z"})
