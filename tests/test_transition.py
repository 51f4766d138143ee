import itertools
import random

import pytest

from plotgarden.transition import NodeMap, TransitionStructure
from references import box, classify_node_map, diamond, subsets


def random_structure(label):
    rng = random.Random(label)
    nodes = ["n%d" % k for k in range(rng.randint(1, 5))]
    edges = [(a, b) for a in nodes for b in nodes if rng.random() < 0.4]
    return TransitionStructure(nodes, edges=edges)


def test_structure_normalizes_and_validates():
    st = TransitionStructure(["b", "a"], edges=[("a", "b"), ("a", "b")])
    assert st.nodes == ("a", "b")
    assert st.succ["a"] == frozenset(["b"])
    assert st.edges == (("a", "b"),)
    with pytest.raises(ValueError):
        TransitionStructure(["a"], edges=[("a", "zz")])


def test_grouped_structure_expands_its_groups():
    # a and b form group x, c group y: successor sets are unions of groups
    grouped = TransitionStructure({"x": ["a", "b"], "y": ["c"]},
                                  succ={"a": {"y"}, "b": {"x", "y"}})
    assert grouped.nodes == ("a", "b", "c")
    assert grouped.steps["c"] == frozenset()
    assert grouped.succ["a"] == frozenset(["c"])
    assert grouped.successors("b") == frozenset(["a", "b", "c"])
    assert grouped.succ["c"] == frozenset()
    assert grouped.edges == (("a", "c"), ("b", "a"), ("b", "b"), ("b", "c"))
    assert repr(grouped) == "TransitionStructure(3 nodes, 4 edges)"
    by_edges = TransitionStructure({"x": ["a", "b"], "y": ["c"]},
                                   edges=[("a", "y"), ("b", "x"), ("b", "y")])
    assert by_edges == grouped
    explicit = TransitionStructure(grouped.nodes, edges=grouped.edges)
    assert explicit == grouped and grouped == explicit
    assert explicit.succ == grouped.succ
    assert TransitionStructure(grouped.nodes,
                               edges=grouped.edges[1:]) != grouped
    for bad in ({"x": ["a"], "y": ["a"]}, {"x": ["a"], "y": []}):
        with pytest.raises(ValueError):
            TransitionStructure(bad, succ={})
    with pytest.raises(ValueError):
        TransitionStructure({"x": ["a"]}, succ={"a": {"a"}})
    with pytest.raises(ValueError):
        TransitionStructure({"x": ["a"]}, edges=[("a", "a")])


def test_operators_match_definitions():
    for i in range(30):
        st = random_structure("ops:%d" % i)
        full = frozenset(st.nodes)
        for E in subsets(st.nodes):
            assert box(st, E) == frozenset(
                n for n in st.nodes if all(m in E for m in st.succ[n]))
            assert diamond(st, E) == full - box(st, full - E)


def test_operators_monotone_and_multiplicative():
    st = TransitionStructure(["a", "b", "c"],
                             edges=[("a", "b"), ("b", "c"), ("c", "a")])
    every = list(subsets(st.nodes))
    for E in every:
        for F in every:
            assert box(st, E & F) == box(st, E) & box(st, F)
            if E <= F:
                assert diamond(st, E) <= diamond(st, F)
            assert box(st, E) & diamond(st, F) <= diamond(st, E & F)


def test_operators_preserve_meets_and_joins_and_determine_the_relation():
    # the lemma: box preserves all intersections and diamond all unions,
    # the empty ones included, and P -> Q iff P is in diamond({Q})
    # rebuilds a relation that regenerates both operators
    for i in range(30):
        st = random_structure("lemma:%d" % i)
        full = frozenset(st.nodes)
        every = list(subsets(st.nodes))
        assert box(st, full) == full
        assert diamond(st, frozenset()) == frozenset()
        for E, F in itertools.combinations(every, 2):
            assert box(st, E & F) == box(st, E) & box(st, F)
            assert diamond(st, E | F) == diamond(st, E) | diamond(st, F)
        relation = [(p, q) for p in st.nodes for q in st.nodes
                    if p in diamond(st, {q})]
        rebuilt = TransitionStructure(st.nodes, edges=relation)
        assert rebuilt == st
        for E in every:
            assert box(rebuilt, E) == box(st, E)
            assert diamond(rebuilt, E) == diamond(st, E)


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


def test_node_map_rejects_missing_and_foreign_images():
    src = TransitionStructure(["a", "b"], edges=[("a", "b")])
    tgt = TransitionStructure(["x", "y"], edges=[])
    with pytest.raises(ValueError, match="no image for node 'b'"):
        NodeMap(src, tgt, {"a": "x"})
    with pytest.raises(ValueError, match="image of 'b' not in target"):
        NodeMap(src, tgt, {"a": "x", "b": "z"})
