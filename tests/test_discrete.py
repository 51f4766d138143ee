"""Known answers from the discrete case.

Over a discrete space with the identity valuation, the garden of a plot
is a finite Boolean algebra with operators, and the adjunction reduces
to the duality between finite Kripke frames and modal algebras: the
harvest has one flower per point, the geometric unit is an isomorphism
of structures, and the Boolean spectrum of the lifted box gives back the
relation.  The frames here have 8 to 256 elements, beyond the oracles'
caps.
"""

import functools
import itertools
import random

import pytest

from plotgarden import cli
from plotgarden.adjunction import geometric_unit
from plotgarden.garden import harvest
from plotgarden.plot import Plot, functor_G_object, lift_operators
from plotgarden.topology import set_name, topology_frame, validate_space
from plotgarden.transition import TransitionStructure
from conftest import build_space
from references import NotBoolean, spec_boolean


SIZES = [3, 5, 7, 8]


@functools.lru_cache(maxsize=None)
def discrete_plot(n):
    rng = random.Random("discrete:%d" % n)
    points = ["p%d" % i for i in range(n)]
    edges = [(a, b) for a in points for b in points if rng.random() < 0.4]
    opens = [frozenset(c) for r in range(n + 1)
             for c in itertools.combinations(points, r)]
    space = validate_space(points, opens)
    return Plot(TransitionStructure(points, edges=edges), space,
                {p: p for p in points})


@pytest.mark.parametrize("n", SIZES)
def test_harvest_has_one_flower_per_point(n):
    plot = discrete_plot(n)
    flowers = harvest(functor_G_object(plot)).structure.nodes
    assert len(flowers) == n
    assert sorted(fl.root for fl in flowers) == sorted(plot.space.points)


@pytest.mark.parametrize("n", SIZES)
def test_geometric_unit_is_an_isomorphism(n):
    plot = discrete_plot(n)
    unit = geometric_unit(plot)
    image = unit.node_map.mapping
    source, target = plot.structure, unit.target.structure
    assert sorted(image.values(), key=repr) == sorted(target.nodes, key=repr)
    for a in source.nodes:
        for b in source.nodes:
            assert (b in source.succ[a]) == (image[b] in target.succ[image[a]])


@pytest.mark.parametrize("n", SIZES)
def test_plot_law_suite_passes(n):
    records = cli.law_suite("plot", discrete_plot(n))
    assert records and all(r["passed"] for r in records)


# spec_boolean searches complements pairwise, so the 256-element case is left out
@pytest.mark.parametrize("n", [n for n in SIZES if n <= 7])
def test_boolean_spectrum_rebuilds_the_relation(n):
    plot = discrete_plot(n)
    lifted = lift_operators(plot)
    rebuilt = spec_boolean(lifted.frame, lifted.box_sigma)
    atom = {p: set_name([p]) for p in plot.space.points}
    assert sorted(rebuilt.structure.edges) == sorted(
        (atom[a], atom[b]) for a, b in plot.structure.edges)


def test_boolean_to_plot():
    square = build_space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    B = topology_frame(square)
    plot = spec_boolean(B, {x: x for x in B.elements})
    assert plot.structure.nodes == ("{a}", "{b}")
    assert plot.structure.edges == (("{a}", "{a}"), ("{b}", "{b}"))
    assert len(plot.space.opens) == 4
    assert plot.valuation == {"{a}": "{a}", "{b}": "{b}"}

    blind = spec_boolean(B, {x: "{a,b}" for x in B.elements})
    assert blind.structure.edges == ()

    chain = topology_frame(build_space(["P", "Q"], [[], ["Q"], ["P", "Q"]]))
    with pytest.raises(NotBoolean) as info:
        spec_boolean(chain, {x: x for x in chain.elements})
    assert info.value.witness == "{Q}"
