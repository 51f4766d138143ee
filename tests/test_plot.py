import random

import pytest
from hypothesis import given, settings, strategies as st

from plotgarden.plot import (NotLentile, Plot, PlotError, ValuationNotTotal,
                             ValuationNotSurjective, _groups_are_fibres,
                             _recheck_lift_nodewise,
                             classify_plot_map, compose_plot_maps,
                             functor_G_arrow, functor_G_object,
                             identity_plot_map, lift_operators)
from plotgarden.garden import check_garden_morphism, lift_report
from plotgarden.topology import set_name, topology_frame
from plotgarden.transition import TransitionStructure
from plotgarden.generators import Profile, _pullback_map, random_plot
from plotgarden.adjunction import geometric_unit
from plotgarden.workspace import parse_workspace
from conftest import FIXTURES, build_map, build_plot
from references import box, diamond


def test_valuation_must_be_total_and_surjective(sierp_space):
    structure = TransitionStructure(["a"], edges=[])
    with pytest.raises(ValuationNotTotal):
        Plot(structure, sierp_space, {})
    with pytest.raises(ValuationNotSurjective):
        Plot(structure, sierp_space, {"a": "P"})
    with pytest.raises(PlotError):
        Plot(structure, sierp_space, {"a": "zz"})
    admitted = Plot(structure, sierp_space, {"a": "P"}, _allow_unrooted=True)
    assert admitted.unrooted_points == frozenset(["Q"])
    assert not admitted.surjective


def test_lift_on_sierpinski(sierp_plot):
    bed = lift_operators(sierp_plot)
    assert bed.box == {"{}": "{Q}", "{Q}": "{P,Q}", "{P,Q}": "{P,Q}"}
    assert bed.diamond == {"{}": "{}", "{Q}": "{}", "{P,Q}": "{}"}
    records = lift_report(sierp_plot)
    assert all(r["passed"] for r in records)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lift_matches_powerset_definition(seed):
    rng = random.Random("lift:%d" % seed)
    plot = random_plot(rng)
    bed = lift_operators(plot)
    st = plot.structure
    opens = plot.space.sorted_opens()
    pre = {set_name(U): frozenset(n for n in plot.structure.nodes
                                  if plot.valuation[n] in U) for U in opens}
    for U in opens:
        uname = set_name(U)
        box_pre = box(st, pre[uname])
        dia_pre = diamond(st, pre[uname])
        box_u = frozenset().union(
            *[V for V in opens if pre[set_name(V)] <= box_pre])
        dia_u = frozenset().union(
            *[V for V in opens if pre[set_name(V)] <= dia_pre])
        assert bed.box[uname] == set_name(box_u)
        assert bed.diamond[uname] == set_name(dia_u)
        # laxity of the valuation preimage, by definition
        assert pre[bed.box[uname]] <= box_pre
        assert pre[bed.diamond[uname]] <= dia_pre
        # the defining biconditional, on every open pair
        for V in opens:
            assert (pre[set_name(V)] <= box_pre) == (V <= box_u)
            assert (pre[set_name(V)] <= dia_pre) == (V <= dia_u)


def test_nodewise_recheck_rejects_a_lax_table_that_is_not_largest():
    # a table of empty opens is lax, so LAW.220J passes it; only the
    # nodewise recheck sees that the lift of {Q} under box is not the largest
    plot = parse_workspace(FIXTURES.read_text()).resolve("sierp")
    bed = lift_operators(plot)
    box, diamond = bed.box, bed.diamond
    calls = []
    _recheck_lift_nodewise(plot, bed.frame, box, diamond, calls.append)
    assert calls == []
    empty = {U: "{}" for U in box}
    _recheck_lift_nodewise(plot, bed.frame, empty, diamond, calls.append)
    assert calls and all(c.startswith("nodewise box recheck fails")
                         for c in calls)


def test_classify_tight(tight_map):
    verdict = classify_plot_map(tight_map)
    assert verdict["is_plot_map"]
    assert verdict["up_condition"]
    assert verdict["minus_condition"]
    assert verdict["is_lentile"]


def test_classify_homeo(homeo_map):
    verdict = classify_plot_map(homeo_map)
    assert verdict["is_plot_map"]
    assert not verdict["up_condition"]
    assert not verdict["minus_condition"]
    assert not verdict["is_lentile"]
    assert verdict["witnesses"]["up"] == ("P", "Q")
    assert verdict["witnesses"]["minus"] == ("P", "Q", "{Q}")
    assert verdict["witnesses"]["lentile"] == ("P", "Q")


def test_classify_square_failure(sierp_space, sierp_plot):
    flat = build_plot(["a", "b"], [], sierp_space, {"a": "P", "b": "Q"})
    broken = build_map(flat, sierp_plot, {"a": "Q", "b": "Q"},
                       {"P": "P", "Q": "Q"})
    verdict = classify_plot_map(broken)
    assert not verdict["is_plot_map"]
    assert verdict["witnesses"]["square"] == "a"


def test_classify_lost_transition(sierp_space, sierp_plot):
    # the harvest's node groups are its valuation fibres, so preservation
    # is read off the valued images; its explicit copy is tested edge by
    # edge, with the same verdict
    unit = geometric_unit(sierp_plot)
    harvested = unit.target
    copy = Plot(TransitionStructure(harvested.structure.nodes,
                                    edges=harvested.structure.edges),
                sierp_space, harvested.valuation)
    assert copy.structure == harvested.structure
    assert _groups_are_fibres(harvested) and not _groups_are_fibres(copy)
    backwards = build_plot(["P", "Q"], [("Q", "P")], sierp_space,
                           {"P": "P", "Q": "Q"})
    identity = {"P": "P", "Q": "Q"}
    for target in (harvested, copy):
        kept = classify_plot_map(build_map(sierp_plot, target,
                                           unit.node_map.mapping, identity))
        assert kept == classify_plot_map(unit)
        assert kept["is_plot_map"] and kept["is_lentile"]
        lost = classify_plot_map(build_map(backwards, target,
                                           unit.node_map.mapping, identity))
        assert not lost["is_plot_map"]
        assert lost["is_lentile"] is None
        assert lost["witnesses"] == {"edge": ("Q", "P")}


def test_classify_lost_transition_within_a_fibre(point_space):
    # Q and R share the one point, so their valued images cannot tell
    # that P -> P goes to Q -> Q, which is no transition
    source = build_plot(["P"], [("P", "P")], point_space, {"P": "s"})
    target = build_plot(["Q", "R"], [("Q", "R")], point_space,
                        {"Q": "s", "R": "s"})
    assert not _groups_are_fibres(target)
    verdict = classify_plot_map(build_map(source, target, {"P": "Q"},
                                          {"s": "s"}))
    assert not verdict["is_plot_map"]
    assert verdict["witnesses"] == {"edge": ("P", "P")}


def test_classify_lost_transition_in_a_group_that_is_no_fibre(sierp_space):
    # as many groups as points, but group x holds a node at each point,
    # so a's successor c stands for all of Q and the images cannot tell
    # that u -> v goes to a -> b, which is no transition
    target = Plot(TransitionStructure({"x": ["a", "b"], "y": ["c"]},
                                      succ={"a": {"y"}}),
                  sierp_space, {"a": "P", "b": "Q", "c": "Q"})
    assert not _groups_are_fibres(target)
    source = build_plot(["u", "v"], [("u", "v")], sierp_space,
                        {"u": "P", "v": "Q"})
    verdict = classify_plot_map(build_map(source, target,
                                          {"u": "a", "v": "b"},
                                          {"P": "P", "Q": "Q"}))
    assert not verdict["is_plot_map"]
    assert verdict["witnesses"] == {"edge": ("u", "v")}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lentile_iff_both_conditions(seed):
    rng = random.Random("cand:%d" % seed)
    m = _pullback_map(rng, Profile())
    verdict = classify_plot_map(m)
    assert verdict["is_plot_map"]
    assert verdict["is_lentile"] == (verdict["up_condition"]
                                     and verdict["minus_condition"])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lentile_composes(seed):
    rng = random.Random("comp:%d" % seed)
    m = _pullback_map(rng, Profile(), full=True)
    unit = geometric_unit(m.target)
    composite = compose_plot_maps(unit, m)
    verdict = classify_plot_map(composite)
    assert verdict["is_plot_map"] and verdict["is_lentile"]


def test_identity_and_composition(tight_map):
    ident = identity_plot_map(tight_map.source)
    assert compose_plot_maps(tight_map, ident) == tight_map
    assert compose_plot_maps(identity_plot_map(tight_map.target),
                             tight_map) == tight_map


def test_functor_G_object_identity_covering(sierp_plot):
    g = functor_G_object(sierp_plot)
    fr = topology_frame(sierp_plot.space)
    assert list(g.bed.frame.elements) == list(fr.elements)
    assert g.space == sierp_plot.space
    for x in g.bed.frame.elements:
        assert g.alpha(x) == fr.set_of(x)
    assert g.bed.box == {"{}": "{Q}", "{Q}": "{P,Q}", "{P,Q}": "{P,Q}"}
    assert functor_G_object(sierp_plot) is g  # cached


def test_functor_G_arrow_on_tight(tight_map):
    gm = functor_G_arrow(tight_map)
    assert gm.source.space == tight_map.target.space
    assert gm.target.space == tight_map.source.space
    assert check_garden_morphism(gm)["passed"]


def test_functor_G_arrow_rejects_non_lentile(homeo_map):
    with pytest.raises(NotLentile):
        functor_G_arrow(homeo_map)
