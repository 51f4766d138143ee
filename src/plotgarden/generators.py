"""Deterministic random instances for fuzzing and property tests.

Every generator takes a random.Random seeded from a string, draws only
on sorted sequences, and therefore reproduces the same instance for the
same seed on every run.
"""

import random

from .garden import (GardenMorphism, compose_garden_morphisms,
                     functor_F_arrow, identity_garden_morphism,
                     validate_garden)
from .plot import (Plot, PlotMap, classify_plot_map, functor_G_arrow,
                   functor_G_object, identity_plot_map, lift_operators,
                   validate_plot)
from .topology import ContinuousMap, set_name, validate_space
from .transition import NodeMap, TransitionStructure
from .adjunction import algebraic_unit, geometric_unit


class ProfileUnsatisfiable(ValueError):
    pass


class Profile:
    """Size bounds for generated instances."""

    def __init__(self, min_nodes=1, max_nodes=6, min_points=1, max_points=5,
                 edge_density=0.35, open_density=0.5):
        if not (1 <= min_nodes <= max_nodes):
            raise ProfileUnsatisfiable("bad node bounds %r..%r"
                                       % (min_nodes, max_nodes))
        if not (1 <= min_points <= max_points):
            raise ProfileUnsatisfiable("bad point bounds %r..%r"
                                       % (min_points, max_points))
        if min_points > max_nodes:
            raise ProfileUnsatisfiable(
                "a surjective valuation needs at least %d nodes but at most "
                "%d are allowed" % (min_points, max_nodes))
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.min_points = min_points
        self.max_points = max_points
        self.edge_density = edge_density
        self.open_density = open_density

    def __repr__(self):
        return ("Profile(nodes=%d..%d, points=%d..%d, edge_density=%g, "
                "open_density=%g)" % (self.min_nodes, self.max_nodes,
                                      self.min_points, self.max_points,
                                      self.edge_density, self.open_density))


def parse_profile(text):
    """Parse "k=v" or "k=lo..hi" clauses separated by commas."""
    kwargs = {}
    for clause in filter(None, (c.strip() for c in text.split(","))):
        if "=" not in clause:
            raise ProfileUnsatisfiable("bad profile clause %r" % (clause,))
        key, _, value = clause.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("nodes", "points"):
            lo, sep, hi = value.partition("..")
            try:
                lo_n = int(lo)
                hi_n = int(hi) if sep else lo_n
            except ValueError:
                raise ProfileUnsatisfiable("bad profile value %r" % (clause,))
            kwargs["min_" + key] = lo_n
            kwargs["max_" + key] = hi_n
        elif key in ("edge_density", "open_density"):
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ProfileUnsatisfiable("bad profile value %r" % (clause,))
        else:
            raise ProfileUnsatisfiable("unknown profile key %r" % (key,))
    return Profile(**kwargs)


def _close_topology(points, subbasis):
    """All unions of finite intersections of the subbasis, plus 0 and 1."""
    basis = {frozenset(points)}
    for s in subbasis:
        basis |= {frozenset(s) & b for b in basis}
    opens = {frozenset()}
    for b in basis:
        opens |= {o | b for o in opens}
    return opens


def random_space(rng, points, open_density=0.5):
    points = sorted(points)
    k = max(1, sum(rng.random() < open_density for _ in range(len(points) + 1)))
    subbasis = [frozenset(p for p in points if rng.random() < 0.5)
                for _ in range(k)]
    return validate_space(points, _close_topology(points, subbasis))


def random_structure(rng, nodes, edge_density=0.35):
    nodes = sorted(nodes)
    edges = [(a, b) for a in nodes for b in nodes
             if rng.random() < edge_density]
    return TransitionStructure(nodes, edges=edges)


def random_plot(rng, profile=None):
    profile = profile or Profile()
    n_nodes = rng.randint(max(profile.min_nodes, profile.min_points),
                          profile.max_nodes)
    n_points = rng.randint(profile.min_points,
                           min(profile.max_points, n_nodes))
    nodes = ["n%d" % i for i in range(n_nodes)]
    points = ["p%d" % i for i in range(n_points)]
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    targets = points[:]
    rng.shuffle(targets)
    valuation = {}
    for i, n in enumerate(shuffled):
        valuation[n] = targets[i] if i < n_points else rng.choice(targets)
    space = random_space(rng, points, profile.open_density)
    structure = random_structure(rng, nodes, profile.edge_density)
    return validate_plot(structure, space, valuation)


def random_garden(rng, profile=None):
    """A garden, either the lift of a plot or a lift over a quotient cover.

    Strategy (a) returns the canonical garden of a random plot, whose
    covering is the identity.  Strategy (b) keeps a random plot's lifted
    bed but covers a fresh space through the preimages of a random point
    map into the plot's space, which collapses open names and exercises
    non-identity coverings.
    """
    profile = profile or Profile()
    if rng.random() < 0.5:
        return functor_G_object(random_plot(rng, profile))
    base = random_plot(rng, profile)
    bed = lift_operators(base).bed
    fresh = ["q%d" % i for i in
             range(rng.randint(profile.min_points, profile.max_points))]
    base_points = sorted(base.space.points)
    psi = {p: rng.choice(base_points) for p in fresh}
    covering = {}
    opens = set()
    for V in base.space.sorted_opens():
        pre = frozenset(p for p in fresh if psi[p] in V)
        covering[set_name(V)] = pre
        opens.add(pre)
    space = validate_space(fresh, opens)
    return validate_garden(bed, space, covering)


def _pullback_map(rng, profile, full=False):
    """A plot map onto a random plot: copied nodes over the same space."""
    target = random_plot(rng, profile)
    tau = target.valuation
    phi_map = {}
    nodes = []
    for t in target.structure.nodes:
        for j in range(rng.randint(1, 2)):
            name = "%s_%d" % (t, j)
            nodes.append(name)
            phi_map[name] = t
    tgt_edges = target.structure.edges
    edges = [(a, b) for a in nodes for b in nodes
             if (phi_map[a], phi_map[b]) in tgt_edges
             and (full or rng.random() < 0.8)]
    sigma = {n: tau[phi_map[n]] for n in nodes}
    source = Plot(TransitionStructure(nodes, edges=edges), target.space, sigma)
    identity = {p: p for p in target.space.points}
    return PlotMap(source, target,
                   NodeMap(source.structure, target.structure, phi_map),
                   ContinuousMap(source.space, target.space, identity))


def random_lentile_map(rng, profile=None):
    """A plot map satisfying both health conditions.

    Drawn from identities, geometric units, functor images of garden
    morphisms, and random candidate maps kept only when classification
    confirms them.
    """
    profile = profile or Profile()
    kind = rng.randrange(4)
    if kind == 0:
        return identity_plot_map(random_plot(rng, profile))
    if kind == 1:
        return geometric_unit(random_plot(rng, profile))
    if kind == 2:
        return functor_F_arrow(algebraic_unit(random_garden(rng, profile)))
    for _ in range(20):
        candidate = _pullback_map(rng, profile)
        verdict = classify_plot_map(candidate)
        if verdict["is_plot_map"] and verdict["is_lentile"]:
            return candidate
    return _pullback_map(rng, profile, full=True)


def random_garden_morphism(rng, profile=None):
    profile = profile or Profile()
    kind = rng.randrange(4)
    if kind == 0:
        return identity_garden_morphism(random_garden(rng, profile))
    if kind == 1:
        return algebraic_unit(random_garden(rng, profile))
    if kind == 2:
        return functor_G_arrow(random_lentile_map(rng, profile))
    inner = algebraic_unit(random_garden(rng, profile))
    outer = algebraic_unit(inner.target)
    return compose_garden_morphisms(outer, inner)


_KINDS = ("plot", "garden", "plot_map", "garden_morphism")

_MAKERS = {
    "plot": random_plot,
    "garden": random_garden,
    "plot_map": random_lentile_map,
    "garden_morphism": random_garden_morphism,
}


def generate_instances(seed, profile=None, count=20):
    """Deterministic instance list cycling through all four kinds."""
    profile = profile or Profile()
    out = []
    for i in range(count):
        kind = _KINDS[i % len(_KINDS)]
        rng = random.Random("fuzz:%s:%d" % (seed, i))
        obj = _MAKERS[kind](rng, profile)
        out.append({"kind": kind, "name": "%s_%04d" % (kind, i),
                    "seed": seed, "index": i, "object": obj})
    return out


# ---------------------------------------------------------------------------
# Greedy shrinking for counterexample persistence.

def _rebuild_plot(plot, drop_node=None, drop_edge=None, drop_open=None):
    nodes = [n for n in plot.structure.nodes if n != drop_node]
    edges = [(a, b) for a, b in plot.structure.edges
             if a != drop_node and b != drop_node and (a, b) != drop_edge]
    valuation = {n: plot.valuation[n] for n in nodes}
    points = sorted(set(valuation.values()))
    if drop_node is None:
        points = sorted(plot.space.points)
    if drop_open is not None and frozenset(drop_open) <= set(points):
        opens = set(plot.space.opens) - {frozenset(drop_open)}
    else:
        opens = {frozenset(U) & frozenset(points) for U in plot.space.opens}
    space = validate_space(points, opens)
    return validate_plot(TransitionStructure(nodes, edges=edges),
                         space, valuation)


def _plot_candidates(plot):
    for n in plot.structure.nodes:
        yield lambda p=plot, n=n: _rebuild_plot(p, drop_node=n)
    for e in sorted(plot.structure.edges):
        yield lambda p=plot, e=e: _rebuild_plot(p, drop_edge=e)
    for U in plot.space.sorted_opens():
        if U and U != plot.space.full:
            yield lambda p=plot, U=U: _rebuild_plot(p, drop_open=U)


def _rebuild_garden(g, drop_point=None, drop_open=None):
    points = [p for p in g.space.points if p != drop_point]
    if drop_open is not None:
        opens = set(g.space.opens) - {frozenset(drop_open)}
    else:
        opens = {frozenset(U) & frozenset(points) for U in g.space.opens}
    space = validate_space(points, opens)
    covering = {x: g.alpha(x) & frozenset(points)
                for x in g.bed.frame.elements}
    return validate_garden(g.bed, space, covering)


def _garden_candidates(g):
    for p in sorted(g.space.points):
        yield lambda g=g, p=p: _rebuild_garden(g, drop_point=p)
    for U in g.space.sorted_opens():
        if U and U != g.space.full:
            yield lambda g=g, U=U: _rebuild_garden(g, drop_open=U)


def _rebuild_plot_map(m, new_target=None, drop_src_node=None,
                      drop_src_edge=None):
    target = new_target if new_target is not None else m.target
    phi_map = dict(m.node_map.mapping)
    nodes = [n for n in m.source.structure.nodes
             if n != drop_src_node and phi_map[n] in target.structure.nodes]
    edges = [(a, b) for a, b in m.source.structure.edges
             if a in nodes and b in nodes and (a, b) != drop_src_edge]
    sigma = {n: m.source.valuation[n] for n in nodes}
    source = validate_plot(TransitionStructure(nodes, edges=edges),
                           m.source.space, sigma)
    return PlotMap(source, target,
                   NodeMap(source.structure, target.structure,
                           {n: phi_map[n] for n in nodes}),
                   m.point_map)


def _plot_map_candidates(m):
    for n in m.source.structure.nodes:
        yield lambda m=m, n=n: _rebuild_plot_map(m, drop_src_node=n)
    for e in m.source.structure.edges:
        yield lambda m=m, e=e: _rebuild_plot_map(m, drop_src_edge=e)
    image = set(m.node_map.mapping.values())
    for t in m.target.structure.nodes:
        if t not in image:
            yield (lambda m=m, t=t:
                   _rebuild_plot_map(m, new_target=_rebuild_plot(
                       m.target, drop_node=t)))
    for e in m.target.structure.edges:
        yield (lambda m=m, e=e:
               _rebuild_plot_map(m, new_target=_rebuild_plot(
                   m.target, drop_edge=e)))


def _rebuild_garden_morphism(gm, new_source=None, new_target=None):
    # the beds stay, so the frame map does; the point map is restricted
    # to the target's points and must land in the source's
    source = new_source if new_source is not None else gm.source
    target = new_target if new_target is not None else gm.target
    pm = {q: gm.point_map(q) for q in target.space.points}
    if not set(pm.values()) <= source.space.full:
        raise ValueError("the point map leaves the shrunk source")
    return GardenMorphism(source, target, gm.frame_map,
                          ContinuousMap(target.space, source.space, pm))


def _garden_morphism_candidates(gm):
    for make in _garden_candidates(gm.source):
        yield (lambda gm=gm, make=make:
               _rebuild_garden_morphism(gm, new_source=make()))
    for make in _garden_candidates(gm.target):
        yield (lambda gm=gm, make=make:
               _rebuild_garden_morphism(gm, new_target=make()))


def _candidates(kind, obj):
    if kind == "plot":
        return _plot_candidates(obj)
    if kind == "garden":
        return _garden_candidates(obj)
    if kind == "plot_map":
        return _plot_map_candidates(obj)
    if kind == "garden_morphism":
        return _garden_morphism_candidates(obj)
    return iter(())


_SHRINK_ROUNDS = 40


def shrink_instance(kind, obj, still_fails):
    """Greedily drop parts while the failure persists, for at most
    _SHRINK_ROUNDS accepted candidates.

    A candidate that cannot be built, or on which still_fails raises
    rather than answering, is skipped.
    """
    for _ in range(_SHRINK_ROUNDS):
        for make in _candidates(kind, obj):
            try:
                candidate = make()
            except Exception:
                continue
            try:
                failing = still_fails(candidate)
            except Exception:
                continue
            if failing:
                obj = candidate
                break
        else:
            return obj
    return obj
