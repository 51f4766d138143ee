"""Reference definitions that tests compare the package against.

The package uses none of these.  They are the textbook forms: box and
diamond over node subsets, the transition-morphism and simulation
verdicts of a node map, the plot that a finite Boolean algebra induces
through a box table, and a frame's order read off its up sets alone,
with the laws the package checks on int masks restated over it.  The
space operators, the topology check, the lift, the map classification
and the harvest also appear here in the forms that scan every open, every
pair of opens or points, and every candidate flower; the package decides
them with per-point tables.  LAW.240B over every candidate flower, the
filter transfers re-checked against their set definitions, and the map
classification on frozensets of points are kept in the forms the package
used before it decided them per pattern and on masks, and so are the
point filters, the pattern table and the transition region over the
covering's point sets.
"""

import itertools
import operator

from plotgarden import garden as garden_mod
from plotgarden.garden import Flower, harvest, point_filters
from plotgarden.generators import _close_topology
from plotgarden.lattice import Filter, NotAFilter, right_adjoint
from plotgarden.plot import _groups_are_fibres, _successor_images, validate_plot
from plotgarden.topology import set_name, topology_frame, validate_space
from plotgarden.transition import TransitionStructure


def subsets(items):
    items = sorted(set(items), key=str)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def box(structure, E):
    """The nodes all of whose successors lie in E."""
    E = frozenset(E)
    return frozenset(n for n in structure.nodes if structure.succ[n] <= E)


def diamond(structure, E):
    """The nodes with at least one successor in E."""
    E = frozenset(E)
    return frozenset(n for n in structure.nodes if structure.succ[n] & E)


def classify_node_map(nm):
    """Transition-morphism and simulation verdicts with first witnesses.

    Morphism: every source edge P -> Q maps to an edge Phi(P) -> Phi(Q).
    Simulation: a morphism where each edge Phi(P) -> R out of an image is
    matched by some P -> Q with Phi(Q) = R.
    """
    src, tgt, f = nm.source, nm.target, nm.mapping
    report = {"is_transition_morphism": True, "is_simulation": True,
              "witnesses": {}}
    for p in src.nodes:
        for q in sorted(src.succ[p], key=str):
            if f[q] not in tgt.succ[f[p]]:
                report["is_transition_morphism"] = False
                report["witnesses"]["morphism"] = (p, q)
                break
        if not report["is_transition_morphism"]:
            break
    for p in src.nodes:
        images = frozenset(f[q] for q in src.succ[p])
        missing = sorted(tgt.succ[f[p]] - images, key=str)
        if missing:
            report["is_simulation"] = False
            report["witnesses"]["simulation"] = (p, missing[0])
            break
    if not report["is_transition_morphism"]:
        report["is_simulation"] = False
    return report


class NotBoolean(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("element %r has no complement" % (witness,))


def spec_boolean(B, box):
    """The plot a finite Boolean algebra induces through a box table.

    Nodes are the principal prime filters, one per atom; there is an
    edge from p to q exactly when everything forced by box at p already
    sits above q; the space carries the topology generated by the
    supports of the algebra's elements, which for a finite algebra is
    discrete; the valuation is the identity.
    """
    for x in B.elements:
        if not any(B.meet(x, c) == B.bottom and B.join(x, c) == B.top
                   for c in B.elements):
            raise NotBoolean(x)
    atoms = [a for a in B.elements
             if a != B.bottom and B.down(a) == frozenset((B.bottom, a))]
    atoms.sort(key=str)
    edges = []
    for p in atoms:
        forced = B.meet_all([b for b in B.elements if B.le(p, box[b])])
        edges.extend((p, q) for q in atoms if B.le(q, forced))
    subbasis = [frozenset(a for a in atoms if B.le(a, b)) for b in B.elements]
    space = validate_space(atoms, _close_topology(atoms, subbasis))
    structure = TransitionStructure(atoms, edges=edges)
    return validate_plot(structure, space, {a: a for a in atoms})


class Order:
    """A finite lattice given by its up sets alone.

    le, meet and join follow their definitions: a meet is the common
    lower bound that has every other one below it, found as the element
    whose down-set is the set of common lower bounds; dually for joins.
    """

    def __init__(self, up):
        self.elements = tuple(up)
        self.up = {x: frozenset(ys) for x, ys in up.items()}
        self.down = {x: frozenset(y for y in up if x in self.up[y])
                     for x in up}
        self._greatest = {d: x for x, d in self.down.items()}
        self._least = {u: x for x, u in self.up.items()}
        self.top = self.meet_all([])
        self.bottom = self.join_all([])

    @classmethod
    def of_frame(cls, frame):
        return cls({x: frame.up(x) for x in frame.elements})

    @classmethod
    def of_space(cls, space):
        """The opens of space under inclusion, by their canonical names,
        in the order of those names."""
        return cls({set_name(V): [set_name(W) for W in space.opens if V <= W]
                    for V in sorted(space.opens, key=set_name)})

    def le(self, a, b):
        return b in self.up[a]

    def meet(self, a, b):
        return self._greatest[self.down[a] & self.down[b]]

    def join(self, a, b):
        return self._least[self.up[a] & self.up[b]]

    def meet_all(self, xs):
        lower = frozenset(self.elements).intersection(
            *(self.down[x] for x in xs))
        return self._greatest[lower]

    def join_all(self, xs):
        upper = frozenset(self.elements).intersection(
            *(self.up[x] for x in xs))
        return self._least[upper]


def bed_law_witnesses(bed, order):
    """The first witness of each broken bed law, the elements scanned in
    order's order: box keeps the top and meets, diamond is monotone, and
    box(x) ^ diamond(y) <= diamond(x ^ y)."""
    box, dia = bed.box, bed.diamond
    out = []
    if box[order.top] != order.top:
        out.append(("box-top", "box(%r)=%r" % (order.top, box[order.top])))
    meet_w = mono_w = mixed_w = None
    for x in order.elements:
        for y in order.elements:
            m = order.meet(x, y)
            if meet_w is None and box[m] != order.meet(box[x], box[y]):
                meet_w = "x=%r y=%r" % (x, y)
            if mono_w is None and order.le(x, y) and not order.le(
                    dia[x], dia[y]):
                mono_w = "x=%r y=%r" % (x, y)
            if mixed_w is None and not order.le(
                    order.meet(box[x], dia[y]), dia[m]):
                mixed_w = "x=%r y=%r" % (x, y)
    for law, witness in (("box-meet", meet_w), ("diamond-monotone", mono_w),
                         ("mixed-law", mixed_w)):
        if witness:
            out.append((law, witness))
    return out


def check_frame_morphism(mapping, source, target):
    """The verdict of lattice.check_frame_morphism, from two orders."""
    f = dict(mapping)
    violations = []
    if f[source.top] != target.top:
        violations.append(("top", source.top))
    if f[source.bottom] != target.bottom:
        violations.append(("bottom", source.bottom))
    for law in ("meet", "join"):
        src_op, tgt_op = getattr(source, law), getattr(target, law)
        for a, b in itertools.product(source.elements, repeat=2):
            if f[src_op(a, b)] != tgt_op(f[a], f[b]):
                violations.append((law, (a, b)))
                break
    return {"is_frame_morphism": not violations,
            "is_surjective": set(f.values()) == set(target.elements),
            "violations": violations}


def health_bounds(g, order, W):
    """The meet of the elements whose covering holds the live root set W,
    and the join of those whose covering misses it."""
    return (order.meet_all([x for x in order.elements if W <= g.alpha(x)]),
            order.join_all([x for x in order.elements
                            if not g.alpha(x) & W]))


def harvest_patterns(g, order):
    """The stalk/bloom patterns that survive pruning in rounds against
    the live roots, health judged by health_bounds."""
    roots_of = {}
    for fl in enumerate_flowers(g):
        roots_of.setdefault((fl.stalk, fl.bloom.generator), set()).add(
            fl.root)
    alive = set(roots_of)
    live = frozenset().union(*roots_of.values())
    bounds = {}
    while True:
        kept = set()
        for a, c in alive:
            W = (g.alpha(c) - g.alpha(a)) & live
            if W not in bounds:
                bounds[W] = health_bounds(g, order, W)
            m, M = bounds[W]
            if order.le(c, m) and order.le(M, a):
                kept.add((a, c))
        alive = kept
        roots = frozenset().union(*(roots_of[key] for key in alive))
        if roots == live:
            return alive
        live = roots


def healthy_witness(g, order, flowers):
    """The first health violation of garden.healthy_witness, by order."""
    roots = frozenset(fl.root for fl in flowers)
    for fl in sorted(flowers, key=repr):
        a, c = fl.stalk, fl.bloom.generator
        W = (g.alpha(c) - g.alpha(a)) & roots
        for x in order.elements:
            if not order.le(c, x) and W <= g.alpha(x):
                return (fl, x, "no transition escapes it")
            if not order.le(x, a) and not g.alpha(x) & W:
                return (fl, x, "no transition reaches it")
    return None


# -- scans over every open, pair and candidate flower -----------------------

def sorted_opens(space):
    return sorted(space.opens, key=lambda o: (len(o), set_name(o)))


def closure(space, E):
    """Shave off every open missing E."""
    E = frozenset(E)
    return space.full - frozenset().union(*(V for V in space.opens if not V & E))


def interior(space, E):
    E = frozenset(E)
    return frozenset().union(*(V for V in space.opens if V <= E))


def specialization(space):
    """The pairs (p, q) such that every open holding p holds q."""
    return frozenset((p, q) for p, q in itertools.product(space.points, repeat=2)
                     if all(q in V for V in space.opens if p in V))


def saturation(space, E):
    order = specialization(space)
    return frozenset(q for q in space.points if any((p, q) in order for p in E))


def lens(space, E):
    return saturation(space, E) & closure(space, E)


def topology_defect(points, opens):
    """The message validate_space raises for a family of subsets, or None
    when it is a topology: the first missing union or intersection of a
    pair of members, in name order."""
    opens = frozenset(map(frozenset, opens))
    full = frozenset(points)
    for V in opens:
        if not V <= full:
            return "open %s is not a subset of the points" % set_name(V)
    if frozenset() not in opens:
        return "missing the empty set"
    if full not in opens:
        return "missing the full point set %s" % set_name(full)
    for U, V in itertools.combinations(sorted(opens, key=set_name), 2):
        if U | V not in opens:
            return "missing union %s" % set_name(U | V)
        if U & V not in opens:
            return "missing intersection %s" % set_name(U & V)
    return None


def transitivity_defect(elements, leq):
    """The message validate_frame raises for a reflexive, antisymmetric
    relation that is not transitive, or None: the first triple in the
    order of the relation's pair set."""
    elements = sorted(set(elements), key=str)
    pairs = set()
    for a, b in leq:
        pairs.add((a, b))
    for a, b in pairs:
        for c in elements:
            if (b, c) in pairs and (a, c) not in pairs:
                return "not transitive via %r" % ((a, b, c),)
    return None


def eligible_points(plot):
    """Per open name, the point masks eligible for box and for diamond:
    the points all of whose nodes' valued successor images lie inside,
    or meet, the open."""
    frame = topology_frame(plot.space)
    sigma, succ = plot.valuation, plot.structure.succ
    images = {p: {frame.mask_of(sigma[s] for s in succ[n])
                  for n in plot.structure.nodes if sigma[n] == p}
              for p in plot.space.points}
    return {U: (sum(frame.bit[p] for p, ms in images.items()
                    if all(m & u == m for m in ms)),
                sum(frame.bit[p] for p, ms in images.items()
                    if all(m & u for m in ms)))
            for U, u in frame.mask.items()}


def lift(plot):
    """The lifted box and diamond tables by open name: the join of every
    open inside the eligible points."""
    frame = topology_frame(plot.space)
    box, diamond = {}, {}
    for U, (B, D) in eligible_points(plot).items():
        box[U], diamond[U] = (frame.join_all(V for V, v in frame.mask.items()
                                             if v & E == v) for E in (B, D))
    return box, diamond


def lift_defect(plot, box, diamond):
    """The first failure of the lift's biconditional over every pair of
    opens, as lift_operators words it, or None."""
    frame = topology_frame(plot.space)
    opens = frame.mask
    for U, (B, D) in eligible_points(plot).items():
        box_u, dia_u = opens[box[U]], opens[diamond[U]]
        for V, v in opens.items():
            if (v & B == v) != (v & box_u == v):
                return "box biconditional fails at U=%s V=%s" % (U, V)
            if (v & D == v) != (v & dia_u == v):
                return "diamond biconditional fails at U=%s V=%s" % (U, V)
    return None


def classify_plot_map(m):
    """plot.classify_plot_map's report, with up and minus scanned over
    the specialization pairs and every open, and the lens by its scans."""
    src, tgt = m.source, m.target
    sigma, tau = src.valuation, tgt.valuation
    Phi, phi = m.node_map.mapping, m.point_map.mapping
    report = {"is_plot_map": True, "up_condition": None,
              "minus_condition": None, "is_lentile": None, "witnesses": {}}
    for n in src.structure.nodes:
        if phi[sigma[n]] != tau[Phi[n]]:
            report["is_plot_map"] = False
            report["witnesses"]["square"] = n
            return report
    for P in src.structure.nodes:
        out = tgt.structure.succ[Phi[P]]
        lost = [R for R in src.structure.succ[P] if Phi[R] not in out]
        if lost:
            report["is_plot_map"] = False
            report["witnesses"]["edge"] = (P, min(lost, key=str))
            return report

    T = tgt.space
    order = specialization(T)
    opens = sorted_opens(T)
    held = {"up": True, "minus": True, "lentile": True}
    for P in src.structure.nodes:
        E = frozenset(phi[sigma[s]] for s in src.structure.succ[P])
        W2 = frozenset(tau[R] for R in tgt.structure.succ[Phi[P]])
        found = {}
        for r in sorted(W2, key=str):
            if "up" not in found and not any((s, r) in order for s in E):
                found["up"] = (r,)
            if "minus" not in found:
                V = next((V for V in opens if r in V and not V & E), None)
                if V is not None:
                    found["minus"] = (r, set_name(V))
        outside = sorted(W2 - lens(T, E), key=str)
        if outside:
            found["lentile"] = (outside[0],)
        for law in ("up", "minus", "lentile"):
            if law in found and held[law]:
                r, *rest = found[law]
                held[law] = False
                R = next(R for R in sorted(tgt.structure.succ[Phi[P]], key=str)
                         if tau[R] == r)
                report["witnesses"][law] = (P, R, *rest)
    report["up_condition"] = held["up"]
    report["minus_condition"] = held["minus"]
    report["is_lentile"] = held["lentile"]
    return report


def enumerate_flowers(g):
    """Every candidate flower, point by point: the stalks in pdd(p) and
    the blooms below pbb(p)'s generator, each by name."""
    fr = g.bed.frame
    flowers = []
    for p in g.space.points:
        pf = point_filters(g, p)
        blooms = [Filter(fr, c)
                  for c in sorted(fr.down(pf["pbb"].generator), key=str)]
        flowers += [Flower(p, a, bloom)
                    for a in sorted(pf["pdd"], key=str) for bloom in blooms]
    return flowers


def harvest_flowers(g):
    """The surviving flowers of garden.harvest, in its order, pruned in
    rounds over the enumerated candidates with each health bound folded
    over every element."""
    fr = g.bed.frame
    flowers = enumerate_flowers(g)
    live = frozenset(fl.root for fl in flowers)
    alive = {(fl.stalk, fl.bloom.generator) for fl in flowers}
    bounds = {}
    while True:
        kept = set()
        for a, c in alive:
            W = (g.alpha(c) - g.alpha(a)) & live
            if W not in bounds:
                bounds[W] = (
                    fr.meet_all([x for x in fr.elements if W <= g.alpha(x)]),
                    fr.join_all([x for x in fr.elements if not g.alpha(x) & W]))
            m, M = bounds[W]
            if fr.le(c, m) and fr.le(M, a):
                kept.add((a, c))
        alive = kept
        roots = frozenset(fl.root for fl in flowers
                          if (fl.stalk, fl.bloom.generator) in alive)
        if roots == live:
            return [fl for fl in flowers
                    if (fl.stalk, fl.bloom.generator) in alive]
        live = roots


def frame_morphism_pairs(mapping, source, target):
    """lattice.check_frame_morphism's verdict, scanning every pair of
    source masks for each law."""
    f = dict(mapping)
    violations = []
    if f[source.top] != target.top:
        violations.append(("top", source.top))
    if f[source.bottom] != target.bottom:
        violations.append(("bottom", source.bottom))
    rows = [(a, m, target.mask[f[a]]) for a, m in source.mask.items()]
    image_of = {m: i for _, m, i in rows}
    for law, op in (("meet", operator.and_), ("join", operator.or_)):
        bad = next(((a, b) for a, m, i in rows for b, n, j in rows
                    if image_of[op(m, n)] != op(i, j)), None)
        if bad:
            violations.append((law, bad))
    return {"is_frame_morphism": not violations,
            "is_surjective": set(f.values()) == set(target.elements),
            "violations": violations}


# -- LAW.240B, filter transfers and the classification on sets --------------

def flower_record(g):
    """cli._flower_record over every candidate flower: each one tested,
    in repr order, through garden._flower_fault, then the count."""
    flowers = frozenset(enumerate_flowers(g))
    frame = g.bed.frame
    expected = 0
    for p in sorted(g.space.points):
        pf = point_filters(g, p)
        expected += len(pf["pdd"]) * len(frame.down(pf["pbb"].generator))
    bad = None
    for fl in sorted(flowers, key=repr):
        fault = garden_mod._flower_fault(g, fl.root, fl.stalk,
                                         fl.bloom.generator)
        if fault:
            bad = (fault, repr(fl))
            break
    if bad is None and expected != len(flowers):
        bad = ("count", expected, len(flowers))
    return {"id": "LAW.240B", "passed": bad is None, "witness": bad}


def filter_images(f, filt, direction):
    """lattice.filter_images with both results re-checked against their
    set definitions: the inverse image's members and the direct image's
    upward closure, each against the generator's upper section."""
    if direction == "inverse":
        src = f.source
        members = frozenset(y for y in src.elements if f(y) in filt)
        gen = src.meet_all(members)
        if src.up(gen) != members:
            raise NotAFilter("inverse image not principal at %r" % (gen,))
        return Filter(src, gen)
    tgt = f.target
    gen = f(filt.generator)
    images = {tgt.mask[f(x)] for x in filt.members()}
    closure = frozenset(
        y for y, m in tgt.mask.items() if any(i & m == i for i in images))
    if tgt.up(gen) != closure:
        raise NotAFilter("direct image not principal at %r" % (gen,))
    return Filter(tgt, gen)


def classify_plot_map_on_sets(m):
    """plot.classify_plot_map with valued images as frozensets of points:
    pushed through the point map one point at a time, and tested against
    the space's saturation, closure and lens, the first bad point the
    least by str."""
    src, tgt = m.source, m.target
    sigma, tau = src.valuation, tgt.valuation
    Phi, phi = m.node_map.mapping, m.point_map.mapping
    report = {"is_plot_map": True, "up_condition": None,
              "minus_condition": None, "is_lentile": None, "witnesses": {}}
    for n in src.structure.nodes:
        if phi[sigma[n]] != tau[Phi[n]]:
            report["is_plot_map"] = False
            report["witnesses"]["square"] = n
            return report
    src_img = _successor_images(src)
    tgt_img = _successor_images(tgt)

    def pushed(W):
        return frozenset(phi[s] for s in W)

    fibred = _groups_are_fibres(tgt)
    for P in src.structure.nodes:
        if fibred and pushed(src_img[P]) <= tgt_img[Phi[P]]:
            continue
        out = tgt.structure.succ[Phi[P]]
        lost = [R for R in src.structure.succ[P] if Phi[R] not in out]
        if lost:
            report["is_plot_map"] = False
            report["witnesses"]["edge"] = (P, min(lost, key=str))
            return report

    T = tgt.space
    held = {"up": True, "minus": True, "lentile": True}
    for P in src.structure.nodes:
        E = pushed(src_img[P])
        W2 = tgt_img[Phi[P]]
        for law, S in (("up", T.saturation(E)), ("minus", T.closure(E)),
                       ("lentile", T.lens(E))):
            bad = min(W2 - S, key=str, default=None)
            if bad is None or not held[law]:
                continue
            held[law] = False
            R = next(R for R in sorted(tgt.structure.succ[Phi[P]], key=str)
                     if tau[R] == bad)
            report["witnesses"][law] = (P, R) + (
                (set_name(T.saturation({bad})),) if law == "minus" else ())
    report["up_condition"] = held["up"]
    report["minus_condition"] = held["minus"]
    report["is_lentile"] = held["lentile"]
    return report


# -- the covering on point sets ----------------------------------------------

def point_filters_on_sets(g, p):
    """garden.point_filters' three member sets, each element tested by
    membership of p in its covering's point set."""
    fr, box, diamond = g.bed.frame, g.bed.box, g.bed.diamond
    return {"nabla": frozenset(x for x in fr.elements if p in g.alpha(x)),
            "pbb": frozenset(x for x in fr.elements if p in g.alpha(box[x])),
            "pdd": frozenset(x for x in fr.elements
                             if p not in g.alpha(diamond[x]))}


def patterns_on_sets(g):
    """garden._patterns with the stalk table scanned out of every point's
    pdd and the bloom table out of every point's pbb generator."""
    fr, bit = g.bed.frame, g.top_frame.bit
    pfs = {bit[p]: point_filters_on_sets(g, p) for p in g.space.points}
    stalk = {x: sum(b for b, pf in pfs.items() if x in pf["pdd"])
             for x in fr.mask}
    bloom = {x: sum(b for b, pf in pfs.items()
                    if fr.le(x, fr.meet_all(pf["pbb"])))
             for x in fr.mask}
    return {(a, c): ra & rc for a, ra in stalk.items() if ra
            for c, rc in bloom.items() if ra & rc}


def region_on_sets(g, stalk, gen):
    """The points covered by the bloom generator but not by the stalk."""
    return g.alpha(gen) - g.alpha(stalk)


def transition_witness(gm):
    """garden.functor_F_report's LAW.240H witness on point sets: over the
    target harvest's patterns in sorted order, the first rooted point of
    a region, least by str, whose image leaves the region of the image
    pattern; None when there is none."""
    X, Y, f = gm.source, gm.target, gm.frame_map
    fstar = right_adjoint(f)
    plot = harvest(Y)
    rooted = Y.space.full - plot.unrooted_points
    blooms = {(fl.stalk, fl.bloom.generator): fl.bloom
              for fl in plot.structure.nodes}
    for a, c in sorted(blooms):
        image = region_on_sets(X, fstar[a], filter_images(
            f, blooms[a, c], "inverse").generator)
        for q in sorted(region_on_sets(Y, a, c) & rooted, key=str):
            if gm.point_map(q) not in image:
                return (a, q)
    return None
