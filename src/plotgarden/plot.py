"""Plots, plot maps, the lentile classifier, and operator lifting.

A plot values the nodes of a transition structure in a finite space
through a surjective map sigma.  Lifting pushes the structure's box and
diamond through sigma onto the open sets: the lift of an open U is the
largest open whose sigma-preimage lands inside the operator applied to
sigma^-1(U).  The lifted pair always satisfies the bed laws, which are
checked once per lifted bed.
"""

from .lattice import FrameMorphism
from .topology import ContinuousMap, topology_frame
from .transition import NodeMap


class PlotError(ValueError):
    pass


class ValuationNotTotal(PlotError):
    pass


class ValuationNotSurjective(PlotError):
    pass


class NotLentile(PlotError):
    pass


class PostconditionFailure(RuntimeError):
    """A law that holds for every valid input failed; an implementation bug."""


class Plot:
    """A transition structure valued in a finite space.

    Valuations are required to be surjective; harvesting can produce
    plots with unrooted points, which are admitted internally and
    recorded in unrooted_points.
    """

    def __init__(self, structure, space, valuation, _allow_unrooted=False):
        self.structure = structure
        self.space = space
        self.valuation = dict(valuation)
        for n in structure.nodes:
            if n not in self.valuation:
                raise ValuationNotTotal("no value for node %r" % (n,))
        for n, p in self.valuation.items():
            if p not in space.full:
                raise PlotError("value %r of node %r is not a point" % (p, n))
        rooted = frozenset(self.valuation[n] for n in structure.nodes)
        self.unrooted_points = space.full - rooted
        if self.unrooted_points and not _allow_unrooted:
            raise ValuationNotSurjective(
                "points %r are not hit" % (sorted(self.unrooted_points, key=str),))

    @property
    def surjective(self):
        return not self.unrooted_points

    def __eq__(self, other):
        if not isinstance(other, Plot):
            return NotImplemented
        return (self.structure == other.structure and self.space == other.space
                and self.valuation == other.valuation)

    def __repr__(self):
        return "Plot(%d nodes over %d points)" % (
            len(self.structure.nodes), len(self.space.points))


def validate_plot(structure, space, valuation):
    """Build a Plot, insisting the valuation is total and surjective."""
    return Plot(structure, space, valuation)


class PlotMap:
    """A node map and a continuous point map with a commuting square."""

    def __init__(self, source, target, node_map, point_map):
        self.source = source
        self.target = target
        self.node_map = node_map
        self.point_map = point_map

    def __eq__(self, other):
        if not isinstance(other, PlotMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.node_map == other.node_map
                and self.point_map == other.point_map)

    def __repr__(self):
        return "PlotMap(%r -> %r)" % (self.source, self.target)


def identity_plot_map(plot):
    nm = NodeMap(plot.structure, plot.structure,
                 {n: n for n in plot.structure.nodes})
    pm = ContinuousMap(plot.space, plot.space, {p: p for p in plot.space.points})
    return PlotMap(plot, plot, nm, pm)


def compose_plot_maps(outer, inner):
    """outer after inner; inner's target must be outer's source."""
    if inner.target != outer.source:
        raise PlotError("maps do not compose")
    nm = NodeMap(inner.source.structure, outer.target.structure,
                 {n: outer.node_map.mapping[inner.node_map.mapping[n]]
                  for n in inner.source.structure.nodes})
    pm = ContinuousMap(inner.point_map.source, outer.point_map.target,
                       {p: outer.point_map.mapping[inner.point_map.mapping[p]]
                        for p in inner.point_map.source.points})
    return PlotMap(inner.source, outer.target, nm, pm)


def _successor_images(plot):
    """Per node: the valuation image of its successor set.

    A successor set is a union of node groups (see TransitionStructure),
    so each group's image is computed once and each node's image is the
    union of its groups' images, once per shared key set: for a harvest,
    O(patterns x roots) rather than one walk over its flower edges.
    Computed once per plot and shared, as is each image among the nodes
    that share a key set; callers must not mutate it.
    """
    cached = plot.__dict__.get("_successor_images")
    if cached is not None:
        return cached
    structure, valuation = plot.structure, plot.valuation
    value = valuation.__getitem__
    group_image = {k: frozenset(map(value, members))
                   for k, members in structure.groups.items()}
    by_keys = {}
    out = {}
    for n, keys in structure.steps.items():
        image = by_keys.get(id(keys))
        if image is None:
            image = frozenset().union(*map(group_image.__getitem__, keys))
            by_keys[id(keys)] = image
        out[n] = image
    plot.__dict__["_successor_images"] = out
    return out


def _groups_are_fibres(plot):
    """Whether the structure's node groups are exactly the valuation's
    fibres, so that each successor set is the preimage of its image:
    as many groups as valued points, and one value in each group."""
    groups = plot.structure.groups
    if len(groups) != len(plot.space.full) - len(plot.unrooted_points):
        return False
    valuation = plot.valuation
    return all(len({valuation[x] for x in members}) == 1
               for members in groups.values())


def classify_plot_map(m):
    """Classify a candidate plot map.

    Reports whether the map is a plot map (is_plot_map): the square
    commutes and every transition maps to a transition.  Where the
    target's node groups are its valuation fibres, as a harvest's roots
    are, the second holds at a node exactly when its valued successor
    image, pushed through the point map, lies in its image node's valued
    successor image, which costs a pass over the images; elsewhere, and
    to find the witness, each edge is tested.  The witness is "square"
    or "edge", a source edge whose image is no transition.

    For genuine plot maps it reports whether each target transition out
    of an image node lands, valued, below some valued source successor
    (up_condition), inside every open neighbourhood's reach
    (minus_condition), and inside the lens closure of the valued
    successor image (is_lentile).  Valued images are point masks of the
    target space.  For E the pushed image and W2 the image node's, up
    holds iff W2 lies in E's saturation, the union of the least opens U_s
    over E, and minus iff in its closure, the points r whose U_r meets E;
    U_r is the first open around r, in sorted_opens order, to miss E.
    Lentile, read off the frame's lens_mask, which FiniteSpace.lens also
    reads, agrees with both.  The three are computed once per distinct E
    and tested once per distinct (E, W2); the first bad point is the
    lowest bit of W2 outside one, the least by str.
    """
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

    # per node, its pushed valued successor image E and its image node's
    # W2, as point masks of T; bit follows T.points, sorted by str
    frame = tgt.space._frame()
    src_img, tgt_img = _successor_images(src), _successor_images(tgt)
    images = [(P, src_img[P], tgt_img[Phi[P]]) for P in src.structure.nodes]
    pushed = {W: frame.mask_of(map(phi.__getitem__, W))
              for W in {W for _, W, _ in images}}
    valued = {W: frame.mask_of(W) for W in {W2 for _, _, W2 in images}}
    rows = [(P, pushed[W], valued[W2]) for P, W, W2 in images]

    fibred = _groups_are_fibres(tgt)
    for P, E, W2 in rows:
        if fibred and not E & ~W2:
            continue
        out = tgt.structure.succ[Phi[P]]
        lost = [R for R in src.structure.succ[P] if Phi[R] not in out]
        if lost:
            report["is_plot_map"] = False
            report["witnesses"]["edge"] = (P, min(lost, key=str))
            return report

    cover = {}        # pushed image -> its saturation, closure and lens in T
    verdicts = {}     # (pushed image, target image) -> first bad bit per law
    up = minus = lentile = True

    def locate(P, bad):
        # concrete witness transition: a successor of Phi(P) valued at bit bad
        for R in sorted(tgt.structure.succ[Phi[P]], key=str):
            if frame.bit[tau[R]] == bad:
                return R
        raise AssertionError("witness vanished")

    for P, E, W2 in rows:
        got = verdicts.get((E, W2))
        if got is None:
            sets = cover.get(E)
            if sets is None:
                sets = cover[E] = (frame.saturation_mask(E), frame.closure_mask(E),
                                   frame.lens_mask(E))
            got = verdicts[E, W2] = [W2 & ~S & -(W2 & ~S) for S in sets]
        bad_up, bad_minus, bad_lens = got
        if bad_up and up:
            up = False
            report["witnesses"]["up"] = (P, locate(P, bad_up))
        if bad_minus and minus:
            minus = False
            report["witnesses"]["minus"] = (P, locate(P, bad_minus),
                                            frame.element[frame.least[bad_minus]])
        if bad_lens and lentile:
            lentile = False
            report["witnesses"]["lentile"] = (P, locate(P, bad_lens))

    report["up_condition"] = up
    report["minus_condition"] = minus
    report["is_lentile"] = lentile
    return report


class LiftedBed:
    """The topology of a plot's space furnished with the lifted operators,
    held in bed, whose tables box_sigma and diamond_sigma share."""

    def __init__(self, bed, space, surjective):
        self.bed = bed
        self.frame = bed.frame
        self.box_sigma = bed.box            # open name -> open name
        self.diamond_sigma = bed.diamond
        self.space = space
        self.surjective = surjective


def lift_operators(plot):
    """Lift the structure's box/diamond through the valuation onto opens.

    The lift of U under box is the union of the opens V with
    sigma^-1(V) inside box(sigma^-1(U)): the interior of the points whose
    nodes' valued successor images all lie in U; likewise for diamond.
    Checked here: the defining biconditional over the least opens U_p, as
    every open is a union of U_p (a failure is scanned over all opens for
    its witness), the lift recomputed node by node on small instances, and
    the bed laws (plus the empty-diamond law for a surjective valuation)
    through garden.bed_violations, whose verdict is cached on the lifted
    bed that lift_report and functor_G_object read again.  Any failure
    raises PostconditionFailure.

    Lifted once per plot and shared: every later call returns the same
    LiftedBed, whose tables callers must not mutate.
    """
    from . import garden as garden_mod
    cached = plot.__dict__.get("_lift")
    if cached is not None:
        return cached
    space = plot.space
    frame = topology_frame(space)
    opens = frame.mask                  # open name -> its point mask
    st = plot.structure
    sigma = plot.valuation
    node_img = _successor_images(plot)

    owners = {}     # valued successor image -> the bits of its nodes' points
    for n in st.nodes:
        owners[node_img[n]] = owners.get(node_img[n], 0) | frame.bit[sigma[n]]
    owners = {frame.mask_of(W): o for W, o in owners.items()}

    # open name -> its lifted open's name, and -> the eligible point masks:
    # every point but those owning an image outside U (box) or missing it
    box, diamond, eligible = {}, {}, {}
    for U, u in opens.items():
        B = D = frame.mask[frame.top]
        for m, o in owners.items():
            if m & ~u:
                B &= ~o
            if not m & u:
                D &= ~o
        eligible[U] = (B, D)
        box[U], diamond[U] = (frame.element[frame.interior_mask(E)]
                              for E in eligible[U])

    def fail(msg):
        raise PostconditionFailure("lift_operators on %r: %s" % (plot, msg))

    for U, (BU, DU) in eligible.items():
        boxU, diaU = opens[box[U]], opens[diamond[U]]
        if all((v & BU == v) == (v & boxU == v) and (v & DU == v) == (v & diaU == v)
               for v in frame.least.values()):
            continue
        for V, v in opens.items():
            if (v & BU == v) != (v & boxU == v):
                fail("box biconditional fails at U=%s V=%s" % (U, V))
            if (v & DU == v) != (v & diaU == v):
                fail("diamond biconditional fails at U=%s V=%s" % (U, V))

    if len(st.nodes) <= 64 and len(opens) <= 64:
        _recheck_lift_nodewise(plot, frame, box, diamond, fail)

    bed = garden_mod.Bed(frame, box, diamond)
    lifted = LiftedBed(bed, space, plot.surjective)
    broken = garden_mod._lift_violations(lifted)
    if broken:
        fail("%s: %s" % broken[0])
    plot.__dict__["_lift"] = lifted
    return lifted


def _recheck_lift_nodewise(plot, frame, box, diamond, fail):
    # Small instances: recompute every lifted open from the raw definitions,
    # apart from the point caches the lift is computed with.  Kept beside
    # LAW.220J on purpose: that law checks only that the lift is lax
    # (sigma(n) in box(U) implies n's successors are valued in U), which a
    # table of empty opens passes; this also checks that each lifted open
    # is the largest such open.  box and diamond name the lifted opens.
    st, sigma, opens = plot.structure, plot.valuation, frame.open_sets
    succ = dict(st.succ.items())     # expanded once, not once per open
    inv = {V: frozenset(n for n in st.nodes if sigma[n] in V)
           for V in opens.values()}
    for name, U in opens.items():
        box_nodes = frozenset(n for n in st.nodes if succ[n] <= inv[U])
        dia_nodes = frozenset(n for n in st.nodes if succ[n] & inv[U])
        best_box = [V for V in inv if inv[V] <= box_nodes]
        best_dia = [V for V in inv if inv[V] <= dia_nodes]
        if frozenset().union(*best_box) != opens[box[name]]:
            fail("nodewise box recheck fails at %s" % name)
        if frozenset().union(*best_dia) != opens[diamond[name]]:
            fail("nodewise diamond recheck fails at %s" % name)


def functor_G_object(plot):
    """The garden of a plot: its topology under the lifted operators,
    covered by the identity frame morphism.

    Built directly, not through validate_garden: lift_operators has
    already raised on the lifted bed's law verdict, every covering value
    is one of the frame's own opens, and the identity of a frame is a
    surjective frame morphism.
    """
    from . import garden as garden_mod
    cached = plot.__dict__.get("_garden_of")
    if cached is not None:
        return cached
    lifted = lift_operators(plot)
    frame = lifted.frame
    identity = FrameMorphism(frame, frame, {x: x for x in frame.elements})
    result = garden_mod.Garden(lifted.bed, plot.space, identity,
                               frame.open_sets, frame)
    plot.__dict__["_garden_of"] = result
    return result


def functor_G_arrow(m):
    """Send a lentile plot map to the garden morphism it induces.

    Contravariant: a map between plots S -> T becomes a morphism from the
    garden of T to the garden of S, with the inverse-image frame map.
    Raises NotLentile when the map is not lentile.
    """
    from . import garden as garden_mod
    verdict = classify_plot_map(m)
    if not verdict["is_plot_map"]:
        raise NotLentile("square does not commute at %r"
                         % (verdict["witnesses"].get("square"),))
    if not verdict["is_lentile"]:
        raise NotLentile("map is not lentile: %r" % (verdict["witnesses"],))
    from .topology import open_frame
    frame_map = open_frame(m.point_map)
    gm = garden_mod.GardenMorphism(
        source=functor_G_object(m.target),
        target=functor_G_object(m.source),
        frame_map=frame_map,
        point_map=m.point_map,
    )
    report = garden_mod.check_garden_morphism(gm)
    if not report["passed"]:
        raise PostconditionFailure(
            "induced garden morphism fails %r" % (report,))
    return gm
