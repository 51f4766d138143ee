"""Beds, gardens, garden morphisms, flowers, and the harvest functor.

A bed is a finite frame furnished with a box/diamond pair; a garden
covers a finite space with a bed through a surjective frame morphism.
Harvesting a garden grows one flower per admissible root/stalk/bloom
triple, prunes the unhealthy ones down to the greatest healthy set, and
returns the surviving flowers as a plot over the garden's space.
"""

from .lattice import (Filter, FrameMorphism, check_frame_morphism,
                      filter_images, right_adjoint)
from .topology import ContinuousMap, PointUnknown, set_name, topology_frame
from .transition import NodeMap, TransitionStructure
from .plot import Plot, PlotMap, PostconditionFailure, classify_plot_map


class GardenError(ValueError):
    pass


class BedAxiomViolation(GardenError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__("%s: %s" % (law, witness))


class CoveringNotFrameMorphism(GardenError):
    pass


class CoveringNotSurjective(GardenError):
    pass


class Bed:
    """A finite frame with box and diamond element maps, fixed once built."""

    def __init__(self, frame, box, diamond):
        self.frame = frame
        self.box = dict(box)
        self.diamond = dict(diamond)
        for table, label in ((self.box, "box"), (self.diamond, "diamond")):
            for x in frame.elements:
                if x not in table:
                    raise GardenError("%s has no value at %r" % (label, x))
                if table[x] not in frame.mask:
                    raise GardenError("%s(%r)=%r is not an element"
                                      % (label, x, table[x]))

    def __eq__(self, other):
        if not isinstance(other, Bed):
            return NotImplemented
        return (self.frame == other.frame and self.box == other.box
                and self.diamond == other.diamond)

    def __repr__(self):
        return "Bed(%d elements)" % (len(self.frame),)


def bed_violations(bed):
    """First witness per broken bed law, as (law, witness) pairs.

    Computed once per bed and cached on it: lift_operators, lift_report
    and validate_garden read one verdict.  Each call gets a fresh list.
    """
    found = bed.__dict__.get("_violations")
    if found is None:
        found = tuple(_bed_law_witnesses(bed))
        bed.__dict__["_violations"] = found
    return list(found)


def _bed_law_witnesses(bed):
    fr = bed.frame
    mask = fr.mask
    out = []
    if bed.box[fr.top] != fr.top:
        out.append(("box-top", "box(%r)=%r" % (fr.top, bed.box[fr.top])))
    rows = [(x, mask[x], mask[bed.box[x]], mask[bed.diamond[x]])
            for x in fr.elements]
    box = {m: b for _, m, b, _ in rows}
    diamond = {m: d for _, m, _, d in rows}
    meet_w = mono_w = mixed_w = None
    for x, mx, bx, dx in rows:
        for y, my, by, dy in rows:
            m = mx & my
            if meet_w is None and box[m] != bx & by:
                meet_w = "x=%r y=%r" % (x, y)
            if mono_w is None and m == mx and dx & dy != dx:
                mono_w = "x=%r y=%r" % (x, y)
            if mixed_w is None and bx & dy & ~diamond[m]:
                mixed_w = "x=%r y=%r" % (x, y)
    if meet_w:
        out.append(("box-meet", meet_w))
    if mono_w:
        out.append(("diamond-monotone", mono_w))
    if mixed_w:
        out.append(("mixed-law", mixed_w))
    return out


class Garden:
    """A bed covering the topology of a finite space through covering, a
    surjective frame morphism onto the space's topology frame, top_frame.
    The constructor derives the rest once: alpha_mask sends each bed
    element to its open as a point mask, and alpha to the open's points."""

    def __init__(self, bed, space, covering):
        self.bed = bed
        self.space = space
        self.covering = covering
        self.top_frame = top = covering.target
        self.alpha_mask = {x: top.mask[V] for x, V in covering.mapping.items()}
        self._alpha_sets = {x: top.open_sets[V] for x, V in covering.mapping.items()}

    def alpha(self, x):
        return self._alpha_sets[x]

    def __eq__(self, other):
        if not isinstance(other, Garden):
            return NotImplemented
        return (self.bed == other.bed and self.space == other.space
                and self.covering.mapping == other.covering.mapping)

    def __repr__(self):
        return "Garden(%d elements over %d points)" % (
            len(self.bed.frame), len(self.space.points))


def validate_garden(bed, space, covering):
    """Check the bed axioms and the covering, then assemble a Garden.

    covering maps each bed element to an open set of points.  No size is
    limited, so every garden the library builds also loads back.
    """
    broken = bed_violations(bed)
    if broken:
        raise BedAxiomViolation(*broken[0])
    mapping = {}
    for x in bed.frame.elements:
        if x not in covering:
            raise CoveringNotFrameMorphism("no open assigned to %r" % (x,))
        V = frozenset(covering[x])
        if V not in space.opens:
            raise CoveringNotFrameMorphism(
                "value %s of %r is not open" % (set_name(V), x))
        mapping[x] = set_name(V)
    top_frame = topology_frame(space)
    verdict = check_frame_morphism(mapping, bed.frame, top_frame)
    if not verdict["is_frame_morphism"]:
        raise CoveringNotFrameMorphism("%s at %s" % verdict["violations"][0])
    if not verdict["is_surjective"]:
        raise CoveringNotSurjective("covering misses some open set")
    return Garden(bed, space, FrameMorphism(bed.frame, top_frame, mapping))


class GardenMorphism:
    """A frame map between beds riding over a continuous point map.

    For a morphism from X to Y, frame_map sends X's bed into Y's and
    point_map runs the other way, from Y's space to X's.
    """

    def __init__(self, source, target, frame_map, point_map):
        self.source = source
        self.target = target
        self.frame_map = frame_map
        self.point_map = point_map

    def __eq__(self, other):
        if not isinstance(other, GardenMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.frame_map == other.frame_map
                and self.point_map == other.point_map)

    def __repr__(self):
        return "GardenMorphism(%r -> %r)" % (self.source, self.target)


def identity_garden_morphism(g):
    fm = FrameMorphism(g.bed.frame, g.bed.frame,
                       {x: x for x in g.bed.frame.elements})
    pm = ContinuousMap(g.space, g.space, {p: p for p in g.space.points})
    return GardenMorphism(g, g, fm, pm)


def compose_garden_morphisms(outer, inner):
    """outer after inner; inner's target garden must equal outer's source."""
    if inner.target != outer.source:
        raise GardenError("morphisms do not compose")
    fm = FrameMorphism(
        inner.source.bed.frame, outer.target.bed.frame,
        {x: outer.frame_map(inner.frame_map(x))
         for x in inner.source.bed.frame.elements})
    pm = ContinuousMap(
        outer.point_map.source, inner.point_map.target,
        {p: inner.point_map(outer.point_map(p))
         for p in outer.point_map.source.points})
    return GardenMorphism(inner.source, outer.target, fm, pm)


def check_garden_morphism(gm):
    """Verdicts for the frame-morphism laws, lax box/diamond, and the square.

    The operator laws are lax by definition; equality is reported
    separately in strict_box/strict_diamond since it often fails without
    being wrong, and the first properly lax element is recorded.
    """
    src, tgt = gm.source, gm.target
    f = gm.frame_map
    report = {"is_frame_morphism": None, "lax_box": True, "lax_diamond": True,
              "square": True, "strict_box": True, "strict_diamond": True,
              "witnesses": {}}
    fm = check_frame_morphism(f.mapping, src.bed.frame, tgt.bed.frame)
    report["is_frame_morphism"] = fm["is_frame_morphism"]
    if fm["violations"]:
        report["witnesses"]["frame"] = fm["violations"][0]
    tf = tgt.bed.frame
    for x in src.bed.frame.elements:
        lb, rb = f(src.bed.box[x]), tgt.bed.box[f(x)]
        if not tf.le(lb, rb):
            if report["lax_box"]:
                report["lax_box"] = False
                report["witnesses"]["lax_box"] = x
        elif lb != rb and report["strict_box"]:
            report["strict_box"] = False
            report["witnesses"]["strict_box"] = x
        ld, rd = f(src.bed.diamond[x]), tgt.bed.diamond[f(x)]
        if not tf.le(ld, rd):
            if report["lax_diamond"]:
                report["lax_diamond"] = False
                report["witnesses"]["lax_diamond"] = x
        elif ld != rd and report["strict_diamond"]:
            report["strict_diamond"] = False
            report["witnesses"]["strict_diamond"] = x
        if report["square"]:
            left = gm.point_map.preimage(src.alpha(x))
            if left != tgt.alpha(f(x)):
                report["square"] = False
                report["witnesses"]["square"] = x
    report["passed"] = (report["is_frame_morphism"] and report["lax_box"]
                        and report["lax_diamond"] and report["square"])
    return report


def point_filters(g, p):
    """The three assignments at a point: nabla, its box transfer, and the
    lower section where diamond misses the point.

    nabla(p) collects the elements whose covering contains p; pbb pulls
    that filter back through box.  Both are filters and come back
    principal; pdd is only a downward-closed set and comes back explicit.
    """
    if p not in g.space.full:
        raise PointUnknown("%r is not a point" % (p,))
    cache = g.__dict__.setdefault("_point_filters", {})
    got = cache.get(p)
    if got is not None:
        return got
    fr, alpha, b = g.bed.frame, g.alpha_mask, g.top_frame.bit[p]
    nabla = frozenset(x for x in fr.elements if alpha[x] & b)
    pbb = frozenset(x for x in fr.elements if alpha[g.bed.box[x]] & b)
    pdd = frozenset(x for x in fr.elements if not alpha[g.bed.diamond[x]] & b)
    out = {}
    for members, key in ((nabla, "nabla"), (pbb, "pbb")):
        gen = fr.meet_all(members)
        if fr.up(gen) != members:
            raise PostconditionFailure(
                "%s at %r is not a principal filter" % (key, p))
        out[key] = Filter(fr, gen)
    out["pdd"] = pdd
    cache[p] = out
    return out


class Flower:
    """A root point, a stalk element, and a bloom filter.

    Flowers live in large sets and dicts, so the hash is computed once,
    here; the three parts are not reassigned afterwards.
    """

    __slots__ = ("root", "stalk", "bloom", "_hash")

    def __init__(self, root, stalk, bloom):
        self.root = root
        self.stalk = stalk
        self.bloom = bloom
        self._hash = hash((root, stalk, bloom.generator))

    def __eq__(self, other):
        if not isinstance(other, Flower):
            return NotImplemented
        return (self.root == other.root and self.stalk == other.stalk
                and self.bloom.generator == other.bloom.generator)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__ so an unpickled flower rehashes its parts
        return (Flower, (self.root, self.stalk, self.bloom))

    def __repr__(self):
        return "(%s;%s;^%s)" % (self.root, self.stalk, self.bloom.generator)


def _patterns(g):
    """Pattern (a, c) -> the mask of the roots p with a in pdd(p), c <= pbb(p);
    built once per garden and shared by LAW.240B and the harvest.  a is in
    pdd(p) iff p misses alpha(diamond(a)), so stalks are read off alpha_mask."""
    found = g.__dict__.get("_patterns")
    if found is None:
        fr, top, alpha = g.bed.frame, g.top_frame, g.alpha_mask
        pbb = {b: point_filters(g, p)["pbb"].generator for p, b in top.bit.items()}
        stalk = {x: top.mask[top.top] & ~alpha[g.bed.diamond[x]] for x in fr.mask}
        bloom = {x: sum(b for b, gen in pbb.items() if fr.le(x, gen))
                 for x in fr.mask}
        found = g.__dict__["_patterns"] = {
            (a, c): ra & rc for a, ra in stalk.items() if ra
            for c, rc in bloom.items() if ra & rc}
    return found


def _grow(g, roots_of):
    """The flowers of the patterns at their roots, by root, stalk, bloom."""
    blooms = {c: Filter(g.bed.frame, c) for _, c in roots_of}
    keys = sorted(roots_of.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    return [Flower(p, a, blooms[c]) for p, b in g.top_frame.bit.items()
            for (a, c), roots in keys if roots & b]


def _enumerate_flowers(g):
    """All flowers, via the principal characterizations."""
    return _grow(g, _patterns(g))


def _flower_fault(g, root, stalk, gen):
    """'stalk' unless stalk is in pdd(root), else 'bloom' unless gen is
    below pbb(root)'s generator, else None: the flower condition."""
    pf = point_filters(g, root)
    if stalk not in pf["pdd"]:
        return "stalk"
    if not g.bed.frame.le(gen, pf["pbb"].generator):
        return "bloom"
    return None


def _region(g, stalk, gen):
    """The transition region: the mask of the roots a flower with this stalk
    and bloom generator steps to, covered by the generator but not the stalk."""
    return g.alpha_mask[gen] & ~g.alpha_mask[stalk]


def _transitions(g, flowers):
    """The transition relation on a flower set, as a TransitionStructure.

    Each member steps to the members rooted in its region.  Those are
    whole root classes, so the structure groups the members by root and
    stores one root set per stalk/bloom pattern, shared by the pattern's
    flowers: the roots of the region that root some member.
    """
    by_root = {}
    for fl in flowers:
        by_root.setdefault(fl.root, []).append(fl)
    roots = g.top_frame.mask_of(by_root)
    pattern = {}
    succ = {}
    for fl in flowers:
        key = (fl.stalk, fl.bloom.generator)
        s = pattern.get(key)
        if s is None:
            s = g.top_frame.points_of(_region(g, *key) & roots)
            pattern[key] = s
        succ[fl] = s
    return TransitionStructure(by_root, succ=succ)


def flower_structure(g):
    """Every flower of the garden and the transition relation between them.

    The relation is returned as a successor map, node to frozenset of
    flowers.  It reads _transitions' root sets, one per stalk/bloom
    pattern, and expands a flower's successors only when they are read.
    """
    flowers = _enumerate_flowers(g)
    return {"flowers": frozenset(flowers),
            "edges": _transitions(g, flowers).succ}


def healthy_witness(g, flowers):
    """First health violation inside the given flower set, or None.

    The set is healthy when each member can escape every element outside
    its bloom and reach every element above its stalk through a
    transition that stays inside the set.  Harvest checks its survivors
    with this plain definition.
    """
    mask = g.bed.frame.mask
    rows = [(x, mx, g.alpha_mask[x]) for x, mx in mask.items()]
    roots = g.top_frame.mask_of(fl.root for fl in flowers)

    def fault(a, c):    # a member's health depends on its stalk and bloom only
        W, ma, mc = _region(g, a, c) & roots, mask[a], mask[c]
        for x, mx, ax in rows:
            if W & ax == W and mc & mx != mc:
                return (x, "no transition escapes it")
            if not ax & W and ma & mx != mx:
                return (x, "no transition reaches it")

    if any(fault(*key) for key in {(fl.stalk, fl.bloom.generator) for fl in flowers}):
        bad = min((f for f in flowers if fault(f.stalk, f.bloom.generator)), key=repr)
        return (bad,) + fault(bad.stalk, bad.bloom.generator)
    return None


def harvest(g):
    """Prune the flowers of a garden to the largest healthy set.

    A flower is healthy relative to the live roots when, for every
    element outside its bloom, some live root in its region lies outside
    that element's covering, and for every element not under its stalk,
    some live root in its region lies inside it.  Health depends only on
    the flower's stalk/bloom pattern and the live roots, and only shrinks
    as they shrink.  So the pruning runs in rounds over _patterns, and no
    candidate flower is built: with every pattern alive and every candidate
    root live at the start, each round keeps the alive patterns that are
    healthy against the live roots and takes their roots as the new live
    roots, until a round keeps every live root.  Root sets are point masks,
    the patterns of one region are judged together, and the health bounds
    of a live set W fold per-point tables over W: nabla's generators, and
    the joins of the elements missing the point.  A dead pattern is never
    rechecked, and there are at most |points| + 1 rounds.  The survivors,
    grown from the alive patterns, are checked once against the plain
    definition, healthy_witness, before the plot is assembled; a witness raises
    PostconditionFailure.  The plot's structure is _transitions' on the
    survivors: flowers grouped by root, and one set of live roots per
    alive pattern, expanded to flower edges only when read.  Cached once
    per garden.
    """
    cached = g.__dict__.get("_harvest")
    if cached is not None:
        return cached
    fr = g.bed.frame
    mask, alpha = fr.mask, g.alpha_mask
    roots_of = _patterns(g)  # stalk/bloom pattern -> mask of its candidate roots
    alive, live = {}, 0  # region -> [(stalk mask, bloom mask, pattern)] alive; roots
    for (a, c), roots in roots_of.items():
        alive.setdefault(_region(g, a, c), []).append((mask[a], mask[c], (a, c)))
        live |= roots
    # per point bit: nabla's generator, and the join of the elements missing it
    nabla = {b: point_filters(g, p)["nabla"].generator
             for p, b in g.top_frame.bit.items()}
    missing = {b: fr.join_all(x for x in mask if not alpha[x] & b) for b in nabla}
    bounds = {}  # mask of live reachable roots -> (meet, join) health bounds
    while True:
        kept = 0
        for region, patterns in alive.items():
            W = region & live
            if W not in bounds:
                bounds[W] = (mask[fr.join_all(nabla[b] for b in nabla if W & b)],
                             mask[fr.meet_all(missing[b] for b in missing if W & b)])
            m, M = bounds[W]
            patterns[:] = [(a, c, key) for a, c, key in patterns
                           if c & m == c and M & a == M]
            for _, _, key in patterns:
                kept |= roots_of[key]
        if kept == live:
            break
        live = kept

    survivors = _grow(g, {key: roots_of[key] for patterns in alive.values()
                          for _, _, key in patterns})
    bad = healthy_witness(g, survivors)
    if bad is not None:
        raise PostconditionFailure("survivor %r at %r: %s" % bad)
    plot = Plot(_transitions(g, survivors), g.space,
                {fl: fl.root for fl in survivors}, _allow_unrooted=True)
    g.__dict__["_harvest"] = plot
    return plot


def functor_F_report(gm):
    """Build the plot map a garden morphism induces between the two
    harvests, with one record per verified postcondition.

    Contravariant: a morphism from X to Y yields a map from Y's harvest
    to X's.  Each flower goes to (point image of root, right adjoint of
    stalk, inverse-image of bloom).  Verified: images are flowers
    (LAW.240G), transitions are preserved (LAW.240H), images survive the
    target pruning (LAW.240I), and the map is lentile (LAW.240J).
    Returns (map or None, records).
    """
    X, Y = gm.source, gm.target
    f = gm.frame_map
    fstar = right_adjoint(f)
    phi = gm.point_map
    src_plot = harvest(Y)
    tgt_plot = harvest(X)
    # images land on the target's own flowers, so later lookups hit by identity
    own = {(fl.root, fl.stalk, fl.bloom.generator): fl
           for fl in tgt_plot.structure.nodes}
    frX = X.bed.frame
    records = []

    def record(law, passed, witness=None):
        records.append({"id": law, "passed": bool(passed), "witness": witness})
        return passed

    image_pattern = {}
    mapping = {}
    flower_fail = pruned = None
    for fl in src_plot.structure.nodes:
        key = (fl.stalk, fl.bloom.generator)
        got = image_pattern.get(key)
        if got is None:
            got = (fstar[fl.stalk],
                   filter_images(f, fl.bloom, "inverse").generator)
            image_pattern[key] = got
        a2, c2 = got
        root = phi(fl.root)
        img = own.get((root, a2, c2))
        if img is None:
            img = Flower(root, a2, Filter(frX, c2))
            pruned = pruned or img
        if flower_fail is None and _flower_fault(X, root, a2, c2):
            flower_fail = img
        mapping[fl] = img
    if not record("LAW.240G", flower_fail is None, flower_fail):
        return None, records

    rooted = Y.top_frame.mask_of(src_plot.space.full - src_plot.unrooted_points)
    for (a, c), (a2, c2) in sorted(image_pattern.items()):
        target_region = _region(X, a2, c2)
        source_region = _region(Y, a, c) & rooted
        for q, b in Y.top_frame.bit.items():    # ascending bits are str order
            if source_region & b and not X.top_frame.bit[phi(q)] & target_region:
                record("LAW.240H", False, (a, q))
                return None, records
    record("LAW.240H", True)

    if not record("LAW.240I", pruned is None, pruned):
        return None, records

    result = PlotMap(src_plot, tgt_plot,
                     NodeMap(src_plot.structure, tgt_plot.structure, mapping),
                     phi)
    verdict = classify_plot_map(result)
    ok = verdict["is_plot_map"] and verdict["is_lentile"]
    if not record("LAW.240J", ok, None if ok else verdict["witnesses"]):
        return None, records
    return result, records


def functor_F_arrow(gm):
    """The plot map a garden morphism induces between the two harvests.

    All four postconditions hold for every garden morphism; a violation
    indicates a bug and raises PostconditionFailure.
    """
    result, records = functor_F_report(gm)
    if result is None:
        bad = [r for r in records if not r["passed"]][0]
        raise PostconditionFailure("%s fails: %r" % (bad["id"], bad["witness"]))
    return result


def _lift_violations(bed, surjective):
    """The bed-law verdict of a lifted bed, plus the empty-diamond law,
    which applies exactly when the valuation is surjective."""
    violations = bed_violations(bed)
    empty = bed.frame.bottom
    if surjective and bed.diamond[empty] != empty:
        violations.append(("diamond-empty", bed.diamond[empty]))
    return violations


def lift_report(plot):
    """Law records for a plot's lifted operators.

    LAW.220G reads the bed-law verdict that lift_operators computed on
    the same lifted bed.  LAW.220J checks that the valuation preimage is
    lax over both operators, re-derived at node level rather than
    through the point caches the lift itself uses.
    """
    from .plot import _successor_images, lift_operators

    bed = lift_operators(plot)
    frame = bed.frame
    violations = _lift_violations(bed, plot.surjective)
    note = None
    if plot.unrooted_points:
        note = ("diamond-empty not required; unrooted points %s"
                % sorted(map(str, plot.unrooted_points)))
    records = [{"id": "LAW.220G", "passed": not violations,
                "witness": violations[0] if violations else note}]

    st = plot.structure
    sigma = plot.valuation
    node_img = _successor_images(plot)
    bad = None
    for uname in frame.by_size():
        U = frame.set_of(uname)
        box_u = frame.set_of(bed.box[uname])
        dia_u = frame.set_of(bed.diamond[uname])
        for n in st.nodes:
            if sigma[n] in box_u and not node_img[n] <= U:
                bad = ("box", uname, str(n))
                break
            if sigma[n] in dia_u and not (node_img[n] & U):
                bad = ("diamond", uname, str(n))
                break
        if bad is not None:
            break
    records.append({"id": "LAW.220J", "passed": bad is None, "witness": bad})
    return records
