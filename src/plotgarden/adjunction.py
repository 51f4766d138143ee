"""Units relating plots and gardens, naturality checks, and idempotency.

Every plot embeds in the harvest of its lifted garden by sending a node
to the flower grown from its valued successor set; every garden maps
into the garden of its own harvest through its covering.  This module
builds both units, re-verifies the laws they satisfy, and checks
that one round trip leaves operator tables untouched and the other
reproduces every harvested flower on the nose.
"""

from .lattice import Filter, FrameMorphism, filter_images, right_adjoint
from .topology import ContinuousMap, open_frame
from .transition import NodeMap
from .plot import (NotLentile, PlotMap, PostconditionFailure,
                   _successor_images, classify_plot_map, compose_plot_maps,
                   functor_G_arrow, functor_G_object, identity_plot_map)
from .garden import (Flower, Garden, GardenMorphism, _flower_fault, _region,
                     check_garden_morphism, compose_garden_morphisms,
                     functor_F_arrow, harvest, healthy_witness,
                     identity_garden_morphism)


def _record(law, passed, witness=None):
    return {"id": law, "passed": bool(passed), "witness": witness}


def _stalk_bloom(plot):
    """Per node, by name: the complement of the closure of its valued
    successors, and the least open around them (the bloom's generator)."""
    frame = plot.space._frame()
    top = frame.mask[frame.top]
    node_img = _successor_images(plot)
    memo, out = {}, {}
    for n in plot.structure.nodes:
        W = node_img[n]
        got = memo.get(W)
        if got is None:
            w = frame.mask_of(W)
            got = memo[W] = (frame.element.get(top & ~frame.closure_mask(w)),
                             frame.element.get(frame.saturation_mask(w)))
            if None in got:
                raise PostconditionFailure(
                    "stalk or bloom of %r is not open" % (sorted(W, key=str),))
        out[n] = got
    return out


def _algebraic_unit_core(g):
    M = functor_G_object(harvest(g))
    fm = FrameMorphism(g.bed.frame, M.bed.frame, dict(g.covering.mapping))
    pm = ContinuousMap(g.space, g.space, {p: p for p in g.space.points})
    eta = GardenMorphism(g, M, fm, pm)
    verdict = check_garden_morphism(eta)
    witness = None if verdict["passed"] else verdict["witnesses"]
    return eta, [_record("LAW.250A", verdict["passed"], witness)]


def algebraic_unit(g):
    """The covering, over the identity on points, as a morphism from a
    garden to the garden of its harvest.  Verified as a garden morphism
    against the harvest-induced operators."""
    eta, records = _algebraic_unit_core(g)
    if not records[0]["passed"]:
        raise PostconditionFailure(
            "covering is not lax over the harvest operators: %r"
            % (records[0]["witness"],))
    return eta


def _geometric_unit_core(plot):
    """The geometric unit of a plot and its law records, or None and the
    records up to the first failure.

    Built once per plot; each call gets its own records list.  The cache
    holds the map's parts rather than the map, whose source is the plot
    itself, so that caching makes no reference cycle.
    """
    cached = plot.__dict__.get("_geometric_unit")
    if cached is None:
        result, records = _build_geometric_unit(plot)
        parts = (None if result is None else
                 (result.target, result.node_map, result.point_map))
        cached = (parts, records)
        plot.__dict__["_geometric_unit"] = cached
    parts, records = cached
    result = None if parts is None else PlotMap(plot, *parts)
    return result, [dict(r) for r in records]


def _build_geometric_unit(plot):
    G = functor_G_object(plot)
    target = harvest(G)
    fr = G.bed.frame
    data = _stalk_bloom(plot)
    node_img = _successor_images(plot)

    records = []
    mapping = {}
    # images land on the harvest's own flowers, so later lookups hit by identity
    own = {(fl.root, fl.stalk, fl.bloom.generator): fl
           for fl in target.structure.nodes}
    flower_memo = {}
    flower_fail = None
    for n in plot.structure.nodes:
        root = plot.valuation[n]
        stalk, gen = data[n]
        key = (root, stalk, gen)
        fl = flower_memo.get(key)
        if fl is None:
            fl = own.get(key) or Flower(root, stalk, Filter(fr, gen))
            if _flower_fault(G, root, stalk, gen):
                flower_fail = fl
            flower_memo[key] = fl
        mapping[n] = fl
    image = frozenset(mapping.values())

    well_formed = flower_fail is None
    witness = flower_fail
    if well_formed:
        bad = healthy_witness(G, image)
        if bad is not None:
            well_formed, witness = False, bad
    if well_formed:
        stray = [fl for key, fl in flower_memo.items() if key not in own]
        if stray:
            well_formed, witness = False, min(stray, key=repr)
    records.append(_record("LAW.250G", well_formed, witness))
    if not well_formed:
        return None, records

    seen = set()
    for n in plot.structure.nodes:
        fl = mapping[n]
        key = (fl.stalk, fl.bloom.generator, node_img[n])
        if key in seen:
            continue
        seen.add(key)
        region = _region(G, fl.stalk, fl.bloom.generator)
        if G.top_frame.mask_of(node_img[n]) & ~region:
            records.append(_record("LAW.250F", False, n))
            return None, records
    records.append(_record("LAW.250F", True))

    nm = NodeMap(plot.structure, target.structure, mapping)
    pm = ContinuousMap(plot.space, plot.space,
                       {p: p for p in plot.space.points})
    result = PlotMap(plot, target, nm, pm)
    verdict = classify_plot_map(result)
    lentile = verdict["is_plot_map"] and verdict["is_lentile"]
    records.append(_record("LAW.250H", lentile,
                           None if lentile else verdict["witnesses"]))
    if not lentile:
        return None, records
    return result, records


def geometric_unit(plot):
    """Send each node to the flower of its valued successor set.

    The node's value is the root; the stalk is the complement of the
    closure of the valued successors; the bloom collects the opens
    around them.  Verified: images are flowers forming a healthy set
    inside the harvest of the lifted garden, transitions are preserved,
    and the whole map is lentile over the identity.
    """
    result, records = _geometric_unit_core(plot)
    if result is None:
        bad = [r for r in records if not r["passed"]][0]
        raise PostconditionFailure("%s fails: %r" % (bad["id"], bad["witness"]))
    return result


def unit_report(kind, obj):
    """Build a unit and its law records without raising on violations."""
    if kind == "algebraic":
        morphism, records = _algebraic_unit_core(obj)
    elif kind == "geometric":
        morphism, records = _geometric_unit_core(obj)
    else:
        raise ValueError("kind must be 'algebraic' or 'geometric'")
    return {"kind": kind, "morphism": morphism, "records": records,
            "passed": all(r["passed"] for r in records)}


def check_naturality(kind, arrow):
    """Naturality of a unit over one arrow.

    kind 'algebraic' takes a garden morphism and compares the two
    composites around the unit square.  kind 'geometric' takes a lentile
    plot map and checks, node by node, that roots, stalks, and blooms
    transfer: roots through the point map, stalks through the right
    adjoint of the inverse-image frame map, blooms through its
    double inverse image.
    """
    if kind == "algebraic":
        g = arrow
        eta_src, _ = _algebraic_unit_core(g.source)
        eta_tgt, _ = _algebraic_unit_core(g.target)
        mapped = functor_G_arrow(functor_F_arrow(g))
        left = compose_garden_morphisms(eta_tgt, g)
        right = compose_garden_morphisms(mapped, eta_src)
        witness = None
        if left.frame_map.mapping != right.frame_map.mapping:
            witness = sorted(x for x in left.frame_map.mapping
                             if left.frame_map(x) != right.frame_map(x))[0]
        elif left.point_map.mapping != right.point_map.mapping:
            witness = sorted(
                (p for p in left.point_map.mapping
                 if left.point_map(p) != right.point_map(p)), key=str)[0]
        elif not (left.source == right.source and left.target == right.target):
            witness = "endpoint gardens differ"
        record = _record("LAW.250C", witness is None, witness)
        return {"kind": kind, "records": [record], "passed": record["passed"]}

    if kind != "geometric":
        raise ValueError("kind must be 'algebraic' or 'geometric'")
    m = arrow
    verdict = classify_plot_map(m)
    if not (verdict["is_plot_map"] and verdict["is_lentile"]):
        raise NotLentile("naturality needs a lentile map: %r"
                         % (verdict["witnesses"],))
    f = open_frame(m.point_map)
    fstar = right_adjoint(f)
    src_data = _stalk_bloom(m.source)
    tgt_data = _stalk_bloom(m.target)
    Phi, phi = m.node_map.mapping, m.point_map.mapping
    sigma, tau = m.source.valuation, m.target.valuation
    source_opens = f.target  # topology frame of the source plot's space
    bloom_memo = {}
    roots = stalks = blooms = True
    witnesses = {}
    for n in m.source.structure.nodes:
        n2 = Phi[n]
        if roots and tau[n2] != phi[sigma[n]]:
            roots = False
            witnesses["r"] = n
        st_s, bl_s = src_data[n]
        st_t, bl_t = tgt_data[n2]
        if stalks and st_t != fstar[st_s]:
            stalks = False
            witnesses["s"] = n
        if blooms:
            moved = bloom_memo.get(bl_s)
            if moved is None:
                moved = filter_images(
                    f, Filter(source_opens, bl_s), "inverse").generator
                bloom_memo[bl_s] = moved
            if bl_t != moved:
                blooms = False
                witnesses["b"] = n
    records = [_record("LAW.250N.R", roots, witnesses.get("r")),
               _record("LAW.250N.S", stalks, witnesses.get("s")),
               _record("LAW.250N.B", blooms, witnesses.get("b"))]
    return {"kind": kind, "records": records,
            "passed": all(r["passed"] for r in records)}


def _verify_plot(plot):
    records = []
    G1 = functor_G_object(plot)
    H = harvest(G1)
    G2 = functor_G_object(H)
    fr = G1.bed.frame
    below = above = True
    wit_below = wit_above = None
    for u in fr.elements:
        for op in ("box", "diamond"):
            first = getattr(G1.bed, op)[u]
            second = getattr(G2.bed, op)[u]
            if below and not fr.le(first, second):
                below, wit_below = False, (op, u)
            if above and not fr.le(second, first):
                above, wit_above = False, (op, u)
    records.append(_record("LAW.250M.LE", below, wit_below))
    records.append(_record("LAW.250M.GE", above, wit_above))

    try:
        eta_plot = geometric_unit(plot)
        eta_garden, _ = _algebraic_unit_core(G1)
        transpose = functor_G_arrow(eta_plot)
        forward = compose_garden_morphisms(transpose, eta_garden)
        backward = compose_garden_morphisms(eta_garden, transpose)
        ok = (forward == identity_garden_morphism(G1)
              and backward == identity_garden_morphism(G2))
        records.append(_record("LAW.250L", ok))
    except (PostconditionFailure, NotLentile) as err:
        records.append(_record("LAW.250L", False, str(err)))
    return records


def _verify_garden(g):
    records = []
    H = harvest(g)
    flowers = H.structure.nodes
    fr = g.bed.frame
    alpha_star = right_adjoint(g.covering)

    # bloom generator -> its direct image and that image's inverse image,
    # pushed once for both LAW.250J and LAW.250K
    images = {}
    for fl in flowers:
        if fl.bloom.generator not in images:
            pushed = filter_images(g.covering, fl.bloom, "direct")
            images[fl.bloom.generator] = (
                pushed, filter_images(g.covering, pushed, "inverse").generator)

    fixed = True
    wit = None
    for fl in flowers:
        j = alpha_star[g.covering(fl.stalk)]
        gen = fl.bloom.generator
        if j != fl.stalk or images[gen][1] != gen:
            fixed, wit = False, fl
            break
    records.append(_record("LAW.250J", fixed, wit))

    try:
        eta_unit, unit_records = _geometric_unit_core(H)
        if eta_unit is None:
            records.append(_record(
                "LAW.250K", False,
                [r for r in unit_records if not r["passed"]][0]["witness"]))
            return records
        # the unit's image of fl, part by part, against the covering's
        unit = eta_unit.node_map.mapping
        wit = None
        for fl in flowers:
            got = unit[fl]
            if (got.root, got.stalk, got.bloom.generator) != (
                    fl.root, g.covering(fl.stalk),
                    images[fl.bloom.generator][0].generator):
                wit = fl
                break
        records.append(_record("LAW.250K", wit is None, wit))

        eta_garden, alg_records = _algebraic_unit_core(g)
        records.append(alg_records[0])
        if not alg_records[0]["passed"]:
            return records
        transposed = functor_F_arrow(eta_garden)
        one = compose_plot_maps(transposed, eta_unit)
        other = compose_plot_maps(eta_unit, transposed)
        ok = (one == identity_plot_map(H)
              and other == identity_plot_map(transposed.source))
        records.append(_record("LAW.250L", ok))
    except (PostconditionFailure, NotLentile) as err:
        records.append(_record("LAW.250L", False, str(err)))
    return records


def verify_idempotency(x):
    """Round-trip laws for one object.

    For a plot: the lifted operator tables agree with the tables lifted
    again after a harvest round trip (both inclusions reported
    separately), and the unit composites are identities.  For a garden:
    harvested stalks and blooms are fixed points of the covering round
    trip, the unit of the harvest rewrites flowers through the covering,
    and the transposed unit composites are identities.
    """
    if isinstance(x, Garden):
        records = _verify_garden(x)
        kind = "garden"
    else:
        records = _verify_plot(x)
        kind = "plot"
    return {"kind": kind, "records": records,
            "passed": all(r["passed"] for r in records)}
