"""Brute-force oracles that recompute results by definition.

Each oracle rebuilds an answer with nothing but exhaustive scans over
subsets and tables, then compares it against the optimized code path.
They are only meant for small instances and refuse anything larger.
"""

from .garden import Flower, flower_structure, harvest
from .lattice import Filter, enumerate_filters
from .topology import set_name

MAX_ELEMENTS = 16
MAX_POINTS = 8


class OracleTooLarge(ValueError):
    pass


def _guard(what, size, cap):
    if size > cap:
        raise OracleTooLarge("%s has %d entries; the oracle cap is %d"
                             % (what, size, cap))


def oracle_filters(frame):
    """Scan all subsets of the frame for filters; compare enumeration.

    A filter is an upward-closed, meet-closed subset containing the top
    element.  Every such subset of a finite lattice is the up-set of
    the meet of its members, so the enumeration must list exactly the
    principal ones, once each.
    """
    els = list(frame.elements)
    _guard("frame", len(els), MAX_ELEMENTS)
    idx = {x: i for i, x in enumerate(els)}
    up_mask = []
    for x in els:
        m = 0
        for y in frame.up(x):
            m |= 1 << idx[y]
        up_mask.append(m)
    # the meet of i and j owns the down-set of their common lower bounds
    down = [sum(1 << k for k, m in enumerate(up_mask) if m >> i & 1)
            for i in range(len(els))]
    owner = {m: i for i, m in enumerate(down)}
    meet_idx = {(i, j): owner[down[i] & down[j]]
                for i in range(len(els)) for j in range(len(els))}
    top_bit = 1 << idx[frame.top]

    found = set()
    for mask in range(1, 1 << len(els)):
        if not mask & top_bit:
            continue
        members = [i for i in range(len(els)) if mask >> i & 1]
        closed_up = 0
        for i in members:
            closed_up |= up_mask[i]
        if closed_up != mask:
            continue
        if any(not mask >> meet_idx[(i, j)] & 1
               for i in members for j in members):
            continue
        found.add(frozenset(els[i] for i in members))

    listed = {}
    for filt in enumerate_filters(frame):
        members = frozenset(filt.members())
        if members != frozenset(frame.up(filt.generator)):
            return {"id": "ORACLE.FILTERS", "passed": False,
                    "witness": ("not principal", filt.generator)}
        if members in listed:
            return {"id": "ORACLE.FILTERS", "passed": False,
                    "witness": ("duplicate", filt.generator)}
        listed[members] = filt
    if set(listed) != found:
        extra = set(listed) - found
        missing = found - set(listed)
        return {"id": "ORACLE.FILTERS", "passed": False,
                "witness": ("mismatch", sorted(map(sorted, extra)),
                            sorted(map(sorted, missing)))}
    return {"id": "ORACLE.FILTERS", "passed": True, "witness": None}


def _subsets(points):
    points = sorted(points)
    for mask in range(1 << len(points)):
        yield frozenset(p for i, p in enumerate(points) if mask >> i & 1)


def oracle_lens(space):
    """Recompute closure, interior, saturation, and lens on all subsets."""
    _guard("space", len(space.points), MAX_POINTS)
    opens = list(space.opens)
    closeds = [space.full - U for U in opens]

    def check(name, got, want, E):
        if got != want:
            return {"id": "ORACLE.LENS", "passed": False,
                    "witness": (name, set_name(E), set_name(got),
                                set_name(want))}
        return None

    for E in _subsets(space.points):
        closure = space.full
        for C in closeds:
            if E <= C:
                closure &= C
        interior = frozenset()
        for U in opens:
            if U <= E:
                interior |= U
        containing = [U for U in opens if E <= U]
        sat = space.full
        for U in containing:
            sat &= U
        bad = (check("closure", space.closure(E), closure, E)
               or check("interior", space.interior(E), interior, E)
               or check("saturation", space.saturation(E), sat, E)
               or check("lens", space.lens(E), sat & closure, E))
        if bad:
            return bad

    order = set()
    for p in space.points:
        for q in space.points:
            if all(p in U or q not in U for U in opens):
                order.add((q, p))
    if space.specialization() != frozenset(order):
        return {"id": "ORACLE.LENS", "passed": False,
                "witness": ("specialization", sorted(order))}
    return {"id": "ORACLE.LENS", "passed": True, "witness": None}


def _filter_tables(g):
    """Explicit member sets of the three filters at every point."""
    frame = g.bed.frame
    _guard("bed frame", len(frame.elements), MAX_ELEMENTS)
    _guard("garden space", len(g.space.points), MAX_POINTS)
    tables = {}
    for p in sorted(g.space.points):
        nabla = frozenset(x for x in frame.elements if p in g.alpha(x))
        boxed = frozenset(x for x in frame.elements if p in g.alpha(g.bed.box[x]))
        lacks = frozenset(x for x in frame.elements
                          if p not in g.alpha(g.bed.diamond[x]))
        tables[p] = (nabla, boxed, lacks)
    return tables


def _scanned_flowers(g):
    """Every candidate flower, by a triple scan over points, stalks and
    bloom generators."""
    frame = g.bed.frame
    tables = _filter_tables(g)
    flowers = set()
    for p in sorted(g.space.points):
        _, boxed, lacks = tables[p]
        for a in frame.elements:
            if a not in lacks:
                continue
            for c in frame.elements:
                up_c = frozenset(frame.up(c))
                if boxed <= up_c:
                    flowers.add(Flower(p, a, Filter(frame, c)))
    return flowers


def oracle_flowers(g):
    """Rebuild the candidate flowers and their edges by triple scan."""
    flowers = _scanned_flowers(g)
    grown = flower_structure(g)
    if flowers != set(grown["flowers"]):
        extra = flowers - set(grown["flowers"])
        missing = set(grown["flowers"]) - flowers
        return {"id": "ORACLE.FLOWERS", "passed": False,
                "witness": ("membership", sorted(map(repr, extra)),
                            sorted(map(repr, missing)))}
    for fl in sorted(flowers, key=repr):
        region = g.alpha(fl.bloom.generator) - g.alpha(fl.stalk)
        succ = frozenset(other for other in flowers if other.root in region)
        if succ != grown["edges"][fl]:
            return {"id": "ORACLE.FLOWERS", "passed": False,
                    "witness": ("edges", repr(fl))}
    return {"id": "ORACLE.FLOWERS", "passed": True, "witness": None}


def oracle_harvest(g):
    """Prune by full rescans and compare against the harvest plot."""
    frame = g.bed.frame
    live = _scanned_flowers(g)

    def healthy(fl, roots):
        # gen <= meet{x : W <= alpha(x)} and join{x : alpha(x) misses W}
        # <= stalk, by what meet and join mean: gen is below each such x
        # and the stalk above each, as the up sets say
        region = g.alpha(fl.bloom.generator) - g.alpha(fl.stalk)
        W = region & roots
        return all((x in frame.up(fl.bloom.generator) or not W <= g.alpha(x))
                   and (fl.stalk in frame.up(x) or g.alpha(x) & W)
                   for x in frame.elements)

    while True:
        roots = frozenset(fl.root for fl in live)
        keep = {fl for fl in live if healthy(fl, roots)}
        if keep == live:
            break
        live = keep

    plot = harvest(g)
    survivors = set(plot.structure.nodes)
    if survivors != live:
        return {"id": "ORACLE.HARVEST", "passed": False,
                "witness": ("membership", sorted(map(repr, live - survivors)),
                            sorted(map(repr, survivors - live)))}
    for fl in sorted(live, key=repr):
        region = g.alpha(fl.bloom.generator) - g.alpha(fl.stalk)
        succ = frozenset(other for other in live if other.root in region)
        if succ != plot.structure.succ[fl]:
            return {"id": "ORACLE.HARVEST", "passed": False,
                    "witness": ("edges", repr(fl))}
        if plot.valuation[fl] != fl.root:
            return {"id": "ORACLE.HARVEST", "passed": False,
                    "witness": ("valuation", repr(fl))}
    return {"id": "ORACLE.HARVEST", "passed": True, "witness": None}


def oracle_records(kind, obj, wanted=None):
    """The applicable oracle records for one instance, or those whose id
    is in wanted: an oracle not wanted does not run, nor check its cap."""
    from .plot import lift_operators
    runs, grown = [], []    # (id, oracle) in order; gardens to harvest
    if kind == "plot":
        runs = [("ORACLE.LENS", lambda: oracle_lens(obj.space)),
                ("ORACLE.FILTERS", lambda: oracle_filters(lift_operators(obj).frame))]
    elif kind == "garden":
        runs = [("ORACLE.LENS", lambda: oracle_lens(obj.space)),
                ("ORACLE.FILTERS", lambda: oracle_filters(obj.bed.frame))]
        grown = [obj]
    elif kind == "plot_map":
        runs = [("ORACLE.LENS", lambda: oracle_lens(obj.target.space))]
    elif kind == "garden_morphism":
        grown = [obj.source, obj.target]
    for g in grown:
        runs += [("ORACLE.FLOWERS", lambda g=g: oracle_flowers(g)),
                 ("ORACLE.HARVEST", lambda g=g: oracle_harvest(g))]
    return [run() for law, run in runs if wanted is None or law in wanted]
