"""Output checks computed apart from plotgarden's fast paths.

Every check rebuilds what it compares against from the definitions, with
plain set operations over the public data of the objects: points, opens,
successor sets and valuations.  None of them calls the code it checks.
A check returns None when the output is right and a one-line reason
when it is not.
"""

import collections
import hashlib
import json

# The law ids each kind's suite must report, read off the law suite's
# definition: lift, unit, idempotency and naturality records for a plot;
# flower, harvest and round-trip records for a garden; the morphism and
# naturality records for the two kinds of map.
EXPECTED_LAWS = {
    "plot": ("LAW.220G", "LAW.220J", "LAW.250F", "LAW.250G", "LAW.250H",
             "LAW.250L", "LAW.250M.GE", "LAW.250M.LE", "LAW.250N.B",
             "LAW.250N.R", "LAW.250N.S"),
    "garden": ("LAW.240B", "LAW.240E", "LAW.250A", "LAW.250J", "LAW.250K",
               "LAW.250L"),
    "plot_map": ("LAW.230D", "LAW.250N.B", "LAW.250N.R", "LAW.250N.S"),
    "garden_morphism": ("LAW.230D", "LAW.240G", "LAW.240H", "LAW.240I",
                        "LAW.240J", "LAW.250C"),
}

# The oracle records that apply to each kind, in the order they run.
EXPECTED_ORACLES = {
    "plot": ("ORACLE.LENS", "ORACLE.FILTERS"),
    "garden": ("ORACLE.LENS", "ORACLE.FILTERS", "ORACLE.FLOWERS",
               "ORACLE.HARVEST"),
    "plot_map": ("ORACLE.LENS",),
    "garden_morphism": ("ORACLE.FLOWERS", "ORACLE.HARVEST",
                        "ORACLE.FLOWERS", "ORACLE.HARVEST"),
}


def check_records(kind, records, expected=EXPECTED_LAWS):
    """Every expected record is present exactly once, and all pass."""
    ids = sorted(r["id"] for r in records)
    want = sorted(expected[kind])
    if ids != want:
        return "%s records %s, expected %s" % (kind, ids, want)
    failed = [r["id"] for r in records if not r["passed"]]
    if failed:
        return "%s records fail: %s" % (kind, failed)
    return None


def check_oracles(kind, records):
    got = tuple(r["id"] for r in records)
    if got != EXPECTED_ORACLES[kind]:
        return "%s oracles %s, expected %s" % (kind, got,
                                               EXPECTED_ORACLES[kind])
    failed = [r["id"] for r in records if not r["passed"]]
    if failed:
        return "%s oracles fail: %s" % (kind, failed)
    return None


def lifted_tables(plot):
    """Box and diamond lifted onto the opens, node by node.

    The lift of U is the union of the opens V whose preimage under the
    valuation lies inside box (or diamond) of the preimage of U.
    """
    succ, sigma = plot.structure.succ, plot.valuation
    nodes = plot.structure.nodes
    opens = list(plot.space.opens)
    pre = {V: frozenset(n for n in nodes if sigma[n] in V) for V in opens}
    box, diamond = {}, {}
    for U in opens:
        box_nodes = frozenset(n for n in nodes if succ[n] <= pre[U])
        dia_nodes = frozenset(n for n in nodes if succ[n] & pre[U])
        box[U] = frozenset().union(*[V for V in opens if pre[V] <= box_nodes])
        diamond[U] = frozenset().union(
            *[V for V in opens if pre[V] <= dia_nodes])
    return box, diamond


def check_lift(plot, garden):
    """The garden of a plot carries the node-level lifted tables."""
    box, diamond = lifted_tables(plot)
    element_of = {frozenset(garden.alpha(x)): x
                  for x in garden.bed.frame.elements}
    if len(element_of) != len(plot.space.opens):
        return "frame has %d elements for %d opens" % (
            len(element_of), len(plot.space.opens))
    for U in plot.space.opens:
        x = element_of.get(U)
        if x is None:
            return "open %s has no frame element" % (sorted(U),)
        if garden.alpha(garden.bed.box[x]) != box[U]:
            return "lifted box differs at %s" % (sorted(U),)
        if garden.alpha(garden.bed.diamond[x]) != diamond[U]:
            return "lifted diamond differs at %s" % (sorted(U),)
    return None


class Harvest:
    """The harvest of a plot's garden, from the definitions alone.

    The garden of a plot has the opens as elements, inclusion as order
    and the lifted tables as operators.  A flower is a root p, a stalk a
    and a bloom c with p outside diamond(a) and c inside every x whose
    box holds p.  A set of flowers is healthy when each member, stepping
    to the members rooted in c - a, escapes every open not above c and
    reaches every open not below a.  The survivors are the greatest
    healthy set, found by ``prune`` rescanning every flower until nothing
    changes.  Flowers are (root, stalk, bloom) triples of point sets.
    """

    def __init__(self, plot):
        box, diamond = lifted_tables(plot)
        self.opens = list(plot.space.opens)
        self.flowers = []
        for p in plot.space.points:
            boxed = [x for x in self.opens if p in box[x]]
            stalks = [a for a in self.opens if p not in diamond[a]]
            blooms = [c for c in self.opens if all(c <= x for x in boxed)]
            self.flowers.extend((p, a, c) for a in stalks for c in blooms)
        self.candidates = len(self.flowers)
        # Flowers sharing a stalk and bloom share one successor set of all
        # candidates rooted in c - a; their total size drives the memory
        # of building the candidate structure.
        per_root = collections.Counter(fl[0] for fl in self.flowers)
        self.pattern_edges = sum(
            sum(per_root[q] for q in c - a)
            for a, c in {(a, c) for _, a, c in self.flowers})

    def prune(self):
        opens = self.opens
        verdicts = {}

        def healthy(a, c, W):
            key = (a, c, W)
            got = verdicts.get(key)
            if got is None:
                got = all((c <= x or not W <= x) and (x <= a or bool(W & x))
                          for x in opens)
                verdicts[key] = got
            return got

        live = self.flowers
        while True:
            roots = frozenset(fl[0] for fl in live)
            keep = [fl for fl in live
                    if healthy(fl[1], fl[2], (fl[2] - fl[1]) & roots)]
            if len(keep) == len(live):
                break
            live = keep
        self.survivors = frozenset(live)
        per_root = collections.Counter(fl[0] for fl in live)
        self.edges = sum(per_root[q] for _, a, c in live for q in c - a)
        return self

    def summary(self):
        """Survivor count, digest and edge count, small enough to pass to
        the worker without weighing on its memory."""
        return {"survivors": len(self.survivors),
                "digest": digest(self.survivors), "edges": self.edges}


def digest(flowers):
    """A digest of a set of (root, stalk, bloom) point-set triples."""
    canonical = sorted([str(p), sorted(map(str, a)), sorted(map(str, c))]
                       for p, a, c in flowers)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def check_harvest(expected, garden, harvested):
    """The garden's harvest holds exactly the survivors of a
    ``Harvest.summary``, and each survivor steps to exactly the survivors
    rooted in its region."""
    def triple(fl):
        return (fl.root, frozenset(garden.alpha(fl.stalk)),
                frozenset(garden.alpha(fl.bloom.generator)))

    nodes = harvested.structure.nodes
    got = {fl: triple(fl) for fl in nodes}
    if len(got) != expected["survivors"]:
        return "harvest keeps %d flowers, expected %d" % (
            len(got), expected["survivors"])
    if digest(got.values()) != expected["digest"]:
        return "harvest survivors differ from the full-rescan fixpoint"
    by_root = collections.defaultdict(set)
    for t in got.values():
        by_root[t[0]].add(t)
    checked = set()
    edges = 0
    for fl in nodes:
        succ = harvested.structure.succ[fl]
        edges += len(succ)
        root, a, c = got[fl]
        if (id(succ), a, c) in checked:
            continue
        want = set().union(*[by_root[q] for q in c - a])
        if {got[s] for s in succ} != want:
            return "successors of %r differ from the definition" % (fl,)
        checked.add((id(succ), a, c))
    if edges != expected["edges"]:
        return "harvest has %d flower edges, expected %d" % (
            edges, expected["edges"])
    for fl in nodes:
        if harvested.valuation[fl] != fl.root:
            return "flower %r is not valued at its root" % (fl,)
    return None
