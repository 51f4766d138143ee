"""Finite topological spaces and their closure family.

Opens are stored as explicit frozensets over the point set; closed sets
are derived by complementation.  The module also turns a space's topology
into a FiniteFrame of point masks and a continuous map into the
inverse-image frame morphism, realizing the contravariant open-set functor.
"""

import itertools

from .lattice import FiniteFrame, FrameMorphism


class TopologyError(ValueError):
    pass


class NotATopology(TopologyError):
    pass


class PointUnknown(TopologyError):
    pass


class NotContinuous(TopologyError):
    pass


def set_name(points):
    """Canonical string identifier for a point subset, e.g. '{P,Q}'."""
    return "{%s}" % ",".join(sorted(str(p) for p in points))


class FiniteSpace:
    """A finite point set with an explicit family of open subsets."""

    def __init__(self, points, opens):
        self.points = tuple(sorted(set(points), key=str))
        self.full = frozenset(self.points)
        self.opens = frozenset(frozenset(o) for o in opens)

    def sorted_opens(self):
        return sorted(self.opens, key=lambda o: (len(o), set_name(o)))

    def is_open(self, E):
        return frozenset(E) in self.opens

    def complement(self, E):
        return self.full - frozenset(E)

    def closure(self, E):
        """Smallest closed superset: shave off every open missing E."""
        E = frozenset(E)
        away = frozenset().union(*(V for V in self.opens if not (V & E)))
        return self.full - away

    def interior(self, E):
        E = frozenset(E)
        inside = [V for V in self.opens if V <= E]
        return frozenset().union(*inside) if inside else frozenset()

    def specialization(self):
        """All pairs (p, q) with p below q: every open holding p holds q.

        Computed once per space and shared: every caller gets the same
        frozenset.
        """
        cached = self.__dict__.get("_specialization")
        if cached is not None:
            return cached
        pairs = set()
        for p, q in itertools.product(self.points, repeat=2):
            if all(q in V for V in self.opens if p in V):
                pairs.add((p, q))
        result = frozenset(pairs)
        self.__dict__["_specialization"] = result
        return result

    def saturation(self, E):
        E = frozenset(E)
        order = self.specialization()
        return frozenset(q for q in self.points
                         if any((p, q) in order for p in E))

    def lens(self, E):
        return self.saturation(E) & self.closure(E)

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.opens == other.opens

    def __repr__(self):
        return "FiniteSpace(%d points, %d opens)" % (
            len(self.points), len(self.opens))


def validate_space(points, opens):
    """Build a FiniteSpace, or raise NotATopology naming the first defect."""
    space = FiniteSpace(points, opens)
    for V in space.opens:
        if not V <= space.full:
            raise NotATopology("open %s is not a subset of the points" % set_name(V))
    if frozenset() not in space.opens:
        raise NotATopology("missing the empty set")
    if space.full not in space.opens:
        raise NotATopology("missing the full point set %s" % set_name(space.full))
    for U, V in itertools.combinations(sorted(space.opens, key=set_name), 2):
        if U | V not in space.opens:
            raise NotATopology("missing union %s" % set_name(U | V))
        if U & V not in space.opens:
            raise NotATopology("missing intersection %s" % set_name(U & V))
    return space


class TopologyFrame(FiniteFrame):
    """The opens of a space as a frame; set_of gives a name's open set.

    bit gives each point the bit of its position in space.points, and
    each open's mask is the sum of its points' bits."""

    def __init__(self, space):
        self.space = space
        self.open_sets = {set_name(V): V for V in space.opens}
        self.bit = {p: 1 << i for i, p in enumerate(space.points)}
        super().__init__({name: sum(map(self.bit.__getitem__, self.open_sets[name]))
                          for name in sorted(self.open_sets)})

    def set_of(self, name):
        return self.open_sets[name]


def topology_frame(space):
    """The inclusion-ordered frame of open sets, elements named canonically
    and held as point masks: meet is intersection and join is union.

    Built once per space and shared: every caller gets the same frame,
    which nobody may mutate.
    """
    cached = space.__dict__.get("_topology_frame")
    if cached is None:
        cached = space.__dict__["_topology_frame"] = TopologyFrame(space)
    return cached


class ContinuousMap:
    """A point map between spaces; continuity is checked by open_frame."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, p):
        return self.mapping[p]

    def preimage(self, V):
        return frozenset(p for p in self.source.points if self.mapping[p] in V)

    def __eq__(self, other):
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __repr__(self):
        return "ContinuousMap(%d -> %d points)" % (
            len(self.source.points), len(self.target.points))


def continuity_witness(phi):
    """A target open with a non-open preimage, or None if phi is continuous."""
    for p in phi.source.points:
        if p not in phi.mapping:
            raise PointUnknown("no image for point %r" % (p,))
        if phi.mapping[p] not in phi.target.full:
            raise PointUnknown("image %r not in target" % (phi.mapping[p],))
    for V in phi.target.sorted_opens():
        if not phi.source.is_open(phi.preimage(V)):
            return V
    return None


def open_frame(phi):
    """The inverse-image frame morphism O(target) -> O(source) of a map."""
    witness = continuity_witness(phi)
    if witness is not None:
        raise NotContinuous("preimage of %s is not open" % set_name(witness))
    src_frame = topology_frame(phi.target)
    tgt_frame = topology_frame(phi.source)
    mapping = {set_name(V): set_name(phi.preimage(V)) for V in phi.target.opens}
    return FrameMorphism(src_frame, tgt_frame, mapping)

