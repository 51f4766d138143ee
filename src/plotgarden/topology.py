"""Finite topological spaces and their closure family.

Opens are frozensets of points.  A space's TopologyFrame holds them as point
masks, with the least open U_p of each point p: every open is the union of
the U_p inside it (Alexandrov), so the space operators and the topology laws
read this per-point table: its *_mask operators act on point masks, and
FiniteSpace's operators call them.  lens_mask is the lens that the lentile
test of a plot map reads.  The module also turns a continuous map into the
inverse-image frame morphism, realizing the contravariant open-set functor.
"""

import functools
import itertools
import operator

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

    def _frame(self):
        """The space's TopologyFrame, built once; see topology_frame."""
        frame = self.__dict__.get("_topology_frame")
        if frame is None:
            frame = self.__dict__["_topology_frame"] = TopologyFrame(self)
        return frame

    def sorted_opens(self):
        return list(map(self._frame().set_of, self._frame().by_size()))

    def closure(self, E):
        """Smallest closed superset: the points whose least open meets E."""
        frame = self._frame()
        return frame.points_of(frame.closure_mask(frame.mask_of(E)))

    def interior(self, E):
        frame = self._frame()
        return frame.points_of(frame.interior_mask(frame.mask_of(E)))

    def specialization(self):
        """All pairs (p, q) with p below q: q is in p's least open.

        Computed once per space and shared: every caller gets the same
        frozenset.
        """
        cached = self.__dict__.get("_specialization")
        if cached is None:
            frame = self._frame()
            cached = self.__dict__["_specialization"] = frozenset(
                (p, q) for p, b in frame.bit.items()
                for q in frame.points_of(frame.least[b]))
        return cached

    def saturation(self, E):
        frame = self._frame()
        return frame.points_of(frame.saturation_mask(frame.mask_of(E)))

    def lens(self, E):
        frame = self._frame()
        return frame.points_of(frame.lens_mask(frame.mask_of(E)))

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.opens == other.opens

    def __repr__(self):
        return "FiniteSpace(%d points, %d opens)" % (
            len(self.points), len(self.opens))


def validate_space(points, opens):
    """Build a FiniteSpace, or raise NotATopology naming the first defect:
    the pairwise scan runs only if some U_p or V | U_p is missing."""
    space = FiniteSpace(points, opens)
    for V in space.opens:
        if not V <= space.full:
            raise NotATopology("open %s is not a subset of the points" % set_name(V))
    if frozenset() not in space.opens:
        raise NotATopology("missing the empty set")
    if space.full not in space.opens:
        raise NotATopology("missing the full point set %s" % set_name(space.full))
    bit = {p: 1 << i for i, p in enumerate(space.points)}
    masks = {sum(map(bit.__getitem__, V)) for V in space.opens}
    least = [functools.reduce(operator.and_, filter(b.__and__, masks))
             for b in bit.values()]
    if all(u in masks and all(v | u in masks for v in masks) for u in least):
        return space
    for U, V in itertools.combinations(sorted(space.opens, key=set_name), 2):
        if U | V not in space.opens:
            raise NotATopology("missing union %s" % set_name(U | V))
        if U & V not in space.opens:
            raise NotATopology("missing intersection %s" % set_name(U & V))
    return space


class TopologyFrame(FiniteFrame):
    """The opens of a space as a frame; set_of gives a name's open set.

    bit gives each point the bit of its position in space.points, and
    each open's mask is the sum of its points' bits.  The *_mask
    operators act on point masks, through the least opens U_p."""

    def __init__(self, space):
        self.space = space
        self.open_sets = {set_name(V): V for V in space.opens}
        self.bit = {p: 1 << i for i, p in enumerate(space.points)}
        super().__init__({name: self.mask_of(self.open_sets[name])
                          for name in sorted(self.open_sets)})

    def set_of(self, name):
        return self.open_sets[name]

    def by_size(self):
        """The open names, ordered by their open's size, then by name."""
        sets = self.open_sets
        return sorted(sets, key=lambda name: (len(sets[name]), name))

    def mask_of(self, points):
        return sum(map(self.bit.__getitem__, frozenset(points)))

    def points_of(self, m):
        return frozenset(p for p, b in self.bit.items() if m & b)

    def closure_mask(self, m):
        return sum(b for b, u in self.least.items() if u & m)

    def interior_mask(self, m):    # U_q lies in U_p for each q in U_p
        return sum(b for b, u in self.least.items() if u & m == u)

    def saturation_mask(self, m):
        return functools.reduce(operator.or_, (u for b, u in self.least.items()
                                               if m & b), 0)

    def lens_mask(self, m):
        return self.saturation_mask(m) & self.closure_mask(m)


def topology_frame(space):
    """The inclusion-ordered frame of open sets, elements named canonically
    and held as point masks: meet is intersection and join is union.

    Built once per space and shared: every caller gets the same frame,
    which nobody may mutate.
    """
    return space._frame()


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
        if phi.preimage(V) not in phi.source.opens:
            return V
    return None


def open_frame(phi):
    """The inverse-image frame morphism O(target) -> O(source) of a map."""
    witness = continuity_witness(phi)
    if witness is not None:
        raise NotContinuous("preimage of %s is not open" % set_name(witness))
    src_frame = topology_frame(phi.target)
    tgt_frame = topology_frame(phi.source)
    mapping = {name: tgt_frame.element[tgt_frame.mask_of(phi.preimage(V))]
               for name, V in src_frame.open_sets.items()}
    return FrameMorphism(src_frame, tgt_frame, mapping)

