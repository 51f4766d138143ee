"""Finite frames, frame morphisms with right adjoints, and principal filters.

A finite frame is a finite distributive lattice: a partial order in which
every pair has a meet and a join, with a bottom and a top, such that meet
distributes over join.  Elements are opaque hashable identifiers (strings
in serialized form).  Meets and joins are precomputed into tables at
validation time so that every downstream check is a table lookup.
"""

import itertools


class LatticeError(ValueError):
    pass


class NotAPoset(LatticeError):
    pass


class NotALattice(LatticeError):
    pass


class FrameLawViolation(LatticeError):
    pass


class TargetElementUnknown(LatticeError):
    pass


class NotAFilter(LatticeError):
    pass


class FiniteFrame:
    """A finite distributive lattice with precomputed meet/join tables.

    Use validate_frame to construct one from an element set and an order
    relation; the constructor trusts its arguments.
    """

    def __init__(self, elements, up, meet, join, bottom, top):
        self.elements = tuple(elements)
        self._up = up          # element -> frozenset of elements above it (inclusive)
        self._meet = meet      # (a, b) -> element
        self._join = join
        self.bottom = bottom
        self.top = top
        self._index = {e: i for i, e in enumerate(self.elements)}

    def le(self, a, b):
        return b in self._up[a]

    def meet(self, a, b):
        return self._meet[(a, b)]

    def join(self, a, b):
        return self._join[(a, b)]

    def meet_all(self, xs):
        out = self.top
        for x in xs:
            out = self._meet[(out, x)]
        return out

    def join_all(self, xs):
        out = self.bottom
        for x in xs:
            out = self._join[(out, x)]
        return out

    def up(self, a):
        """The upper section of a: every element above it, a included."""
        return self._up[a]

    def down(self, a):
        return frozenset(x for x in self.elements if self.le(x, a))

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteFrame):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __repr__(self):
        return "FiniteFrame(%d elements)" % len(self.elements)


def validate_frame(elements, leq):
    """Check that (elements, leq) is a finite frame and build its tables.

    leq is an iterable of ordered pairs and must already be reflexive and
    transitive.  Raises NotAPoset, NotALattice, or FrameLawViolation with
    a witness; returns a FiniteFrame otherwise.
    """
    elements = tuple(sorted(set(elements), key=str))
    if not elements:
        raise NotAPoset("no elements")
    pairs = set()
    for a, b in leq:
        if a not in elements or b not in elements:
            raise NotAPoset("relation mentions unknown element %r" % ((a, b),))
        pairs.add((a, b))
    for a in elements:
        if (a, a) not in pairs:
            raise NotAPoset("not reflexive at %r" % (a,))
    for a, b in pairs:
        if (b, a) in pairs and a != b:
            raise NotAPoset("not antisymmetric on %r" % ((a, b),))
    for a, b in pairs:
        for c in elements:
            if (b, c) in pairs and (a, c) not in pairs:
                raise NotAPoset("not transitive via %r" % ((a, b, c),))

    up = {a: frozenset(b for b in elements if (a, b) in pairs) for a in elements}
    down = {a: frozenset(b for b in elements if (b, a) in pairs) for a in elements}

    def extremum(candidates, bounds, kind, a, b):
        # greatest element of candidates when bounds=down, least when bounds=up
        best = None
        for m in candidates:
            if all(x in bounds[m] for x in candidates):
                best = m
                break
        if best is None:
            raise NotALattice("pair %r has no %s" % ((a, b), kind))
        return best

    meet, join = {}, {}
    for a, b in itertools.product(elements, repeat=2):
        lower = down[a] & down[b]
        meet[(a, b)] = extremum(lower, down, "meet", a, b)
        upper = up[a] & up[b]
        join[(a, b)] = extremum(upper, up, "join", a, b)

    bottom = extremum(frozenset(elements), up, "bottom", "all", "all")
    top = extremum(frozenset(elements), down, "top", "all", "all")

    frame = FiniteFrame(elements, up, meet, join, bottom, top)
    # finite distributivity: the binary law plus a ^ bottom = bottom (automatic)
    # implies the full frame law
    for a, x, y in itertools.product(elements, repeat=3):
        lhs = meet[(a, join[(x, y)])]
        rhs = join[(meet[(a, x)], meet[(a, y)])]
        if lhs != rhs:
            raise FrameLawViolation(
                "a=%r x=%r y=%r: a^(xvy)=%r but (a^x)v(a^y)=%r"
                % (a, x, y, lhs, rhs))
    return frame


class FrameMorphism:
    """A map between frames; validity is checked by check_frame_morphism."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, a):
        return self.mapping[a]

    def __eq__(self, other):
        if not isinstance(other, FrameMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __repr__(self):
        return "FrameMorphism(%d -> %d elements)" % (
            len(self.source.elements), len(self.target.elements))


def check_frame_morphism(mapping, source, target):
    """Report whether mapping preserves top, bottom, meets, and joins.

    Returns {'is_frame_morphism', 'is_surjective', 'violations'} where
    violations is a list of (law, witness) with the first witness per law.
    Raises TargetElementUnknown when the mapping leaves the target.
    """
    f = dict(mapping)
    for a in source.elements:
        if a not in f:
            raise TargetElementUnknown("no image for source element %r" % (a,))
        if f[a] not in target._index:
            raise TargetElementUnknown("image %r of %r not in target" % (f[a], a))
    violations = []
    if f[source.top] != target.top:
        violations.append(("top", source.top))
    if f[source.bottom] != target.bottom:
        violations.append(("bottom", source.bottom))
    for law, table_s, table_t in (("meet", source._meet, target._meet),
                                  ("join", source._join, target._join)):
        for a, b in itertools.product(source.elements, repeat=2):
            if f[table_s[(a, b)]] != table_t[(f[a], f[b])]:
                violations.append((law, (a, b)))
                break
    image = set(f.values())
    return {
        "is_frame_morphism": not violations,
        "is_surjective": image == set(target.elements),
        "violations": violations,
    }


def right_adjoint(f):
    """The right adjoint f_* of a frame morphism f, as a target -> source map.

    Computed as f_*(a) = join of {b : f(b) <= a}; satisfies the Galois law
    f(b) <= a  iff  b <= f_*(a) for every a, b.
    """
    src, tgt = f.source, f.target
    table = {}
    for a in tgt.elements:
        table[a] = src.join_all(b for b in src.elements if tgt.le(f(b), a))
    return table


class Filter:
    """A filter on a finite frame, held by its principal generator.

    Every filter on a finite frame is the upper section of its least
    element, so a single generator denotes the whole set.  The improper
    filter (generated by bottom) is allowed.
    """

    def __init__(self, frame, generator):
        self.frame = frame
        self.generator = generator

    def members(self):
        return self.frame.up(self.generator)

    def __contains__(self, x):
        return self.frame.le(self.generator, x)

    def __eq__(self, other):
        if not isinstance(other, Filter):
            return NotImplemented
        return self.generator == other.generator and self.frame == other.frame

    def __hash__(self):
        return hash(("Filter", self.generator))

    def __repr__(self):
        return "Filter(^%r)" % (self.generator,)


def enumerate_filters(frame):
    """All filters on the frame: one per element, by principal generation."""
    return [Filter(frame, e) for e in frame.elements]


def filter_images(f, filt, direction):
    """Transfer a filter along a frame morphism f.

    direction 'inverse': filt lives on f's target; the result is
    {y : f(y) in filt} on the source, returned by its least element.
    direction 'direct': filt lives on f's source; the result is the upward
    closure of the image, generated by f(generator).
    Both results are re-checked against their set definitions; a mismatch
    raises NotAFilter (impossible for valid inputs, kept as an assertion).
    """
    if direction == "inverse":
        src = f.source
        members = frozenset(y for y in src.elements if f(y) in filt)
        gen = src.meet_all(members)
        if src.up(gen) != members:
            raise NotAFilter("inverse image not principal at %r" % (gen,))
        return Filter(src, gen)
    if direction == "direct":
        tgt = f.target
        gen = f(filt.generator)
        closure = frozenset(
            y for y in tgt.elements
            if any(tgt.le(f(x), y) for x in filt.members()))
        if tgt.up(gen) != closure:
            raise NotAFilter("direct image not principal at %r" % (gen,))
        return Filter(tgt, gen)
    raise ValueError("direction must be 'inverse' or 'direct'")
