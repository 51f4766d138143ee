"""Finite frames, frame morphisms with right adjoints, and principal filters.

A finite frame is a finite distributive lattice: a partial order in which
every pair has a meet and a join, with a bottom and a top, such that meet
distributes over join.  Elements are opaque hashable identifiers (strings
in serialized form), and each is held as an int mask, so that meet, join
and order are &, | and inclusion.  By Birkhoff's representation theorem
every finite distributive lattice is a lattice of sets (of its
join-irreducibles), so one encoding serves every frame.
"""

import functools
import itertools
import operator


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
    """A finite distributive lattice whose elements are held as int masks.

    mask sends each element, in order, to an int and element is its
    inverse: meet is &, join is |, the order is inclusion, the bottom's
    mask is 0 and the top's the largest.  A topology frame's masks are
    its opens' point sets; validate_frame's are the join-irreducibles
    below each element (Birkhoff).  least maps each bit b of the top to the
    mask of U_b, the least element holding b.  The constructor trusts them.
    """

    def __init__(self, mask, up=()):
        self.elements = tuple(mask)
        self.mask = mask
        self.element = {m: x for x, m in mask.items()}
        self.bottom = self.element[0]
        full = max(self.element)
        self.top = self.element[full]
        self.least = {b: functools.reduce(int.__and__, filter(b.__and__, self.element))
                      for b in (1 << i for i in range(full.bit_length())) if full & b}
        self._up = dict(up)    # element -> its upper section, filled on demand

    def le(self, a, b):
        m = self.mask[a]
        return m & self.mask[b] == m

    def meet(self, a, b):
        return self.element[self.mask[a] & self.mask[b]]

    def join(self, a, b):
        return self.element[self.mask[a] | self.mask[b]]

    def meet_all(self, xs):
        return self.element[functools.reduce(
            operator.and_, map(self.mask.__getitem__, xs), self.mask[self.top])]

    def join_all(self, xs):
        return self.element[functools.reduce(
            operator.or_, map(self.mask.__getitem__, xs), 0)]

    def up(self, a):
        """The upper section of a: every element above it, a included."""
        if a not in self._up:
            self._up[a] = frozenset(x for x in self.elements if self.le(a, x))
        return self._up[a]

    def down(self, a):
        return frozenset(x for x in self.elements if self.le(x, a))

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):    # the same elements and order, any masks
        if not isinstance(other, FiniteFrame):
            return NotImplemented
        return self.elements == other.elements and (self.mask == other.mask or all(
            self.up(a) == other.up(a) for a in self.elements))

    def __repr__(self):
        return "FiniteFrame(%d elements)" % len(self.elements)


def validate_frame(elements, leq):
    """Check that (elements, leq) is a finite frame and build its masks.

    leq is an iterable of ordered pairs and must already be reflexive and
    transitive.  Raises NotAPoset, NotALattice, or FrameLawViolation with
    a witness; returns a FiniteFrame otherwise, whose mask of x holds the
    position bits of the join-irreducibles below x.
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
    # transitive iff b's up-set lies in a's whenever a <= b
    up = {a: frozenset(b for b in elements if (a, b) in pairs) for a in elements}
    if not all(up[b] <= up[a] for a, b in pairs):
        for a, b in pairs:
            for c in elements:
                if (b, c) in pairs and (a, c) not in pairs:
                    raise NotAPoset("not transitive via %r" % ((a, b, c),))

    # the meet (join) of a pair is the element whose down-set (up-set) is
    # the pair's common lower (upper) bounds; bottom and top then exist
    down = {a: frozenset(b for b in elements if (b, a) in pairs) for a in elements}
    below, above = ({s: a for a, s in sets.items()} for sets in (down, up))
    for a, b in itertools.product(elements, repeat=2):
        for kind, sets, owner in (("meet", down, below), ("join", up, above)):
            if sets[a] & sets[b] not in owner:
                raise NotALattice("pair %r has no %s" % ((a, b), kind))

    # x is join-irreducible when those strictly below x have a greatest one.
    # Unions of these masks are masks exactly when the lattice distributes.
    irreducible = [x for x in elements if down[x] - {x} in below]
    frame = FiniteFrame({a: sum(1 << i for i, x in enumerate(irreducible)
                                if x in down[a]) for a in elements}, up)
    masks = frame.element
    if all(m | n in masks for m in masks for n in masks):
        return frame
    for a, x, y in itertools.product(elements, repeat=3):
        lhs = frame.meet(a, above[up[x] & up[y]])
        rhs = above[up[frame.meet(a, x)] & up[frame.meet(a, y)]]
        if lhs != rhs:
            raise FrameLawViolation(
                "a=%r x=%r y=%r: a^(xvy)=%r but (a^x)v(a^y)=%r"
                % (a, x, y, lhs, rhs))


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
        if f[a] not in target.mask:
            raise TargetElementUnknown("image %r of %r not in target" % (f[a], a))
    violations = []
    if f[source.top] != target.top:
        violations.append(("top", source.top))
    if f[source.bottom] != target.bottom:
        violations.append(("bottom", source.bottom))
    # each source element with its mask and its image's mask
    rows = [(a, m, target.mask[f[a]]) for a, m in source.mask.items()]
    image_of = {m: i for _, m, i in rows}
    # Every element is a join of least elements U_b and a meet of greatest
    # elements M_b, the bits c whose U_c misses b: f keeps joins (meets) iff
    # it keeps those with each U_b (M_b).  Only a failure scans every pair.
    greatest = (sum(c for c, u in source.least.items() if not u & b)
                for b in source.least)
    for law, op, gens in (("meet", operator.and_, greatest),
                          ("join", operator.or_, source.least.values())):
        gens = [(g, image_of[g]) for g in gens]
        if any(image_of[op(m, g)] != op(i, j) for _, m, i in rows for g, j in gens):
            violations.append((law, next((a, b) for a, m, i in rows for b, n, j in rows
                                         if image_of[op(m, n)] != op(i, j))))
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
    image = {b: tgt.mask[f(b)] for b in src.elements}
    return {a: src.join_all(b for b, fb in image.items() if fb & m == fb)
            for a, m in tgt.mask.items()}


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
    {y : f(y) in filt} on the source, returned by its least element, the
    meet of its members' masks.  Every member lies above that meet, so
    the set is principal exactly when it has as many members as the
    meet's upper section.  direction 'direct': filt lives on f's source;
    the result is the upward closure of the image, generated by
    f(generator), which it equals exactly when every f(x), x in filt,
    lies above f(generator).  Both tests are exact for any mapping, and a
    failure raises NotAFilter (impossible for valid inputs).
    """
    mapping = f.mapping
    if direction == "inverse":
        src, tm = f.source, filt.frame.mask
        c = tm[filt.generator]
        members = [m for y, m in src.mask.items() if tm[mapping[y]] & c == c]
        gen = src.element[functools.reduce(operator.and_, members, src.mask[src.top])]
        if len(src.up(gen)) != len(members):
            raise NotAFilter("inverse image not principal at %r" % (gen,))
        return Filter(src, gen)
    if direction == "direct":
        tgt = f.target
        gen = mapping[filt.generator]
        m = tgt.mask[gen]
        if any(tgt.mask[mapping[x]] & m != m for x in filt.members()):
            raise NotAFilter("direct image not principal at %r" % (gen,))
        return Filter(tgt, gen)
    raise ValueError("direction must be 'inverse' or 'direct'")
