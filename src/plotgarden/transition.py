"""Discrete transition structures and their powerset operators.

A structure is a node set with an arbitrary binary relation, kept as a
successor map.  box(E) collects the nodes all of whose successors lie in
E; diamond(E) the nodes with at least one successor in E.  The relation
and the operator pair determine each other.
"""

import itertools


class TransitionStructure:
    """Nodes plus a successor map.  Successor sets may be shared."""

    def __init__(self, nodes, edges=None, succ=None):
        self.nodes = tuple(sorted(set(nodes), key=str))
        node_set = frozenset(self.nodes)
        if succ is None:
            table = {n: set() for n in self.nodes}
            for a, b in (edges or ()):
                if a not in node_set or b not in node_set:
                    raise ValueError("edge %r mentions unknown node" % ((a, b),))
                table[a].add(b)
            self.succ = {n: frozenset(table[n]) for n in self.nodes}
        else:
            self.succ = {n: frozenset(succ.get(n, ())) for n in self.nodes}
            for n, out in self.succ.items():
                if not out <= node_set:
                    raise ValueError("successors of %r leave the node set" % (n,))

    def successors(self, n):
        return self.succ[n]

    @property
    def edges(self):
        return tuple((a, b) for a in self.nodes
                     for b in sorted(self.succ[a], key=str))

    def __eq__(self, other):
        if not isinstance(other, TransitionStructure):
            return NotImplemented
        return self.nodes == other.nodes and self.succ == other.succ

    def __repr__(self):
        return "TransitionStructure(%d nodes, %d edges)" % (
            len(self.nodes), sum(len(s) for s in self.succ.values()))


class Operators:
    """The box/diamond pair of a structure, as subset-to-subset maps."""

    def __init__(self, structure):
        self.structure = structure

    def box(self, E):
        E = frozenset(E)
        return frozenset(n for n in self.structure.nodes
                         if self.structure.succ[n] <= E)

    def diamond(self, E):
        E = frozenset(E)
        return frozenset(n for n in self.structure.nodes
                         if self.structure.succ[n] & E)


def powerset(items):
    items = sorted(set(items), key=str)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def powerset_operators(structure):
    """box(E) = {n : succ(n) subset of E}, diamond(E) = {n : succ(n) meets E}."""
    return Operators(structure)


class NodeMap:
    """A total map between the node sets of two structures."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        target_nodes = target.succ   # keyed by exactly the target's nodes
        for n in source.nodes:
            if n not in self.mapping:
                raise ValueError("no image for node %r" % (n,))
            if self.mapping[n] not in target_nodes:
                raise ValueError("image of %r not in target" % (n,))

    def __call__(self, n):
        return self.mapping[n]

    def __eq__(self, other):
        if not isinstance(other, NodeMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)


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


def characterize_operators(structure, box, diamond):
    """Check that a box/diamond pair arises from a transition relation.

    box must preserve all intersections (binary plus the empty one, whose
    value is the full node set) and diamond all unions (binary plus the
    empty one).  The relation is then read off as P -> Q iff P is in
    diamond({Q}), and the operators regenerated from it must agree with
    the given pair everywhere.  The report also says whether the read-off
    relation equals the structure's own.
    """
    nodes = structure.nodes
    full = frozenset(nodes)
    box = _as_callable(box)
    diamond = _as_callable(diamond)
    subsets = list(powerset(nodes))
    report = {"lemma_holds": True, "reconstructed_relation_matches": True,
              "matches_structure_relation": True, "witnesses": {}}

    if box(full) != full:
        report["lemma_holds"] = False
        report["witnesses"]["box_empty_intersection"] = sorted(box(full), key=str)
    if diamond(frozenset()) != frozenset():
        report["lemma_holds"] = False
        report["witnesses"]["diamond_empty_union"] = sorted(
            diamond(frozenset()), key=str)
    for E, F in itertools.combinations(subsets, 2):
        if box(E & F) != box(E) & box(F):
            report["lemma_holds"] = False
            report["witnesses"]["box_intersection"] = (sorted(E, key=str),
                                                       sorted(F, key=str))
            break
        if diamond(E | F) != diamond(E) | diamond(F):
            report["lemma_holds"] = False
            report["witnesses"]["diamond_union"] = (sorted(E, key=str),
                                                    sorted(F, key=str))
            break

    relation = frozenset((p, q) for p in nodes for q in nodes
                         if p in diamond(frozenset([q])))
    rebuilt = TransitionStructure(nodes, edges=relation)
    ops = Operators(rebuilt)
    for E in subsets:
        if ops.box(E) != box(E) or ops.diamond(E) != diamond(E):
            report["reconstructed_relation_matches"] = False
            report["witnesses"]["regeneration"] = sorted(E, key=str)
            break
    if frozenset(structure.edges) != relation:
        report["matches_structure_relation"] = False
    report["reconstructed_relation"] = tuple(sorted(relation))
    return report


def _as_callable(op):
    if callable(op):
        return lambda E: frozenset(op(frozenset(E)))
    table = {frozenset(k): frozenset(v) for k, v in dict(op).items()}
    return lambda E: table[frozenset(E)]
