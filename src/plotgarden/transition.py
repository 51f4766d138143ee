"""Discrete transition structures and the node maps between them.

A structure is a node set with an arbitrary binary relation, kept as a
successor map.  box(E) collects the nodes all of whose successors lie in
E; diamond(E) the nodes with at least one successor in E.  The package
applies them only to valuation preimages of opens, through each node's
successor set, when plot.lift_operators lifts them onto a space.
"""


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
