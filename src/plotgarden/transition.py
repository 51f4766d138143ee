"""Discrete transition structures and the node maps between them.

A structure is a node set with an arbitrary binary relation, kept as a
successor map.  box(E) collects the nodes all of whose successors lie in
E; diamond(E) the nodes with at least one successor in E.  The package
applies them only to valuation preimages of opens, through each node's
successor set, when plot.lift_operators lifts them onto a space.
"""

from collections.abc import Mapping


class TransitionStructure:
    """Nodes plus a successor map whose successor sets are unions of
    node groups.

    nodes is either an iterable of nodes, each a group of its own keyed
    by itself, or a dict from group keys to disjoint, non-empty groups
    of nodes.  succ maps each node to the keys of the groups it steps to,
    and edges lists (node, group key) pairs instead; with plain nodes
    both are the usual successor sets and edges.  An explicit structure is
    thus the case where every group is a single node.  The harvest groups
    its flowers by root, so one set of roots per stalk/bloom pattern
    stores the successors of all the pattern's flowers.

    groups maps each key to its nodes and steps each node to its group
    keys; nodes given one key set object share it.  succ[n] is n's
    successor set: for plain nodes succ is steps itself, and otherwise
    a read-only mapping that expands n's keys into a frozenset of nodes
    on every read and keeps nothing.  edges lists every (node,
    successor) pair.  Validation, and equality between structures
    with equal groups, read the key sets, so they cost the stored size,
    not the number of edges.
    """

    def __init__(self, nodes, edges=None, succ=None):
        grouped = isinstance(nodes, dict)
        if grouped:
            self.groups = {k: frozenset(v) for k, v in nodes.items()}
            members = [n for group in self.groups.values() for n in group]
            node_set = frozenset(members)
            if len(node_set) != len(members):
                raise ValueError("node groups overlap")
            if not all(self.groups.values()):
                raise ValueError("a node group is empty")
        else:
            node_set = frozenset(nodes)
            # n -> frozenset({n}), built in C: fuzzed structures are small
            # and many
            self.groups = dict(zip(node_set, map(frozenset, zip(node_set))))
        self.nodes = tuple(sorted(node_set, key=str))
        if succ is None:
            table = {n: set() for n in self.nodes}
            for a, b in (edges or ()):
                if a not in node_set or b not in self.groups:
                    raise ValueError("edge %r mentions unknown node" % ((a, b),))
                table[a].add(b)
            self.steps = {n: frozenset(table[n]) for n in self.nodes}
        else:
            # frozenset() of a frozenset is that object, so shared key
            # sets stay shared and are checked once each
            self.steps = {n: frozenset(succ.get(n, ())) for n in self.nodes}
            checked = set()
            for n, keys in self.steps.items():
                if id(keys) not in checked:
                    if not keys <= self.groups.keys():
                        raise ValueError(
                            "successors of %r leave the node set" % (n,))
                    checked.add(id(keys))
        # with plain nodes each key is its own node: succ is steps
        self.succ = (_Successors(self.steps, self.groups) if grouped
                     else self.steps)

    def successors(self, n):
        return self.succ[n]

    @property
    def edges(self):
        return tuple((a, b) for a in self.nodes
                     for b in sorted(self.succ[a], key=str))

    def __eq__(self, other):
        if not isinstance(other, TransitionStructure):
            return NotImplemented
        if self.nodes != other.nodes:
            return False
        if self.groups == other.groups:
            # disjoint non-empty groups: equal key sets, equal successors
            return self.steps == other.steps
        return all(self.succ[n] == other.succ[n] for n in self.nodes)

    def __repr__(self):
        return "TransitionStructure(%d nodes, %d edges)" % (
            len(self.nodes), sum(len(self.groups[k])
                                 for keys in self.steps.values()
                                 for k in keys))


class _Successors(Mapping):
    """Node -> successor set, expanded from the node's group keys when
    read and not kept."""

    __slots__ = ("_steps", "_groups")

    def __init__(self, steps, groups):
        self._steps = steps
        self._groups = groups

    def __getitem__(self, n):
        return frozenset().union(*[self._groups[k] for k in self._steps[n]])

    def __contains__(self, n):
        return n in self._steps

    def __iter__(self):
        return iter(self._steps)

    def __len__(self):
        return len(self._steps)


class NodeMap:
    """A total map between the node sets of two structures."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        target_nodes = target.steps   # keyed by exactly the target's nodes
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
