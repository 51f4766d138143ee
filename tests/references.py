"""Reference definitions that tests compare the package against.

The package uses none of these.  They are the textbook forms: box and
diamond over node subsets, the transition-morphism and simulation
verdicts of a node map, and the plot that a finite Boolean algebra
induces through a box table.
"""

import itertools

from plotgarden.generators import _close_topology
from plotgarden.plot import validate_plot
from plotgarden.topology import validate_space
from plotgarden.transition import TransitionStructure


def subsets(items):
    items = sorted(set(items), key=str)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def box(structure, E):
    """The nodes all of whose successors lie in E."""
    E = frozenset(E)
    return frozenset(n for n in structure.nodes if structure.succ[n] <= E)


def diamond(structure, E):
    """The nodes with at least one successor in E."""
    E = frozenset(E)
    return frozenset(n for n in structure.nodes if structure.succ[n] & E)


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


class NotBoolean(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("element %r has no complement" % (witness,))


def spec_boolean(B, box):
    """The plot a finite Boolean algebra induces through a box table.

    Nodes are the principal prime filters, one per atom; there is an
    edge from p to q exactly when everything forced by box at p already
    sits above q; the space carries the topology generated by the
    supports of the algebra's elements, which for a finite algebra is
    discrete; the valuation is the identity.
    """
    for x in B.elements:
        if not any(B.meet(x, c) == B.bottom and B.join(x, c) == B.top
                   for c in B.elements):
            raise NotBoolean(x)
    atoms = [a for a in B.elements
             if a != B.bottom and B.down(a) == frozenset((B.bottom, a))]
    atoms.sort(key=str)
    edges = []
    for p in atoms:
        forced = B.meet_all([b for b in B.elements if B.le(p, box[b])])
        edges.extend((p, q) for q in atoms if B.le(q, forced))
    subbasis = [frozenset(a for a in atoms if B.le(a, b)) for b in B.elements]
    space = validate_space(atoms, _close_topology(atoms, subbasis))
    structure = TransitionStructure(atoms, edges=edges)
    return validate_plot(structure, space, {a: a for a in atoms})
