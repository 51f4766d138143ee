"""Spans and counts at plotgarden's layer boundaries.

The tracer replaces each traced function with a wrapper wherever the
package binds it: as a module attribute, as an entry of a module-level
table, or as a class attribute for methods.  A wrapper records one span
(id, layer, start, end, parent span, op) and adds its duration minus its
children's to the layer's self time.  ``topology.set_name`` is only
counted, because a single op calls it hundreds of thousands of times.
"""

import collections
import functools
import sys
import time

# layer -> the functions it covers, as (module, qualified name)
LAYERS = {
    "topology.topology_frame": [("topology", "topology_frame")],
    "topology.space_ops": [("topology", "FiniteSpace." + m) for m in (
        "closure", "interior", "saturation", "lens", "specialization")],
    "lattice.check_frame_morphism": [("lattice", "check_frame_morphism")],
    "lattice.validate_frame": [("lattice", "validate_frame")],
    "lattice.adjoint_filters": [("lattice", "right_adjoint"),
                                ("lattice", "filter_images")],
    "transition.build": [("transition", "TransitionStructure.__init__"),
                         ("transition", "NodeMap.__init__")],
    "plot.lift_operators": [("plot", "lift_operators")],
    "plot.classify_plot_map": [("plot", "classify_plot_map")],
    "plot.maps": [("plot", "identity_plot_map"),
                  ("plot", "compose_plot_maps"),
                  ("plot", "Plot.__eq__"), ("plot", "PlotMap.__eq__")],
    "garden.validate_garden": [("garden", "validate_garden")],
    "garden.flower_structure": [("garden", "flower_structure")],
    "garden.harvest": [("garden", "harvest")],
    "garden.functor_F_report": [("garden", "functor_F_report")],
    "garden.check_garden_morphism": [("garden", "check_garden_morphism")],
    # the cores are where every unit is built, whichever caller asks
    "adjunction.unit": [("adjunction", "_algebraic_unit_core"),
                        ("adjunction", "_geometric_unit_core")],
    "adjunction.idempotency": [("adjunction", "verify_idempotency")],
    "adjunction.naturality": [("adjunction", "check_naturality")],
    "oracles": [("oracles", f) for f in (
        "oracle_records", "oracle_filters", "oracle_lens", "oracle_flowers",
        "oracle_harvest")],
    "generators": [("generators", f) for f in (
        "generate_instances", "random_space", "random_structure",
        "random_plot", "random_garden", "random_lentile_map",
        "random_garden_morphism")],
    "report": [("report", f) for f in (
        "law_report", "merge_reports", "render_records", "to_json")],
    "cli.law_suite": [("cli", "law_suite")],
}

# Spans the benchmark opens around its own calls into the workspace layer.
OWN_SPANS = ("workspace.write", "workspace.parse")

COUNTED = {"topology.set_name": ("topology", "set_name")}

# layer -> what makes a call's argument distinct, for calls per object
DISTINCT = {
    "topology.topology_frame": lambda space: (space.points, space.opens),
    "plot.lift_operators": id,
    "garden.harvest": id,
}

SPAN_OPS = 20   # ops whose every span is kept for the trace file


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.spans = []
        self.next_id = 0
        self.op = -1
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.distinct = collections.defaultdict(dict)
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer):
        parent = self.stack[-1][0] if self.stack else None
        frame = [self.next_id, layer, time.perf_counter(), 0.0, parent]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        sid, layer, start, child, parent = frame
        took = end - start
        self.self_s[layer] += took - child
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][3] += took
        if self.op < SPAN_OPS:
            self.spans.append((sid, layer, start, end, parent, self.op))

    def span(self, layer):
        return _Span(self, layer)

    def begin_op(self, index):
        self.op = index
        self.active = True
        return self._enter("op")

    def end_op(self, frame):
        self._leave(frame)
        self.active = False
        counts = {layer: len(seen) for layer, seen in self.distinct.items()}
        self.distinct.clear()
        return counts

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever plotgarden binds it."""
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "plotgarden" or name.startswith("plotgarden.")]
        for layer, targets in LAYERS.items():
            for module, qualname in targets:
                self._replace(package, module, qualname,
                              self._spanning(layer, DISTINCT.get(layer)))
        for layer, (module, qualname) in COUNTED.items():
            self._replace(package, module, qualname, self._counting(layer))

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def _replace(self, package, module, qualname, make):
        owner = sys.modules["plotgarden." + module]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, qualname)
        wrapper = make(original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = wrapper

    def _spanning(self, layer, distinct):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                if distinct is not None:
                    tracer.distinct[layer][distinct(args[0])] = args[0]
                frame = tracer._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leave(frame)
            return traced
        return make

    def _counting(self, layer):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[layer] += 1
                return fn(*args, **kwargs)
            return counted
        return make


class _Span:
    __slots__ = ("tracer", "layer", "frame")

    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.frame = self.tracer._enter(self.layer)

    def __exit__(self, *exc):
        self.tracer._leave(self.frame)
        return False


# The per-layer metrics a traced run prints, with their units.
PER_LAYER = (
    [(layer + ".self_ms", "ms") for layer in list(LAYERS) + list(OWN_SPANS)]
    + [("topology.topology_frame.calls_per_space", "count"),
       ("topology.set_name.calls", "count"),
       ("transition.build.calls", "count"),
       ("plot.lift_operators.calls_per_plot", "count"),
       ("garden.validate_garden.calls", "count"),
       ("garden.harvest.calls", "count"),
       ("garden.harvest.distinct_gardens", "count"),
       ("adjunction.unit.calls", "count")]
    + [("size." + s, "count") for s in (
        "opens", "frame_elements", "candidate_flowers", "survivors",
        "flower_edges")]
    + [("trace.ops_per_s", "1/s")])


def layer_metrics(ops, ops_per_s):
    """Per-op means of self times, calls and sizes over a traced run.

    ``ops`` holds one record per op with its self milliseconds and calls
    per layer, its count of distinct arguments per layer and its sizes.
    """
    n = len(ops)

    def total(field, key):
        return sum(op[field].get(key, 0) for op in ops)

    def per_object(layer):
        objects = total("distinct", layer)
        return total("calls", layer) / objects if objects else 0

    values = {name: total("self_ms", name[:-len(".self_ms")]) / n
              for name, _ in PER_LAYER if name.endswith(".self_ms")}
    values.update({
        "topology.topology_frame.calls_per_space":
            per_object("topology.topology_frame"),
        "plot.lift_operators.calls_per_plot":
            per_object("plot.lift_operators"),
        "garden.harvest.distinct_gardens":
            total("distinct", "garden.harvest") / n,
        "trace.ops_per_s": ops_per_s,
    })
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = total("calls", name[:-len(".calls")]) / n
        elif name.startswith("size."):
            values[name] = total("sizes", name) / n
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
