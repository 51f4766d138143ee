"""Workspace files: named finite objects in a fixed JSON schema.

A workspace holds spaces, transition structures, frames, beds, plots,
gardens, and maps, each under a name that is unique across the whole
file.  Every name is a JSON string.  Sets are sorted arrays of names,
binary tables are arrays of 2-element arrays, covering tables pair an
element with an array of points, and a table names each element of its
domain exactly once.  No object gives a key twice, and an entry holds
only fields its written form can hold.  Serialization sorts keys and
arrays.  Each entry's written form is built by one function from the
parsed object, so written text parses back and is written again
unchanged.
"""

import json

from .lattice import FrameMorphism, validate_frame
from .topology import ContinuousMap, validate_space
from .transition import NodeMap, TransitionStructure
from .plot import Plot, PlotMap
from .garden import Bed, GardenMorphism, validate_garden

FORMAT_VERSION = 1
CATEGORIES = ("spaces", "structures", "frames", "beds", "plots",
              "gardens", "maps")


class WorkspaceError(ValueError):
    pass


class WorkspaceSyntaxError(WorkspaceError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class UnresolvedReference(WorkspaceError):
    pass


class ValidationError(WorkspaceError):
    pass


class Workspace:
    def __init__(self):
        self.categories = {c: {} for c in CATEGORIES}
        self.raw = {"format_version": FORMAT_VERSION}

    def add(self, category, name, obj, entry):
        for c in CATEGORIES:
            if name in self.categories[c]:
                raise ValidationError("duplicate name %r" % (name,))
        self.categories[category][name] = obj
        self.raw.setdefault(category, {})[name] = entry

    def resolve(self, name):
        for c in CATEGORIES:
            if name in self.categories[c]:
                return self.categories[c][name]
        raise UnresolvedReference("no object named %r" % (name,))

    def category_of(self, name):
        for c in CATEGORIES:
            if name in self.categories[c]:
                return c
        raise UnresolvedReference("no object named %r" % (name,))

    def names(self):
        return sorted(n for c in CATEGORIES for n in self.categories[c])


def _name(value, what, owner):
    if not isinstance(value, str):
        raise ValidationError("names in %s of %r must be strings, not %s"
                              % (what, owner, json.dumps(value)))
    return value


def _names(raw, what, owner, item=_name):
    """A JSON array whose items pass item: names by default."""
    if not isinstance(raw, list):
        raise ValidationError("%s of %r must be an array, not %s"
                              % (what, owner, json.dumps(raw)))
    return [item(x, what, owner) for x in raw]


def _pairs(raw, what, owner, second=_name):
    """An array of 2-element arrays: a name, then a name by default."""
    def pair(item, *_):
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(
                "%s of %r must hold 2-element arrays" % (what, owner))
        return _name(item[0], what, owner), second(item[1], what, owner)
    return _names(raw, what, owner, pair)


def _table(entry, what, owner, domain, value=_name):
    """The table entry[what], which names each element of domain once."""
    table = {}
    for key, val in _pairs(entry[what], what, owner, value):
        if key in table:
            raise ValidationError("%s of %r names %r twice"
                                  % (what, owner, key))
        table[key] = val
    for x in domain:
        if x not in table:
            raise ValidationError("%s of %r misses %r" % (what, owner, x))
    if len(table) != len(domain):
        extra = sorted(set(table) - set(domain))[0]
        raise ValidationError("%s of %r names unknown %r"
                              % (what, owner, extra))
    return table


def _mapping(entry, what, owner, domain, codomain):
    """A table from domain into codomain, for maps that do not check
    their own range."""
    table = _table(entry, what, owner, domain)
    for x in domain:
        if table[x] not in codomain:
            raise ValidationError("%s of %r sends %r outside the target"
                                  % (what, owner, x))
    return table


def _require(entry, name, *fields, optional=()):
    """entry is an object with every one of fields and no other field
    but those in optional: the fields its entry builder writes."""
    if not isinstance(entry, dict):
        raise ValidationError("entry %r must be an object" % (name,))
    for f in fields:
        if f not in entry:
            raise ValidationError("entry %r is missing %r" % (name, f))
    for f in sorted(entry):
        if f not in fields and f not in optional:
            raise ValidationError("entry %r has unknown field %r" % (name, f))


def _ref(ws, category, entry, field, owner):
    name = _name(entry[field], field, owner)
    table = ws.categories[category]
    if name not in table:
        raise UnresolvedReference(
            "%r referenced by %r is not a known %s"
            % (name, owner, category.rstrip("s")))
    return table[name]


def _unique_keys(pairs):
    """A JSON object's pairs as a dict; a key given twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise WorkspaceSyntaxError("key %r is given twice in one object"
                                       % (key,))
        obj[key] = value
    return obj


def parse_workspace(text):
    """Parse and fully validate a workspace file."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise WorkspaceSyntaxError(err.msg, line=err.lineno) from err
    if not isinstance(data, dict):
        raise WorkspaceSyntaxError("top level must be an object")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise WorkspaceSyntaxError("unsupported format_version %r" % (version,))
    for key in data:
        if key != "format_version" and key not in CATEGORIES:
            raise WorkspaceSyntaxError("unknown section %r" % (key,))

    ws = Workspace()
    for category in CATEGORIES:
        section = data.get(category, {})
        if not isinstance(section, dict):
            raise WorkspaceSyntaxError("section %r must be an object"
                                       % (category,))
        for name in sorted(section):
            entry = section[name]
            try:
                obj, canon = _LOADERS[category](ws, name, entry)
            except WorkspaceError:
                raise
            except ValueError as err:
                raise ValidationError("%s %r: %s" % (category.rstrip("s"),
                                                     name, err)) from err
            ws.add(category, name, obj, canon)
    return ws


def _load_space(ws, name, entry):
    _require(entry, name, "points", "opens")
    space = validate_space(
        _names(entry["points"], "points", name),
        [frozenset(o) for o in _names(entry["opens"], "opens", name, _names)])
    return space, _space_entry(space)


def _load_structure(ws, name, entry):
    _require(entry, name, "nodes", "edges")
    st = TransitionStructure(_names(entry["nodes"], "nodes", name),
                             edges=_pairs(entry["edges"], "edges", name))
    return st, _structure_entry(st)


def _load_frame(ws, name, entry):
    _require(entry, name, "elements", "leq")
    frame = validate_frame(_names(entry["elements"], "elements", name),
                           _pairs(entry["leq"], "leq", name))
    return frame, _frame_entry(frame)


def _load_bed(ws, name, entry):
    _require(entry, name, "frame", "box", "diamond")
    frame = _ref(ws, "frames", entry, "frame", name)
    bed = Bed(frame, _table(entry, "box", name, frame.elements),
              _table(entry, "diamond", name, frame.elements))
    return bed, _bed_entry(bed, entry["frame"])


def _load_plot(ws, name, entry):
    _require(entry, name, "structure", "space", "valuation",
             optional=("unrooted",))
    st = _ref(ws, "structures", entry, "structure", name)
    space = _ref(ws, "spaces", entry, "space", name)
    valuation = _table(entry, "valuation", name, st.nodes)
    # harvests may miss points; such plots are admitted when marked
    unrooted = entry.get("unrooted", False)
    if not isinstance(unrooted, bool):
        raise ValidationError("unrooted of %r must be true or false, not %s"
                              % (name, json.dumps(unrooted)))
    plot = Plot(st, space, valuation, _allow_unrooted=unrooted)
    return plot, _plot_entry(plot, entry["structure"], entry["space"])


def _load_garden(ws, name, entry):
    _require(entry, name, "bed", "space", "covering")
    bed = _ref(ws, "beds", entry, "bed", name)
    space = _ref(ws, "spaces", entry, "space", name)
    covering = _table(entry, "covering", name, bed.frame.elements, _names)
    garden = validate_garden(bed, space, covering)
    return garden, _garden_entry(garden, entry["bed"], entry["space"])


_MAP_FIELDS = ("kind", "source", "target", "point_map")


def _load_map(ws, name, entry):
    _require(entry, name, *_MAP_FIELDS, optional=("node_map", "frame_map"))
    kind = entry["kind"]
    if kind == "plot_map":
        _require(entry, name, *_MAP_FIELDS, "node_map")
        source = _ref(ws, "plots", entry, "source", name)
        target = _ref(ws, "plots", entry, "target", name)
        nm = NodeMap(source.structure, target.structure,
                     _table(entry, "node_map", name, source.structure.nodes))
        pm = _mapping(entry, "point_map", name, source.space.points,
                      target.space.full)
        obj = PlotMap(source, target, nm,
                      ContinuousMap(source.space, target.space, pm))
    elif kind == "garden_morphism":
        _require(entry, name, *_MAP_FIELDS, "frame_map")
        source = _ref(ws, "gardens", entry, "source", name)
        target = _ref(ws, "gardens", entry, "target", name)
        src_fr, tgt_fr = source.bed.frame, target.bed.frame
        fm = _mapping(entry, "frame_map", name, src_fr.elements, tgt_fr.mask)
        pm = _mapping(entry, "point_map", name, target.space.points,
                      source.space.full)
        obj = GardenMorphism(source, target, FrameMorphism(src_fr, tgt_fr, fm),
                             ContinuousMap(target.space, source.space, pm))
    else:
        raise ValidationError("map %r has unknown kind %r" % (name, kind))
    return obj, _map_entry(obj, entry["source"], entry["target"])


_LOADERS = {
    "spaces": _load_space,
    "structures": _load_structure,
    "frames": _load_frame,
    "beds": _load_bed,
    "plots": _load_plot,
    "gardens": _load_garden,
    "maps": _load_map,
}


def serialize_workspace(ws):
    return json.dumps(ws.raw, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Entry builders: the one written form of each category, derived from the
# object and the names of the entries it refers to.

def _sorted_pairs(pairs):
    return sorted([str(a), str(b)] for a, b in pairs)


def _space_entry(space):
    return {"points": sorted(map(str, space.points)),
            "opens": sorted(sorted(map(str, o)) for o in space.opens)}


def _structure_entry(st):
    return {"nodes": [str(n) for n in st.nodes],
            "edges": _sorted_pairs(st.edges)}


def _frame_entry(frame):
    return {"elements": [str(e) for e in frame.elements],
            "leq": _sorted_pairs((a, b) for a in frame.elements
                                 for b in frame.up(a))}


def _bed_entry(bed, frame):
    elems = bed.frame.elements
    return {"frame": frame,
            "box": _sorted_pairs((x, bed.box[x]) for x in elems),
            "diamond": _sorted_pairs((x, bed.diamond[x]) for x in elems)}


def _plot_entry(plot, structure, space):
    entry = {"structure": structure, "space": space,
             "valuation": _sorted_pairs((n, plot.valuation[n])
                                        for n in plot.structure.nodes)}
    if not plot.surjective:
        entry["unrooted"] = True
    return entry


def _garden_entry(g, bed, space):
    return {"bed": bed, "space": space,
            "covering": sorted([str(x), sorted(map(str, g.alpha(x)))]
                               for x in g.bed.frame.elements)}


def _map_entry(m, source, target):
    pm = m.point_map
    entry = {"source": source, "target": target,
             "point_map": _sorted_pairs((p, pm(p)) for p in pm.source.points)}
    if isinstance(m, PlotMap):
        nm = m.node_map
        entry["kind"] = "plot_map"
        entry["node_map"] = _sorted_pairs((n, nm(n)) for n in nm.source.nodes)
    else:
        fm = m.frame_map
        entry["kind"] = "garden_morphism"
        entry["frame_map"] = _sorted_pairs((x, fm(x))
                                           for x in fm.source.elements)
    return entry


def instance_workspace(kind, obj, name="cex"):
    """A raw workspace dict holding one generated object and its parts."""
    raw = {"format_version": FORMAT_VERSION}

    def put(category, entry_name, entry):
        raw.setdefault(category, {})[entry_name] = entry

    def put_plot(plot, plot_name):
        put("spaces", plot_name + "_space", _space_entry(plot.space))
        put("structures", plot_name + "_nodes", _structure_entry(plot.structure))
        put("plots", plot_name, _plot_entry(plot, plot_name + "_nodes",
                                            plot_name + "_space"))

    def put_garden(g, g_name):
        put("spaces", g_name + "_space", _space_entry(g.space))
        put("frames", g_name + "_frame", _frame_entry(g.bed.frame))
        put("beds", g_name + "_bed", _bed_entry(g.bed, g_name + "_frame"))
        put("gardens", g_name, _garden_entry(g, g_name + "_bed",
                                             g_name + "_space"))

    if kind == "plot":
        put_plot(obj, name)
    elif kind == "garden":
        put_garden(obj, name)
    elif kind in ("plot_map", "garden_morphism"):
        put_part = put_plot if kind == "plot_map" else put_garden
        put_part(obj.source, name + "_src")
        put_part(obj.target, name + "_tgt")
        put("maps", name, _map_entry(obj, name + "_src", name + "_tgt"))
    else:
        raise ValueError("unknown instance kind %r" % (kind,))
    return raw
