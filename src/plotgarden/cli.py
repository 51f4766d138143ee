"""Command-line surface: validate, lift, harvest, check, verify, fuzz.

Objects are addressed as ``file.ws#name``; names are unique across a
workspace.  Commands print a human-readable table and optionally write
a versioned JSON report.  Exit codes: 0 when every law passes, 1 when a
counterexample was found, 2 for invalid input.
"""

import argparse
import json
import sys

from . import adjunction, generators, oracles, report
from . import garden as garden_mod
from . import plot as plot_mod
from . import workspace as workspace_mod
from .garden import GardenError
from .lattice import Filter, LatticeError
from .plot import NotLentile, PlotError, PlotMap, PostconditionFailure
from .topology import TopologyError


class UnknownCommand(ValueError):
    pass


def _parse_ref(ref):
    path, sep, name = ref.partition("#")
    if not sep or not name:
        raise workspace_mod.WorkspaceError(
            "object references look like file.ws#name, got %r" % (ref,))
    return path, name


def _load_ref(ref):
    path, name = _parse_ref(ref)
    with open(path, "r", encoding="utf-8") as handle:
        ws = workspace_mod.parse_workspace(handle.read())
    obj = ws.resolve(name)
    category = ws.category_of(name)
    if category == "maps":
        kind = "plot_map" if isinstance(obj, PlotMap) else "garden_morphism"
    else:
        kind = category.rstrip("s")
    return ws, obj, kind


def _sizes(kind, obj):
    if kind == "plot":
        return {"nodes": len(obj.structure.nodes),
                "points": len(obj.space.points),
                "opens": len(obj.space.opens)}
    if kind == "garden":
        return {"elements": len(obj.bed.frame.elements),
                "points": len(obj.space.points),
                "opens": len(obj.space.opens)}
    if kind == "plot_map":
        return {"source": _sizes("plot", obj.source),
                "target": _sizes("plot", obj.target)}
    return {"source": _sizes("garden", obj.source),
            "target": _sizes("garden", obj.target)}


def _flower_record(g):
    """LAW.240B per (point, pattern), building no flowers: _flower_fault
    on each pattern at each of its roots, with the least faulty triple by
    its flower's repr as witness, then the count against
    sum_p |pdd(p)| * |down(pbb(p))|."""
    patterns = garden_mod._patterns(g)
    frame = g.bed.frame
    expected = found = 0
    faults = []
    for p, b in g.top_frame.bit.items():
        pf = garden_mod.point_filters(g, p)
        expected += len(pf["pdd"]) * len(frame.down(pf["pbb"].generator))
        for (a, c), roots in patterns.items():
            if roots & b:
                found += 1
                fault = garden_mod._flower_fault(g, p, a, c)
                if fault:
                    flower = garden_mod.Flower(p, a, Filter(frame, c))
                    faults.append((repr(flower), fault))
    bad = min(faults)[::-1] if faults else None    # (fault, least name)
    if bad is None and expected != found:
        bad = ("count", expected, found)
    return {"id": "LAW.240B", "passed": bad is None, "witness": bad}


def _harvest_record(g):
    try:
        plot = garden_mod.harvest(g)
    except PostconditionFailure as err:
        return {"id": "LAW.240E", "passed": False, "witness": str(err)}
    witness = {"survivors": len(plot.structure.nodes)}
    if plot.unrooted_points:
        witness["unrooted_points"] = sorted(map(str, plot.unrooted_points))
    return {"id": "LAW.240E", "passed": True, "witness": witness}


def law_suite(kind, obj):
    """Every law record that applies to one instance."""
    if kind == "plot":
        records = garden_mod.lift_report(obj)
        records += adjunction.unit_report("geometric", obj)["records"]
        records += adjunction.verify_idempotency(obj)["records"]
        records += adjunction.check_naturality(
            "geometric", plot_mod.identity_plot_map(obj))["records"]
        return records
    if kind == "garden":
        records = [_flower_record(obj), _harvest_record(obj)]
        records += adjunction.verify_idempotency(obj)["records"]
        return records
    if kind == "plot_map":
        # functor_G_arrow classifies the map, raising NotLentile unless it
        # is a lentile plot map, and checks the garden morphism it builds,
        # raising PostconditionFailure, an INTERNAL record, unless it passed
        try:
            plot_mod.functor_G_arrow(obj)
        except NotLentile:
            return []
        records = [{"id": "LAW.230D", "passed": True, "witness": None}]
        records += adjunction.check_naturality("geometric", obj)["records"]
        return records
    if kind == "garden_morphism":
        outcome = garden_mod.check_garden_morphism(obj)
        records = [{"id": "LAW.230D", "passed": outcome["passed"],
                    "witness": None if outcome["passed"]
                    else outcome["witnesses"]}]
        if not outcome["passed"]:
            # F and naturality apply only to garden morphisms
            return records
        _, f_records = garden_mod.functor_F_report(obj)
        records += f_records
        records += adjunction.check_naturality("algebraic", obj)["records"]
        return records
    raise UnknownCommand("no law suite for kind %r" % (kind,))


def _safe_suite(kind, obj):
    try:
        return law_suite(kind, obj)
    except PostconditionFailure as err:
        return [{"id": "INTERNAL", "passed": False, "witness": str(err)}]


def _emit(args, records, instance=None, extra=None):
    print(report.render_records(records))
    doc = report.law_report(records, instance=instance)
    if extra:
        doc.update(report.jsonable(extra))
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(doc))
    return 0 if doc["passed"] else 1


def _require_kind(kind, wanted, ref):
    if kind != wanted:
        raise workspace_mod.WorkspaceError(
            "%s names a %s; this command needs a %s" % (ref, kind, wanted))


def _cmd_validate(args):
    with open(args.file, "r", encoding="utf-8") as handle:
        ws = workspace_mod.parse_workspace(handle.read())
    for name in ws.names():
        print("ok  %-10s  %s" % (ws.category_of(name), name))
    print("%d objects validated" % len(ws.names()))
    return 0


def _cmd_lift(args):
    _, obj, kind = _load_ref(args.ref)
    _require_kind(kind, "plot", args.ref)
    bed = plot_mod.lift_operators(obj)
    for name in bed.frame.by_size():
        print("%-12s  box=%-12s  diamond=%s"
              % (name, bed.box[name], bed.diamond[name]))
    records = garden_mod.lift_report(obj)
    return _emit(args, records, instance={"ref": args.ref,
                                          "sizes": _sizes(kind, obj)})


def _cmd_harvest(args):
    _, obj, kind = _load_ref(args.ref)
    _require_kind(kind, "garden", args.ref)
    records = [_flower_record(obj), _harvest_record(obj)]
    if records[-1]["passed"]:
        plot = garden_mod.harvest(obj)
        for fl in plot.structure.nodes:
            succ = ", ".join(str(s) for s in sorted(plot.structure.succ[fl],
                                                    key=str))
            print("%s  root=%s  ->  [%s]" % (fl, fl.root, succ))
        if plot.unrooted_points:
            print("unrooted points: %s"
                  % ", ".join(sorted(map(str, plot.unrooted_points))))
    return _emit(args, records, instance={"ref": args.ref,
                                          "sizes": _sizes(kind, obj)})


def _cmd_check_map(args):
    _, obj, kind = _load_ref(args.ref)
    if kind == "plot_map":
        verdict = plot_mod.classify_plot_map(obj)
    elif kind == "garden_morphism":
        verdict = garden_mod.check_garden_morphism(obj)
    else:
        raise workspace_mod.WorkspaceError("%s is not a map" % (args.ref,))
    for key in sorted(verdict):
        if key == "witnesses":
            continue
        print("%-18s  %s" % (key, verdict[key]))
    for key in sorted(verdict.get("witnesses", ())):
        print("witness[%s]: %r" % (key, verdict["witnesses"][key]))
    if getattr(args, "report", None):
        doc = report.law_report([], instance={"ref": args.ref,
                                              "sizes": _sizes(kind, obj)})
        doc["classification"] = report.jsonable(verdict)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(doc))
    return 0


def _cmd_unit(args):
    _, obj, kind = _load_ref(args.ref)
    flavour = "algebraic" if args.algebraic else "geometric"
    _require_kind(kind, "garden" if args.algebraic else "plot", args.ref)
    outcome = adjunction.unit_report(flavour, obj)
    morphism = outcome["morphism"]
    if morphism is not None and flavour == "geometric":
        for n in morphism.source.structure.nodes:
            print("%s  ->  %s" % (n, morphism.node_map.mapping[n]))
    elif morphism is not None:
        for x in morphism.source.bed.frame.elements:
            print("%s  ->  %s" % (x, morphism.frame_map.mapping[x]))
    return _emit(args, outcome["records"],
                 instance={"ref": args.ref, "unit": flavour,
                           "sizes": _sizes(kind, obj)})


def _cmd_verify(args):
    _, obj, kind = _load_ref(args.ref)
    records = _safe_suite(kind, obj)
    if not records:
        print("not a lentile map; nothing to verify (see check-map)")
        verdict = plot_mod.classify_plot_map(obj)
        extra = {"classification": verdict}
    else:
        extra = None
    code = _emit(args, records,
                 instance={"ref": args.ref, "sizes": _sizes(kind, obj)},
                 extra=extra)
    if code == 1:
        _write_counterexample(args, kind, obj, _first_failing_law(records))
    return code


def _law_records(kind, obj, law_id):
    if law_id.startswith("ORACLE"):
        records = oracles.oracle_records(kind, obj, {law_id})
    else:
        records = _safe_suite(kind, obj)
    return [r for r in records if r["id"] == law_id]


def _first_failing_law(records):
    return next(r["id"] for r in records if not r["passed"])


def _cmd_oracle(args):
    _, obj, kind = _load_ref(args.ref)
    law_id = args.law_id
    records = _law_records(kind, obj, law_id)
    if not records:
        raise UnknownCommand("law %r does not apply to %s" % (law_id, args.ref))
    code = _emit(args, records,
                 instance={"ref": args.ref, "law": law_id,
                           "sizes": _sizes(kind, obj)})
    if code == 1:
        _write_counterexample(args, kind, obj, law_id)
    return code


def _counterexample_path(args):
    path = getattr(args, "report", None)
    if not path:
        return "counterexample.ws"
    base = path[:-5] if path.endswith(".json") else path
    return base + ".cex.ws"


def _write_counterexample(args, kind, obj, law_id):
    # a smaller candidate must fail the same law as the instance
    def still_fails(candidate):
        return any(not r["passed"]
                   for r in _law_records(kind, candidate, law_id))
    shrunk = generators.shrink_instance(kind, obj, still_fails)
    raw = workspace_mod.instance_workspace(kind, shrunk)
    path = _counterexample_path(args)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    print("counterexample written to %s" % (path,), file=sys.stderr)


def _cmd_fuzz(args):
    profile = (generators.parse_profile(args.profile) if args.profile
               else generators.Profile())
    instances = generators.generate_instances(args.seed, profile,
                                              count=args.count)
    runs = []
    first_failure = None
    for inst in instances:
        kind, obj = inst["kind"], inst["object"]
        records = _safe_suite(kind, obj)
        descriptor = {"name": inst["name"], "kind": kind,
                      "seed": inst["seed"], "index": inst["index"],
                      "sizes": _sizes(kind, obj)}
        if kind == "garden":
            unrooted = garden_mod.harvest(obj).unrooted_points
            if unrooted:
                descriptor["harvest_unrooted"] = sorted(map(str, unrooted))
        doc = report.law_report(records, instance=descriptor)
        runs.append(doc)
        mark = "PASS" if doc["passed"] else "FAIL"
        print("%s  %-22s  %d records" % (mark, inst["name"],
                                         len(doc["records"])))
        if not doc["passed"] and first_failure is None:
            first_failure = (kind, obj, _first_failing_law(records))
    merged = report.merge_reports(runs)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(merged))
    print("%d/%d instances pass" % (sum(r["passed"] for r in runs), len(runs)))
    if first_failure is not None:
        _write_counterexample(args, *first_failure)
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plotgarden",
        description="validate, lift, harvest, and law-check workspace objects")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--report", metavar="PATH",
                       help="write a JSON law report to PATH")
        return p

    p = add("validate", _cmd_validate, help="parse and validate a workspace")
    p.add_argument("file")

    p = add("lift", _cmd_lift, help="lift a plot's operators onto its opens")
    p.add_argument("ref", metavar="FILE#NAME")

    p = add("harvest", _cmd_harvest, help="grow and prune a garden's flowers")
    p.add_argument("ref", metavar="FILE#NAME")

    p = add("check-map", _cmd_check_map, help="classify a map")
    p.add_argument("ref", metavar="FILE#NAME")

    p = add("unit", _cmd_unit, help="build and check a unit morphism")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebraic", action="store_true")
    group.add_argument("--geometric", action="store_true")
    p.add_argument("ref", metavar="FILE#NAME")

    p = add("verify", _cmd_verify, help="run the full law suite on an object")
    p.add_argument("ref", metavar="FILE#NAME")

    p = add("fuzz", _cmd_fuzz, help="law-check generated instances")
    p.add_argument("--seed", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--profile", help="e.g. nodes=1..4,points=2,edge_density=0.5")

    p = add("oracle", _cmd_oracle, help="recompute one law by brute force")
    p.add_argument("law_id", metavar="LAW-ID")
    p.add_argument("ref", metavar="FILE#NAME")

    return parser


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (workspace_mod.WorkspaceError, UnknownCommand, OSError,
            LatticeError, TopologyError, PlotError, GardenError,
            generators.ProfileUnsatisfiable, oracles.OracleTooLarge) as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
