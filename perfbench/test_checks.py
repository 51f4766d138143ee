"""The benchmark's own tests: every output check accepts a real result and
rejects a deliberately corrupted one, and the tracer leaves the package
as it found it.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import plotgarden  # noqa: E402
from plotgarden import (Bed, Plot, TransitionStructure, cli,  # noqa: E402
                        functor_G_object, generators, harvest)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def plots(count=6, profile="nodes=8,points=4"):
    prof = generators.parse_profile(profile)
    return [generators.random_plot(random.Random("test:%d" % i), prof)
            for i in range(count)]


def grown_plot():
    """A plot whose harvest keeps flowers with successors."""
    for plot in plots(40):
        h = harvest(functor_G_object(plot))
        if any(h.structure.succ[fl] for fl in h.structure.nodes):
            return plot
    raise AssertionError("no plot with harvest edges")


def test_records_check_rejects_failed_missing_and_doubled_records():
    plot = plots(1)[0]
    records = cli.law_suite("plot", plot)
    assert checks.check_records("plot", records) is None
    failed = copy.deepcopy(records)
    failed[3]["passed"] = False
    assert "fail" in checks.check_records("plot", failed)
    assert checks.check_records("plot", records[1:]) is not None
    assert checks.check_records("plot", records + records[:1]) is not None
    assert checks.check_records("garden", records) is not None


def test_oracles_check_rejects_a_failed_or_missing_oracle():
    found = plotgarden.oracle_records("plot", plots(1)[0])
    assert checks.check_oracles("plot", found) is None
    failed = copy.deepcopy(found)
    failed[1]["passed"] = False
    assert checks.check_oracles("plot", failed) is not None
    assert checks.check_oracles("plot", found[:1]) is not None


def test_lift_check_rejects_a_corrupted_box_and_diamond():
    plot = grown_plot()
    garden = functor_G_object(plot)
    assert checks.check_lift(plot, garden) is None
    frame = garden.bed.frame
    for table in ("box", "diamond"):
        tables = {"box": dict(garden.bed.box),
                  "diamond": dict(garden.bed.diamond)}
        x = frame.elements[0]
        tables[table][x] = next(y for y in frame.elements
                                if y != tables[table][x])
        bad = copy.copy(garden)
        bad.bed = Bed(frame, tables["box"], tables["diamond"])
        assert table in checks.check_lift(plot, bad)


def test_independent_harvest_agrees_with_the_package():
    for plot in plots(12):
        expected = checks.Harvest(plot).prune().summary()
        garden = functor_G_object(plot)
        assert checks.check_harvest(expected, garden, harvest(garden)) is None


def _reharvest(h, drop=None, succ=None):
    nodes = [fl for fl in h.structure.nodes if fl is not drop]
    table = {fl: h.structure.succ[fl] - {drop} for fl in nodes}
    table.update(succ or {})
    return Plot(TransitionStructure(nodes, succ=table), h.space,
                {fl: h.valuation[fl] for fl in nodes}, _allow_unrooted=True)


def test_harvest_check_rejects_a_lost_survivor_a_lost_edge_and_a_bad_count():
    plot = grown_plot()
    garden = functor_G_object(plot)
    h = harvest(garden)
    expected = checks.Harvest(plot).prune().summary()
    assert checks.check_harvest(expected, garden, _reharvest(h)) is None
    assert "keeps" in checks.check_harvest(
        expected, garden, _reharvest(h, drop=h.structure.nodes[0]))
    fl = next(f for f in h.structure.nodes if h.structure.succ[f])
    thinned = {fl: frozenset(list(h.structure.succ[fl])[1:])}
    assert "successors" in checks.check_harvest(
        expected, garden, _reharvest(h, succ=thinned))
    miscounted = dict(expected, edges=expected["edges"] + 1)
    assert "edges" in checks.check_harvest(miscounted, garden, h)


def test_fuzz_check_rejects_a_failed_report():
    wl = workloads.FuzzDefault()
    for spec in wl.select("t", 0.01):
        output = wl.run(spec, worker._no_span)
        assert wl.check(0, spec, spec, output) is None
        kind, obj, records, doc = output
        assert wl.check(0, spec, spec, (kind, obj, records,
                                        dict(doc, passed=False)))
        assert wl.check(0, spec, spec, (kind, obj, records[:-1], doc))


def test_replay_check_rejects_a_broken_round_trip_report_and_oracle(
        tmp_path):
    wl = workloads.ReplayOracle()
    wl.out_dir = tmp_path
    for spec in wl.select("t", 1)[:4]:
        instance = wl.build(spec)
        output = wl.run(instance, worker._no_span)
        assert wl.check(0, spec, instance, output) is None
        text, ws, replayed, records, doc, found = output
        assert "round-trip" in wl.check(
            0, spec, instance, (text + " ",) + output[1:])
        assert "report" in wl.check(
            0, spec, instance, output[:4] + (doc.replace("true", "false"),
                                             found))
        failed = copy.deepcopy(found)
        failed[0]["passed"] = False
        assert "oracles" in wl.check(0, spec, instance,
                                     output[:5] + (failed,))


def test_plots_check_rejects_a_corrupted_lift():
    wl = workloads.VerifyPlotsMedium()
    plot = grown_plot()
    wl.expected = [checks.Harvest(plot).prune().summary()]
    records = wl.run(plot, worker._no_span)
    assert wl.check(0, None, plot, records) is None
    garden = functor_G_object(plot)
    x = garden.bed.frame.elements[-1]
    garden.bed.diamond[x] = next(y for y in garden.bed.frame.elements
                                 if y != garden.bed.diamond[x])
    assert wl.check(0, None, plot, records) is not None


def test_stratified_fills_every_bin_in_draw_order():
    draws = iter([(5, "a"), (None, "x"), (1, "b"), (6, "c"), (2, "d"),
                  (9, "y"), (3, "e")])
    assert workloads.stratified(draws, 1, 6, 2, 2, 100) == ["b", "d",
                                                            "a", "c"]
    with pytest.raises(RuntimeError):
        workloads.stratified(iter([(1, "a")] * 5), 1, 6, 2, 1, 100)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail_percentile(19) == 50
    assert worker.tail_percentile(40) == 75
    assert worker.tail_percentile(1000) == 99
    assert worker.tail_percentile(10000) == 99.9
    assert worker.percentile(list(range(1, 101)), 99) == 99


def test_tracer_counts_calls_and_restores_the_package():
    original = plotgarden.topology.set_name
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert plotgarden.topology.set_name is not original
        assert plotgarden.garden.set_name is plotgarden.topology.set_name
        frame = tracer.begin_op(0)
        cli.law_suite("plot", plots(1)[0])
        distinct = tracer.end_op(frame)
    finally:
        tracer.uninstall()
    assert plotgarden.topology.set_name is original
    assert plotgarden.generators._MAKERS["plot"] is \
        plotgarden.generators.random_plot
    assert tracer.calls["cli.law_suite"] == 1
    assert tracer.calls["topology.set_name"] > 0
    assert distinct["topology.topology_frame"] >= 1
    total = sum(tracer.self_s.values())
    op_span = next(s for s in tracer.spans if s[1] == "op")
    assert total == pytest.approx(op_span[3] - op_span[2])


def test_benchmark_file_names_every_metric_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    metrics = worker.end_to_end([0.1, 0.2, 0.3])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [("setup_s", "s")] + [(k, v["unit"]) for k, v in metrics.items()]
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS) == list(run.WORKLOADS)


def test_space_size_replay_matches_random_plot():
    for text in ("nodes=24,points=10", "nodes=16,points=8", ""):
        profile = generators.parse_profile(text)
        for i in range(40):
            rng_seed = "test:space:%s:%d" % (text, i)
            plot = generators.random_plot(random.Random(rng_seed), profile)
            opens = len(plot.space.opens)
            assert workloads.space_opens(rng_seed, profile, 10 ** 4) == opens
            assert workloads.space_opens(rng_seed, profile, 3) == min(opens,
                                                                     4)
