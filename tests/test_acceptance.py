"""Acceptance checks, one per shipped guarantee, each printing a verdict line.

Run with -s to see every line:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from pathlib import Path

from plotgarden.workspace import parse_workspace
from plotgarden.plot import (classify_plot_map, functor_G_arrow,
                             functor_G_object, lift_operators)
from plotgarden.topology import ContinuousMap, continuity_witness
from plotgarden.garden import (check_garden_morphism, flower_structure,
                               functor_F_report, lift_report)
from plotgarden.adjunction import (check_naturality, geometric_unit,
                                   verify_idempotency)
from plotgarden.generators import (random_garden, random_garden_morphism,
                                   random_lentile_map, random_plot)
from plotgarden.oracles import OracleTooLarge, oracle_records
from plotgarden.cli import run_cli
from references import classify_node_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures.ws"

_POOLS = {}


def _pool(label, maker, count):
    got = _POOLS.get(label)
    if got is None:
        got = [maker(random.Random("%s:%d" % (label, i)))
               for i in range(count)]
        _POOLS[label] = got
    return got


def plots200():
    return _pool("accept3", random_plot, 200)


def gardens200():
    return _pool("accept5", random_garden, 200)


def lentile100():
    return _pool("accept4", random_lentile_map, 100)


def morphisms100():
    return _pool("accept4g", random_garden_morphism, 100)


def _criterion(n, limit, body):
    start = time.monotonic()
    try:
        detail = body()
    except BaseException as err:
        print("ACCEPT-%d FAIL  %s" % (n, err))
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < limit
    print("ACCEPT-%d %s  %s (%.2fs)" % (n, "PASS" if ok else "FAIL",
                                        detail, elapsed))
    assert ok, "took %.2fs, limit %gs" % (elapsed, limit)


def test_acceptance_1_sierpinski_exact_values():
    def body():
        ws = parse_workspace(FIXTURES.read_text())
        plot = ws.resolve("sierp")
        assert plot.space.specialization() == frozenset(
            [("P", "P"), ("Q", "Q"), ("P", "Q")])
        bed = lift_operators(plot)
        assert bed.box == {
            "{}": "{Q}", "{Q}": "{P,Q}", "{P,Q}": "{P,Q}"}
        assert bed.diamond == {u: "{}" for u in bed.box}
        garden = functor_G_object(plot)
        assert len(flower_structure(garden)["flowers"]) == 9
        unit = geometric_unit(plot)
        m = unit.node_map.mapping
        assert repr(m["P"]) == "(P;{};^{Q})"
        assert repr(m["Q"]) == "(Q;{P,Q};^{})"
        succ = unit.target.structure.succ
        assert succ[m["P"]] == frozenset([m["Q"]])
        assert sum(len(s) for s in succ.values()) == 1
        return ("specialization, lifted tables, 9 candidate flowers, "
                "unit images, single unit edge")
    _criterion(1, 1.0, body)


def test_acceptance_2_map_classification():
    def body():
        ws = parse_workspace(FIXTURES.read_text())
        tight = ws.resolve("tight")
        verdict = classify_plot_map(tight)
        assert verdict["is_plot_map"]
        assert verdict["up_condition"]
        nodes = classify_node_map(tight.node_map)
        assert nodes["is_transition_morphism"]
        assert not nodes["is_simulation"]

        homeo = ws.resolve("homeo")
        verdict = classify_plot_map(homeo)
        assert verdict["is_plot_map"]
        assert not verdict["minus_condition"]
        pm = homeo.point_map
        assert sorted(pm.mapping.values()) == sorted(pm.target.points)
        assert continuity_witness(pm) is None
        inverse = ContinuousMap(pm.target, pm.source,
                                {v: k for k, v in pm.mapping.items()})
        assert continuity_witness(inverse) is None
        assert sorted(homeo.node_map.mapping.values()) == sorted(
            homeo.target.structure.nodes)
        return ("structure-preserving map is not a simulation; "
                "homeomorphic map fails the complement condition")
    _criterion(2, 1.0, body)


def test_acceptance_3_lifted_bed_laws():
    def body():
        for plot in plots200():
            for record in lift_report(plot):
                assert record["passed"], (plot, record)
        return "200 generated plots, five bed laws + both lax laws, 0 failures"
    _criterion(3, 30.0, body)


def test_acceptance_4_functor_arrows():
    def body():
        for m in lentile100():
            assert check_garden_morphism(functor_G_arrow(m))["passed"]
        for gm in morphisms100():
            arrow, records = functor_F_report(gm)
            assert arrow is not None
            assert [r["id"] for r in records] == [
                "LAW.240G", "LAW.240H", "LAW.240I", "LAW.240J"]
            assert all(r["passed"] for r in records), records
        return "100 G-arrows and 100 F-arrows, all postconditions hold"
    _criterion(4, 120.0, body)


def test_acceptance_5_idempotency_and_naturality():
    def body():
        for plot in plots200():
            out = verify_idempotency(plot)
            assert out["passed"], (plot, out["records"])
        for g in gardens200():
            out = verify_idempotency(g)
            assert out["passed"], (g, out["records"])
        for m in lentile100():
            out = check_naturality("geometric", m)
            assert out["passed"], (m, out["records"])
        for gm in morphisms100():
            out = check_naturality("algebraic", gm)
            assert out["passed"], (gm, out["records"])
        return ("round trips exact on 200 plots and 200 gardens; "
                "naturality on 100 lentile maps and 100 garden morphisms")
    _criterion(5, 300.0, body)


def test_acceptance_6_oracle_equivalence():
    def body():
        pools = ([("plot", p) for p in plots200()]
                 + [("garden", g) for g in gardens200()]
                 + [("plot_map", m) for m in lentile100()]
                 + [("garden_morphism", gm) for gm in morphisms100()])
        checked = skipped = 0
        for kind, obj in pools:
            try:
                records = oracle_records(kind, obj)
            except OracleTooLarge:
                skipped += 1
                continue
            checked += 1
            for record in records:
                assert record["passed"], (kind, record)
        assert checked > skipped
        return ("%d instances match all applicable oracles "
                "(%d beyond the size caps skipped)" % (checked, skipped))
    _criterion(6, 120.0, body)


def test_acceptance_7_deterministic_fuzzing(tmp_path):
    def body():
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert run_cli(["fuzz", "--seed", "7", "--count", "100",
                        "--report", str(first)]) == 0
        assert run_cli(["fuzz", "--seed", "7", "--count", "100",
                        "--report", str(second)]) == 0
        payload = first.read_bytes()
        assert payload == second.read_bytes()
        return ("two fuzz runs over 100 seeded instances wrote identical "
                "%d-byte reports" % len(payload))
    _criterion(7, 120.0, body)
