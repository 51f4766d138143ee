"""The four workloads: what one op is, which instances a run covers, and
how each op's output is checked.

A workload picks its instances from the seed (``select``), builds them
(``build``, timed as set-up), runs one op per instance (``run``, timed)
and checks each output (``check``, untimed).  Selection runs in a process
of its own, so its memory stays out of the worker's peak RSS; what it
computes for the checks reaches the worker as JSON in ``expected``.  Every
call into plotgarden goes through a module attribute at call time, so a
traced run sees it.
"""

import itertools
import json
import math
import random

from plotgarden import cli, generators, oracles, report, workspace
import plotgarden

import checks

KINDS = ("plot", "garden", "plot_map", "garden_morphism")

MAKERS = {"plot": "random_plot", "garden": "random_garden",
          "plot_map": "random_lentile_map",
          "garden_morphism": "random_garden_morphism"}


def make_instance(kind, rng, profile):
    return getattr(generators, MAKERS[kind])(rng, profile)


def stratified(draws, lo, hi, bins, per_bin, limit):
    """The first ``per_bin`` draws in each of ``bins`` equal-width bins of
    [lo, hi], in draw order.  ``draws`` yields (size, item) pairs, with
    size None for a draw outside the band."""
    width = (hi - lo) / bins
    chosen = [[] for _ in range(bins)]
    missing = bins * per_bin
    for n, (size, item) in enumerate(draws):
        if n >= limit:
            raise RuntimeError("%d draws did not fill the size bins" % limit)
        if size is None or not lo <= size <= hi:
            continue
        slot = chosen[min(bins - 1, int((size - lo) / width))]
        if len(slot) < per_bin:
            slot.append(item)
            missing -= 1
            if missing == 0:
                return [item for slot in chosen for item in slot]
    raise RuntimeError("draws ran out before the size bins filled")


def space_opens(rng_seed, profile, cap):
    """The number of opens, or cap + 1 if more, of the space that
    ``random_plot(random.Random(rng_seed), profile)`` draws.

    It replays the generator's draws up to the space's subbasis and closes
    the subbasis under meets and joins over bitmasks, which is far cheaper
    than generating a space of hundreds of opens only to skip it.  Only
    used to skip draws: every kept draw is generated by random_plot.
    """
    rng = random.Random(rng_seed)
    n_nodes = rng.randint(max(profile.min_nodes, profile.min_points),
                          profile.max_nodes)
    n_points = rng.randint(profile.min_points,
                           min(profile.max_points, n_nodes))
    rng.shuffle(list(range(n_nodes)))
    targets = list(range(n_points))
    rng.shuffle(targets)
    for _ in range(n_nodes - n_points):
        rng.choice(targets)
    k = max(1, sum(rng.random() < profile.open_density
                   for _ in range(n_points + 1)))
    basis = {(1 << n_points) - 1}
    for _ in range(k):
        basis.add(sum(1 << i for i in range(n_points) if rng.random() < 0.5))
    while True:
        fresh = {a & b for a in basis for b in basis} - basis
        if not fresh:
            break
        basis |= fresh
    opens = {0}
    for b in basis:
        opens |= {o | b for o in opens}
        if len(opens) > cap:
            return cap + 1
    return len(opens)


def garden_sizes(garden):
    """Sizes read from a garden and its (cached) harvest."""
    frame = garden.bed.frame
    candidates = 0
    for p in garden.space.points:
        pf = plotgarden.point_filters(garden, p)
        candidates += len(pf["pdd"]) * len(frame.down(pf["pbb"].generator))
    harvested = plotgarden.harvest(garden)
    return {"size.opens": len(garden.space.opens),
            "size.frame_elements": len(frame.elements),
            "size.candidate_flowers": candidates,
            "size.survivors": len(harvested.structure.nodes),
            "size.flower_edges": sum(len(s) for s in
                                     harvested.structure.succ.values())}


def garden_of(kind, obj):
    """The garden whose sizes stand for an instance of any kind."""
    if kind == "plot":
        return plotgarden.functor_G_object(obj)
    if kind == "plot_map":
        return plotgarden.functor_G_object(obj.source)
    if kind == "garden_morphism":
        return obj.source
    return obj


class Workload:
    collect = False     # collect garbage before each op, untimed
    out_dir = None      # where a workload may write files
    expected = None     # what select() computed for the checks, as JSON

    def build(self, spec):
        return spec


class FuzzDefault(Workload):
    """One op: generate one instance with the default profile, run its law
    suite and build its report, as ``plotgarden fuzz`` does."""

    name = "fuzz-default"
    rate = 400          # nominal ops per second of timed work

    def select(self, seed, seconds):
        count = math.ceil(seconds * self.rate)
        return [[KINDS[i % len(KINDS)], "fuzz:%s:%d" % (seed, i)]
                for i in range(count)]

    def run(self, spec, span):
        kind, rng_seed = spec
        obj = make_instance(kind, random.Random(rng_seed),
                            generators.Profile())
        records = cli.law_suite(kind, obj)
        descriptor = {"name": rng_seed, "kind": kind}
        if kind == "garden":
            unrooted = plotgarden.harvest(obj).unrooted_points
            descriptor["harvest_unrooted"] = sorted(map(str, unrooted))
        doc = report.law_report(records, instance=descriptor)
        return kind, obj, records, doc

    def check(self, index, spec, instance, output):
        kind, _, records, doc = output
        return checks.check_records(kind, records) or (
            None if doc["passed"] else "report does not pass")

    def sizes(self, instance, output):
        kind, obj = output[0], output[1]
        return garden_sizes(garden_of(kind, obj))


class SizedDraws(Workload):
    """Instances drawn with ``random_plot`` and kept by their size.

    Candidates ``bench:KIND:SEED:j`` are kept in draw order when their
    opens, candidate flowers and pattern edges (``checks.Harvest``) lie in
    the workload's windows, into ``bins`` equal-width bins of estimated
    work, the same number in each.  The estimate is a least-squares fit of
    today's law suite time on this machine to the sizes that drive it, so
    every seed gets the same make-up by cost.  One op is the law suite of
    the instance's kind, with its rendered records and report, as
    ``plotgarden verify`` runs it.
    """

    collect = True
    min_opens = 1
    pattern_edges = (0, math.inf)
    bins = 4

    def draws(self, seed):
        profile = generators.parse_profile(self.profile)
        lo, hi = self.candidates
        edges_lo, edges_hi = self.pattern_edges
        for j in itertools.count():
            rng_seed = "bench:%s:%s:%d" % (self.kind, seed, j)
            opens = space_opens(rng_seed, profile, self.max_opens)
            if not self.min_opens <= opens <= self.max_opens:
                yield None, None
                continue
            plot = generators.random_plot(random.Random(rng_seed), profile)
            grown = checks.Harvest(plot)
            if not (lo <= grown.candidates <= hi
                    and edges_lo <= grown.pattern_edges <= edges_hi):
                yield None, None
                continue
            grown.prune()
            yield (self.work_ms(len(plot.space.opens), grown.candidates,
                                len(grown.survivors)), (rng_seed, grown))

    def select(self, seed, seconds):
        per_bin = math.ceil(seconds * self.rate / self.bins)
        lo, hi = self.band
        chosen = stratified(self.draws(seed), lo, hi, self.bins, per_bin,
                            limit=20000)
        self.expected = [grown.summary() for _, grown in chosen]
        return [rng_seed for rng_seed, _ in chosen]

    def plot(self, rng_seed):
        return generators.random_plot(random.Random(rng_seed),
                                      generators.parse_profile(self.profile))

    def run(self, instance, span):
        records = cli.law_suite(self.kind, instance)
        report.render_records(records)
        report.law_report(records, instance={"kind": self.kind})
        return records


class VerifyPlotsMedium(SizedDraws):
    """Medium-tier plots."""

    name = "verify-plots-medium"
    kind = "plot"
    profile = "nodes=16,points=8"
    min_opens, max_opens = 30, 64
    candidates = (1000, 4000)
    band = (250, 350)       # estimated ms of work
    rate = 4

    @staticmethod
    def work_ms(opens, candidates, survivors):
        return (0.072 * opens ** 2 + 0.018 * candidates + 0.34 * survivors
                - 60)

    def build(self, rng_seed):
        return self.plot(rng_seed)

    def check(self, index, spec, plot, records):
        garden = plotgarden.functor_G_object(plot)
        lens = oracles.oracle_lens(plot.space)
        return (checks.check_records("plot", records)
                or checks.check_lift(plot, garden)
                or checks.check_harvest(self.expected[index], garden,
                                        plotgarden.harvest(garden))
                or (None if lens["passed"] else "ORACLE.LENS fails"))

    def sizes(self, plot, records):
        return garden_sizes(plotgarden.functor_G_object(plot))


class VerifyGardensLarge(SizedDraws):
    """Large-tier gardens, each the garden of a random plot."""

    name = "verify-gardens-large"
    kind = "garden"
    profile = "nodes=24,points=10"
    max_opens = 64
    candidates = (1000, 5000)
    # Pattern edges set the harvest's memory; in this window it is about
    # two thirds of the worker's peak RSS.
    pattern_edges = (450000, 700000)
    band = (1000, 2000)     # estimated ms of work
    rate = 1

    @staticmethod
    def work_ms(opens, candidates, survivors):
        return (0.002 * survivors ** 2 + 0.117 * candidates
                + 0.097 * opens ** 2 - 92)

    def build(self, rng_seed):
        return plotgarden.functor_G_object(self.plot(rng_seed))

    def check(self, index, spec, garden, records):
        return (checks.check_records("garden", records)
                or checks.check_harvest(self.expected[index], garden,
                                        plotgarden.harvest(garden)))

    def sizes(self, garden, records):
        return garden_sizes(garden)


class ReplayOracle(Workload):
    """One op: write an instance as ``.cex.ws`` text to a file, read and
    parse it back, run the reparsed instance's law suite and report, then
    every oracle that applies to it."""

    name = "replay-oracle"
    profile = "nodes=6..10,points=3..4"
    rate = 66           # 990 ops: the tail is p95, with 50 samples beyond

    def select(self, seed, seconds):
        return [[KINDS[i % len(KINDS)], "replay:%s:%d" % (seed, i)]
                for i in range(math.ceil(seconds * self.rate))]

    def build(self, spec):
        kind, rng_seed = spec
        return kind, make_instance(kind, random.Random(rng_seed),
                                   generators.parse_profile(self.profile))

    def run(self, instance, span):
        kind, obj = instance
        with span("workspace.write"):
            raw = workspace.instance_workspace(kind, obj)
            text = json.dumps(raw, sort_keys=True, indent=2) + "\n"
            path = self.out_dir / "replay.cex.ws"
            path.write_text(text, encoding="utf-8")
        with span("workspace.parse"):
            ws = workspace.parse_workspace(path.read_text(encoding="utf-8"))
        replayed = ws.resolve("cex")
        records = cli.law_suite(kind, replayed)
        doc = report.to_json(report.law_report(records,
                                               instance={"kind": kind}))
        found = oracles.oracle_records(kind, replayed)
        return text, ws, replayed, records, doc, found

    def check(self, index, spec, instance, output):
        kind, original = instance
        text, ws, _, records, doc, found = output
        if workspace.serialize_workspace(ws) != text:
            return "serialize(parse(text)) does not round-trip"
        if doc != report.to_json(report.law_report(
                cli.law_suite(kind, original), instance={"kind": kind})):
            return "reparsed report differs from the original's"
        return (checks.check_records(kind, records)
                or checks.check_oracles(kind, found))

    def sizes(self, instance, output):
        return garden_sizes(garden_of(instance[0], output[2]))


WORKLOADS = {w.name: w for w in (FuzzDefault, VerifyPlotsMedium,
                                 VerifyGardensLarge, ReplayOracle)}
