"""Workloads of the served-rewrite benchmark.

Every workload is a closed loop (callers are query compilers that block on
the reply) against one :class:`repro.ViewServer`, driven from one process:

* ``cold-1k`` / ``cold-10k`` -- Section-5 views on the TPC-H catalog with
  synthetic SF-0.5 statistics, ``shard_count=4``, cache off, one client
  sending Section-5 queries no request has sent before. The production
  configuration: every request pays bind, describe, probe, sweep,
  pre-verify, match and costing. 1k views tilt the time toward the
  optimizer and describe, 10k toward ``core.matching``.
* ``cdc-churn-1k`` -- rollup views over ``orders`` maintained by a
  ``CdcPipeline`` attached to the server. Each step inserts one orders row
  and drains the applier, swaps one view, then sends reads with
  ``max_staleness=0``: the only workload that drives CDC and snapshot
  publishes while serving.
* ``hot-pool-1k`` -- Section-5 views behind ``start_pool(workers=1)`` with
  the rewrite cache on, on one CPU; one client sends a Zipf-skewed stream
  over a few hundred distinct queries. The only workload through the serving
  pool, shared-memory snapshots and the cache hit path.

The benchmark only times calls into the server from outside it, and
reports times at a reference host speed (:class:`Calibration`). The
traced run (``trace=True``) wraps layer entry points with
:class:`e2e_ledger.Ledger` for a second window after an untraced one.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import os
import random
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from time import perf_counter

from repro import CdcPipeline, ViewServer, tpch_catalog
from repro.core.filtertree import QueryProbe
from repro.datagen import generate_tpch
from repro.optimizer.optimizer import Optimizer
from repro.sql.printer import statement_to_sql
from repro.stats import synthetic_tpch_stats
from repro.stats.statistics import DatabaseStats
from repro.workload import QUERY_TABLE_COUNT_DISTRIBUTION, WorkloadGenerator

import e2e_checks
from e2e_ledger import GC_SPAN, INPUT_SPAN, Ledger, self_times, sweep_name

#: Seed of each workload's registered views and base tables. The view
#: catalog is part of the workload's definition, like the schema: with a
#: catalog drawn per seed, the spread between seeds measured the catalog
#: (p50 15.7-24.5 ms at 10k views) instead of the program. ``--seed``
#: drives the traffic: queries, inserted rows, reads and the Zipf stream.
CATALOG_SEED = 1
#: Step of the low-discrepancy walk over inserted rows (golden ratio - 1).
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Zipf exponent of the pooled workload's query ranks.
ZIPF_S = 1.1
#: Served queries whose plans are compared with the unsharded reference.
CHECK_SAMPLE = 25
#: ``peak_rss_mb`` is read once this many timed requests have completed,
#: so it does not grow with how many requests a faster run fits in.
RSS_REQUESTS = 200
#: Calibration time (µs) of the reference host speed the timing metrics
#: are expressed at; about the median on the 2-CPU host the benchmark was
#: built on, so normalized and raw values are close there.
CALIBRATION_REFERENCE_US = 550.0
#: Layers listed in the ledger, in request order.
LAYERS = (
    "client",
    "service.server",
    "service.pool",
    "service.cache",
    "sql",
    "optimizer",
    "core.describe",
    "core.filtertree.probe",
    "core.filtertree",
    "core.filtertree.sweep",
    "core.preverify",
    "core.matching",
    "runtime.gc",
    "service.snapshot",
    "cdc",
    "cdc.insert",
    "cdc.scan",
    "cdc.merge",
    "cdc.register",
)


@dataclass
class Window:
    """What one closed-loop window measured."""

    latencies: list[float] = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    # Per client thread: (start, end) of its loop, in perf_counter time.
    threads: dict[int, tuple[float, float]] = field(default_factory=dict)
    # Thread-seconds of loop time not spent on the workload: input
    # generation and calibration passes.
    paused: float = 0.0
    ddl: list[float] = field(default_factory=list)
    rows: int = 0
    drain_seconds: float = 0.0
    # Peak RSS once RSS_REQUESTS requests were recorded (None before).
    rss_mb: float | None = None

    @property
    def wall(self) -> float:
        """Loop seconds per client thread, pauses taken out."""
        own = sum(end - start for start, end in self.threads.values())
        return (own - self.paused) / max(len(self.threads), 1)

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


class Calibration:
    """Host speed during a run, from a fixed pure-Python kernel.

    On a shared host the same process runs up to 45 % faster or slower
    from one minute to the next, so raw times move with the neighbours,
    not with the program. The timed loops call :meth:`between` after each
    request; every 30 ms of loop time it times one pass of the kernel (off
    the clock). Every timing metric of the run is divided by the median
    pass over :data:`CALIBRATION_REFERENCE_US`.
    Like the program, the kernel chases pointers through a heap larger
    than the L2 caches and allocates small dicts, tuples and lists, so
    neighbours slow both alike; the program's code is not in it. Passes
    must be spread through the loop: back-to-back passes run from warm
    caches and stop tracking. Passes taken outside the loop (before a
    set-up, after a swap) time the cache state the phase left behind
    rather than the host, so there are none.
    """

    INTERVAL = 0.03

    def __init__(self) -> None:
        rng = random.Random(0)
        size = 100_000
        self._chain = [(rng.randrange(size), i) for i in range(size)]
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> float:
        """Time one kernel pass; returns its seconds.

        The collector is off during the pass, so the pass never pays for
        a collection whose cost depends on the program's heap.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            chain = self._chain
            at = 0
            rows = []
            for i in range(300):
                at, ident = chain[at]
                rows.append(
                    tuple(sorted({"k": ident, "p": (i, at), "c": [i] * 2}))
                )
            elapsed = perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def between(self) -> float:
        """Sample when a pass is due; returns the seconds spent."""
        now = perf_counter()
        if now < self._due:
            return 0.0
        self._due = now + self.INTERVAL
        return self.sample()

    def slowdown(self) -> float:
        """Median pass over the reference (>1: slower host)."""
        median = statistics.median(self.samples)
        return median * 1e6 / CALIBRATION_REFERENCE_US


@dataclass
class Outcome:
    """Everything one run hands back to the command line."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    report: list[str]
    #: Traced runs only: the ledger and each client thread's traced window.
    ledger: Ledger | None = None
    windows: dict[int, tuple[float, float]] | None = None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def _record(window: Window, served, latency: float, plans: dict) -> None:
    window.latencies.append(latency)
    if window.rss_mb is None and len(window.latencies) >= RSS_REQUESTS:
        window.rss_mb = _peak_rss_mb()
    if served.ok:
        window.ok += 1
        if served.sql not in plans:
            plans[served.sql] = (
                tuple(served.view_names),
                served.result.cost,
            )
    else:
        window.failed += 1


def _request(ledger: Ledger | None, call, *args, **kwargs):
    """One client request, timed from outside; a root span when traced."""
    if ledger is None:
        started = perf_counter()
        served = call(*args, **kwargs)
        return served, perf_counter() - started
    span = ledger.begin("client", request=True)
    started = perf_counter()
    try:
        served = call(*args, **kwargs)
    finally:
        latency = perf_counter() - started
        ledger.end(span)
    return served, latency


# ---------------------------------------------------------------------------
# Instrumentation of the server's layers (traced run only)


def _counter(ledger: Ledger, key: str):
    """An ``on_result`` hook counting calls under ``key``."""
    def bump(result, args):
        ledger.counts[key] += 1
    return bump


def instrument(ledger: Ledger, server: ViewServer, pipeline=None) -> None:
    """Wrap every layer entry point reachable from ``server``."""
    ledger.wrap(server, "serve", "service.server")
    ledger.wrap(
        server.catalog, "bind_sql", "sql", _counter(ledger, "bind_calls")
    )
    if server.cache is not None:
        ledger.wrap(server.cache, "get", "service.cache")
        ledger.wrap(server.cache, "put", "service.cache")
    for method in ("register_view", "register_views", "unregister_view"):
        ledger.wrap(server.snapshots, method, "service.snapshot")
    if server.serving_pool is not None:
        ledger.wrap(server.serving_pool, "rewrite", "service.pool")
    if pipeline is not None:
        ledger.wrap(pipeline, "insert", "cdc.insert")
        ledger.wrap(pipeline, "drain", "cdc")
        ledger.wrap(pipeline, "register_view", "cdc.register")
        ledger.wrap(pipeline, "unregister_view", "cdc.register")
        ledger.wrap(pipeline.applier, "scan", "cdc.scan")
        ledger.wrap(pipeline.applier, "merge", "cdc.merge")
    ledger.wrap(QueryProbe, "cached_of", "core.filtertree.probe", static=True)
    instrument_snapshot(ledger, server.snapshots.current)

    def on_publish(snapshot):
        if ledger.active:
            instrument_snapshot(ledger, snapshot)

    server.snapshots.add_listener(on_publish)
    ledger.track_gc()


def instrument_snapshot(ledger: Ledger, snapshot) -> None:
    """Wrap one epoch's optimizer, matcher, filter tree and shard trees."""
    counts = ledger.counts

    def optimized(result, args):
        counts["invocations"] += result.invocations
        counts["considered"] += result.candidates_considered
        counts["preverified"] += result.preverified_rejects
        counts["skipped"] += result.candidates_skipped
        counts["matched"] += result.substitutes_produced

    matcher = snapshot.matcher
    tree = matcher.filter_tree
    registered = len(tree)

    def filtered(result, args):
        counts["candidate_calls"] += 1
        counts["candidates"] += len(result)
        counts["candidate_pool"] += registered

    ledger.wrap(snapshot.optimizer, "optimize", "optimizer", optimized)
    ledger.wrap(
        matcher, "describe_query", "core.describe",
        _counter(ledger, "describe_calls"),
    )
    ledger.wrap(matcher, "match", "core.matching")
    ledger.wrap(tree, "candidates", "core.filtertree", filtered)
    ledger.wrap(tree, "preverify_screen", "core.preverify")
    shards = getattr(tree, "shards", None) or (tree,)
    for index, shard in enumerate(shards):
        ledger.wrap(shard, "collect_candidates", sweep_name(index))


# ---------------------------------------------------------------------------
# Section-5 query stream shared by the cold and pooled workloads


class QueryStream:
    """Section-5 query texts from one seed, generated in chunks on demand.

    ``fresh()`` never returns a text it returned before or one in
    ``exclude``, so every cold request is new to the server. Queries are
    handed out stratified by (table count, aggregation): slot by slot, the
    class furthest behind its Section-5 share goes next, so every prefix of
    the stream has the paper's mix. The cost of a rewrite depends mostly on
    that class, and a run serves a few hundred queries, so without the
    strata the mix alone moved the median between seeds.
    """

    def __init__(self, catalog, stats, seed: int, exclude=()):
        self._generator = WorkloadGenerator(catalog, stats, seed=seed)
        self._seen = set(exclude)
        aggregate = self._generator.parameters.aggregation_fraction
        self._shares = {
            (tables, is_aggregate): share * (
                aggregate if is_aggregate else 1.0 - aggregate
            )
            for tables, share in QUERY_TABLE_COUNT_DISTRIBUTION
            for is_aggregate in (True, False)
        }
        self._served = dict.fromkeys(self._shares, 0)
        self._buckets: dict[tuple, list[str]] = {
            stratum: [] for stratum in self._shares
        }
        self._slots = 0

    def fresh(self) -> str:
        self._slots += 1
        stratum = max(
            self._shares,
            key=lambda s: self._shares[s] * self._slots - self._served[s],
        )
        bucket = self._buckets[stratum]
        while not bucket:
            for generated in self._generator.generate_queries(32):
                sql = statement_to_sql(generated.statement)
                if sql not in self._seen:
                    self._seen.add(sql)
                    self._buckets[
                        (len(generated.tables), generated.is_aggregate)
                    ].append(sql)
        self._served[stratum] += 1
        return bucket.pop(0)

    def take(self, count: int) -> list[str]:
        return [self.fresh() for _ in range(count)]


def _section5_inputs(views: int):
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.5)
    generator = WorkloadGenerator(catalog, stats, seed=CATALOG_SEED)
    definitions = [
        (name, generated.statement)
        for name, generated in generator.generate_views(views)
    ]
    return catalog, stats, definitions


def _plan_metrics(catalog, stats, plans: dict, order: list[str], count: int):
    """View use and cost ratios over the first ``count`` served queries,
    so they stay a function of the seed, not of speed.

    Returns the share of plans reading a view and the arithmetic and
    geometric means of chosen cost over no-view cost. The no-view plan of
    each query comes from an optimizer without a matcher, run after the
    timed window.
    """
    prefix = [sql for sql in order if sql in plans][:count]
    if not prefix:
        return 0.0, 1.0, 1.0
    baseline = Optimizer(catalog, stats)
    ratios = []
    used = 0
    for sql in prefix:
        views, cost = plans[sql]
        used += bool(views)
        ratios.append(cost / baseline.optimize(catalog.bind_sql(sql)).cost)
    return (
        used / len(prefix),
        statistics.fmean(ratios),
        statistics.geometric_mean(ratios),
    )


def _check_sample(plans: dict, order: list[str]) -> list[str]:
    served = [sql for sql in order if sql in plans]
    step = max(len(served) // CHECK_SAMPLE, 1)
    return served[::step][:CHECK_SAMPLE]


# ---------------------------------------------------------------------------
# Workloads


class ColdWorkload:
    """Cold Section-5 traffic, cache off, sharded (see module docstring)."""

    def __init__(
        self, views: int, plan_sample: int, swaps: int, setups: int,
        warm_up: int = 30,
    ):
        self.views = views
        self.plan_sample = plan_sample
        self.swaps = swaps
        self.setups = setups
        self.warm_up_queries = warm_up

    def parameters(self) -> dict:
        return {
            "views": self.views, "shard_count": 4, "cache_enabled": False,
            "clients": 1, "loop": "closed", "statistics": "synthetic SF-0.5",
            "view_swaps": self.swaps, "plan_sample": self.plan_sample,
            "setups": self.setups,
        }

    def inputs(self, seed: int):
        catalog, stats, definitions = _section5_inputs(self.views)
        warm = QueryStream(catalog, stats, seed + 2_000_003)
        warm_sqls = warm.take(self.warm_up_queries)
        stream = QueryStream(catalog, stats, seed + 1_000_003, warm_sqls)
        return {
            "catalog": catalog, "stats": stats, "definitions": definitions,
            "warm": warm_sqls, "stream": stream, "order": [], "plans": {},
        }

    def setup(self, inputs):
        server = ViewServer(
            inputs["catalog"], inputs["stats"], shard_count=4,
            cache_enabled=False, workers=1,
        )
        server.register_views(inputs["definitions"])
        return {"server": server}

    def close(self, system) -> None:
        system["server"].close()

    def warm_up(self, system, inputs) -> None:
        for sql in inputs["warm"]:
            system["server"].rewrite(sql)

    def instrument(self, ledger, system) -> None:
        instrument(ledger, system["server"])

    def loop(
        self, system, inputs, seconds, ledger=None, calibration=None
    ) -> Window:
        server = system["server"]
        stream = inputs["stream"]
        order = inputs["order"]
        plans = inputs["plans"]
        window = Window()
        started = perf_counter()
        while perf_counter() - started - window.paused < seconds:
            paused = perf_counter()
            sql = (
                stream.fresh() if ledger is None
                else ledger.call(INPUT_SPAN, stream.fresh)
            )
            if calibration is not None:
                calibration.between()
            window.paused += perf_counter() - paused
            order.append(sql)
            served, latency = _request(ledger, server.rewrite, sql)
            _record(window, served, latency, plans)
        window.threads[threading.get_ident()] = (started, perf_counter())
        return window

    def after_loop(self, system, inputs, window, ledger) -> None:
        """View swaps through the server, after the traced window."""
        server = system["server"]
        definitions = inputs["definitions"]
        step = max(len(definitions) // self.swaps, 1)
        for name, statement in definitions[::step][: self.swaps]:
            span = ledger.begin("client", request=True)
            started = perf_counter()
            server.unregister_view(name)
            server.register_view(name, statement)
            window.ddl.append(perf_counter() - started)
            ledger.end(span)
            self._settle(server)

    def _settle(self, server) -> None:
        """Wait, untimed, for work a swap started in the background."""

    def check(self, system, inputs) -> list[str]:
        sample = _check_sample(inputs["plans"], inputs["order"])
        served = {
            view.description.name: view
            for view in system["server"].snapshots.current.matcher
            .registered_views()
        }
        reference = e2e_checks.reference_plans(
            inputs["catalog"], inputs["stats"],
            [served[name] for name, _ in inputs["definitions"]], sample,
        )
        return e2e_checks.plan_mismatches(inputs["plans"], reference)

    def plan_metrics(self, inputs):
        return _plan_metrics(
            inputs["catalog"], inputs["stats"], inputs["plans"],
            inputs["order"], self.plan_sample,
        )


class PoolWorkload(ColdWorkload):
    """Zipf-skewed traffic through the persistent pool, cache on.

    One client and one pool worker, pinned to one CPU: the client blocks
    on each reply, so the run keeps one CPU busy, as the other workloads
    do.
    """

    def __init__(
        self, views: int, distinct: int = 400, cache_size: int = 128,
        swaps: int = 41, setups: int = 3,
    ):
        super().__init__(
            views, plan_sample=distinct, swaps=swaps, setups=setups
        )
        self.distinct = distinct
        self.cache_size = cache_size

    def parameters(self) -> dict:
        return {
            "views": self.views, "shard_count": 4, "cache_enabled": True,
            "cache_size": self.cache_size, "pool_workers": 1,
            "clients": 1, "cpus": 1, "loop": "closed",
            "distinct_queries": self.distinct, "zipf_s": ZIPF_S,
            "statistics": "synthetic SF-0.5", "view_swaps": self.swaps,
            "setups": self.setups,
        }

    def inputs(self, seed: int):
        catalog, stats, definitions = _section5_inputs(self.views)
        # The application's queries and how popular each is (its Zipf rank,
        # in stream order) are fixed like the catalog; the seed drives the
        # draws. With ranks permuted per seed, which queries were hot moved
        # p95 and throughput between seeds.
        sqls = QueryStream(catalog, stats, CATALOG_SEED + 1_000_003).take(
            self.distinct
        )
        cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(sqls))
        ))
        return {
            "catalog": catalog, "stats": stats, "definitions": definitions,
            "sqls": sqls, "cumulative": cumulative, "seed": seed,
            "order": list(sqls), "plans": {}, "pass": 0,
        }

    def _settle(self, server) -> None:
        # The pool forks its next worker generation after each publish;
        # wait until the fleet is current and has stayed put for 50 ms, so
        # one swap's fork does not land inside the next swap's timing.
        pool = server.serving_pool
        deadline = perf_counter() + 30.0
        settled = None
        while perf_counter() < deadline:
            stats = pool.stats()
            state = (pool.epoch, stats["generation"], stats["workers"])
            if pool.epoch == server.epoch and stats["workers"] == stats["target"]:
                if state == settled:
                    return
                settled = state
                time.sleep(0.05)
            else:
                settled = None
                time.sleep(0.002)
        raise RuntimeError("serving pool did not settle after a view swap")

    def setup(self, inputs):
        # One CPU for the client, the pool's threads and its worker (forked
        # children inherit it). On a 2-vCPU guest with steal time, a request
        # handed between two vCPUs stalls whenever either is descheduled,
        # which the calibration kernel, on the client's vCPU, does not see:
        # unpinned, two of ten runs lost half their throughput.
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(affinity)})
        server = ViewServer(
            inputs["catalog"], inputs["stats"], shard_count=4,
            cache_size=self.cache_size, workers=1,
        )
        server.register_views(inputs["definitions"])
        server.start_pool(workers=1)
        return {"server": server, "affinity": affinity}

    def close(self, system) -> None:
        system["server"].stop_pool()
        system["server"].close()
        os.sched_setaffinity(0, system["affinity"])

    def warm_up(self, system, inputs) -> None:
        # The first pass serves every distinct query, so the plan metrics
        # and checks cover all of them whatever the timed stream draws.
        pool = system["server"].serving_pool
        for served in pool.rewrite_many(inputs["sqls"]):
            _record(Window(), served, 0.0, inputs["plans"])
        self.loop(system, inputs, 1.0)

    def loop(
        self, system, inputs, seconds, ledger=None, calibration=None
    ) -> Window:
        server = system["server"]
        sqls = inputs["sqls"]
        cumulative = inputs["cumulative"]
        total = cumulative[-1]
        inputs["pass"] += 1
        rng = random.Random(inputs["seed"] * 1_000 + inputs["pass"])
        window = Window()
        started = perf_counter()
        while perf_counter() - started - window.paused < seconds:
            if calibration is not None:
                window.paused += calibration.between()
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            served, latency = _request(
                ledger, server.rewrite, sqls[min(rank, len(sqls) - 1)]
            )
            _record(window, served, latency, inputs["plans"])
        window.threads[threading.get_ident()] = (started, perf_counter())
        return window


class CdcWorkload:
    """Writes beside reads: CDC inserts, view swaps, fresh rollup reads."""

    GROUPS = (
        "o_custkey", "o_clerk", "o_orderstatus", "o_orderpriority",
        "o_shippriority",
    )

    def __init__(
        self, views: int, scale: float = 0.0005, reads_per_step: int = 16,
        setups: int = 3,
    ):
        self.views = views
        self.scale = scale
        self.reads_per_step = reads_per_step
        self.setups = setups

    def parameters(self) -> dict:
        return {
            "views": self.views, "tpch_scale": self.scale,
            "shard_count": 4, "clients": 1, "loop": "closed",
            "rows_per_step": 1,
            "view_swaps_per_step": 1,
            "reads_per_step": self.reads_per_step,
            "read_max_staleness": 0, "setups": self.setups,
        }

    def _view_sql(self, index: int, bounds) -> str:
        group = self.GROUPS[index % len(self.GROUPS)]
        bound = bounds[(index // len(self.GROUPS)) % len(bounds)]
        return (
            f"select {group} as g, sum(o_totalprice) as total, "
            f"count_big(*) as cnt from orders "
            f"where o_totalprice <= {bound} group by {group}"
        )

    def inputs(self, seed: int):
        catalog = tpch_catalog()
        database = generate_tpch(scale=self.scale, seed=CATALOG_SEED)
        orders = database.relation("orders")
        prices = sorted({row[3] for row in orders.rows})
        per_group = -(-self.views // len(self.GROUPS))
        bounds = [
            prices[min((i + 1) * len(prices) // (per_group + 1),
                       len(prices) - 1)]
            for i in range(per_group)
        ]
        definitions = [
            (f"cdc_mv{i:04d}", catalog.bind_sql(self._view_sql(i, bounds)))
            for i in range(self.views)
        ]
        # One read per view, answerable by exactly that view's range (the
        # o_custkey rollups add a compensating predicate), in seeded order.
        rng = random.Random(seed)
        custkeys = sorted({row[1] for row in orders.rows})
        reads = []
        for index in range(self.views):
            group = self.GROUPS[index % len(self.GROUPS)]
            bound = bounds[(index // len(self.GROUPS)) % len(bounds)]
            extra = ""
            if group == "o_custkey":
                extra = f" and o_custkey <= {rng.choice(custkeys)}"
            reads.append(
                f"select {group}, sum(o_totalprice) as total from orders "
                f"where o_totalprice <= {bound}{extra} group by {group}"
            )
        rng.shuffle(reads)
        # Inserted rows copy orders rows along a seeded low-discrepancy
        # walk over price order: how many views a row touches depends on
        # its price, so every run absorbs the same mix of cheap and
        # expensive rows.
        by_price = sorted(orders.rows, key=lambda row: row[3])
        return {
            "catalog": catalog, "seed": seed, "definitions": definitions,
            "stats": DatabaseStats.collect(database, catalog),
            "reads": reads, "by_price": by_price, "offset": rng.random(),
            "order": [], "plans": {}, "step": 0, "read": 0,
        }

    def setup(self, inputs):
        # Fresh base tables per set-up: the pipeline stores views into them.
        paused = perf_counter()
        database = generate_tpch(scale=self.scale, seed=CATALOG_SEED)
        generated = perf_counter() - paused
        pipeline = CdcPipeline(inputs["catalog"], database)
        for name, statement in inputs["definitions"]:
            pipeline.register_view(name, statement)
        server = ViewServer(
            inputs["catalog"], inputs["stats"], shard_count=4, workers=1
        )
        server.register_views(inputs["definitions"])
        server.attach_cdc(pipeline)
        orders = database.relation("orders")
        return {
            "server": server, "pipeline": pipeline, "database": database,
            "next_key": max(row[0] for row in orders.rows) + 1,
            "untimed": generated,
        }

    def close(self, system) -> None:
        system["server"].close()

    def warm_up(self, system, inputs) -> None:
        self.loop(system, inputs, 0.5)

    def instrument(self, ledger, system) -> None:
        instrument(ledger, system["server"], system["pipeline"])

    def loop(
        self, system, inputs, seconds, ledger=None, calibration=None
    ) -> Window:
        server = system["server"]
        pipeline = system["pipeline"]
        definitions = inputs["definitions"]
        reads = inputs["reads"]
        by_price = inputs["by_price"]
        plans = inputs["plans"]
        window = Window()
        started = perf_counter()
        while perf_counter() - started - window.paused < seconds:
            walk = (inputs["offset"] + system["next_key"] * GOLDEN) % 1.0
            row = list(by_price[int(walk * len(by_price))])
            row[0] = system["next_key"]
            system["next_key"] += 1
            pipeline.insert("orders", [tuple(row)])
            drain_started = perf_counter()
            pipeline.drain()
            window.drain_seconds += perf_counter() - drain_started
            window.rows += 1

            name, statement = definitions[inputs["step"] % len(definitions)]
            inputs["step"] += 1
            span = ledger.begin("client", request=True) if ledger else None
            swap_started = perf_counter()
            server.unregister_view(name)
            pipeline.unregister_view(name)
            server.register_view(name, statement)
            pipeline.register_view(name, statement)
            window.ddl.append(perf_counter() - swap_started)
            if span is not None:
                ledger.end(span)

            for _ in range(self.reads_per_step):
                if calibration is not None:
                    window.paused += calibration.between()
                sql = reads[inputs["read"] % len(reads)]
                inputs["read"] += 1
                inputs["order"].append(sql)
                served, latency = _request(
                    ledger, server.rewrite, sql, max_staleness=0
                )
                _record(window, served, latency, plans)
        window.threads[threading.get_ident()] = (started, perf_counter())
        return window

    def after_loop(self, system, inputs, window, ledger) -> None:
        """The swaps ran inside the loop."""

    def check(self, system, inputs) -> list[str]:
        system["pipeline"].drain()
        return e2e_checks.stored_view_mismatches(
            system["database"], inputs["definitions"]
        )

    def plan_metrics(self, inputs):
        return _plan_metrics(
            inputs["catalog"], inputs["stats"], inputs["plans"],
            inputs["order"], len(inputs["reads"]),
        )


WORKLOADS = {
    # plan_sample stays below the queries a run serves (~800 and ~300);
    # swaps and set-ups are as many as the suite's total run time allows.
    "cold-1k": ColdWorkload(1_000, plan_sample=600, swaps=101, setups=5),
    "cold-10k": ColdWorkload(
        10_000, plan_sample=200, swaps=21, setups=3, warm_up=10
    ),
    "cdc-churn-1k": CdcWorkload(1_000, setups=3),
    "hot-pool-1k": PoolWorkload(1_000),
}

#: Tiny sizes for the benchmark's own smoke tests.
TINY_WORKLOADS = {
    "cold-1k": ColdWorkload(60, plan_sample=20, swaps=3, setups=2, warm_up=3),
    "cold-10k": ColdWorkload(
        120, plan_sample=20, swaps=3, setups=2, warm_up=3
    ),
    "cdc-churn-1k": CdcWorkload(20, scale=0.0002, reads_per_step=4, setups=2),
    "hot-pool-1k": PoolWorkload(
        60, distinct=20, cache_size=8, swaps=3, setups=2
    ),
}


# ---------------------------------------------------------------------------
# One run


def run(workload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up, warm up, measure, check; see the module docstring.

    Every process the run starts (pool workers, the shared-memory
    resource tracker) has ended when this returns, on every path out.
    """
    before = _children()
    try:
        return _run(workload, seed, seconds, trace, before)
    finally:
        _reap_children(before)
        _stop_resource_tracker(before)


def _run(workload, seed, seconds, trace, before) -> Outcome:
    phases = _Phases()
    calibration = Calibration()
    inputs = workload.inputs(seed)
    phases.mark("inputs")
    setups = []
    system = None
    for _ in range(workload.setups):
        if system is not None:
            workload.close(system)
            system = None
            # A closed pool's last worker may still be exiting; let it end
            # before the next set-up is timed.
            _reap_children(before)
            gc.collect()
        started = perf_counter()
        system = workload.setup(inputs)
        setups.append(perf_counter() - started - system.get("untimed", 0.0))
    phases.mark("setups")
    try:
        workload.warm_up(system, inputs)
        gc.collect()
        phases.mark("warm-up")
        if trace:
            return _traced(workload, system, inputs, seed, seconds, setups)
        window = workload.loop(system, inputs, seconds, None, calibration)
        peak_rss_mb = window.rss_mb or _peak_rss_mb()
        phases.mark("loop")
        problems = workload.check(system, inputs)
        phases.mark("check")
        view_use, cost_ratio, cost_geomean = workload.plan_metrics(inputs)
        phases.mark("plan metrics")
    finally:
        workload.close(system)
    raw = {
        "setup_s": statistics.median(setups),
        "rewrite_p50_ms": percentile(window.latencies, 50) * 1e3,
        "rewrite_p95_ms": percentile(window.latencies, 95) * 1e3,
        "rewrites_per_s": window.ok / window.wall,
    }
    slowdown = calibration.slowdown()
    metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "rewrite_p50_ms": (raw["rewrite_p50_ms"] / slowdown, "ms"),
        "rewrite_p95_ms": (raw["rewrite_p95_ms"] / slowdown, "ms"),
        "rewrites_per_s": (raw["rewrites_per_s"] * slowdown, "req/s"),
        "view_use_frac": (view_use, "ratio"),
        "plan_cost_ratio": (cost_ratio, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    latencies = window.latencies
    report = [
        f"requests {window.attempted} (failed {window.failed}, error_frac "
        f"{window.failed / max(window.attempted, 1):.4f}); "
        f"{len(latencies) - math.ceil(0.95 * len(latencies))} samples beyond "
        f"p95; p99 {percentile(latencies, 99) * 1e3:.3f} ms, max "
        f"{max(latencies) * 1e3:.3f} ms; {len(window.ddl)} view swaps; "
        f"geometric mean cost ratio {cost_geomean:.4f}",
        f"calibration against {CALIBRATION_REFERENCE_US:.0f} us: slowdown "
        f"{slowdown:.3f} over {len(calibration.samples)} loop passes; raw "
        + ", ".join(f"{name} {value:.4g}" for name, value in raw.items()),
        phases.line(),
    ]
    if window.rows:
        report.append(
            f"cdc: {window.rows} rows absorbed in {window.drain_seconds:.3f}s "
            f"of drain ({window.rows / window.drain_seconds:.2f} rows/s)"
        )
    return Outcome(metrics, window.attempted, window.failed, problems, report)


def _children() -> set[int]:
    """Pids of this process's children, zombies included (from /proc)."""
    me = os.getpid()
    children = set()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.add(int(entry.name))
    return children


def _tracker_pid() -> int | None:
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return getattr(tracker, "_pid", None)


def _reap_children(before: set[int], timeout: float = 30.0) -> None:
    """Wait for every child started since ``before`` to end; kill any
    still alive after ``timeout`` seconds. The resource tracker is left
    to :func:`_stop_resource_tracker`.

    A pool worker that has replied to its shutdown frame can still be
    tearing down its address space after ``stop_pool`` returns, and the
    pool's reader threads may reap it concurrently (then ``waitpid``
    reports it gone).
    """
    deadline = perf_counter() + timeout
    pending = _children() - before - {_tracker_pid()}
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if not pending:
            return
        if perf_counter() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        time.sleep(0.005)


def _stop_resource_tracker(before: set[int]) -> None:
    """Stop the shared-memory resource tracker if this run started it.

    The tracker only exits once every holder of its pipe has closed it,
    so this runs after the pool workers (which inherit the pipe) have
    ended.
    """
    pid = _tracker_pid()
    if pid is None or pid in before:
        return
    resource_tracker._resource_tracker._stop()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Phases:
    """Wall time of each phase of a run, for the report."""

    def __init__(self) -> None:
        self._last = perf_counter()
        self._seconds: dict[str, float] = {}

    def mark(self, name: str) -> None:
        now = perf_counter()
        self._seconds[name] = now - self._last
        self._last = now

    def line(self) -> str:
        return "phases: " + ", ".join(
            f"{name} {seconds:.2f}s" for name, seconds in self._seconds.items()
        )


def _traced(workload, system, inputs, seed, seconds, setups) -> Outcome:
    """Untraced half window, then the traced half with the ledger on."""
    half = seconds / 2.0
    # Gen-2 pauses (up to 1.6 s each) land in one half or the other by
    # chance; the overhead compares the halves without them. The untraced
    # half records only its GC spans.
    pauses = Ledger()
    ledger = Ledger()
    try:
        pauses.track_gc()
        untraced = workload.loop(system, inputs, half)
        pauses.uninstall()
        server = system["server"]
        pipeline = system.get("pipeline")
        cache = server.cache
        cache_before = cache.statistics.snapshot() if cache else None
        pool = server.serving_pool
        worker_before = _worker_seconds(server)
        applier_before = (
            pipeline.stats.delta_batches_merged if pipeline is not None else 0
        )
        workload.instrument(ledger, system)
        window = workload.loop(system, inputs, half, ledger)
        window_counts = dict(ledger.counts)
        cache_after = cache.statistics.snapshot() if cache else None
        worker_seconds = _worker_seconds(server) - worker_before
        applier_batches = (
            pipeline.stats.delta_batches_merged - applier_before
            if pipeline is not None else 0
        )
        redelivered = pool.stats().get("redelivered", 0) if pool else 0
        workload.after_loop(system, inputs, window, ledger)
    finally:
        pauses.uninstall()
        ledger.uninstall()
    problems = workload.check(system, inputs)
    times = self_times(ledger.spans, window.threads)
    requests = max(window.attempted, 1)
    layers = dict(times.layers)
    everywhere = dict(layers)
    for name, own in times.other_threads.items():
        everywhere[name] = everywhere.get(name, 0.0) + own

    def ms(name, source=layers):
        return source.get(name, 0.0) * 1e3 / requests

    def per(key, base):
        return window_counts.get(key, 0) / base if base else 0.0

    considered = window_counts.get("considered", 0)
    verified = (
        considered - window_counts.get("preverified", 0)
        - window_counts.get("skipped", 0)
    )
    sweeps = list(times.shard_sweeps.values())
    publishes = [
        span[3] - span[2] for span in ledger.spans
        if span[1] == "service.snapshot"
    ]
    hits = misses = evictions = 0
    if cache_before is not None:
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        evictions = cache_after["evictions"] - cache_before["evictions"]
    untraced_gc = sum(span[3] - span[2] for span in pauses.spans)
    untraced_cost = (untraced.wall - untraced_gc) / max(untraced.attempted, 1)
    traced_gc = everywhere.get(GC_SPAN, 0.0)
    traced_cost = (window.wall - traced_gc) / max(window.attempted, 1)
    rows = window.rows
    values = {
        "sql.bind_ms_per_req": ms("sql"),
        "sql.bind_calls_per_req": per("bind_calls", requests),
        "service.server.self_ms_per_req": ms("service.server"),
        "service.cache.ms_per_req": ms("service.cache", everywhere),
        "service.cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache.evictions_per_req": evictions / requests,
        "optimizer.self_ms_per_req": ms("optimizer"),
        "optimizer.invocations_per_req": per("invocations", requests),
        "core.describe.ms_per_req": ms("core.describe"),
        "core.describe.calls_per_req": per("describe_calls", requests),
        "core.filtertree.probe_ms_per_req": ms("core.filtertree.probe"),
        "core.filtertree.sweep_ms_per_req": ms("core.filtertree.sweep"),
        "core.filtertree.shard_skew": (
            max(sweeps) / (sum(sweeps) / len(sweeps)) if sum(sweeps) else 0.0
        ),
        "core.filtertree.candidates_per_call": per(
            "candidates", window_counts.get("candidate_calls", 0)
        ),
        "core.filtertree.candidate_frac": per(
            "candidates", window_counts.get("candidate_pool", 0)
        ),
        "core.preverify.ms_per_req": ms("core.preverify"),
        "core.preverify.reject_frac": per("preverified", considered),
        "core.matching.ms_per_req": ms("core.matching"),
        "core.matching.match_frac": per("matched", verified),
        "core.matching.skipped_frac": per("skipped", considered),
        "runtime.gc_ms_per_req": ms("runtime.gc", everywhere),
        "runtime.gc_collections": float(window_counts.get("gc_collections", 0)),
        "cdc.scan_ms_per_row": (
            layers.get("cdc.scan", 0.0) * 1e3 / rows if rows else 0.0
        ),
        "cdc.merge_ms_per_row": (
            layers.get("cdc.merge", 0.0) * 1e3 / rows if rows else 0.0
        ),
        "cdc.delta_batches_per_row": applier_batches / rows if rows else 0.0,
        "cdc.rows_per_s": rows / window.drain_seconds if rows else 0.0,
        "ddl_p50_ms": (
            percentile(window.ddl, 50) * 1e3 if window.ddl else 0.0
        ),
        "service.snapshot.publish_ms": (
            statistics.median(publishes) * 1e3 if publishes else 0.0
        ),
        "service.pool.dispatch_ms_per_req": (
            max(layers.get("service.pool", 0.0) - worker_seconds, 0.0)
            * 1e3 / requests if pool is not None else 0.0
        ),
        "service.pool.fastpath_frac": hits / requests if pool else 0.0,
        "service.pool.redelivered": float(redelivered),
        "trace.unattributed_frac": times.unattributed / times.wall,
        "trace.overhead_frac": traced_cost / untraced_cost - 1.0,
        "error_frac": window.failed / max(window.attempted, 1),
    }
    for layer in LAYERS:
        values[f"share.{layer}"] = layers.get(layer, 0.0) / times.wall
    report = _ledger_table(times, requests, seed) + [
        f"traced requests {window.attempted} (failed {window.failed}); "
        f"untraced half {untraced.attempted} requests; "
        f"set-up median {statistics.median(setups):.3f}s"
    ]
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return Outcome(
        metrics, window.attempted + untraced.attempted,
        window.failed + untraced.failed, problems, report, ledger,
        dict(window.threads),
    )


def _worker_seconds(server) -> float:
    sketch = server.telemetry.sketch("pool_worker_serve_seconds")
    return sketch.total if sketch is not None else 0.0


def _unit(name: str) -> str:
    if name.endswith("_ms") or "ms_per_" in name:
        return "ms"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("calls_per_req") or name.endswith("invocations_per_req"):
        return "calls/req"
    if name in ("runtime.gc_collections", "service.pool.redelivered"):
        return "count"
    if name.endswith("_per_req"):
        return "count/req"
    if name.endswith("_per_row"):
        return "count/row"
    if name.endswith("_per_call"):
        return "count/call"
    return "ratio"


def _ledger_table(times, requests: int, seed: int) -> list[str]:
    lines = [
        f"ledger (seed {seed}): {requests} traced requests, "
        f"wall {times.wall:.3f}s over client threads, "
        f"{times.span_count} spans",
        f"  {'layer':<24}{'self ms/req':>12}{'share':>9}",
    ]
    for layer, own in sorted(times.layers.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {layer:<24}{own * 1e3 / requests:>12.4f}"
            f"{own / times.wall:>9.2%}"
        )
    lines.append(
        f"  {'(unattributed)':<24}{times.unattributed * 1e3 / requests:>12.4f}"
        f"{times.unattributed / times.wall:>9.2%}"
    )
    for layer, own in sorted(times.other_threads.items()):
        lines.append(
            f"  {layer + ' (other threads)':<24}"
            f"{own * 1e3 / requests:>12.4f}{'':>9}"
        )
    return lines
