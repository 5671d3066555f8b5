"""The serving workloads: open-loop reads against a warm runtime.

All load comes from the calling thread (the one generator thread) of
one process, against runtimes with ``num_workers=2``.  Reads are timed
from their scheduled send time to the moment their future resolves.
Per-layer numbers are the change in the program's public stats (and,
in traced runs, its span sums) across the open-loop phase, whose
request schedule depends only on the seed and the run length.
"""

from __future__ import annotations

import shutil
import time
import warnings
from collections import deque

import numpy as np

import oracles
from harness import (
    Layers, dimension_table, median, peak_rss_mb, percentile, report,
    run_open_loop, settle, windowed_median,
)

from repro import (
    Database,
    MaintenancePolicy,
    ModelError,
    StarSchemaConfig,
    Telemetry,
    fit_gmm,
    fit_nn,
    generate_star,
    maintain,
    serve_runtime,
)
from repro.gmm.base import EMConfig
from repro.nn.base import NNConfig

SETUP_REPEATS = 3
NUM_WORKERS = 2
SERVE_STAR = dict(n_s=40_000, n_r=20_000, d_s=5, d_r=20)
GMM_CONFIG = EMConfig(n_components=5, max_iter=2, tol=0.0, seed=0)
NN_CONFIG = NNConfig(hidden_sizes=(50,), epochs=1, seed=0)
MAX_REQUEST_ROWS = 64
FEATURE_SCALE = 3.0

# serve_hot_zipf: 60% of the run open-loop at a rate far below
# saturation (one-request batches keep the workers about a quarter
# busy, so a slower host does not tip latency into queueing), the rest
# closed-loop with a fixed window of requests.  The caches hold the
# 4 000 hottest of 20 000 keys per model, filled during warm-up, so
# resident memory does not grow with how many requests a run manages.
ZIPF_SKEW = 1.1
HOT_RATE = 100.0
HOT_OPEN_SHARE = 0.6
HOT_WINDOW = 32
HOT_WARM_REQUESTS = 2000
HOT_CACHE_ENTRIES = 4000
# Every round of ROUND requests holds exactly one malformed request, at
# a fixed position, so failed/attempted is the same in every run.
ROUND = 100
MALFORMED_AT = 37

# serve_updates: reads plus a steady trickle of small dimension-row
# updates; a bounded cache keeps most lookups misses.  The first
# UPDATE_MIXED_SHARE of the run sends both, and its reads give the read
# latency.  One update's latency there ranges from about 7 to 30 ms,
# depending on the reads it overlaps and on how busy the host is, and
# the runs' medians over it spread by up to 0.28 in 10-seed sets.  So
# update latency is taken in a quiet phase after it: updates alone,
# open-loop, spaced well beyond their cost.
# The star, and so the served model, is the same in every run; the
# seed picks the reads and the updates.  An update's cost depends on
# the served model: with the star seeded by --seed, quiet-phase update
# medians of seeds 1-4 ranged 6.3-7.7 ms, in the same order in two sets.
UPDATE_STAR_SEED = 0
UPDATE_READ_RATE = 50.0
UPDATE_PERIOD_S = 0.125
UPDATE_MIXED_SHARE = 0.7
QUIET_UPDATE_PERIOD_S = 0.025
UPDATE_ROWS = 4
UPDATE_CACHE_ENTRIES = 1000
UPDATE_WARM_REQUESTS = 500
# Latency medians are taken per window (a second of reads, two seconds
# of updates), then the median over windows: see windowed_median.
UPDATE_WINDOW_S = 2.0


class Request:
    __slots__ = ("model", "features", "fks", "malformed", "due", "done",
                 "future", "error", "sent_version", "done_version")

    def __init__(self, model, features, fks, malformed=None):
        self.model = model
        self.features = features
        self.fks = fks
        self.malformed = malformed
        self.due = self.done = None
        self.future = self.error = None
        self.sent_version = self.done_version = 0

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)

    def succeeded(self) -> bool:
        """A malformed request succeeds only when refused with
        ``ModelError``; a well-formed one when it produced outputs."""
        if self.error is None:
            self.error = self.future.exception()
        if self.malformed is not None:
            return isinstance(self.error, ModelError)
        return self.error is None


def malformed_request(round_index, d_s):
    """The round's malformed request.  Its content does not depend on
    the seed: NaN features, or fractional foreign keys."""
    model = ("gmm", "nn")[(round_index // 2) % 2]
    if round_index % 2 == 0:
        return Request(model, np.full((4, d_s), np.nan),
                       np.arange(4, dtype=np.int64), "nan_features")
    return Request(model, np.zeros((4, d_s)),
                   np.array([0.5, 1.5, 2.5, 3.5]), "fractional_fk")


class RequestMaker:
    """Seeded well-formed requests of 1–64 rows."""

    def __init__(self, rng, n_r, d_s, skew):
        self.rng = rng
        self.n_r = n_r
        self.d_s = d_s
        if skew > 0:
            weights = np.arange(1, n_r + 1, dtype=np.float64) ** -skew
            self.cdf = np.cumsum(weights / weights.sum())
        else:
            self.cdf = None

    def fks(self, rows):
        if self.cdf is None:
            return self.rng.integers(0, self.n_r, size=rows)
        draws = np.searchsorted(self.cdf, self.rng.random(rows))
        return np.minimum(draws, self.n_r - 1)

    def make(self, model):
        rows = int(self.rng.integers(1, MAX_REQUEST_ROWS + 1))
        features = self.rng.normal(scale=FEATURE_SCALE, size=(rows, self.d_s))
        return Request(model, features, self.fks(rows))

    def round(self, index, models=("gmm", "nn")):
        out = [self.make(models[i % len(models)]) for i in range(ROUND)]
        out[MALFORMED_AT] = malformed_request(index, self.d_s)
        return out


def send(runtime, request, due, state=None, submit_s=None):
    """Submit one request; stamp when it resolves."""
    request.due = due
    if state is not None:
        request.sent_version = state.completed
    tick = time.perf_counter()
    try:
        future = runtime.submit(request.model, request.features, request.fks)
    except ModelError as error:
        request.error = error
        request.done = time.perf_counter()
        return
    if submit_s is not None:
        submit_s.append(time.perf_counter() - tick)
    request.future = future

    def resolved(_future, request=request):
        request.done = time.perf_counter()
        if state is not None:
            request.done_version = state.started

    future.add_done_callback(resolved)


def closed_loop(runtime, requests, window):
    """Keep ``window`` requests outstanding; returns wall seconds."""
    outstanding: deque = deque()
    tick = time.perf_counter()
    for request in requests:
        while len(outstanding) >= window:
            outstanding.popleft().exception()
        send(runtime, request, time.perf_counter())
        if request.future is not None:
            outstanding.append(request.future)
    for future in outstanding:
        future.exception()
    return time.perf_counter() - tick


def wait_all(requests):
    for request in requests:
        if request.future is not None:
            request.future.exception()


def _stats(runtime, db, telemetry):
    """The program's public counters and span sums, flattened."""
    stats = runtime.runtime_stats()
    caches = [c for per_dim in stats.cache_stats.values() for c in per_dim]
    io = db.stats.snapshot()
    pool = db.buffer_pool.stats()
    out = {
        "storage.pages_read": io.pages_read,
        "storage.pages_written": io.pages_written,
        "storage.buffer_hits": pool.hits,
        "storage.buffer_misses": pool.misses,
        "serve.cache_hits": sum(c.hits for c in caches),
        "serve.cache_misses": sum(c.misses for c in caches),
        "serve.invalidations": sum(stats.invalidated_rids.values()),
        "runtime.batches": stats.batches,
        "rows": sum(worker.rows for worker in stats.workers),
    }
    spans = telemetry.span_aggregates() if telemetry is not None else {}
    span_names = {
        "queue.wait": "runtime.queue_wait_s",
        "dedup": "fx.dedup_s",
        "plan": "runtime.plan_s",
        "predict": "serve.predict_s",
        "cache.get_many": "serve.cache_s",
        "serve.batch": "runtime.batch_s",
        "maintain.apply": "maintain.apply_s",
        "gather": "fx.gather_s",
    }
    for span, name in span_names.items():
        out[name] = spans.get(span, {}).get("sum_s", 0.0)
    if telemetry is not None:
        snapshot = telemetry.snapshot()
        for metric, name in (
            ("repro_maintain_deltas_total", "maintain.deltas"),
            ("repro_maintain_refits_total", "maintain.refits"),
        ):
            samples = snapshot.family(metric)
            out[name] = sum(sample.value for sample in samples)
        # The exported counter, not runtime_stats(): swap_model starts
        # the latter's decision counts afresh with each model generation.
        for strategy in ("factorized", "materialized"):
            out[f"runtime.planner_{strategy}"] = sum(
                sample.value
                for sample in snapshot.family("repro_planner_decisions_total")
                if ("strategy", strategy) in sample.labels
            )
    return out, stats


def _phase_layers(before, after, stats, layers):
    """Per-layer metrics over one phase from two :func:`_stats` cuts."""
    out = {name: after[name] - before[name] for name in after}
    rows = out.pop("rows")
    lookups = out["serve.cache_hits"] + out["serve.cache_misses"]
    out["serve.cache_hit_rate"] = (
        out["serve.cache_hits"] / lookups if lookups else 0.0
    )
    out["runtime.rows_per_batch"] = (
        rows / out["runtime.batches"] if out["runtime.batches"] else 0.0
    )
    out["fx.dedup_ratio"] = float(np.mean(list(stats.dedup_ratio.values())))
    out["fx.store_bytes_resident"] = stats.store.bytes_resident
    out.update(layers.values)
    return out


def _close(runtime, db, path, maintainer=None):
    if maintainer is not None:
        maintainer.close()
    runtime.close()
    db.close()
    if path is not None:
        shutil.rmtree(path)


def _check_reads(requests, problems, dims, models):
    """Every answered well-formed GMM/NN read against a dense
    evaluation of the served model over its joined rows."""
    for name, model in models.items():
        done = [r for r in requests if r.model == name and r.malformed is None
                and r.error is None and r.future is not None]
        if not done:
            continue
        joined = oracles.dense_join(
            np.concatenate([r.features for r in done]),
            [np.concatenate([r.fks for r in done])], dims,
        )
        got = np.concatenate([np.ravel(r.future.result()) for r in done])
        try:
            if name == "gmm":
                params = model.params
                oracles.check_labels(
                    "gmm labels", got,
                    oracles.gmm_labels(joined, params.weights, params.means,
                                       params.covariances, model.reg_covar),
                )
            else:
                layers = [(layer.weights, layer.bias) for layer in model.layers]
                oracles.check_outputs(
                    "nn outputs", got, oracles.mlp_forward(layers, joined)
                )
        except oracles.Mismatch as problem:
            problems.append(str(problem))


def serve_hot_zipf(seed, seconds, trace, work):
    warnings.simplefilter("ignore")
    setup_times = []
    warm_rng = np.random.default_rng([seed, 1])
    for index in range(SETUP_REPEATS):
        path = work / f"db{index}"
        tick = time.perf_counter()
        db = Database(path)
        star = generate_star(db, StarSchemaConfig.binary(
            **SERVE_STAR, fk_skew=ZIPF_SKEW, with_target=True, seed=seed,
        ))
        gmm = fit_gmm(db, star.spec, config=GMM_CONFIG)
        nn = fit_nn(db, star.spec, config=NN_CONFIG)
        telemetry = Telemetry() if trace else None
        runtime = serve_runtime(
            db, num_workers=NUM_WORKERS, executor="thread",
            telemetry=telemetry,
        )
        runtime.register_gmm("gmm", gmm, star.spec,
                             cache_entries=HOT_CACHE_ENTRIES)
        runtime.register_nn("nn", nn, star.spec,
                            cache_entries=HOT_CACHE_ENTRIES)
        warm = RequestMaker(warm_rng, SERVE_STAR["n_r"], SERVE_STAR["d_s"],
                            ZIPF_SKEW)
        closed_loop(runtime, [warm.make(("gmm", "nn")[i % 2])
                              for i in range(HOT_WARM_REQUESTS)], HOT_WINDOW)
        setup_times.append(time.perf_counter() - tick)
        if index < SETUP_REPEATS - 1:
            _close(runtime, db, path)
    try:
        maker = RequestMaker(np.random.default_rng([seed, 2]),
                             SERVE_STAR["n_r"], SERVE_STAR["d_s"], ZIPF_SKEW)
        rounds = max(1, round(HOT_RATE * seconds * HOT_OPEN_SHARE / ROUND))
        open_requests = [r for i in range(rounds) for r in maker.round(i)]
        offsets = np.cumsum(maker.rng.exponential(1.0 / HOT_RATE,
                                                  len(open_requests)))
        submit_s: list[float] = []
        settle()
        before, _ = _stats(runtime, db, telemetry)
        late = run_open_loop(
            [lambda due, r=r: send(runtime, r, due, submit_s=submit_s)
             for r in open_requests],
            offsets,
        )
        wait_all(open_requests)
        after, stats = _stats(runtime, db, telemetry)

        def latencies(group):
            return [r.latency_ms for r in group
                    if r.malformed is None and r.error is None]

        problems: list[str] = []
        dims = [dimension_table(db, "R1")]
        models = {"gmm": gmm.model, "nn": nn.model}
        failed = sum(not r.succeeded() for r in open_requests)
        _check_reads(open_requests, problems, dims, models)

        # Closed loop, one round at a time; each round is checked and
        # dropped once drained, so memory does not grow with throughput.
        closed_ms: list[float] = []
        closed_rows = closed_count = 0
        closed_s = 0.0
        deadline = time.perf_counter() + seconds * (1 - HOT_OPEN_SHARE)
        index = rounds
        while not closed_count or time.perf_counter() < deadline:
            batch = maker.round(index)
            index += 1
            closed_s += closed_loop(runtime, batch, HOT_WINDOW)
            closed_count += len(batch)
            failed += sum(not r.succeeded() for r in batch)
            _check_reads(batch, problems, dims, models)
            closed_ms += latencies(batch)
            closed_rows += sum(r.features.shape[0] for r in batch
                               if r.malformed is None)
        runtime.close()
        report(problems)

        open_ms = latencies(open_requests)
        metrics = {
            "setup_s": median(setup_times),
            "main_p50_ms": windowed_median(open_ms, ROUND),
            "side_p50_ms": windowed_median(closed_ms, ROUND),
            "serve.p99_ms": percentile(open_ms, 99),
            "runtime.rows_per_s": closed_rows / closed_s,
            "bench.generator_late_ms": 1000.0 * late,
        }
        if trace:
            layers = Layers()
            layers.add("runtime.submit_us", 1e6 * median(submit_s))
            metrics.update(_phase_layers(before, after, stats, layers))
        return (metrics, len(open_requests) + closed_count, failed,
                not problems)
    finally:
        _close(runtime, db, None)


class _Versions:
    """Dimension updates started / completed by the generator thread."""

    def __init__(self):
        self.started = 0
        self.completed = 0


class _TimedTarget:
    """A swap target that counts and times the maintainer's swaps."""

    def __init__(self, runtime, layers):
        self.runtime = runtime
        self.layers = layers

    def swap_model(self, name, model):
        with self.layers.timed("runtime.swap_s"):
            self.runtime.swap_model(name, model)
        self.layers.add("runtime.swaps")


def _check_versioned_reads(requests, problems, base_dim, updates, models):
    """Each read against the model generations and dimension rows in
    force between its send and its resolution.

    ``base_dim`` is the dimension's feature table indexed by key,
    ``updates[j]`` the ``(keys, features)`` of update ``j + 1`` and
    ``models[j]`` the served GMM's ``(params, reg_covar)`` after ``j``
    updates.
    """
    reads = [r for r in requests if r.error is None]
    dim = base_dim.copy()
    matched = {}
    for version in range(len(updates) + 1):
        if version:
            keys, features = updates[version - 1]
            dim[keys] = features
        exact = [r for r in reads
                 if r.sent_version == r.done_version == version]
        spanning = [r for r in reads
                    if r.sent_version <= version <= r.done_version
                    and r.sent_version != r.done_version]
        if exact:
            params, reg = models[version]
            joined = oracles.dense_join(
                np.concatenate([r.features for r in exact]),
                [np.concatenate([r.fks for r in exact])], [dim],
            )
            got = np.concatenate([r.future.result() for r in exact])
            try:
                oracles.check_labels(
                    f"gmm labels at version {version}", got,
                    oracles.gmm_labels(joined, params.weights, params.means,
                                       params.covariances, reg),
                )
            except oracles.Mismatch as problem:
                problems.append(str(problem))
        for request in spanning:
            joined = oracles.dense_join(request.features, [request.fks], [dim])
            got = request.future.result()
            for generation in range(request.sent_version,
                                    request.done_version + 1):
                params, reg = models[generation]
                want = oracles.gmm_labels(joined, params.weights, params.means,
                                          params.covariances, reg)
                if np.array_equal(got, want):
                    matched[id(request)] = True
            matched.setdefault(id(request), False)
    unmatched = [r for r in reads if matched.get(id(r)) is False]
    for request in unmatched:
        problems.append(
            f"read sent at version {request.sent_version} and resolved "
            f"at {request.done_version} matches no model/row state in force"
        )


def serve_updates(seed, seconds, trace, work):
    warnings.simplefilter("ignore")
    setup_times = []
    warm_rng = np.random.default_rng([seed, 1])
    layers = Layers()
    update_started = [0.0]
    notified = []
    for index in range(SETUP_REPEATS):
        path = work / f"db{index}"
        tick = time.perf_counter()
        db = Database(path)
        star = generate_star(db, StarSchemaConfig.binary(
            **SERVE_STAR, seed=UPDATE_STAR_SEED,
        ))
        if trace:
            # Subscribed before the runtime and the maintainer, so it
            # is told first: the time from the call to this
            # notification is the storage-side part of an update.
            db.subscribe(lambda event: notified.append(
                time.perf_counter() - update_started[0]))
        gmm = fit_gmm(db, star.spec, config=GMM_CONFIG)
        telemetry = Telemetry() if trace else None
        runtime = serve_runtime(
            db, num_workers=NUM_WORKERS, executor="thread",
            telemetry=telemetry,
        )
        runtime.register_gmm("gmm", gmm, star.spec,
                             cache_entries=UPDATE_CACHE_ENTRIES)
        maintainer = maintain(
            db, "gmm", "gmm", star.spec, gmm,
            policy=MaintenancePolicy(refresh="eager"),
            targets=(_TimedTarget(runtime, layers) if trace else runtime,),
            em_config=GMM_CONFIG, telemetry=telemetry,
        )
        warm = RequestMaker(warm_rng, SERVE_STAR["n_r"], SERVE_STAR["d_s"], 0)
        closed_loop(runtime, [warm.make("gmm")
                              for _ in range(UPDATE_WARM_REQUESTS)], 8)
        setup_times.append(time.perf_counter() - tick)
        if index < SETUP_REPEATS - 1:
            _close(runtime, db, path, maintainer)
    closed = False
    try:
        rng = np.random.default_rng([seed, 2])
        maker = RequestMaker(rng, SERVE_STAR["n_r"], SERVE_STAR["d_s"], 0)
        dim_name = star.dimension_names[0]
        relation = db.relation(dim_name)
        base_dim = dimension_table(db, dim_name)
        mixed_s = seconds * UPDATE_MIXED_SHARE
        n_reads = max(1, int(UPDATE_READ_RATE * mixed_s))
        n_mixed = max(1, int(mixed_s / UPDATE_PERIOD_S))
        n_quiet = max(1, int((seconds - mixed_s) / QUIET_UPDATE_PERIOD_S))
        reads = [maker.make("gmm") for _ in range(n_reads)]
        read_offsets = np.cumsum(rng.exponential(1.0 / UPDATE_READ_RATE,
                                                 n_reads))
        updates = []
        for _ in range(n_mixed + n_quiet):
            rids = rng.choice(SERVE_STAR["n_r"], UPDATE_ROWS, replace=False)
            features = rng.normal(scale=FEATURE_SCALE,
                                  size=(UPDATE_ROWS, SERVE_STAR["d_r"]))
            updates.append((rids, features))
        positions = [relation.positions_of_keys(rids) for rids, _ in updates]

        state = _Versions()
        # The served model after each mixed-phase update, for the read
        # oracle; the quiet phase has no reads to check.
        served = [(gmm.model.params, gmm.model.reg_covar)]
        update_ms = []
        update_errors = []

        def update(due, j):
            rids, features = updates[j]
            rows = np.column_stack([rids.astype(np.float64), features])
            state.started += 1
            update_started[0] = time.perf_counter()
            try:
                db.update_rows(dim_name, positions[j], rows)
            except Exception as error:  # counted as a failed operation
                update_errors.append(error)
            update_ms.append(1000.0 * (time.perf_counter() - due))
            if j < n_mixed:
                model = maintainer.model
                served.append((model.params.copy(), model.reg_covar))
            state.completed += 1

        schedule = sorted(
            [(offset, lambda due, r=r: send(runtime, r, due, state))
             for offset, r in zip(read_offsets, reads)]
            + [(offset, lambda due, j=j: update(due, j))
               for j, offset in enumerate(
                   (np.arange(n_mixed) + 0.5) * UPDATE_PERIOD_S
               )],
            key=lambda item: item[0],
        )
        settle()
        before, _ = _stats(runtime, db, telemetry)
        late = run_open_loop([op for _, op in schedule],
                             [offset for offset, _ in schedule])
        wait_all(reads)
        late = max(late, run_open_loop(
            [lambda due, j=j: update(due, j)
             for j in range(n_mixed, n_mixed + n_quiet)],
            (np.arange(n_quiet) + 0.5) * QUIET_UPDATE_PERIOD_S,
        ))
        after, stats = _stats(runtime, db, telemetry)
        maintainer.close()
        runtime.close()
        closed = True
        rss = peak_rss_mb()

        problems: list[str] = []
        failed = sum(not r.succeeded() for r in reads) + len(update_errors)
        stored = dimension_table(db, dim_name)
        record = base_dim.copy()
        for rids, features in updates:
            record[rids] = features
        if not np.array_equal(stored, record):
            problems.append("dimension rows read back differ from the "
                            "updates applied")
        _check_versioned_reads(reads, problems, base_dim, updates[:n_mixed],
                               served)
        report(problems)

        read_ms = [r.latency_ms for r in reads if r.error is None]
        metrics = {
            "setup_s": median(setup_times),
            "main_p50_ms": windowed_median(read_ms, int(UPDATE_READ_RATE)),
            "side_p50_ms": windowed_median(
                update_ms[n_mixed:],
                int(UPDATE_WINDOW_S / QUIET_UPDATE_PERIOD_S),
            ),
            "peak_rss_mb": rss,
            "serve.p99_ms": percentile(read_ms, 99),
            "bench.generator_late_ms": 1000.0 * late,
        }
        if trace:
            layers.add("storage.update_s",
                       sum(notified[-(n_mixed + n_quiet):]))
            metrics.update(_phase_layers(before, after, stats, layers))
        return metrics, n_reads + n_mixed + n_quiet, failed, not problems
    finally:
        if not closed:
            _close(runtime, db, None, maintainer)
        else:
            db.close()
