"""The training workloads: factorized against materialized fits.

Each run generates its stars, makes one untimed warm-up fit per
strategy, computes the numpy references from the stored relations,
then alternates factorized and materialized fits until ``--seconds``
are spent.  Every fit is checked against its reference.  Generation
and the references run in child processes (:func:`harness.in_child`),
so this process's memory and allocator state are the fits' own.

Untraced runs call the public fitters (``fit_f_*`` / ``fit_m_*``).
Traced runs build the same access paths and engines those fitters
build and hand them to ``run_em`` / ``run_training`` behind
:class:`TimedEngine`, which times each call of the engine protocol.
"""

from __future__ import annotations

import shutil
import time
import warnings
from dataclasses import dataclass

import numpy as np

import oracles
from harness import (
    Layers, dimension_table, in_child, median, report, settle,
)

from repro.data.synthetic import DimensionSpec, StarSchemaConfig, generate_star
from repro.gmm.algorithms import fit_f_gmm, fit_m_gmm
from repro.gmm.base import EMConfig, run_em
from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
from repro.gmm.init import initial_params
from repro.gmm.model import GMMParams
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.spec import JoinSpec
from repro.nn.algorithms import build_model, fit_f_nn, fit_m_nn
from repro.nn.base import NNConfig, run_training
from repro.nn.engines import DenseNNEngine, FactorizedNNEngine
from repro.storage.catalog import Database

SETUP_REPEATS = 9
MATERIALIZED_NAME = "_T_e2ebench"

# F-GMM against M-GMM.  A GMM fit's time depends strongly on the data
# and the starting point: responsibilities that underflow into
# subnormal floats slow the Σ pass (see README), and how many do
# varies from star to star.  So the measured unit is a multi-start fit
# over several binary stars, GMM_STARTS starts each.  The stars are
# the same in every run (star seeds 0 … GMM_STARS-1); ``--seed`` picks
# the k-means++ starts, so runs with different seeds differ only in
# where EM begins.  Each dimension spans three BNL outer blocks (33
# pages, 12 per block), so every pass rescans the fact relation three
# times.
GMM_STARS = 4
GMM_STARTS = 2
GMM_STAR = dict(n_s=20_000, n_r=800, d_s=5, d_r=40)
GMM_BLOCK_PAGES = 12
GMM_CONFIG = EMConfig(n_components=5, max_iter=3, tol=0.0)

# F-NN against M-NN over a 3-way star with resident dimensions: one
# DedupPlan per fact block.
NN_DIMENSIONS = (
    DimensionSpec(300, 20), DimensionSpec(200, 20), DimensionSpec(100, 10)
)
NN_STAR = dict(n_s=200_000, d_s=5)
NN_CONFIG = NNConfig(
    hidden_sizes=(50,), epochs=2, learning_rate=0.05,
    batch_mode="per-batch", seed=0,
)


class TimedEngine:
    """Wraps an EM or NN engine: times batch pulls and the kernels
    named in ``kernels`` into ``layers``, and optionally records the
    fact keys of every batch consumed, in order."""

    def __init__(self, engine, layers, next_name, kernels, record=None):
        self._engine = engine
        self._layers = layers
        self._next_name = next_name
        self._kernels = kernels
        self._record = record

    def __getattr__(self, name):
        attribute = getattr(self._engine, name)
        metric = self._kernels.get(name)
        if metric is None:
            return attribute

        def timed(*args, **kwargs):
            with self._layers.timed(metric):
                return attribute(*args, **kwargs)

        return timed

    def batches(self, *args, **kwargs):
        iterator = iter(self._engine.batches(*args, **kwargs))
        while True:
            with self._layers.timed(self._next_name):
                batch = next(iterator, None)
            if batch is None:
                return
            self._layers.add(self._next_name.replace("next_s", "batches"))
            if self._record is not None:
                self._record.append(np.array(batch.sids))
            yield batch


def _generate(work, make_stars):
    seconds = []
    for index in range(SETUP_REPEATS):
        path = work / f"db{index}"
        tick = time.perf_counter()
        db = Database(path)
        stars = make_stars(db)
        seconds.append(time.perf_counter() - tick)
        db.close()
        if index < SETUP_REPEATS - 1:
            shutil.rmtree(path)
    return stars, seconds


def _setup(work, make_stars):
    """Generate the stars ``SETUP_REPEATS`` times into fresh databases
    (in a child process) and open the last.  Returns ``(db, stars,
    median seconds)``."""
    stars, seconds = in_child(_generate, work, make_stars)
    return Database(work / f"db{SETUP_REPEATS - 1}"), stars, median(seconds)


def _read_back(db, star):
    """The stored relations as numpy arrays: fact features, targets,
    FK columns, row position by fact key, and per dimension a feature
    matrix indexed by primary key."""
    fact = db.relation(star.fact_name)
    rows = fact.scan()
    keys = fact.project_keys(rows)
    position = np.empty(keys.max() + 1, dtype=np.int64)
    position[keys] = np.arange(keys.size)
    targets = (
        rows[:, fact.schema.target_position]
        if fact.schema.target_column is not None else None
    )
    fks = [rows[:, fact.schema.fk_position(name)].astype(np.int64)
           for name in star.dimension_names]
    dims = [dimension_table(db, name) for name in star.dimension_names]
    return fact.project_features(rows), targets, fks, dims, position


def _materialized(db, spec, layers, block_pages, train):
    """Materialize the join as the M- fitters do, timing it, and hand
    the table to ``train``; the table is dropped afterwards."""
    with layers.timed("join.materialize_s"):
        table = materialize_join(
            db, spec, MATERIALIZED_NAME, block_pages=block_pages,
            replace=True,
        )
    try:
        return train(table)
    finally:
        db.drop_relation(MATERIALIZED_NAME, missing_ok=True)


class _Run:
    """Timed fits: per-layer accounting and checks.

    A round is one fit per case (an EM start, or the one NN fit).  The
    fits run case by case, factorized then materialized, cycling until
    time is up; a round's time is the sum over cases of each case's
    median fit time, so a burst of host noise that slows a few fits
    does not move it.
    """

    def __init__(self, db, trace):
        self.db = db
        self.trace = trace
        self.per_fit: dict[tuple, list[float]] = {}
        self.problems: list[str] = []
        self.fits = 0

    def check(self, check, result):
        try:
            check(result)
        except oracles.Mismatch as problem:
            self.problems.append(str(problem))

    def fit(self, kind, case, fit, check, measured=True):
        """Time ``fit(layers)``, then check its result."""
        layers = Layers()
        before = self.db.stats.snapshot()
        pool_before = self.db.buffer_pool.stats()
        tick = time.perf_counter()
        result = fit(layers)
        elapsed = time.perf_counter() - tick
        io = self.db.stats.snapshot() - before
        pool = self.db.buffer_pool.stats()
        self.fits += 1
        self.check(check, result)
        if not measured:
            return
        layers.add("time_s", elapsed)
        layers.add("storage.pages_read", io.pages_read)
        layers.add("storage.pages_written", io.pages_written)
        layers.add("storage.buffer_hits", pool.hits - pool_before.hits)
        layers.add("storage.buffer_misses", pool.misses - pool_before.misses)
        for name, value in layers.values.items():
            self.per_fit.setdefault((kind, case, name), []).append(value)

    def alternate(self, seconds, cases):
        """``cases`` are ``(factorized, materialized, check_f,
        check_m)``; cycle through all of them until the next cycle
        would overrun ``seconds``; at least one cycle."""
        settle()
        deadline = time.perf_counter() + seconds
        while True:
            tick = time.perf_counter()
            for case, (factorized, materialized, check_f, check_m) in (
                enumerate(cases)
            ):
                self.fit("F", case, factorized, check_f)
                self.fit("M", case, materialized, check_m)
            if time.perf_counter() + (time.perf_counter() - tick) > deadline:
                return

    def round_value(self, kind, name):
        """Sum over cases of the median per-fit value of ``name``."""
        return sum(
            median(values) for (k, _, n), values in self.per_fit.items()
            if k == kind and n == name
        )

    def finish(self, setup_s, extra):
        """End-to-end metrics and, traced, per-layer values per round
        of factorized plus materialized fits."""
        metrics = {
            "setup_s": setup_s,
            "main_p50_ms": 1000 * self.round_value("F", "time_s"),
            "side_p50_ms": 1000 * self.round_value("M", "time_s"),
        }
        report(self.problems)
        if self.trace:
            metrics.update(extra)
            names = {n for (_, _, n) in self.per_fit} - {"time_s"}
            for name in names:
                metrics[name] = (self.round_value("F", name)
                                 + self.round_value("M", name))
        return metrics


@dataclass
class _Start:
    """One EM start: a star's join and the parameters EM begins from."""

    spec: JoinSpec
    initial: GMMParams
    reference: tuple


def _gmm_references(db, stars, initials, config):
    """The numpy EM from every start, over each star's dense join."""
    references = []
    for star, per_star in zip(stars, initials):
        fact_x, _, fks, dims, _ = _read_back(db, star)
        joined = oracles.dense_join(fact_x, fks, dims)
        references.append([
            oracles.gmm_em(joined, initial.weights, initial.means,
                           initial.covariances, config.reg_covar,
                           config.max_iter)
            for initial in per_star
        ])
    return references


def train_gmm_binary(seed, seconds, trace, work):
    warnings.simplefilter("ignore")
    config = GMM_CONFIG
    db, stars, setup_s = _setup(work, lambda db: [
        generate_star(
            db, StarSchemaConfig.binary(**GMM_STAR, seed=i),
            fact_name=f"S{i}", dimension_prefix=f"R{i}_",
        )
        for i in range(GMM_STARS)
    ])
    try:
        run = _Run(db, trace)
        init = Layers()
        initials = []
        for star in stars:
            # Starting points from the program's own initializer, as
            # run_em would make them, under GMM_STARTS seeds per run.
            with init.timed("gmm.init_s"):
                access = FactorizedJoin(db, star.spec,
                                        block_pages=GMM_BLOCK_PAGES)
                sample = FactorizedEMEngine(
                    access, n_features=access.resolved.total_features
                ).init_sample(config.init_sample_size)
                initials.append([
                    initial_params(
                        sample, config.n_components,
                        seed=seed * GMM_STARTS + start,
                        method=config.init_method, reg_covar=config.reg_covar,
                    )
                    for start in range(GMM_STARTS)
                ])
        references = in_child(_gmm_references, db, stars, initials, config)
        starts = [
            _Start(star.spec, initial, reference)
            for star, per_star, per_star_refs in zip(stars, initials,
                                                     references)
            for initial, reference in zip(per_star, per_star_refs)
        ]

        def factorized(start, layers):
            if not trace:
                return fit_f_gmm(db, start.spec, config,
                                 block_pages=GMM_BLOCK_PAGES,
                                 initial=start.initial)
            access = FactorizedJoin(db, start.spec,
                                    block_pages=GMM_BLOCK_PAGES)
            engine = TimedEngine(
                FactorizedEMEngine(
                    access, n_features=access.resolved.total_features
                ),
                layers, "join.next_s",
                {"estep_batch": "gmm.estep_s",
                 "mu_accumulate_batch": "gmm.mstep_s",
                 "sigma_accumulate_batch": "gmm.mstep_s"},
            )
            return run_em(engine, config, algorithm="F-GMM",
                          initial=start.initial)

        def materialized(start, layers):
            if not trace:
                return fit_m_gmm(db, start.spec, config,
                                 block_pages=GMM_BLOCK_PAGES,
                                 initial=start.initial)
            return _materialized(
                db, start.spec, layers, GMM_BLOCK_PAGES,
                lambda table: run_em(
                    TimedEngine(
                        DenseEMEngine(
                            MaterializedTable(
                                table, block_pages=GMM_BLOCK_PAGES
                            ),
                            n_features=table.schema.num_features,
                        ),
                        layers, "join.dense_next_s",
                        {"estep_batch": "gmm.dense_estep_s",
                         "mu_accumulate_batch": "gmm.dense_mstep_s",
                         "sigma_accumulate_batch": "gmm.dense_mstep_s"},
                    ),
                    config, algorithm="M-GMM", initial=start.initial,
                ),
            )

        dedup = []

        def check(label, start):
            def check_fit(result):
                if "dedup_ratio" in result.extra:
                    dedup.append(result.extra["dedup_ratio"])
                oracles.check_em_fit(
                    label, result.params, result.log_likelihood_history,
                    start.reference,
                )
            return check_fit

        cases = [
            (lambda layers, s=s: factorized(s, layers),
             lambda layers, s=s: materialized(s, layers),
             check("F-GMM", s), check("M-GMM", s))
            for s in starts
        ]
        f_fit, m_fit, check_f, check_m = cases[0]
        run.fit("F", 0, f_fit, check_f, measured=False)
        run.fit("M", 0, m_fit, check_m, measured=False)
        run.alternate(seconds, cases)
        extra = {"gmm.init_s": init.values["gmm.init_s"],
                 "fx.dedup_ratio": median(dedup)}
        return run.finish(setup_s, extra), run.fits, 0, not run.problems
    finally:
        db.close()


def _mlp_layers(model):
    return [(layer.weights.copy(), layer.bias.copy()) for layer in model.layers]


def _nn_references(db, star, config, recorded):
    """The numpy SGD from the program's initial weights, fed each
    strategy's recorded row blocks joined one block at a time."""
    fact_x, targets, fks, dims, position = _read_back(db, star)
    initial = _mlp_layers(build_model(
        fact_x.shape[1] + sum(dim.shape[1] for dim in dims), config
    ))

    def block(sids):
        rows = position[sids]
        return (oracles.dense_join(fact_x[rows], [fk[rows] for fk in fks],
                                   dims),
                targets[rows])

    return {
        kind: oracles.mlp_sgd(initial, map(block, blocks),
                              config.learning_rate)
        for kind, blocks in recorded.items()
    }


def train_nn_multiway(seed, seconds, trace, work):
    warnings.simplefilter("ignore")
    config = NN_CONFIG
    db, (star,), setup_s = _setup(work, lambda db: [generate_star(
        db, StarSchemaConfig(
            dimensions=NN_DIMENSIONS, with_target=True, seed=seed, **NN_STAR
        ),
    )])
    try:
        spec = star.spec
        run = _Run(db, trace)

        def factorized(layers, record=None):
            if not trace and record is None:
                return fit_f_nn(db, spec, config)
            access = FactorizedJoin(
                db, spec, block_pages=DEFAULT_BLOCK_PAGES,
                shuffle=config.shuffle, seed=config.seed,
            )
            engine = TimedEngine(
                FactorizedNNEngine(
                    access,
                    build_model(access.resolved.total_features, config),
                    grouped_backward=config.grouped_backward,
                ),
                layers, "join.next_s",
                {"batch_gradients": "nn.gradients_s"}, record,
            )
            return run_training(engine, config, algorithm="F-NN")

        def materialized(layers, record=None):
            if not trace and record is None:
                return fit_m_nn(db, spec, config)
            return _materialized(
                db, spec, layers, DEFAULT_BLOCK_PAGES,
                lambda table: run_training(
                    TimedEngine(
                        DenseNNEngine(
                            MaterializedTable(
                                table, block_pages=DEFAULT_BLOCK_PAGES,
                                shuffle=config.shuffle, seed=config.seed,
                            ),
                            build_model(table.schema.num_features, config),
                        ),
                        layers, "join.dense_next_s",
                        {"batch_gradients": "nn.dense_gradients_s"}, record,
                    ),
                    config, algorithm="M-NN",
                ),
            )

        # The untimed warm-up fits record the row blocks each strategy
        # consumes; each reference is fed exactly those blocks.
        recorded = {}
        for kind, fit in (("F", factorized), ("M", materialized)):
            blocks: list[np.ndarray] = []
            recorded[kind] = fit(Layers(), record=blocks), blocks
            run.fits += 1
        references = in_child(
            _nn_references, db, star, config,
            {kind: blocks for kind, (_, blocks) in recorded.items()},
        )
        dedup = []

        def check(kind):
            def check_fit(result):
                if "dedup_ratio" in result.extra:
                    dedup.append(result.extra["dedup_ratio"])
                oracles.check_mlp(
                    f"{kind}-NN", _mlp_layers(result.model), references[kind]
                )
            return check_fit

        for kind, (result, _) in recorded.items():
            run.check(check(kind), result)
        del recorded
        run.alternate(seconds, [(factorized, materialized, check("F"),
                                 check("M"))])
        extra = {"fx.dedup_ratio": median(dedup)}
        return run.finish(setup_s, extra), run.fits, 0, not run.problems
    finally:
        db.close()
