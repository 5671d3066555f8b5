"""The benchmark's oracles accept the program's real outputs and reject
deliberately perturbed ones.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import sys
import warnings
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import serving  # noqa: E402
import training  # noqa: E402
from harness import Layers, dimension_table  # noqa: E402

from repro import Database, ModelError, StarSchemaConfig, generate_star  # noqa: E402
from repro.data.synthetic import DimensionSpec  # noqa: E402
from repro.gmm.algorithms import fit_f_gmm, fit_m_gmm  # noqa: E402
from repro.gmm.base import EMConfig  # noqa: E402
from repro.gmm.init import initial_params  # noqa: E402
from repro.gmm.model import GaussianMixtureModel  # noqa: E402
from repro.join.factorized import FactorizedJoin  # noqa: E402
from repro.nn.algorithms import build_model  # noqa: E402
from repro.nn.base import NNConfig, run_training  # noqa: E402
from repro.nn.engines import FactorizedNNEngine  # noqa: E402
from repro.serve.predictor import make_predictor  # noqa: E402


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def binary_star(tmp_path):
    db = Database(tmp_path / "db")
    star = generate_star(db, StarSchemaConfig.binary(
        n_s=600, n_r=40, d_s=2, d_r=3, with_target=True, seed=3,
    ))
    yield db, star
    db.close()


def _joined(db, star):
    fact_x, targets, fks, dims, position = training._read_back(db, star)
    return oracles.dense_join(fact_x, fks, dims), targets, position


def _perturbed(params, field, delta):
    out = params.copy()
    getattr(out, field)[0, ...] += delta
    return out


def test_em_oracle_accepts_both_strategies_and_rejects_perturbations(
    binary_star,
):
    db, star = binary_star
    joined, _, _ = _joined(db, star)
    config = EMConfig(n_components=3, max_iter=3, tol=0.0)
    initial = initial_params(joined[:200], 3, seed=0, reg_covar=1e-6)
    reference = oracles.gmm_em(
        joined, initial.weights, initial.means, initial.covariances,
        config.reg_covar, config.max_iter,
    )
    for fit in (fit_f_gmm, fit_m_gmm):
        result = fit(db, star.spec, config, initial=initial)
        history = result.log_likelihood_history
        oracles.check_em_fit("fit", result.params, history, reference)
        with pytest.raises(oracles.Mismatch, match="means"):
            oracles.check_em_fit(
                "fit", _perturbed(result.params, "means", 1e-3), history,
                reference,
            )
        with pytest.raises(oracles.Mismatch, match="covariances"):
            oracles.check_em_fit(
                "fit", _perturbed(result.params, "covariances", 1e-3),
                history, reference,
            )
        with pytest.raises(oracles.Mismatch, match="log-likelihood"):
            oracles.check_em_fit(
                "fit", result.params, [history[0]] * len(history), reference,
            )


def test_em_oracle_rejects_a_decreasing_log_likelihood():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(200, 2))
    start = (np.full(2, 0.5), rng.normal(size=(2, 2)), np.stack([np.eye(2)] * 2))
    (weights, means, covariances), history = oracles.gmm_em(
        data, *start, 1e-6, 3
    )
    params = SimpleNamespace(
        weights=weights, means=means, covariances=covariances
    )
    falling = [history[0], history[0] - 1.0, history[2]]
    with pytest.raises(oracles.Mismatch, match="decreased"):
        oracles.check_em_fit(
            "fit", params, falling, ((weights, means, covariances), falling)
        )


def test_sgd_oracle_follows_the_blocks_a_fit_consumes(tmp_path):
    db = Database(tmp_path / "db")
    star = generate_star(db, StarSchemaConfig(
        n_s=900, d_s=2, with_target=True, seed=5,
        dimensions=(DimensionSpec(30, 3), DimensionSpec(20, 2)),
    ))
    try:
        joined, targets, position = _joined(db, star)
        config = NNConfig(hidden_sizes=(6,), epochs=2, learning_rate=0.1)
        access = FactorizedJoin(db, star.spec, block_pages=1)
        blocks: list[np.ndarray] = []
        engine = training.TimedEngine(
            FactorizedNNEngine(access, build_model(joined.shape[1], config)),
            Layers(), "join.next_s", {}, blocks,
        )
        initial = training._mlp_layers(engine.model)
        result = run_training(engine, config, algorithm="F-NN")
        assert len(blocks) > 2
        batches = [(joined[position[s]], targets[position[s]]) for s in blocks]
        reference = oracles.mlp_sgd(initial, batches, config.learning_rate)
        trained = training._mlp_layers(result.model)
        oracles.check_mlp("F-NN", trained, reference)
        trained[0][0][0, 0] += 1e-4
        with pytest.raises(oracles.Mismatch, match="W0"):
            oracles.check_mlp("F-NN", trained, reference)
        # Feeding the blocks in another order is another training run.
        reordered = oracles.mlp_sgd(initial, batches[::-1],
                                    config.learning_rate)
        with pytest.raises(oracles.Mismatch):
            oracles.check_mlp("F-NN", training._mlp_layers(result.model),
                              reordered)
    finally:
        db.close()


def _resolved(value=None, error=None):
    future = Future()
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)
    return future


def test_serving_oracles_reject_perturbed_outputs(binary_star):
    db, star = binary_star
    gmm = fit_f_gmm(db, star.spec, EMConfig(n_components=3, max_iter=2,
                                            tol=0.0))
    model = GaussianMixtureModel(gmm.params, reg_covar=1e-6)
    rng = np.random.default_rng(1)
    fks = rng.integers(0, 40, size=50)
    features = rng.normal(size=(50, 2))
    predictor = make_predictor(db, star.spec, model, kind="gmm",
                               strategy="factorized")
    labels = predictor.predict(features, fks)
    request = serving.Request("gmm", features, fks)
    request.future = _resolved(labels)
    dims = [dimension_table(db, "R1")]
    problems: list[str] = []
    serving._check_reads([request], problems, dims, {"gmm": model})
    assert problems == []
    flipped = labels.copy()
    flipped[7] = (flipped[7] + 1) % 3
    request.future = _resolved(flipped)
    serving._check_reads([request], problems, dims, {"gmm": model})
    assert len(problems) == 1 and "row 7" in problems[0]

    net = build_model(5, NNConfig(hidden_sizes=(4,)))
    outputs = oracles.mlp_forward(
        [(layer.weights, layer.bias) for layer in net.layers],
        oracles.dense_join(features, [fks], dims),
    )
    request = serving.Request("nn", features, fks)
    request.future = _resolved(outputs * (1 + 1e-9))
    problems = []
    serving._check_reads([request], problems, dims, {"nn": net})
    assert problems == []
    request.future = _resolved(outputs + 1e-3)
    serving._check_reads([request], problems, dims, {"nn": net})
    assert len(problems) == 1 and "nn outputs" in problems[0]


def test_versioned_read_oracle(binary_star):
    db, star = binary_star
    dim = dimension_table(db, "R1")
    params = fit_f_gmm(db, star.spec, EMConfig(n_components=3, max_iter=2,
                                               tol=0.0)).params
    moved = params.copy()
    moved.means[:] = moved.means[::-1]
    models = [(params, 1e-6), (moved, 1e-6)]
    fks = np.arange(10)
    update = (fks, dim[fks] + 5.0)
    features = np.zeros((10, 2))

    def labels(version):
        table = dim.copy()
        if version:
            table[update[0]] = update[1]
        p, reg = models[version]
        return oracles.gmm_labels(
            oracles.dense_join(features, [fks], [table]),
            p.weights, p.means, p.covariances, reg,
        )

    assert not np.array_equal(labels(0), labels(1))

    def read(sent, done, answer):
        request = serving.Request("gmm", features, fks)
        request.sent_version, request.done_version = sent, done
        request.future = _resolved(answer)
        return request

    def problems_for(*requests):
        problems: list[str] = []
        serving._check_versioned_reads(list(requests), problems, dim,
                                       [update], models)
        return problems

    assert problems_for(read(0, 0, labels(0)), read(1, 1, labels(1))) == []
    # In flight across the update: either state is acceptable.
    assert problems_for(read(0, 1, labels(0)), read(0, 1, labels(1))) == []
    # Sent after the update landed: the old state is not.
    assert len(problems_for(read(1, 1, labels(0)))) == 1
    assert len(problems_for(read(0, 1, (labels(1) + 1) % 3))) == 1


def test_malformed_requests_succeed_only_when_refused():
    refused = serving.malformed_request(0, 2)
    refused.future = _resolved(error=ModelError("non-finite features"))
    assert refused.succeeded()
    answered = serving.malformed_request(1, 2)
    answered.future = _resolved(np.zeros(4))
    assert not answered.succeeded()
    assert refused.malformed == "nan_features"
    assert answered.malformed == "fractional_fk"
