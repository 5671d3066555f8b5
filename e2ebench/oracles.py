"""Correctness oracles computed apart from the program under test.

Everything here is plain numpy over arrays the benchmark holds itself:
the dense join is built by fancy-indexing dimension rows with the fact
table's foreign keys, never through the program's join code, and the
models are re-evaluated (or re-trained) with textbook formulas.  Each
``check_*`` function raises :class:`Mismatch` naming the first
disagreement.

Tolerances (also listed in the README):

* EM parameters: ``rtol=1e-6``, ``atol=1e-9``; log-likelihoods
  ``rtol=1e-9``.  A log-likelihood may not drop between iterations by
  more than ``1e-9`` of its magnitude.
* NN weights after SGD and NN serving outputs: ``rtol=1e-6``,
  ``atol=1e-9``.
* GMM serving labels: exact.
"""

from __future__ import annotations

import numpy as np

EM_RTOL, EM_ATOL, LL_RTOL = 1e-6, 1e-9, 1e-9
NN_RTOL, NN_ATOL = 1e-6, 1e-9


class Mismatch(AssertionError):
    """The program's output disagrees with the oracle."""


def dense_join(fact_features, fks, dims) -> np.ndarray:
    """``[x_S | R_1[fk_1] | …]`` by fancy indexing; ``dims[i]`` holds
    dimension ``i``'s feature rows indexed by primary key."""
    parts = [np.asarray(fact_features, dtype=np.float64)]
    parts += [dim[np.asarray(fk, dtype=np.int64)] for dim, fk in zip(dims, fks)]
    return np.concatenate(parts, axis=1)


def check_close(label, got, want, rtol, atol) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise Mismatch(f"{label}: shape {got.shape} != {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        where = np.unravel_index(np.argmax(bad), bad.shape)
        raise Mismatch(
            f"{label}: {int(bad.sum())} of {bad.size} values differ, first "
            f"at {tuple(int(i) for i in where)}: {got[where]!r} != "
            f"{want[where]!r}"
        )


# -- Gaussian mixtures ------------------------------------------------------


def gmm_log_joint(data, weights, means, covariances, reg) -> np.ndarray:
    """``log π_k + log N(x | µ_k, Σ_k + reg·I)`` per row and component,
    through a Cholesky solve of each centred block."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    out = np.empty((n, len(weights)))
    for k in range(len(weights)):
        chol = np.linalg.cholesky(covariances[k] + reg * np.eye(d))
        z = np.linalg.solve(chol, (data - means[k]).T)
        out[:, k] = (
            np.log(weights[k])
            - 0.5 * (d * np.log(2 * np.pi) + 2 * np.log(np.diag(chol)).sum())
            - 0.5 * np.einsum("ij,ij->j", z, z)
        )
    return out


def gmm_labels(data, weights, means, covariances, reg) -> np.ndarray:
    return gmm_log_joint(data, weights, means, covariances, reg).argmax(axis=1)


def gmm_em(data, weights, means, covariances, reg, iterations):
    """Plain EM from the given start: returns the final ``(weights,
    means, covariances)`` and the log-likelihood of the parameters each
    iteration started from."""
    data = np.asarray(data, dtype=np.float64)
    weights, means, covariances = (
        np.array(weights, dtype=np.float64),
        np.array(means, dtype=np.float64),
        np.array(covariances, dtype=np.float64),
    )
    history = []
    for _ in range(iterations):
        log_joint = gmm_log_joint(data, weights, means, covariances, reg)
        peak = log_joint.max(axis=1, keepdims=True)
        shifted = np.exp(log_joint - peak)
        total = shifted.sum(axis=1, keepdims=True)
        history.append(float((peak + np.log(total)).sum()))
        gamma = shifted / total
        mass = gamma.sum(axis=0)
        means = (gamma.T @ data) / mass[:, None]
        for k in range(len(mass)):
            centred = data - means[k]
            covariances[k] = (gamma[:, k, None] * centred).T @ centred / mass[k]
        weights = mass / data.shape[0]
    return (weights, means, covariances), history


def check_em_fit(label, params, history, reference) -> None:
    """A fit's final parameters and log-likelihood history against
    :func:`gmm_em`, plus EM's monotonicity."""
    (weights, means, covariances), ref_history = reference
    check_close(f"{label} weights", params.weights, weights, EM_RTOL, EM_ATOL)
    check_close(f"{label} means", params.means, means, EM_RTOL, EM_ATOL)
    check_close(
        f"{label} covariances", params.covariances, covariances,
        EM_RTOL, EM_ATOL,
    )
    check_close(f"{label} log-likelihood", history, ref_history, LL_RTOL, 0.0)
    for before, after in zip(history, history[1:]):
        if after < before - 1e-9 * abs(before):
            raise Mismatch(
                f"{label}: log-likelihood decreased {before!r} -> {after!r}"
            )


def check_labels(label, got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise Mismatch(f"{label}: shape {got.shape} != {want.shape}")
    bad = np.flatnonzero(got != want)
    if bad.size:
        raise Mismatch(
            f"{label}: {bad.size} of {got.size} labels differ, first at "
            f"row {bad[0]}: {got[bad[0]]} != {want[bad[0]]}"
        )


# -- Neural networks ----------------------------------------------------------


def _sigmoid(a):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def mlp_forward(layers, data) -> np.ndarray:
    """Sigmoid hidden layers, linear output; ``layers`` is a list of
    ``(W, b)`` with ``W`` shaped ``(n_out, n_in)``."""
    hidden = np.asarray(data, dtype=np.float64)
    for weights, bias in layers[:-1]:
        hidden = _sigmoid(hidden @ weights.T + bias)
    weights, bias = layers[-1]
    return hidden @ weights.T + bias


def mlp_sgd(layers, batches, learning_rate):
    """One half-MSE gradient step per ``(X, y)`` batch, normalized by
    the batch size; returns the trained ``(W, b)`` list."""
    layers = [(w.copy(), b.copy()) for w, b in layers]
    for data, targets in batches:
        inputs = [np.asarray(data, dtype=np.float64)]
        for weights, bias in layers[:-1]:
            inputs.append(_sigmoid(inputs[-1] @ weights.T + bias))
        weights, bias = layers[-1]
        outputs = inputs[-1] @ weights.T + bias
        grad = (outputs - targets.reshape(outputs.shape)) / data.shape[0]
        steps = []
        for index in range(len(layers) - 1, -1, -1):
            weights, _ = layers[index]
            steps.append((grad.T @ inputs[index], grad.sum(axis=0)))
            if index:
                below = inputs[index]
                grad = (grad @ weights) * below * (1.0 - below)
        for (weights, bias), (grad_w, grad_b) in zip(layers, steps[::-1]):
            weights -= learning_rate * grad_w
            bias -= learning_rate * grad_b
    return layers


def check_mlp(label, layers, reference) -> None:
    for index, ((w, b), (ref_w, ref_b)) in enumerate(zip(layers, reference)):
        check_close(f"{label} W{index}", w, ref_w, NN_RTOL, NN_ATOL)
        check_close(f"{label} b{index}", b, ref_b, NN_RTOL, NN_ATOL)


def check_outputs(label, got, want) -> None:
    check_close(label, np.ravel(got), np.ravel(want), NN_RTOL, NN_ATOL)
