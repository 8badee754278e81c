"""Losses and their exact gradients."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over integer labels, and gradient wrt logits.

    Parameters
    ----------
    logits: ``(N, C)`` float array.
    labels: ``(N,)`` integer array in ``[0, C)``.

    Returns
    -------
    ``(loss, dlogits)`` where ``dlogits`` has shape ``(N, C)`` and already
    includes the ``1/N`` mean factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} logits vs {labels.shape[0]} labels")
    probs = softmax(logits)
    eps = 1e-12
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + eps)))
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def softmax_cross_entropy_cohort(
    logits: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masked :func:`softmax_cross_entropy` over a leading cohort axis.

    Parameters
    ----------
    logits: ``(K, B, C)`` float array — row ``k`` holds client ``k``'s
        padded minibatch; entries beyond ``counts[k]`` may be arbitrary
        (finite) values and contribute nothing.
    labels: ``(K, B)`` integer array; padding labels must be valid class
        ids (any value in ``[0, C)``).
    counts: ``(K,)`` integer array of valid examples per row; a count of
        zero marks an inactive client (loss 0, zero gradient row).

    Returns
    -------
    ``(losses, dlogits)`` — per-client mean losses ``(K,)`` and the
    gradient ``(K, B, C)`` with the per-client ``1/count`` mean factor
    applied and padding rows exactly zero.  For full rows
    (``counts[k] == B``) both are computed by the same elementwise ops in
    the same order as the per-client function, so values match it
    bitwise; ragged rows differ only in float summation order.

    ``logits`` is consumed: the gradient is computed in place on it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    counts = np.asarray(counts)
    k, b, _ = logits.shape
    if labels.shape != (k, b):
        raise ValueError(f"labels shape {labels.shape} != {(k, b)}")
    if counts.shape != (k,):
        raise ValueError(f"counts shape {counts.shape} != {(k,)}")
    rows = np.arange(k)[:, None]
    cols = np.arange(b)[None, :]
    mask = cols < counts[:, None]                      # (K, B) valid slots
    safe = np.maximum(counts, 1).astype(np.float64)
    shifted = logits
    np.subtract(shifted, shifted.max(axis=-1, keepdims=True), out=shifted)
    probs = np.exp(shifted, out=shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    eps = 1e-12
    logp = np.log(probs[rows, cols, labels] + eps)     # (K, B)
    np.multiply(logp, mask, out=logp)
    losses = -(logp.sum(axis=1) / safe)
    losses[counts == 0] = 0.0
    dlogits = probs
    dlogits[rows, cols, labels] -= 1.0
    dlogits /= safe[:, None, None]
    dlogits *= mask[:, :, None]
    return losses, dlogits

