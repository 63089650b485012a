"""The cross-entropy of the softmax baseline as the chain of Tensor ops that
``baselines._cross_entropy`` fuses into one node, kept as that node's oracle."""

from __future__ import annotations

from flowconformal.autodiff import Tensor


def tape_cross_entropy(logits: Tensor, onehot) -> Tensor:
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    centered = logits - shift
    log_norm = centered.exp().sum(axis=1, keepdims=True).log()
    log_probs = centered - log_norm
    return -((log_probs * Tensor(onehot)).sum(axis=1).mean())
