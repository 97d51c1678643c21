"""Loss, regularization penalties, and classification metrics.

The positive class is fake = 1; precision and recall are computed with
respect to it. A probability p counts as fake iff p >= THRESHOLD, both in
`evaluate` and in `Model.predict`. Ratios with a zero denominator are
reported as 0 with a `degenerate` flag so reports always serialize
cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeMismatch

BCE_CLAMP = 1e-7
THRESHOLD = 0.5


class EmptyBatch(ValueError):
    pass


def bce(probs, labels):
    """Mean binary cross-entropy; probabilities are clamped to
    [1e-7, 1 - 1e-7] before the logs. The clamp and the mean are the bits
    of np.clip and np.mean, without their Python wrappers."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ShapeMismatch(f"probs {probs.shape} vs labels {labels.shape}")
    p = np.minimum(np.maximum(probs, BCE_CLAMP), 1.0 - BCE_CLAMP)
    terms = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return float(np.add.reduce(terms, None) / terms.size)


def bce_grad_fused(probs, labels):
    """d(mean BCE)/d(pre-sigmoid logit) = (p - y) / batch — the stable
    fused path used when the loss sits behind the output sigmoid."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return (probs - labels) / probs.shape[0]


def bce_grad_unfused(probs, labels):
    """d(mean BCE)/dp directly; retained for gradcheck of the standalone loss."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return (p - labels) / (p * (1.0 - p)) / probs.shape[0]


def reg_penalty(params, accumulate_grads=True):
    """Total regularization penalty over all tagged tensors; optionally
    adds the penalty gradients (L1 subgradient with sign(0) = 0). The sums
    are np.sum's bits, by np.add.reduce without np.sum's Python wrapper."""
    total = 0.0
    for p in params:
        for kind, lam in p.regularizers:
            if kind == "l1":
                total += lam * float(np.add.reduce(np.abs(p.value), None))
                if accumulate_grads:
                    p.grad += lam * np.sign(p.value)
            elif kind == "l2":
                total += lam * float(np.add.reduce(p.value * p.value, None))
                if accumulate_grads:
                    p.grad += 2.0 * lam * p.value
            else:
                raise ValueError(f"unknown regularizer {kind!r}")
    return total


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    loss: float
    tp: int
    fp: int
    tn: int
    fn: int
    degenerate: bool


def evaluate(probs, labels, loss=None):
    """Threshold at p >= THRESHOLD, tally the confusion matrix, and derive
    accuracy/precision/recall/F1."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.size == 0:
        raise EmptyBatch("no examples to evaluate")
    preds = probs >= THRESHOLD
    actual = labels == 1
    tp = int(np.sum(preds & actual))
    fp = int(np.sum(preds & ~actual))
    fn = int(np.sum(~preds & actual))
    tn = int(np.sum(~preds & ~actual))
    cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)

    degenerate = False
    accuracy = (tp + tn) / cm.total
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True

    if loss is None:
        loss = bce(probs, labels)
    report = MetricsReport(accuracy=accuracy, precision=precision,
                           recall=recall, f1=f1, loss=loss,
                           tp=tp, fp=fp, tn=tn, fn=fn, degenerate=degenerate)
    return cm, report
