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
    """Mean binary cross-entropy, a float; probabilities are clamped to
    [1e-7, 1 - 1e-7] before the logs. The clamp and the mean are the bits
    of np.clip and np.mean, without their Python wrappers. Batches stacked
    on leading axes give an array of one mean each, over the last axis,
    with the bits each batch gives alone."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ShapeMismatch(f"probs {probs.shape} vs labels {labels.shape}")
    p = np.minimum(np.maximum(probs, BCE_CLAMP), 1.0 - BCE_CLAMP)
    terms = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    means = np.add.reduce(terms, -1) / terms.shape[-1]
    return float(means) if means.ndim == 0 else means


def bce_grad_fused(probs, labels):
    """d(mean BCE)/d(pre-sigmoid logit) = (p - y) / batch — the stable
    fused path used when the loss sits behind the output sigmoid."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return (probs - labels) / probs.shape[0]


def bce_grad_unfused(probs, labels):
    """d(mean BCE)/dp directly, not fused with the sigmoid. Training uses
    `bce_grad_fused`; `perfbench/spans.py` traces this one, and
    `tests/test_objective.py` checks it against finite differences."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return (p - labels) / (p * (1.0 - p)) / probs.shape[0]


def penalty_terms(p, stack=None):
    """The terms `reg_penalty` adds for tensor `p`, lam * sum(|value|) for
    ("l1", lam) and lam * sum(value^2) for ("l2", lam), in the order of
    `p.regularizers`, as floats. Given a stack of n values of p's shape,
    (n, *shape), each term is instead an array of n, one per value, with
    the bits of that value's float. The sums are np.sum's bits, by
    np.add.reduce without np.sum's Python wrapper."""
    value, axis = (p.value, None) if stack is None else (
        stack.reshape(len(stack), -1), 1)
    terms = []
    for kind, lam in p.regularizers:
        if kind == "l1":
            total = np.add.reduce(np.abs(value), axis)
        elif kind == "l2":
            total = np.add.reduce(value * value, axis)
        else:
            raise ValueError(f"unknown regularizer {kind!r}")
        terms.append(lam * (float(total) if stack is None else total))
    return terms


def reg_penalty(params):
    """Total regularization penalty over all tagged tensors, their
    `penalty_terms` added in order; adds the penalty gradients to each
    tensor's grad (L1 subgradient with sign(0) = 0)."""
    total = 0.0
    for p in params:
        for term in penalty_terms(p):
            total += term
        for kind, lam in p.regularizers:
            if kind == "l1":
                p.grad += lam * np.sign(p.value)
            else:
                p.grad += 2.0 * lam * p.value
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
