"""Weights, their error types and the finite-difference gradient oracle.

A weight (`Tensor2`) is a row-major (rows, cols) float array with a
gradient slot. `model.loss_and_grads` points each weight's slot at a zeroed
slice of its workspace's one gradient vector (`layers.Workspace.bind_grads`),
and the backward passes in `layers` and `model` add into it.
`finite_diff_check` compares those gradients against central differences.
`NumericError` and `ShapeError` name non-finite values and mismatched
shapes. float64 is used for gradient checking, float32 for training.
"""

from __future__ import annotations

import numpy as np


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class Tensor2:
    """A 2-D weight: its value `.data` and its gradient `.grad`, None until
    a backward binds it to a slice of a workspace's gradient vector
    (`layers.Workspace.bind_grads`). A bound .grad is valid until the next
    `model.loss_and_grads` on that workspace, which overwrites it."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data)
        if self.data.ndim != 2:
            raise ShapeError(f"expected 2 dimensions, got shape {self.data.shape}")
        self.grad = None


# -- gradient checking ---------------------------------------------------


def finite_diff_check(fn, params, eps: float = 1e-5, max_coords: int = 25,
                      seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    fn takes no arguments, reads `params` (objects with a `.data` array) and
    returns (loss, grads): a scalar loss and one gradient array per param.
    Returns the max relative error over sampled coordinates:
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, grads = fn()
    grads = [np.array(g) for g in grads]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        n = p.data.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = float(fn()[0])
            flat[c] = orig - eps
            lo = float(fn()[0])
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(g.reshape(-1)[c])
            err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
