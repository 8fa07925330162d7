"""Optimizers and learning-rate schedules.

Parameters are plain Tensors updated in place from their .grad buffers.
SGD and Adam share one surface: build with a name-to-Tensor map, then
call step(lr) once per backward pass.  The schedule is a step decay: the
rate is multiplied by a fixed factor every fixed number of optimizer
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, UsageError
from .tensor import Tensor

__all__ = ["SgdSchedule", "SGD", "Adam"]


@dataclass(frozen=True)
class SgdSchedule:
    """Step decay: lr(step) = initial_lr * decay_factor ** (step // decay_every)."""

    initial_lr: float
    decay_factor: float = 1.0
    decay_every: int = 1

    def __post_init__(self):
        if not (self.initial_lr > 0):
            raise DomainError(f"initial_lr must be positive, got {self.initial_lr}")
        if not (0 < self.decay_factor <= 1):
            raise DomainError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if int(self.decay_every) != self.decay_every or self.decay_every < 1:
            raise DomainError(f"decay_every must be a positive integer, got {self.decay_every}")

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise DomainError(f"step must be non-negative, got {step}")
        return self.initial_lr * self.decay_factor ** (step // self.decay_every)


def _check_step(kind: str, params: Mapping[str, Tensor], lr: float) -> None:
    if not (lr > 0):
        raise DomainError(f"learning rate must be positive, got {lr}")
    for k, p in params.items():
        if p.grad is None:
            raise UsageError(f"{kind}.step: parameter {k} has no gradient; "
                             "run backward() first")


class SGD:
    """Vanilla gradient descent: p -= lr * p.grad.

    Every parameter must carry an accumulated gradient (a missing one is
    a usage error, raised before anything is updated); grads are zeroed
    after the update.
    """

    def __init__(self, params: Mapping[str, Tensor]):
        self.params = dict(params)

    def step(self, lr: float) -> None:
        _check_step("SGD", self.params, lr)
        for p in self.params.values():
            p.data -= lr * p.grad
            p.grad = None


class Adam:
    """Adam with bias correction, selectable instead of plain SGD.

    State is keyed by parameter name, so one instance must be reused for
    the whole run.  Like SGD, a missing gradient is a usage error and
    gradients are zeroed after the update.
    """

    def __init__(self, params: Mapping[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise DomainError("betas must be in [0, 1)")
        self.params = dict(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        _check_step("Adam", self.params, lr)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            m = self._m[k]
            v = self._v[k]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * (p.grad * p.grad)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.grad = None
