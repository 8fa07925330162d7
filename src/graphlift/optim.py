"""Adam and its learning-rate schedule.

Parameters are plain Tensors updated in place from their .grad buffers:
build Adam with a name-to-Tensor map, then call step(lr) once per
backward pass.  The schedule is a step decay: the rate is multiplied by
a fixed factor every fixed number of optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, UsageError
from .tensor import Tensor

__all__ = ["SgdSchedule", "Adam"]


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


# Adam's moment decay rates b1, b2 and denominator guard eps.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# Elements per slice of Adam's in-place update: the two scratch buffers
# hold one slice each (256 KB apiece), whatever the parameter sizes.
_ADAM_BLOCK = 1 << 15


class Adam:
    """Adam with bias correction.

    State is keyed by parameter name, so one instance must be reused for
    the whole run.  Every parameter must carry an accumulated gradient (a
    missing one is a usage error, raised before anything is updated);
    gradients are zeroed after the update.

    step() updates the moments and the parameter in place, one flat slice
    of _ADAM_BLOCK elements at a time, through two scratch buffers of at
    most that size, so a step allocates nothing the size of a parameter.
    Each element sees the same operations in the same order as the plain
    formula, so results are bitwise equal to it.  A gradient is copied
    only when it is not C-contiguous (a transposed or broadcast view);
    a non-contiguous parameter is updated through a contiguous copy that
    is written back.
    """

    def __init__(self, params: Mapping[str, Tensor]):
        self.params = dict(params)
        self.t = 0
        self._m = {k: np.zeros(p.data.size) for k, p in self.params.items()}
        self._v = {k: np.zeros(p.data.size) for k, p in self.params.items()}
        width = min(_ADAM_BLOCK, max((p.data.size for p in self.params.values()), default=0))
        self._scratch = (np.empty(width), np.empty(width))

    def step(self, lr: float) -> None:
        if not (lr > 0):
            raise DomainError(f"learning rate must be positive, got {lr}")
        for k, p in self.params.items():
            if p.grad is None:
                raise UsageError(f"Adam.step: parameter {k} has no gradient; "
                                 "run backward() first")
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for k, p in self.params.items():
            flat_p = p.data.reshape(-1)      # a copy if p.data is not contiguous
            flat_g = np.ravel(p.grad)        # likewise for the gradient
            m, v = self._m[k], self._v[k]
            for lo in range(0, flat_p.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, flat_p.size)
                g, mb, vb = flat_g[lo:hi], m[lo:hi], v[lo:hi]
                s1, s2 = (buf[:hi - lo] for buf in self._scratch)
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
                mb *= _BETA1
                np.multiply(1 - _BETA1, g, out=s1)
                mb += s1
                vb *= _BETA2
                np.multiply(g, g, out=s1)
                np.multiply(1 - _BETA2, s1, out=s1)
                vb += s1
                # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(mb, bc1, out=s1)
                np.multiply(lr, s1, out=s1)
                np.divide(vb, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += _EPS
                s1 /= s2
                flat_p[lo:hi] -= s1
            if not p.data.flags.c_contiguous:
                p.data[...] = flat_p.reshape(p.data.shape)
            p.grad = None
