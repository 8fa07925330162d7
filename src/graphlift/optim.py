"""Adam, the one optimizer.

Parameters are plain Tensors updated in place from their .grad buffers:
build Adam with a name-to-Tensor map, then call step(lr) once per
backward pass.  The caller owns the learning rate; the training stages
step-decay it (training.stage_schedule).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import DomainError
from .tensor import Tensor

__all__ = ["Adam"]


# Adam's moment decay rates b1, b2 and denominator guard eps.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# Elements per slice of Adam's in-place update: the two scratch buffers
# hold one slice each (256 KB apiece), whatever the parameter sizes.
_ADAM_BLOCK = 1 << 15


# A gap of dead rows shorter than this many elements is updated with its
# neighbours rather than split off: on a 2-vCPU x86 box the ufunc calls of
# one more slice (about 9 us) cost as much as ~2048 elements of the
# 10-pass update.  The update leaves a dead row bitwise unchanged, so
# either way is exact.
_MIN_GAP = 2048


def _live_spans(live: np.ndarray, width: int) -> list[tuple[int, int]]:
    """Flat [lo, hi) spans covering the live rows of `width` elements each."""
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False)).tolist()
    runs: list[list[int]] = []
    for lo, hi in zip(edges[::2], edges[1::2]):
        if runs and (lo - runs[-1][1]) * width < _MIN_GAP:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return [(lo * width, hi * width) for lo, hi in runs]


class Adam:
    """Adam with bias correction (Kingma & Ba, arXiv 1412.6980).

    State is keyed by parameter name, so one instance must be reused for
    the whole run.  Every parameter must carry an accumulated gradient (a
    missing one raises DomainError before anything is updated);
    gradients are zeroed after the update.

    step() runs the paper's Sec. 2 order: the bias corrections fold into
    a step size alpha_t and a guard eps_t, and the moments are stored
    divided by (1 - b1) and (1 - b2), so one update is
        m = b1 m + g;  v = b2 v + g^2;  p -= alpha_t m / (sqrt(v) + eps_t).
    That is the textbook formula up to rounding, with fewer passes.

    A row of a parameter (its first axis; a 0-d or 1-d parameter is one
    row) becomes live at the first step whose gradient has a nonzero
    element in it (NaN and inf count) and stays live.  A row that was
    never live has zero moments and a zero gradient, which the formula
    would leave bitwise unchanged, so step() skips it (the raster stub's
    W1 has rows no sample occupies), except in gaps shorter than _MIN_GAP
    elements between live rows.  Once every row of a parameter is live,
    its step checks nothing.

    The update runs in place, one flat slice of _ADAM_BLOCK elements at a
    time, through two scratch buffers of at most that size, so a step
    allocates nothing the size of a parameter.  A gradient is copied only
    when it is not C-contiguous (a transposed or broadcast view); a
    non-contiguous parameter is updated through a contiguous copy that is
    written back.
    """

    def __init__(self, params: Mapping[str, Tensor]):
        self.params = dict(params)
        self.t = 0
        self._m = {k: np.zeros(p.data.size) for k, p in self.params.items()}
        self._v = {k: np.zeros(p.data.size) for k, p in self.params.items()}
        self._live = {k: np.zeros(p.shape[0] if p.ndim >= 2 else 1, dtype=bool)
                      for k, p in self.params.items()}
        self._runs = {k: [] for k in self.params}     # flat spans step() updates
        self._growing = {k for k, live in self._live.items() if not live.all()}
        width = min(_ADAM_BLOCK, max((p.data.size for p in self.params.values()), default=0))
        self._scratch = (np.empty(width), np.empty(width))

    def _revive(self, k: str, flat_g: np.ndarray) -> None:
        """Make live the rows of k whose gradient has a nonzero element."""
        live = self._live[k]
        rows = flat_g.reshape(live.size, -1)
        hit = rows.any(axis=1)              # NaN is nonzero
        if (hit & ~live).any():
            live |= hit
            self._runs[k] = _live_spans(live, rows.shape[1])
            if live.all():
                self._growing.discard(k)

    def step(self, lr: float) -> None:
        if not (lr > 0):
            raise DomainError(f"learning rate must be positive, got {lr}")
        for k, p in self.params.items():
            if p.grad is None:
                raise DomainError(f"Adam.step: parameter {k} has no gradient; "
                                  "run backward() first")
        self.t += 1
        c2 = math.sqrt((1.0 - _BETA2 ** self.t) / (1.0 - _BETA2))
        alpha = lr * (1.0 - _BETA1) / (1.0 - _BETA1 ** self.t) * c2
        eps = _EPS * c2
        for k, p in self.params.items():
            flat_p = p.data.reshape(-1)      # a copy if p.data is not contiguous
            flat_g = np.ravel(p.grad)        # likewise for the gradient
            if k in self._growing:
                self._revive(k, flat_g)
            m, v = self._m[k], self._v[k]
            for start, stop in self._runs[k]:
                for lo in range(start, stop, _ADAM_BLOCK):
                    hi = min(lo + _ADAM_BLOCK, stop)
                    g, mb, vb = flat_g[lo:hi], m[lo:hi], v[lo:hi]
                    s1, s2 = (buf[:hi - lo] for buf in self._scratch)
                    mb *= _BETA1
                    mb += g
                    vb *= _BETA2
                    np.multiply(g, g, out=s1)
                    vb += s1
                    np.sqrt(vb, out=s2)
                    s2 += eps
                    np.divide(mb, s2, out=s1)
                    s1 *= alpha
                    flat_p[lo:hi] -= s1
            if not p.data.flags.c_contiguous:
                p.data[...] = flat_p.reshape(p.data.shape)
            p.grad = None
