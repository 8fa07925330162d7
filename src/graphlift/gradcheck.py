"""Finite-difference verification of analytic gradients.

grad_check perturbs individual parameter entries with central differences
and compares against the gradients produced by backward().  The relative
error uses max(1, |analytic|, |numeric|) in the denominator so tiny
gradients do not blow up the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, NumericError
from .tensor import Tensor

__all__ = ["GradCheckReport", "grad_check"]


@dataclass
class GradCheckReport:
    max_rel_err: float
    num_checked: int
    worst_param: str = ""
    worst_index: tuple = ()

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


def grad_check(fn: Callable[[], Tensor], params: Mapping[str, Tensor],
               eps: float = 1e-5, num_coords: int = 100, *,
               rng: np.random.Generator) -> GradCheckReport:
    """Compare analytic gradients of a scalar-valued fn against central differences.

    fn must be deterministic and return a scalar Tensor computed from the
    current values of `params`.  When the total exceeds num_coords, a subset
    of coordinates is drawn from `rng` without replacement; the step for each
    coordinate is scaled by its magnitude, h = eps * max(1, |x|).  A
    non-finite function value anywhere raises NumericError.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise DomainError(f"eps must be a positive finite step, got {eps}")
    if num_coords < 1:
        raise DomainError("num_coords must be at least 1")
    names = [k for k, p in params.items() if p.data.size > 0]
    if not names:
        raise DomainError("grad_check needs at least one non-empty parameter")

    def evaluate() -> Tensor:
        out = fn()
        if not math.isfinite(out.item()):
            raise NumericError("function value is not finite; gradients cannot "
                               "be checked at this point")
        return out

    for p in params.values():
        p.grad = None
    out = evaluate()
    out.backward()
    analytic = {}
    for k in names:
        g = params[k].grad
        analytic[k] = np.zeros_like(params[k].data) if g is None else g.copy()

    coords = [(k, i) for k in names for i in range(params[k].data.size)]
    if len(coords) > num_coords:
        pick = rng.choice(len(coords), size=num_coords, replace=False)
        coords = [coords[i] for i in sorted(pick)]

    report = GradCheckReport(max_rel_err=0.0, num_checked=len(coords))
    for k, i in coords:
        # Index the array itself: reshape(-1) of a non-contiguous parameter
        # is a copy, and a perturbation written there would never be seen.
        data = params[k].data
        idx = np.unravel_index(i, data.shape)
        x0 = data[idx]
        h = eps * max(1.0, abs(x0))
        data[idx] = x0 + h
        f_plus = evaluate().item()
        data[idx] = x0 - h
        f_minus = evaluate().item()
        data[idx] = x0
        fd = (f_plus - f_minus) / (2 * h)
        an = analytic[k][idx]
        rel = abs(an - fd) / max(1.0, abs(an), abs(fd))
        if rel > report.max_rel_err:
            report.max_rel_err = rel
            report.worst_param = k
            report.worst_index = idx
    return report
