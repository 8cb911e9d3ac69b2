"""Finite-difference validation of the analytic gradients.

Runs the full pipeline in wide precision on a seeded synthetic scene and
compares the gradients of the training objective, ``train.loss_and_grads``,
against central differences of its loss over untaped fuses, on a random
sample of coordinates of every parameter tensor.

Each perturbed loss is one whole ``dmff_fuse``.  The fuses of one check
share a ``dmff_fuse`` cache, so a branch whose map, shrink learnables and
positional table a perturbation leaves alone reuses its unperturbed
tokens, which is every branch but the perturbed one's when a shrink or
table entry is bumped.  Attention and every later stage rerun on each fuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .dmff import DmffConfig, dmff_fuse, init_dmff_weights, replace_parameters
from .synth import SyntheticPairSpec, gen_synthetic_pair
from .tensor_core import Tensor
from .train import loss_and_grads, squared_error_loss

REL_ERR_FLOOR = 1e-6


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    coords_checked: int

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol


@dataclass
class GradCheckReport:
    checks: list
    eps: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed(self.tol) for c in self.checks)

    def worst(self) -> TensorCheck:
        """The check with the largest error; a NaN error counts as largest."""
        return max(self.checks, key=lambda c: (math.isnan(c.max_rel_err), c.max_rel_err))

    def format(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"gradient check: eps={self.eps:g} tol={self.tol:g}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "ok" if c.passed(self.tol) else "FAIL"
            lines.append(
                f"  {c.name:<{width}}  max_rel_err={c.max_rel_err:.3e}  "
                f"coords={c.coords_checked}  {status}"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), REL_ERR_FLOOR)


def grad_check(cfg: DmffConfig, synth: SyntheticPairSpec | None = None,
               seed: int = 0, eps: float = 1e-5, tol: float = 1e-4,
               min_samples: int = 20, _grad_hook=None) -> GradCheckReport:
    """Compare analytic and numeric gradients tensor by tensor, at weights
    freshly initialized in wide precision from `seed`.

    ``_grad_hook`` is a fault-injection point for the checker's own tests:
    it receives and may replace the analytic record.
    A NaN error at any coordinate fails that tensor's check.  Raises
    ConfigurationError, before any fuse, unless `eps` and `tol` are finite
    floats or integers > 0, `seed` is an integer >= 0 and `min_samples` an
    integer >= 1 (a bool is none of these), and the mode has learnables.
    """
    for name, value in (("eps", eps), ("tol", tol)):
        if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
                or not (math.isfinite(value) and value > 0)):
            raise tc.ConfigurationError(f"{name} must be a finite number > 0, got {value!r}")
    for name, value, least in (("seed", seed, 0), ("min_samples", min_samples, 1)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
            raise tc.ConfigurationError(f"{name} must be an int >= {least}, got {value!r}")
    if synth is None:
        synth = SyntheticPairSpec(seed=seed)
    wts = init_dmff_weights(cfg, synth.h, synth.w, synth.c, np.random.default_rng(seed),
                            dtype=tc.WIDE)
    f_r, f_t, target = gen_synthetic_pair(synth, dtype=tc.WIDE)

    cache = {}  # each branch's unperturbed tokens, reused by every loss_of

    def loss_of(weights) -> float:
        return squared_error_loss(dmff_fuse(f_r, f_t, cfg, weights, cache).primary,
                                  target).item()

    params = dict(wts.named_tensors())
    _, record = loss_and_grads(f_r, f_t, target, cfg, wts)
    if _grad_hook is not None:
        record = _grad_hook(record)

    coord_rng = np.random.default_rng(seed + 1)
    checks = []
    for name, tensor in params.items():
        analytic_t = record.get(name)
        analytic = (np.zeros(tensor.shape) if analytic_t is None
                    else np.asarray(analytic_t.data))
        size = tensor.size
        n_coords = min(min_samples, size)
        coords = coord_rng.choice(size, size=n_coords, replace=False)
        errs = []
        flat = tensor.data.reshape(-1)
        for idx in coords:
            plus_minus = []
            for step in (eps, -eps):
                bumped = flat.copy()
                bumped[idx] = flat[idx] + step
                plus_minus.append(loss_of(replace_parameters(
                    wts, {name: Tensor._wrap(bumped.reshape(tensor.shape))})))
            numeric = (plus_minus[0] - plus_minus[1]) / (2.0 * eps)
            errs.append(_rel_err(float(analytic.reshape(-1)[idx]), numeric))
        # np.max, unlike max(), keeps a NaN, and a NaN error never passes
        checks.append(TensorCheck(name=name, max_rel_err=float(np.max(errs)),
                                  coords_checked=n_coords))
    return GradCheckReport(checks=checks, eps=eps, tol=tol)
