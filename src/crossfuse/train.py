"""Toy reconstruction training with the full optimizer recipe.

SGD with momentum 0.937 and weight decay 5e-4 under cosine-annealed
learning rate, matched at desk scale.  The task is reconstruction of the
elementwise-max target from a fixed synthetic scene pair, which drives
gradients through every fused pathway.

``loss_and_grads`` is the one objective (taped fuse, squared-error loss,
backward) for training and ``gradcheck``, and the one place that refuses
a mode with no learnables.  Weight decay skips what the stage specs
declare exempt (``ParamSpec.decay``): the residual coefficients, the
pooling blend and the positional embeddings, whose role a pull toward 0
would fight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .dmff import DmffConfig, dmff_fuse, init_dmff_weights, param_spec, replace_parameters
from .synth import SyntheticPairSpec, gen_synthetic_pair
from .tensor_core import Tensor


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-2
    momentum: float = 0.937
    weight_decay: float = 5e-4
    lr_min: float = 0.0
    steps: int = 200
    seed: int = 42
    dmff: DmffConfig = field(default_factory=DmffConfig)
    synth: SyntheticPairSpec = field(default_factory=SyntheticPairSpec)

    def __post_init__(self):
        if self.steps < 1:
            raise tc.ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise tc.ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.lr_min <= self.lr0 < math.inf:
            raise tc.ConfigurationError(f"learning rates must satisfy 0 <= lr_min <= lr0 < inf, "
                                        f"got lr_min {self.lr_min}, lr0 {self.lr0}")
        if not 0 <= self.momentum < 1:
            raise tc.ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise tc.ConfigurationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainResult:
    losses: list
    lrs: list
    weights: object


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float = 0.0) -> float:
    """lr_min + 0.5 * (lr0 - lr_min) * (1 + cos(pi * step / total_steps))."""
    if total_steps < 1:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


# the reconstruction loss, mean((prediction - target)^2), as one tape op
squared_error_loss = tc.mean_squared_error


def loss_and_grads(f_r: Tensor, f_t: Tensor, target: Tensor, cfg: DmffConfig, wts):
    """(loss, GradRecord) of one taped fuse of `wts` against `target`: the
    reconstruction loss as a float and its gradient for every parameter.
    Raises ConfigurationError when `wts` holds no learnable."""
    if not wts.tensors:
        raise tc.ConfigurationError(f"mode {cfg.mode!r} has no learnables")
    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        loss = squared_error_loss(dmff_fuse(f_r, f_t, cfg, wts).primary, target)
    return loss.item(), tc.backward(tc.scalar(1.0, dtype=loss.dtype), tape, loss)


def sgd_update(params: dict, velocity: dict, grads: tc.GradRecord, lr: float,
               momentum: float, weight_decay: float, decayed: set) -> dict:
    """One momentum-SGD step over named parameters; returns new tensors.

    Decay enters the gradient (g += wd * p) before the velocity update, for
    the parameters named in `decayed` only; parameters missing from `grads`
    contribute a zero gradient.  Velocity is updated in place.
    """
    wd = np.float32(weight_decay)
    mu = np.float32(momentum)
    lr32 = np.float32(lr)
    updated = {}
    for name, p in params.items():
        g_t = grads.get(name)
        g = np.zeros(p.shape, dtype=p.dtype) if g_t is None else np.array(g_t.data)
        if weight_decay and name in decayed:
            g = g + wd * p.data
        v = mu * velocity[name] + g
        velocity[name] = v
        updated[name] = Tensor._wrap(p.data - lr32 * v)
    return updated


def train_toy(cfg: TrainConfig, step_callback=None) -> TrainResult:
    """Run the fixed-scene reconstruction task; deterministic per seed."""
    spec = cfg.synth
    rng = np.random.default_rng(cfg.seed)
    wts = init_dmff_weights(cfg.dmff, spec.h, spec.w, spec.c, rng, dtype=tc.STANDARD)
    f_r, f_t, target = gen_synthetic_pair(spec, dtype=tc.STANDARD)
    decayed = {n for n, p in param_spec(cfg.dmff, spec.h, spec.w, spec.c).items() if p.decay}
    params = dict(wts.named_tensors())
    velocity = {name: np.zeros(t.shape, dtype=t.dtype) for name, t in params.items()}
    losses, lrs = [], []
    for step in range(cfg.steps):
        lr = cosine_lr(step, cfg.steps, cfg.lr0, cfg.lr_min)
        loss_value, grads = loss_and_grads(f_r, f_t, target, cfg.dmff, wts)
        if not math.isfinite(loss_value):
            raise TrainingDivergedError(
                f"loss became non-finite at step {step}: {loss_value}"
            )
        losses.append(loss_value)
        lrs.append(lr)
        bad = [n for n in params if n in grads and not np.isfinite(grads[n].data).all()]
        if bad:  # name the first in spec order
            raise TrainingDivergedError(f"gradient of {bad[0]!r} became non-finite at step {step}")
        params = sgd_update(params, velocity, grads, lr, cfg.momentum, cfg.weight_decay, decayed)
        wts = replace_parameters(wts, params)
        if step_callback is not None:
            step_callback(step, lr, loss_value)
    return TrainResult(losses=losses, lrs=lrs, weights=wts)


def write_trace(path, result: TrainResult):
    """CSV trace: step, learning rate, loss; full-precision repr floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,lr,loss\n")
        for i, (lr, loss) in enumerate(zip(result.lrs, result.losses)):
            fh.write(f"{i},{lr!r},{loss!r}\n")
