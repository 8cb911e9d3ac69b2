"""The full dual-branch fusion pipeline.

Order of stages: optional input duplication, spatial shrinking per
branch, tokenization with per-branch positional embeddings, iterative
dual enhancement, detokenization, bilinear re-calibration back to the
input resolution, and a 1x1 fusion over the channel concatenation.

Fusion modes select which stages run and what is emitted:

    a          enhance rgb only (queries from thermal), emit the rgb map
    b          enhance thermal only, emit the thermal map
    c          dual enhancement with one shared parameter set, then fuse
    d          dual enhancement with independent parameter sets, then fuse
    e          concat + 1x1 fusion of the raw inputs, no attention
    f_rgb      raw rgb pass-through
    f_thermal  raw thermal pass-through

Modes a/b/f carry no fusion weights; mode e carries only fusion weights.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .cfe import CfeParams, cfe_forward
from .icfe import IcfeParams, icfe_forward, init_icfe_params
from .sfs import (ConvShrinkParam, MixedPoolParam, init_conv_shrink_param,
                  init_mixed_pool_param, shrink)
from .tensor_core import ConfigurationError, DimensionError, Tensor
from .token_codec import PositionalEmbedding, init_positional_embedding, tokenize, detokenize

MODES = ("a", "b", "c", "d", "e", "f_rgb", "f_thermal")
DUPLICATIONS = ("none", "rgb_both", "thermal_both")
ATTENTION_MODES = ("a", "b", "c", "d")


@dataclass
class DmffConfig:
    shrink_variant: str = "pool"  # pool | conv
    shrink_window: int = 2
    heads: int = 8
    ffn_hidden: int = 64
    iterations: int = 1
    mode: str = "d"
    input_duplication: str = "none"
    sequential_update: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown fusion mode {self.mode!r}")
        if self.input_duplication not in DUPLICATIONS:
            raise ConfigurationError(
                f"unknown input duplication {self.input_duplication!r}"
            )
        if self.shrink_variant not in ("pool", "conv"):
            raise ConfigurationError(f"unknown shrink variant {self.shrink_variant!r}")
        if self.shrink_window < 1:
            raise ConfigurationError(f"shrink window must be >= 1, got {self.shrink_window}")
        if self.heads < 1:
            raise ConfigurationError(f"heads must be >= 1, got {self.heads}")
        if self.ffn_hidden < 1:
            raise ConfigurationError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if self.iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {self.iterations}")


@dataclass
class DmffWeights:
    """Every learnable of one pipeline instance, sized for HxWxC inputs.

    Fields are None when the configured mode does not use the stage.
    """

    cfg: DmffConfig
    height: int
    width: int
    channels: int
    icfe: IcfeParams | None = None
    pe_r: PositionalEmbedding | None = None
    pe_t: PositionalEmbedding | None = None
    sfs_r: MixedPoolParam | ConvShrinkParam | None = None
    sfs_t: MixedPoolParam | ConvShrinkParam | None = None
    nin_w: Tensor | None = None
    nin_b: Tensor | None = None

    def named_tensors(self, prefix: str = ""):
        if self.icfe is not None:
            yield from self.icfe.named_tensors(prefix)
        if self.pe_r is not None:
            yield from self.pe_r.named_tensors(prefix + "pe_r.")
        if self.pe_t is not None:
            yield from self.pe_t.named_tensors(prefix + "pe_t.")
        if self.sfs_r is not None:
            yield from self.sfs_r.named_tensors(prefix + "sfs_r.")
        if self.sfs_t is not None:
            yield from self.sfs_t.named_tensors(prefix + "sfs_t.")
        if self.nin_w is not None:
            yield prefix + "nin.w", self.nin_w
            yield prefix + "nin.b", self.nin_b


@dataclass
class FusionOutput:
    """Primary map per mode; enhanced per-branch maps when they exist."""

    primary: Tensor
    enhanced_rgb: Tensor | None = None
    enhanced_thermal: Tensor | None = None


def _needs_rgb_branch(mode: str) -> bool:
    return mode in ("a", "b", "c", "d")


def _mode_uses_nin(mode: str) -> bool:
    return mode in ("c", "d", "e")


def init_dmff_weights(cfg: DmffConfig, height: int, width: int, channels: int,
                      rng: np.random.Generator, dtype=tc.STANDARD) -> DmffWeights:
    """Construct weights for one pipeline instance at the given input size."""
    s = cfg.shrink_window
    if height % s or width % s:
        raise ConfigurationError(
            f"shrink window {s} does not divide input extents {height}x{width}"
        )
    wts = DmffWeights(cfg=cfg, height=height, width=width, channels=channels)
    mode = cfg.mode
    if mode in ATTENTION_MODES:
        if mode in ("a", "b"):
            # single-branch modes carry exactly one enhancement parameter set
            single = init_icfe_params(channels, cfg.ffn_hidden, cfg.heads, rng,
                                      iterations=cfg.iterations, shared=True,
                                      dtype=dtype)
            wts.icfe = single
        else:
            wts.icfe = init_icfe_params(channels, cfg.ffn_hidden, cfg.heads, rng,
                                        iterations=cfg.iterations,
                                        shared=(mode == "c"), dtype=dtype)
        tokens = (height // s) * (width // s)
        wts.pe_r = init_positional_embedding(tokens, channels, rng, dtype=dtype)
        wts.pe_t = init_positional_embedding(tokens, channels, rng, dtype=dtype)
        if cfg.shrink_variant == "pool":
            wts.sfs_r = init_mixed_pool_param(dtype=dtype)
            wts.sfs_t = init_mixed_pool_param(dtype=dtype)
        else:
            wts.sfs_r = init_conv_shrink_param(s, channels, rng, dtype=dtype)
            wts.sfs_t = init_conv_shrink_param(s, channels, rng, dtype=dtype)
    if _mode_uses_nin(mode):
        bound = 1.0 / np.sqrt(2 * channels)
        wts.nin_w = Tensor(rng.uniform(-bound, bound, size=(2 * channels, channels)),
                           dtype=dtype)
        wts.nin_b = tc.zeros((channels,), dtype=dtype)
    return wts


def nin_fuse(f_r: Tensor, f_t: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 projection of the channel concatenation of two equal maps."""
    if f_r.shape != f_t.shape:
        raise DimensionError(f"fusion inputs differ: {f_r.shape} vs {f_t.shape}")
    if f_r.data.ndim != 3:
        raise DimensionError(f"fusion inputs must be rank 3, got {f_r.shape}")
    h, width, c = f_r.shape
    if w.shape != (2 * c, c):
        raise DimensionError(
            f"fusion weight shape {w.shape} does not match required {(2 * c, c)}"
        )
    left = tc.reshape(f_r, (h * width, c))
    right = tc.reshape(f_t, (h * width, c))
    cat = tc.concat_cols([left, right])
    with tc.op_stage("nin"):
        mixed = tc.matmul(cat, w)
    return tc.reshape(tc.add(mixed, b), (h, width, c))


def _enhance_single(t_main, t_other, params: CfeParams, iterations: int):
    # one-branch refinement: the other branch only ever supplies queries
    for _ in range(iterations):
        t_main = cfe_forward(t_main, t_other, params)
    return t_main


def dmff_fuse(f_r: Tensor, f_t: Tensor, cfg: DmffConfig, wts: DmffWeights) -> FusionOutput:
    """Run the configured pipeline on an rgb/thermal feature-map pair."""
    if f_r.shape != f_t.shape:
        raise DimensionError(f"input maps differ: {f_r.shape} vs {f_t.shape}")
    if f_r.data.ndim != 3:
        raise DimensionError(f"input maps must be rank 3, got {f_r.shape}")
    if cfg.input_duplication == "rgb_both":
        f_t = f_r
    elif cfg.input_duplication == "thermal_both":
        f_r = f_t
    mode = cfg.mode
    if mode == "f_rgb":
        return FusionOutput(primary=f_r)
    if mode == "f_thermal":
        return FusionOutput(primary=f_t)
    if mode == "e":
        if wts.nin_w is None:
            raise ConfigurationError("mode e needs fusion weights")
        return FusionOutput(primary=nin_fuse(f_r, f_t, wts.nin_w, wts.nin_b))

    if wts.icfe is None or wts.pe_r is None or wts.sfs_r is None:
        raise ConfigurationError(f"mode {mode!r} needs attention-stage weights")
    if mode in ("c", "d") and wts.icfe.shared != (mode == "c"):
        raise ConfigurationError(
            f"mode {mode!r} requires {'shared' if mode == 'c' else 'unshared'} "
            "enhancement parameters"
        )
    h, w, _ = f_r.shape
    s = cfg.shrink_window
    shrunk_r = shrink(f_r, s, wts.sfs_r)
    shrunk_t = shrink(f_t, s, wts.sfs_t)
    t_r = tokenize(shrunk_r, wts.pe_r)
    t_t = tokenize(shrunk_t, wts.pe_t)

    if mode == "a":
        t_r = _enhance_single(t_r, t_t, wts.icfe.cfe_r, wts.icfe.iterations)
        enhanced = tc.bilinear_resize(detokenize(t_r), h, w)
        return FusionOutput(primary=enhanced, enhanced_rgb=enhanced)
    if mode == "b":
        t_t = _enhance_single(t_t, t_r, wts.icfe.cfe_t, wts.icfe.iterations)
        enhanced = tc.bilinear_resize(detokenize(t_t), h, w)
        return FusionOutput(primary=enhanced, enhanced_thermal=enhanced)

    t_r, t_t = icfe_forward(t_r, t_t, wts.icfe, sequential=cfg.sequential_update)
    enhanced_r = tc.bilinear_resize(detokenize(t_r), h, w)
    enhanced_t = tc.bilinear_resize(detokenize(t_t), h, w)
    fused = nin_fuse(enhanced_r, enhanced_t, wts.nin_w, wts.nin_b)
    return FusionOutput(primary=fused, enhanced_rgb=enhanced_r,
                        enhanced_thermal=enhanced_t)


# ---------------------------------------------------------------------------
# Functional parameter replacement (the optimizer never mutates tensors)
# ---------------------------------------------------------------------------


def _replace_cfe(params: CfeParams, prefix: str, mapping) -> CfeParams:
    updates = {}
    for name, tensor in params.named_tensors():
        new = mapping.get(prefix + name)
        if new is not None:
            updates[name] = new
    return dataclasses.replace(params, **updates) if updates else params


def _replace_sfs(param, prefix: str, mapping):
    if param is None:
        return None
    if isinstance(param, MixedPoolParam):
        new = mapping.get(prefix + "lambda_raw")
        return MixedPoolParam(new) if new is not None else param
    new_w = mapping.get(prefix + "w", param.w)
    new_b = mapping.get(prefix + "b", param.b)
    return ConvShrinkParam(new_w, new_b)


def replace_parameters(wts: DmffWeights, mapping) -> DmffWeights:
    """Structurally identical weights with tensors swapped in by name.

    Sharing is preserved: a shared enhancement pair stays one object.
    """
    new = dataclasses.replace(wts)
    if wts.icfe is not None:
        if wts.icfe.shared:
            shared = _replace_cfe(wts.icfe.cfe_r, "cfe.", mapping)
            new.icfe = IcfeParams(shared, shared, shared=True,
                                  iterations=wts.icfe.iterations)
        else:
            new.icfe = IcfeParams(
                _replace_cfe(wts.icfe.cfe_r, "cfe_r.", mapping),
                _replace_cfe(wts.icfe.cfe_t, "cfe_t.", mapping),
                shared=False,
                iterations=wts.icfe.iterations,
            )
    if wts.pe_r is not None:
        new.pe_r = PositionalEmbedding(mapping.get("pe_r.table", wts.pe_r.table))
    if wts.pe_t is not None:
        new.pe_t = PositionalEmbedding(mapping.get("pe_t.table", wts.pe_t.table))
    new.sfs_r = _replace_sfs(wts.sfs_r, "sfs_r.", mapping)
    new.sfs_t = _replace_sfs(wts.sfs_t, "sfs_t.", mapping)
    if wts.nin_w is not None:
        new.nin_w = mapping.get("nin.w", wts.nin_w)
        new.nin_b = mapping.get("nin.b", wts.nin_b)
    return new
