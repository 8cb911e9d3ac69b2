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
``param_spec`` is the one list of what each mode carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .cfe import PARAM_NAMES as CFE_PARAM_NAMES, CfeParams, cfe_forward
from .icfe import IcfeParams, icfe_forward
from .sfs import ConvShrinkParam, MixedPoolParam, shrink
from .tensor_core import ConfigurationError, DimensionError, Tensor
from .token_codec import PositionalEmbedding, tokenize, detokenize

MODES = ("a", "b", "c", "d", "e", "f_rgb", "f_thermal")
DUPLICATIONS = ("none", "rgb_both", "thermal_both")
ATTENTION_MODES = ("a", "b", "c", "d")
NIN_MODES = ("c", "d", "e")


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


class ParamSpec(NamedTuple):
    """Shape and init rule of one learnable: uniform in +-bound, else fill."""

    shape: tuple
    bound: float | None = None
    fill: float = 0.0


def _cfe_spec(prefix: str, c: int, hidden: int) -> dict:
    bound = 1.0 / math.sqrt(c)
    proj = ParamSpec((c, c), bound)
    coefficient = ParamSpec((1,), fill=1.0)
    leaves = dict(w_q=proj, w_k=proj, w_v=proj, w_o=proj,
                  ffn_w1=ParamSpec((c, hidden), bound), ffn_b1=ParamSpec((hidden,)),
                  ffn_w2=ParamSpec((hidden, c), bound), ffn_b2=ParamSpec((c,)),
                  alpha=coefficient, beta=coefficient, gamma=coefficient,
                  delta=coefficient)
    return {prefix + leaf: leaves[leaf] for leaf in CFE_PARAM_NAMES}


def param_spec(cfg: DmffConfig, height: int, width: int, channels: int) -> dict:
    """Every learnable of the configured pipeline: name -> ParamSpec, in
    ``DmffWeights.named_tensors`` order, which is also the init draw order.

    One enhancement set serves every iteration; modes a, b and c also share
    it between the two directions (prefix ``cfe.``), mode d keeps one per
    branch (``cfe_r.``, ``cfe_t.``).
    """
    s, c = cfg.shrink_window, channels
    if min(height, width, channels) < 1 or height % s or width % s:
        raise ConfigurationError(f"input extents {height}x{width}x{channels} must be "
                                 f">= 1 and divisible by the shrink window {s}")
    spec = {}
    if cfg.mode in ATTENTION_MODES:
        for prefix in (("cfe_r.", "cfe_t.") if cfg.mode == "d" else ("cfe.",)):
            spec.update(_cfe_spec(prefix, c, cfg.ffn_hidden))
        tokens = (height // s) * (width // s)
        spec["pe_r.table"] = spec["pe_t.table"] = ParamSpec((tokens, c), 0.02)
        for branch in ("sfs_r.", "sfs_t."):
            if cfg.shrink_variant == "pool":
                spec[branch + "lambda_raw"] = ParamSpec((1,))
            else:
                spec[branch + "w"] = ParamSpec((s * s * c, c), 1.0 / math.sqrt(s * s * c))
                spec[branch + "b"] = ParamSpec((c,))
    if cfg.mode in NIN_MODES:
        spec["nin.w"] = ParamSpec((2 * c, c), 1.0 / math.sqrt(2 * c))
        spec["nin.b"] = ParamSpec((c,))
    return spec


def _build(cfg: DmffConfig, height: int, width: int, channels: int, t) -> DmffWeights:
    # trusts `t` to hold exactly the param_spec names, shapes and one dtype
    wts = DmffWeights(cfg=cfg, height=height, width=width, channels=channels)
    if cfg.mode in ATTENTION_MODES:
        def cfe(prefix):
            return CfeParams(**{leaf: t[prefix + leaf] for leaf in CFE_PARAM_NAMES},
                             heads=cfg.heads)

        if cfg.mode == "d":
            wts.icfe = IcfeParams(cfe("cfe_r."), cfe("cfe_t."), shared=False,
                                  iterations=cfg.iterations)
        else:
            shared = cfe("cfe.")
            wts.icfe = IcfeParams(shared, shared, shared=True, iterations=cfg.iterations)
        wts.pe_r = PositionalEmbedding(t["pe_r.table"])
        wts.pe_t = PositionalEmbedding(t["pe_t.table"])
        if cfg.shrink_variant == "pool":
            wts.sfs_r = MixedPoolParam(t["sfs_r.lambda_raw"])
            wts.sfs_t = MixedPoolParam(t["sfs_t.lambda_raw"])
        else:
            wts.sfs_r = ConvShrinkParam(t["sfs_r.w"], t["sfs_r.b"])
            wts.sfs_t = ConvShrinkParam(t["sfs_t.w"], t["sfs_t.b"])
    if cfg.mode in NIN_MODES:
        wts.nin_w, wts.nin_b = t["nin.w"], t["nin.b"]
    return wts


def assemble(cfg: DmffConfig, height: int, width: int, channels: int,
             tensors) -> DmffWeights:
    """Weights from named tensors, checked against ``param_spec``.

    The names must be exactly the spec's, every shape must match it and
    all tensors must share one dtype.  Raises ConfigurationError or
    DimensionError.
    """
    spec = param_spec(cfg, height, width, channels)
    missing = [n for n in spec if n not in tensors]
    unknown = [n for n in tensors if n not in spec]
    if missing or unknown:
        raise ConfigurationError(
            f"mode {cfg.mode!r} tensors: missing {missing}, unknown {unknown}"
        )
    dtypes = sorted({str(t.dtype) for t in tensors.values()})
    if len(dtypes) > 1:
        raise ConfigurationError(f"tensors mix precisions {dtypes}")
    for name, p in spec.items():
        if tensors[name].shape != p.shape:
            raise DimensionError(
                f"tensor {name!r} has shape {tensors[name].shape}, expected {p.shape}"
            )
    return _build(cfg, height, width, channels, tensors)


def init_dmff_weights(cfg: DmffConfig, height: int, width: int, channels: int,
                      rng: np.random.Generator, dtype=tc.STANDARD) -> DmffWeights:
    """Construct weights for one pipeline instance at the given input size."""
    tensors = {}
    for name, p in param_spec(cfg, height, width, channels).items():
        if p.bound is None:
            tensors[name] = tc.full(p.shape, p.fill, dtype=dtype)
        else:
            tensors[name] = Tensor(rng.uniform(-p.bound, p.bound, size=p.shape), dtype=dtype)
    return _build(cfg, height, width, channels, tensors)


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


def replace_parameters(wts: DmffWeights, mapping) -> DmffWeights:
    """Structurally identical weights with tensors swapped in by name.

    Sharing is preserved: a shared enhancement pair stays one object.  Only
    the swapped-in tensors are checked (known name, the shape and dtype of
    the tensor they replace); the rest were checked when `wts` was built.
    """
    current = dict(wts.named_tensors())
    for name, t in mapping.items():
        old = current.get(name)
        if old is None:
            raise ConfigurationError(f"unknown parameter {name!r}")
        if t.shape != old.shape:
            raise DimensionError(
                f"parameter {name!r} has shape {old.shape}, got {t.shape}"
            )
        if t.dtype != old.dtype:
            raise ConfigurationError(
                f"parameter {name!r} has dtype {old.dtype}, got {t.dtype}"
            )
    current.update(mapping)
    try:
        return _build(wts.cfg, wts.height, wts.width, wts.channels, current)
    except KeyError as exc:  # hand-built weights that do not match their cfg
        raise ConfigurationError(f"weights lack {exc} for mode {wts.cfg.mode!r}") from None
