"""The full dual-branch fusion pipeline.

Order of stages: optional input duplication, spatial shrinking per
branch, tokenization with per-branch positional embeddings, iterative
dual enhancement, then a 1x1 fusion over the channel concatenation and
bilinear re-calibration back to the input resolution.  The fusion runs on
the tokens, before the resize: resizing acts per channel, so it commutes
with the 1x1 projection, and each interpolation row sums to one, so the
fusion bias is added after the resize unchanged.  That resizes one
C-channel map instead of two and projects s^2 times fewer pixels.  Modes
a and b detokenize their one enhanced branch and resize it.

Fusion modes select which stages run and what is emitted:

    a          enhance rgb only (queries from thermal), emit the rgb map
    b          enhance thermal only, emit the thermal map
    c          dual enhancement with one shared parameter set, then fuse
    d          dual enhancement with independent parameter sets, then fuse
    e          concat + 1x1 fusion of the raw inputs, no attention
    f_rgb      raw rgb pass-through
    f_thermal  raw thermal pass-through

Modes a/b/f carry no fusion weights; mode e carries only fusion weights.
``param_spec`` is the one list of what each mode carries.  It prefixes the
leaf specs that each stage declares once in its own module
(``cfe.cfe_spec``, ``sfs.shrink_spec``, ``token_codec.pe_spec``) and adds
the fusion projection, which only this module uses.

``config_from_json`` is the one strict reader of JSON configs, for the CLI
config files and the ICAF meta alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .cfe import PARAM_NAMES as CFE_PARAM_NAMES, CfeParams, cfe_forward, cfe_spec
from .icfe import IcfeParams, icfe_forward
from .sfs import ConvShrinkParam, MixedPoolParam, shrink, shrink_spec
from .tensor_core import ConfigurationError, DimensionError, ParamSpec, Tensor
from .token_codec import PositionalEmbedding, pe_spec, tokenize, detokenize

MODES = ("a", "b", "c", "d", "e", "f_rgb", "f_thermal")
DUPLICATIONS = ("none", "rgb_both", "thermal_both")
ATTENTION_MODES = ("a", "b", "c", "d")
NIN_MODES = ("c", "d", "e")
# The paper refines with a few weight-shared iterations; a count far past
# this is a corrupt config, not a deeper model.
MAX_ITERATIONS = 64


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
        if not 0 <= self.iterations <= MAX_ITERATIONS:
            raise ConfigurationError(
                f"iterations must be in [0, {MAX_ITERATIONS}], got {self.iterations}"
            )


def config_from_json(cls, data, what: str):
    """A `cls` dataclass read strictly from a parsed JSON value.

    `data` must be an object whose keys are `cls` field names.  Each value
    must have the JSON type of the field's default: an int field takes
    only an integer (not true, 2.0 or "8"), a float field a finite integer
    or real, a bool field only true/false, a str field a string; a field
    whose default is a dataclass is read recursively.  Absent fields keep
    their defaults.  Raises ConfigurationError.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {unknown}")
    values = {}
    for name, value in data.items():
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        kind = type(default)
        if dataclasses.is_dataclass(default):
            value = config_from_json(kind, value, f"{name} config")
        elif kind is float and type(value) in (int, float):
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigurationError(f"{what} {name} must be finite, got {value!r}")
        elif type(value) is not kind:
            raise ConfigurationError(
                f"{what} {name} must be a JSON {kind.__name__}, got {value!r}"
            )
        values[name] = value
    return cls(**values)


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
    """The map the configured mode emits."""

    primary: Tensor


def param_spec(cfg: DmffConfig, height: int, width: int, channels: int) -> dict:
    """Every learnable of the configured pipeline: name -> ParamSpec, in
    ``DmffWeights.named_tensors`` order, which is also the init draw order.

    The stage modules declare their own leaves; this prefixes them.  One
    enhancement set serves every iteration; modes a, b and c also share it
    between the two directions (prefix ``cfe.``), mode d keeps one per
    branch (``cfe_r.``, ``cfe_t.``).
    """
    s, c = cfg.shrink_window, channels
    if min(height, width, channels) < 1 or height % s or width % s:
        raise ConfigurationError(f"input extents {height}x{width}x{channels} must be "
                                 f">= 1 and divisible by the shrink window {s}")
    parts = []
    if cfg.mode in ATTENTION_MODES:
        cfe = cfe_spec(c, cfg.ffn_hidden)
        parts += [(prefix, cfe) for prefix in
                  (("cfe_r.", "cfe_t.") if cfg.mode == "d" else ("cfe.",))]
        pe = pe_spec((height // s) * (width // s), c)
        shrunk = shrink_spec(cfg.shrink_variant, s, c)
        parts += [("pe_r.", pe), ("pe_t.", pe), ("sfs_r.", shrunk), ("sfs_t.", shrunk)]
    if cfg.mode in NIN_MODES:
        parts.append(("nin.", {"w": ParamSpec((2 * c, c), 1.0 / math.sqrt(2 * c)),
                               "b": ParamSpec((c,))}))
    return {prefix + leaf: p for prefix, leaves in parts for leaf, p in leaves.items()}


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
    tensors = tc.init_tensors(param_spec(cfg, height, width, channels), rng, dtype)
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


def _fuse_tokens(t_r, t_t, h: int, w: int, nin_w: Tensor, nin_b: Tensor) -> Tensor:
    """``nin_fuse`` of the two token maps resized to h x w, computed as the
    projection at token resolution, one resize, then the bias."""
    c = t_r.channels
    with tc.op_stage("nin"):
        mixed = tc.matmul(tc.concat_cols([t_r.tokens, t_t.tokens]), nin_w)
    fused = tc.bilinear_resize(tc.reshape(mixed, (t_r.origin_h, t_r.origin_w, c)), h, w)
    return tc.reshape(tc.add(tc.reshape(fused, (h * w, c)), nin_b), (h, w, c))


def _enhance_single(t_main, t_other, params: CfeParams, iterations: int):
    # one-branch refinement: the other branch only ever supplies queries
    for _ in range(iterations):
        t_main = cfe_forward(t_main, t_other, params)
    return t_main


def dmff_fuse(f_r: Tensor, f_t: Tensor, cfg: DmffConfig, wts: DmffWeights) -> FusionOutput:
    """Run the configured pipeline on an rgb/thermal feature-map pair.

    Both maps must be H x W x C as the weights were sized, in the weights'
    dtype (DimensionError, ConfigurationError).
    """
    if f_r.shape != f_t.shape:
        raise DimensionError(f"input maps differ: {f_r.shape} vs {f_t.shape}")
    sized = (wts.height, wts.width, wts.channels)
    if f_r.shape != sized:
        raise DimensionError(f"input maps are {f_r.shape}, weights are sized for {sized}")
    _, param = next(wts.named_tensors(), (None, None))  # weights share one dtype
    if param is not None and {f_r.dtype, f_t.dtype} != {param.dtype}:
        raise ConfigurationError(
            f"input maps are {f_r.dtype}/{f_t.dtype}, weights are {param.dtype}"
        )
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
        return FusionOutput(primary=tc.bilinear_resize(detokenize(t_r), h, w))
    if mode == "b":
        t_t = _enhance_single(t_t, t_r, wts.icfe.cfe_t, wts.icfe.iterations)
        return FusionOutput(primary=tc.bilinear_resize(detokenize(t_t), h, w))

    t_r, t_t = icfe_forward(t_r, t_t, wts.icfe, sequential=cfg.sequential_update)
    return FusionOutput(primary=_fuse_tokens(t_r, t_t, h, w, wts.nin_w, wts.nin_b))


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
