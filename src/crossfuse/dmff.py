"""The full dual-branch fusion pipeline.

Order of stages: optional input duplication, spatial shrinking per
branch, tokenization with per-branch positional embeddings, iterative
dual enhancement, then a 1x1 fusion over the channel concatenation and
bilinear re-calibration back to the input resolution.  ``nin_fuse`` is
the one fusion, for modes c, d and e, and it runs on the tokens, before
the resize: resizing acts per channel, so it commutes with the 1x1
projection, and each interpolation row sums to one, so the fusion bias is
added after the resize unchanged.  That resizes one C-channel map instead
of two and projects s^2 times fewer pixels.  Mode e fuses the raw maps'
tokens on the H x W grid, where nothing is resized.  Modes a and b
refine one branch through the same loop as c and d, then detokenize it
and resize it.  The tokens are plain T x C tensors; ``dmff_fuse`` is the
one place that knows their (H/s) x (W/s) grid.

A fusion mode is one ``MODE_TABLE`` row, which ``param_spec`` and
``dmff_fuse`` read.  ``param_spec`` is the one list of what each mode
carries.  It prefixes the leaf specs that each stage declares once in its
own module (``cfe.cfe_spec``, ``sfs.shrink_spec``,
``token_codec.pe_spec``) and adds the fusion projection, which only this
module uses.  ``DmffWeights`` holds one tensor per ``param_spec`` name, in
its order, and ``dmff_fuse`` hands each stage the entries under its prefix
as a leaf -> Tensor mapping.

``config_from_json`` is the one strict reader of JSON configs, for the CLI
config files and the ICAF meta alike.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .cfe import PARAM_NAMES as CFE_LEAVES, cfe_spec
from .icfe import icfe_forward
from .sfs import shrink, shrink_spec
from .tensor_core import ConfigurationError, DimensionError, ParamSpec, Tensor
from .token_codec import pe_spec, tokenize, detokenize

# Each mode's row: the directions it enhances (rgb "r" queries thermal,
# thermal "t" queries rgb), with both branches' shrink and positional
# learnables; the enhancement sets it carries (rgb runs the first, thermal
# the last); and what it emits: branch "r" or "t", enhanced if it runs, or
# both "fused" by ``nin.``.  Modes a and b run the sets the weights carry.
Mode = namedtuple("Mode", "enhances sets emits")
MODE_TABLE = {
    "a": Mode("r", ("cfe.",), "r"),                  # enhance rgb only, emit it
    "b": Mode("t", ("cfe.",), "t"),                  # enhance thermal only, emit it
    "c": Mode("rt", ("cfe.",), "fused"),             # dual, one shared set, then fuse
    "d": Mode("rt", ("cfe_r.", "cfe_t."), "fused"),  # dual, one set per branch, then fuse
    "e": Mode("", (), "fused"),                      # 1x1 fusion of the raw inputs
    "f_rgb": Mode("", (), "r"),                      # raw rgb pass-through
    "f_thermal": Mode("", (), "t"),                  # raw thermal pass-through
}
MODES = tuple(MODE_TABLE)
DUPLICATIONS = ("none", "rgb_both", "thermal_both")
# The paper refines with a few weight-shared iterations; a count far past
# this is a corrupt config, not a deeper model.
MAX_ITERATIONS = 64
# A weight set past this many elements (64 MiB in f32) is a corrupt config:
# ~70x fuse_d64's ~238k, the largest any workload or test builds.
MAX_PARAM_ELEMENTS = 1 << 24
# A fuse past this many attention multiplies is a corrupt config, not a
# workload: 256x fuse_d64's 2^28, seconds of attention where a 2048x2048
# scene at shrink window 1 would ask for 2^46, hours.
MAX_ATTENTION_MULTIPLIES = 1 << 36
# The config fields a run may set apart from the weights' own config; the
# others are fixed when the weights are built.
RUN_FIELDS = ("mode", "input_duplication", "sequential_update")


@dataclass(frozen=True)
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


BUILT_FIELDS = tuple(f.name for f in dataclasses.fields(DmffConfig) if f.name not in RUN_FIELDS)


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

    ``tensors`` maps the names of ``param_spec(cfg, height, width,
    channels)`` to their tensors, in that order; ``assemble`` and
    ``init_dmff_weights`` build it, ``replace_parameters`` swaps entries.
    """

    cfg: DmffConfig
    height: int
    width: int
    channels: int
    tensors: dict

    def named_tensors(self):
        """(name, Tensor) pairs in ``param_spec`` order."""
        return iter(self.tensors.items())


@dataclass
class FusionOutput:
    """The map the configured mode emits."""

    primary: Tensor


def _nin_spec(channels: int) -> dict:
    return {"w": ParamSpec((2 * channels, channels), 1.0 / math.sqrt(2 * channels)),
            "b": ParamSpec((channels,))}


# each stage's leaf names, in spec order; the extents do not change them
_LEAVES = {"cfe": CFE_LEAVES, "pe": tuple(pe_spec(1, 1)), "nin": tuple(_nin_spec(1)),
           **{v: tuple(shrink_spec(v, 1, 1)) for v in ("pool", "conv")}}


def param_spec(cfg: DmffConfig, height: int, width: int, channels: int) -> dict:
    """Every learnable of the configured pipeline: name -> ParamSpec, in
    ``DmffWeights.tensors`` order, which is also the init draw order.

    The stage modules declare their own leaves; this prefixes them as the
    mode's ``MODE_TABLE`` row says.  One enhancement set serves every
    iteration.  Raises ConfigurationError for extents the shrink window
    does not divide, for heads that do not divide the channels of a mode
    that enhances, for a spec of more than
    ``MAX_PARAM_ELEMENTS`` elements and for a fuse of more than
    ``MAX_ATTENTION_MULTIPLIES`` attention multiplies, before anything is
    allocated.  Each attention over T = (h / s)(w / s) tokens of C channels
    takes 2 T^2 C multiplies, once per iteration in each enhanced direction.
    """
    row = MODE_TABLE[cfg.mode]
    s, c = cfg.shrink_window, channels
    if min(height, width, channels) < 1 or height % s or width % s:
        raise ConfigurationError(f"input extents {height}x{width}x{channels} must be "
                                 f">= 1 and divisible by the shrink window {s}")
    parts = []
    if row.enhances:
        if c % cfg.heads:
            raise ConfigurationError(f"channel width {c} not divisible by {cfg.heads} heads")
        t = (height // s) * (width // s)
        mults = len(row.enhances) * cfg.iterations * 2 * t * t * c
        if mults > MAX_ATTENTION_MULTIPLIES:
            raise ConfigurationError(
                f"a fuse over {t} tokens of {c} channels would take {mults} attention "
                f"multiplies, more than {MAX_ATTENTION_MULTIPLIES}")
        cfe = cfe_spec(c, cfg.ffn_hidden)
        parts += [(prefix, cfe) for prefix in row.sets]
        pe = pe_spec((height // s) * (width // s), c)
        shrunk = shrink_spec(cfg.shrink_variant, s, c)
        parts += [("pe_r.", pe), ("pe_t.", pe), ("sfs_r.", shrunk), ("sfs_t.", shrunk)]
    if row.emits == "fused":
        parts.append(("nin.", _nin_spec(c)))
    return admit_spec({prefix + leaf: p for prefix, leaves in parts for leaf, p in leaves.items()})


def admit_spec(spec: dict) -> dict:
    """`spec`, once its element total is known to be at most
    ``MAX_PARAM_ELEMENTS``.  Raises ConfigurationError."""
    size = sum(math.prod(p.shape) for p in spec.values())
    if size > MAX_PARAM_ELEMENTS:
        raise ConfigurationError(
            f"the weights would hold {size} elements, more than {MAX_PARAM_ELEMENTS}")
    return spec


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
    return DmffWeights(cfg, height, width, channels, {name: tensors[name] for name in spec})


def init_dmff_weights(cfg: DmffConfig, height: int, width: int, channels: int,
                      rng: np.random.Generator, dtype=tc.STANDARD) -> DmffWeights:
    """Construct weights for one pipeline instance at the given input size."""
    tensors = tc.init_tensors(param_spec(cfg, height, width, channels), rng, dtype)
    return DmffWeights(cfg, height, width, channels, tensors)


def nin_fuse(t_r: Tensor, t_t: Tensor, grid, h: int, w: int,
             nin_w: Tensor, nin_b: Tensor) -> Tensor:
    """The h x w x C fusion of two equal T x C token tensors on `grid`:
    the 1x1 projection of their channel concatenation, as a map on `grid`,
    resized to h x w unless `grid` is h x w already, plus the bias.

    It equals resizing both maps and projecting them, since the resize
    acts per channel and each interpolation row sums to one.  Raises
    DimensionError; the ops reject weights that do not fit the tokens.
    """
    if t_r.shape != t_t.shape:
        raise DimensionError(f"fusion inputs differ: {t_r.shape} vs {t_t.shape}")
    with tc.op_stage("nin"):
        mixed = tc.matmul(tc.concat_cols([t_r, t_t]), nin_w)
    mixed = detokenize(mixed, *grid)
    if tuple(grid) != (h, w):
        mixed = tc.bilinear_resize(mixed, h, w)
    return tc.add(mixed, nin_b)


@functools.lru_cache(maxsize=None)
def _names(prefix: str, leaves: tuple) -> tuple:
    """(leaf, full name) pairs of one stage, joined once per prefix."""
    return tuple((leaf, prefix + leaf) for leaf in leaves)


def _stage(wts: DmffWeights, mode: str, prefix: str, leaves) -> dict:
    """The tensors under `prefix`, keyed by leaf: one stage's learnables."""
    tensors = wts.tensors
    try:
        return {leaf: tensors[name] for leaf, name in _names(prefix, leaves)}
    except KeyError as exc:
        raise ConfigurationError(
            f"mode {mode!r} needs tensor {exc.args[0]!r}, which weights built for "
            f"mode {wts.cfg.mode!r} lack"
        ) from None


def _branch_tokens(f: Tensor, s: int, sfs: dict, pe: Tensor, cache, branch: str) -> Tensor:
    """``tokenize(shrink(f, s, sfs), pe)``, or the tokens `cache` holds for
    `branch` when they came from these very tensors.

    Tensors are immutable, so one map, one set of shrink learnables and one
    table (by identity) give the same tokens; they fix `s` too, as the
    table has (H / s)(W / s) rows.  The first untaped call with `cache`
    fills the branch's entry, which keeps its tensors alive, so their ids
    are never reused; no later call replaces it.  A taped call neither
    reads nor fills `cache`: its tokens must be on the tape.
    """
    if cache is None or tc._recording():
        return tokenize(shrink(f, s, sfs), pe)
    inputs = (f, pe, *sfs.values())
    key = tuple(map(id, inputs))
    entry = cache.get(branch)
    if entry is not None and entry[0] == key:
        return entry[2]
    tokens = tokenize(shrink(f, s, sfs), pe)
    cache.setdefault(branch, (key, inputs, tokens))
    return tokens


def dmff_fuse(f_r: Tensor, f_t: Tensor, cfg: DmffConfig, wts: DmffWeights,
              cache: dict | None = None) -> FusionOutput:
    """Run the configured pipeline on an rgb/thermal feature-map pair.

    Every setting comes from `cfg`.  It may differ from the weights' own
    config only in ``RUN_FIELDS``, and the weights must hold every tensor
    its mode needs (ConfigurationError).  Both maps must be H x W x C as
    the weights were sized, in the weights' dtype (DimensionError,
    ConfigurationError).

    `cache` is an optional dict owned by the caller, for many untaped
    fuses of one map pair under weights that differ in a few tensors, as
    in ``gradcheck``.  It holds each branch's shrunk tokens from the first
    untaped call, and a later call whose map, shrink learnables and
    positional table are those same tensors reuses them; everything past
    the tokens reruns.  Its output is byte-equal to an uncached call's.
    Taped calls ignore it.
    """
    for name in BUILT_FIELDS:
        if getattr(cfg, name) != getattr(wts.cfg, name):
            raise ConfigurationError(f"config {name} is {getattr(cfg, name)!r}, but the "
                                     f"weights were built with {getattr(wts.cfg, name)!r}")
    if f_r.shape != f_t.shape:
        raise DimensionError(f"input maps differ: {f_r.shape} vs {f_t.shape}")
    sized = (wts.height, wts.width, wts.channels)
    if f_r.shape != sized:
        raise DimensionError(f"input maps are {f_r.shape}, weights are sized for {sized}")
    param = next(iter(wts.tensors.values()), None)  # weights share one dtype
    if param is not None and not f_r.dtype == f_t.dtype == param.dtype:
        raise ConfigurationError(
            f"input maps are {f_r.dtype}/{f_t.dtype}, weights are {param.dtype}"
        )
    if cfg.input_duplication == "rgb_both":
        f_t = f_r
    elif cfg.input_duplication == "thermal_both":
        f_r = f_t
    mode, row = cfg.mode, MODE_TABLE[cfg.mode]
    h, w, _ = f_r.shape
    nin = _stage(wts, mode, "nin.", _LEAVES["nin"]) if row.emits == "fused" else None
    if row.enhances:
        # weights with no sets (modes e, f_*) fail on the mode's own instead
        sets = (len(row.enhances) == 1 and MODE_TABLE[wts.cfg.mode].sets) or row.sets
        block = tuple(_stage(wts, mode, prefix, CFE_LEAVES) if b in row.enhances else None
                      for b, prefix in zip("rt", (sets[0], sets[-1])))
        sfs_r, sfs_t = (_stage(wts, mode, prefix, _LEAVES[cfg.shrink_variant])
                        for prefix in ("sfs_r.", "sfs_t."))
        pe_r, pe_t = (_stage(wts, mode, prefix, _LEAVES["pe"])["table"]
                      for prefix in ("pe_r.", "pe_t."))
        s = cfg.shrink_window
        grid = (h // s, w // s)  # the token grid; only this function needs it
        t_r = _branch_tokens(f_r, s, sfs_r, pe_r, cache, "r")
        t_t = _branch_tokens(f_t, s, sfs_t, pe_t, cache, "t")
        t_r, t_t = icfe_forward(t_r, t_t, [block] * cfg.iterations, cfg.heads,
                                sequential=cfg.sequential_update)
    else:  # the raw maps' tokens on their own grid (modes e, f_*)
        grid = (h, w)
        t_r, t_t = tokenize(f_r), tokenize(f_t)
    if nin is not None:
        return FusionOutput(primary=nin_fuse(t_r, t_t, grid, h, w, nin["w"], nin["b"]))
    fmap = detokenize(t_r if row.emits == "r" else t_t, *grid)
    return FusionOutput(primary=fmap if grid == (h, w) else tc.bilinear_resize(fmap, h, w))


# ---------------------------------------------------------------------------
# Functional parameter replacement (the optimizer never mutates tensors)
# ---------------------------------------------------------------------------


def replace_parameters(wts: DmffWeights, mapping) -> DmffWeights:
    """Weights with the same names and order, tensors swapped in by name.

    Only the swapped-in tensors are checked (known name, the shape and
    dtype of the tensor they replace); the rest were checked when `wts`
    was built.
    """
    current = wts.tensors
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
    return DmffWeights(wts.cfg, wts.height, wts.width, wts.channels, {**current, **mapping})
