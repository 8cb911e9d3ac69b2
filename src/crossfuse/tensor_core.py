"""Dense tensor substrate with exact reverse-mode adjoints.

Every operation the fusion stack needs lives here: matrix products, fused
multi-head attention (its adjoint recomputes the cache-sized score blocks;
see ``multi_head_attention``), 2-d pooling, bilinear resizing, the
elementwise/reshape plumbing, and four composite ops, ``scaled_sum``,
``feed_forward``, ``sigmoid_blend`` and the loss ``mean_squared_error``.
Each records one tape step for a composition of three to five elementary
ops, keeps only what its adjoint reads, and computes in the composition's
order, so its outputs and gradients are the composition's to the bit.  The
module also holds the parameter init rule type, ``ParamSpec``, and
``init_tensors``, the one function that draws tensors from a spec.  Forward
calls optionally record onto a :class:`Tape`; :func:`backward` replays the
tape in reverse to produce a :class:`GradRecord` for all watched (named)
tensors, running only the steps that lead back to a watched tensor and
dropping each other gradient once it is consumed.

Most calls are on small tensors, where an op's fixed cost is comparable to
its numpy work, so entry is kept cheap: the active tapes, multiply counters
and ``op_stage`` labels are plain attributes of one per-thread state object,
``op_stage`` is a slotted context manager, and ops check their operands'
numpy arrays directly, calling the helpers that raise the named errors only
on a mismatch.

A rawtensor file and an ICAF tensor table entry hold one tensor record (a
dtype name, a ``json_shape`` and a row-major little-endian payload), coded
by ``encode_tensor``, ``tensor_layout`` and ``decode_tensor`` alone.

Tensors are immutable after construction (the underlying numpy buffer is
write-protected) and carry either standard (float32) or wide (float64)
precision.  Wide precision is what the finite-difference oracles run in.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

STANDARD = np.float32
WIDE = np.float64

_DTYPE_TO_NAME = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_NAME_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}  # as records store them


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(ValueError):
    """A structural precondition (divisibility, variant name, ...) is violated."""


class TapeStateError(RuntimeError):
    """Backward requested before any forward evaluation was recorded."""


class Tensor:
    """Immutable dense array of rank 1-3, row-major, single dtype.

    ``data`` is the flat-compatible numpy view; ``shape`` mirrors
    ``data.shape`` as a tuple.  Scalar learnables use shape ``(1,)``.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True, order="C")
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(STANDARD)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 3:
            raise DimensionError(f"tensors have rank 1-3, got shape {arr.shape}")
        if any(n < 1 for n in arr.shape):
            raise DimensionError(f"all extents must be >= 1, got shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: trusts arr to be fresh, C-ordered, float32/64.
        t = object.__new__(cls)
        arr.setflags(write=False)
        t.data = arr
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={_DTYPE_TO_NAME[self.dtype]})"


def zeros(shape, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=dtype))


def full(shape, value, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.full(shape, value, dtype=dtype))


def scalar(value, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.array([value], dtype=dtype))


class ParamSpec(NamedTuple):
    """One learnable: shape, init (uniform in +-bound, else fill), weight decay."""

    shape: tuple
    bound: float | None = None
    fill: float = 0.0
    decay: bool = True


def init_tensors(spec: dict, rng: np.random.Generator, dtype=STANDARD) -> dict:
    """One tensor per ``spec`` entry (name -> ParamSpec), drawn from `rng`
    in spec order; filled entries draw nothing."""
    return {name: full(p.shape, p.fill, dtype=dtype) if p.bound is None
            else Tensor(rng.uniform(-p.bound, p.bound, size=p.shape), dtype=dtype)
            for name, p in spec.items()}


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------


class GradRecord(dict):
    """Accumulated gradients, a dict keyed by parameter name ("cfe_t.w_q", ...).

    A name is absent exactly when the parameter did not participate in the
    evaluated graph.  Present entries always match the parameter's shape.
    ``entries`` is the record itself.
    """

    @property
    def entries(self) -> dict:
        return self


class Tape:
    """Wengert list of recorded operations plus the set of watched tensors.

    Owned by exactly one evaluation at a time; activate with
    ``with record_on(tape): ...`` around the forward pass.
    """

    def __init__(self):
        self._steps = []  # (out, parents, backward_fn) in execution order
        self._watched = {}  # name -> tensor; one tensor may have several names

    def watch(self, tensor: Tensor, name: str):
        self._watched[name] = tensor

    def watch_all(self, named_tensors):
        for name, t in named_tensors:
            self.watch(t, name)

    @property
    def num_steps(self) -> int:
        return len(self._steps)


class _ThreadState(threading.local):
    """Per-thread op state: the active tapes, the active multiply counters
    and the ``op_stage`` labels.  A thread sees fresh empty lists on first
    use, so ops read plain attributes with no lazy-init branch."""

    def __init__(self):
        self.tapes = []
        self.counters = []
        self.stages = ["other"]


_state = _ThreadState()


@contextmanager
def record_on(tape: Tape):
    """Activate `tape` so that ops executed in the block are recorded."""
    stack = _state.tapes
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


def _recording() -> bool:
    """Whether a tape is active, i.e. whether the next `_emit` records."""
    return bool(_state.tapes)


def _emit(out: Tensor, parents, backward_fn):
    stack = _state.tapes
    if stack:
        stack[-1]._steps.append((out, parents, backward_fn))
    return out


def backward(output_grad: Tensor, tape: Tape, output: Tensor) -> GradRecord:
    """Reverse sweep over `tape`, seeding `output` with `output_grad`.

    `output` must be the result of a step on this tape (TapeStateError),
    and `output_grad` must match its shape and dtype.  Returns the gradient of
    every watched tensor that is reachable from the output, under each name
    it is watched by; unreachable parameters are simply absent from the
    record.  Only tensors that are watched or computed from a watched
    tensor get a gradient: one pass over the tape marks them, and the sweep
    skips every step whose output is unmarked and drops the parent
    gradients of unmarked parents (such as the input maps).  A gradient
    that is not watched is dropped as soon as the step that produced the
    tensor has run, so the sweep holds only the gradients still to be
    consumed.
    """
    if not tape._steps:
        raise TapeStateError("backward before forward: tape has no recorded operations")
    if not any(out is output for out, _, _ in tape._steps):
        raise TapeStateError("backward from a tensor that this tape did not record")
    if output_grad.shape != output.shape:
        raise DimensionError(
            f"output_grad shape {output_grad.shape} != output shape {output.shape}"
        )
    if output_grad.dtype != output.dtype:
        raise ConfigurationError(
            f"output_grad dtype {output_grad.dtype} != output dtype {output.dtype}"
        )
    watched = {id(t) for t in tape._watched.values()}
    # every consumer of a marked tensor is marked, so a marked tensor's
    # gradient still sums every contribution, in the same order
    marked = set(watched)
    for out, parents, _ in tape._steps:
        if any(id(p) in marked for p in parents):
            marked.add(id(out))
    grads = {id(output): np.array(output_grad.data, copy=True)}
    for out, parents, backward_fn in reversed(tape._steps):
        if id(out) not in marked:
            continue
        # every consumer of `out` was recorded after it, so its gradient is
        # complete here and, unless watched, needed by nothing later
        g = grads.get(id(out)) if id(out) in watched else grads.pop(id(out), None)
        if g is None:
            continue
        for parent, pg in zip(parents, backward_fn(g)):
            if pg is None or id(parent) not in marked:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    record = GradRecord()
    for name, tensor in tape._watched.items():
        g = grads.get(id(tensor))
        if g is not None:
            record[name] = Tensor._wrap(np.ascontiguousarray(g))
    return record


# ---------------------------------------------------------------------------
# Multiply counting (used by the complexity auditor)
# ---------------------------------------------------------------------------


class MultiplyCounter:
    """Counts scalar multiplications performed inside matrix products,
    bucketed by the pipeline stage active when the product ran."""

    def __init__(self):
        self.counts = {}

    def add(self, stage: str, n: int):
        self.counts[stage] = self.counts.get(stage, 0) + n

    def total(self, *stages) -> int:
        return sum(self.counts.get(s, 0) for s in stages)


@contextmanager
def count_multiplies(counter: MultiplyCounter | None = None):
    """Collect matmul multiply counts into `counter` for the duration."""
    counter = counter if counter is not None else MultiplyCounter()
    active = _state.counters
    active.append(counter)
    try:
        yield counter
    finally:
        active.pop()


class op_stage:
    """Label matmuls executed in this block for the multiply counter:
    ``with op_stage("proj"): ...``.  Stages nest, the innermost wins, and
    the label is popped however the block exits.  A plain class rather
    than a generator context manager, since every stage entry pays its
    cost."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        _state.stages.append(self.name)

    def __exit__(self, *exc_info):
        _state.stages.pop()


def _note_matmul(m: int, k: int, n: int, stage: str | None = None):
    """Count an m x k by k x n product under `stage` (default: the active one)."""
    active = _state.counters
    if active:
        stage = stage or _state.stages[-1]
        mults = m * k * n
        for counter in active:
            counter.add(stage, mults)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _require_rank(t: Tensor, rank: int, what: str):
    if t.data.ndim != rank:
        raise DimensionError(f"{what} must have rank {rank}, got shape {t.shape}")


def _common_dtype(*tensors):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ConfigurationError(
                f"mixed precisions in one op: {[str(x.dtype) for x in tensors]}"
            )
    return dt


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-d pair; adjoints dA = g.Bt, dB = At.g."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.dtype != bd.dtype:
        _require_rank(a, 2, "matmul lhs")
        _require_rank(b, 2, "matmul rhs")
        _common_dtype(a, b)
    m, k = ad.shape
    if bd.shape[0] != k:
        raise DimensionError(f"matmul inner extents differ: {ad.shape} x {bd.shape}")
    _note_matmul(m, k, bd.shape[1])
    out = Tensor._wrap(ad @ bd)

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _emit(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    _require_rank(a, 2, "transpose input")
    out = Tensor._wrap(np.ascontiguousarray(a.data.T))

    def bwd(g):
        return (np.ascontiguousarray(g.T),)

    return _emit(out, (a,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a rank-1 bias `b` over the last axis of
    `a`, of any rank.  The bias adjoint sums the gradient over every other
    axis, as rows of its (-1, n) view."""
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        _common_dtype(a, b)
    if ad.shape == bd.shape:
        out = Tensor._wrap(ad + bd)

        def bwd(g):
            return g, g

        return _emit(out, (a, b), bwd)
    n = bd.shape[0]
    if bd.ndim == 1 and ad.shape[-1] == n:
        out = Tensor._wrap(ad + bd)

        def bwd_bias(g):
            return g, g.reshape(-1, n).sum(axis=0)

        return _emit(out, (a, b), bwd_bias)
    raise DimensionError(f"add shapes do not conform: {a.shape} vs {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        _common_dtype(a, b)
    if ad.shape != bd.shape:
        raise DimensionError(f"sub shapes differ: {ad.shape} vs {bd.shape}")
    out = Tensor._wrap(ad - bd)

    def bwd(g):
        return g, -g

    return _emit(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        _common_dtype(a, b)
    if ad.shape != bd.shape:
        raise DimensionError(f"mul shapes differ: {ad.shape} vs {bd.shape}")
    out = Tensor._wrap(ad * bd)

    def bwd(g):
        return g * bd, g * ad

    return _emit(out, (a, b), bwd)


def _require_coefficient(a: Tensor, x: Tensor):
    """Raise unless `a` is one element of `x`'s dtype."""
    if a.data.size != 1:
        raise DimensionError(f"coefficient must be one element, got {a.shape}")
    _common_dtype(a, x)


def _scaled_adjoint(g, xd, av):
    """da and dx of av * x, for the adjoint `g` of the product."""
    return np.array([np.sum(g * xd)], dtype=g.dtype), av * g


def scalar_mul(s: Tensor, x: Tensor) -> Tensor:
    """Scale `x` by the single-element learnable `s`."""
    sd, xd = s.data, x.data
    if sd.size != 1 or sd.dtype != xd.dtype:
        _require_coefficient(s, x)
    sv = sd.reshape(-1)[0]
    return _emit(Tensor._wrap(sv * xd), (s, x), lambda g: _scaled_adjoint(g, xd, sv))


def _scaled_pair(a: Tensor, x: Tensor, b: Tensor, y: Tensor, av, bv):
    """av * x + bv * y for same-shape x, y and one-element a, b of their
    dtype, with av and bv their values or computed from them, and the
    adjoint, which returns da, dx, db and dy."""
    ad, xd, bd, yd = a.data, x.data, b.data, y.data
    if (xd.shape != yd.shape or ad.size != 1 or bd.size != 1
            or not ad.dtype == xd.dtype == bd.dtype == yd.dtype):
        if xd.shape != yd.shape or xd.dtype != yd.dtype:
            _common_dtype(x, y)
            raise DimensionError(f"scaled terms differ in shape: {x.shape} vs {y.shape}")
        _require_coefficient(a, x)
        _require_coefficient(b, y)
    out = av * xd
    out += bv * yd
    return Tensor._wrap(out), lambda g: (*_scaled_adjoint(g, xd, av), *_scaled_adjoint(g, yd, bv))


def scaled_sum(a: Tensor, x: Tensor, b: Tensor, y: Tensor) -> Tensor:
    """a * x + b * y for single-element learnables a, b: one tape step where
    two ``scalar_mul`` and an ``add`` took three."""
    out, bwd = _scaled_pair(a, x, b, y, a.data.reshape(-1)[0], b.data.reshape(-1)[0])
    return _emit(out, (a, x, b, y), bwd)


def const_scale(x: Tensor, c: float) -> Tensor:
    """Scale by a fixed (non-learnable) constant."""
    cval = x.data.dtype.type(c)
    out = Tensor._wrap(cval * x.data)

    def bwd(g):
        return (cval * g,)

    return _emit(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0))
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return _emit(out, (x,), bwd)


def _logistic(d: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: with e = exp(-|x|), which never
    exceeds 1, it is 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    """The logistic function, elementwise (see ``_logistic``)."""
    out_arr = _logistic(x.data)

    def bwd(g):
        return (g * out_arr * (1.0 - out_arr),)

    return _emit(Tensor._wrap(out_arr), (x,), bwd)


def sigmoid_blend(l: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """lam * x + (1 - lam) * y with lam = sigmoid(l) for a single-element
    `l`: one tape step for ``sigmoid``, ``sub``, two ``scalar_mul``, ``add``."""
    lam_arr = _logistic(l.data)
    lam = lam_arr.reshape(-1)[0]
    out, pair_bwd = _scaled_pair(l, x, l, y, lam, x.dtype.type(1.0) - lam)

    def bwd(g):
        dlam, dx, dmu, dy = pair_bwd(g)
        return (dlam - dmu) * lam_arr * (1.0 - lam_arr), dx, dy

    return _emit(out, (l, x, y), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x w1 + b1) w2 + b2 for a 2-d x; both products count under the
    active ``op_stage``.  The hidden layer, rectified in place, is all a
    taped call keeps: the adjoint's mask and dW2 operand."""
    xd, w1d, b1d, w2d, b2d = x.data, w1.data, b1.data, w2.data, b2.data
    if not xd.dtype == w1d.dtype == b1d.dtype == w2d.dtype == b2d.dtype:
        _common_dtype(x, w1, b1, w2, b2)
    if (xd.ndim != 2 or b1d.ndim != 1 or b2d.ndim != 1
            or w1d.shape != (xd.shape[1], b1d.size) or w2d.shape != (b1d.size, b2d.size)):
        raise DimensionError(f"feed_forward operands do not conform: "
                             f"{[t.shape for t in (x, w1, b1, w2, b2)]}")
    _note_matmul(xd.shape[0], xd.shape[1], b1d.size)
    _note_matmul(xd.shape[0], b1d.size, b2d.size)
    hidden = xd @ w1d
    hidden += b1d
    np.maximum(hidden, 0, out=hidden)
    out = hidden @ w2d
    out += b2d

    def bwd(g):
        dh = (g @ w2d.T) * (hidden > 0)
        return dh @ w1d.T, xd.T @ dh, dh.sum(axis=0), hidden.T @ g, g.sum(axis=0)

    return _emit(Tensor._wrap(out), (x, w1, b1, w2, b2), bwd)


def mean_squared_error(a: Tensor, b: Tensor) -> Tensor:
    """mean((a - b)^2) over every element of same-shape a, b: one tape step
    for ``sub``, ``mul`` and ``mean_all``.  It keeps no difference: the
    adjoint recomputes a - b and adds (g / n)(a - b) to itself, as the tape
    summed ``mul``'s two adjoints."""
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        _common_dtype(a, b)
    if ad.shape != bd.shape:
        raise DimensionError(f"mean_squared_error shapes differ: {ad.shape} vs {bd.shape}")
    diff = ad - bd
    diff *= diff
    # ndarray.mean's sum and divide, without its wrapper: by an intp count, so
    # f32 divides in f64, as a Python int past 2^24 would not
    out = Tensor._wrap(np.array([np.add.reduce(diff, axis=None) / np.intp(diff.size)],
                                dtype=ad.dtype))

    def bwd(g):
        da = (g.reshape(-1)[0] / ad.size) * (ad - bd)
        da += da
        return da, -da

    return _emit(out, (a, b), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.array([x.data.sum()], dtype=x.dtype))

    def bwd(g):
        return (np.full(x.shape, g.reshape(-1)[0], dtype=g.dtype),)

    return _emit(out, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = Tensor._wrap(np.array([x.data.mean()], dtype=x.dtype))

    def bwd(g):
        return (np.full(x.shape, g.reshape(-1)[0] / n, dtype=g.dtype),)

    return _emit(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(map(int, shape))
    xd = x.data
    if math.prod(shape) != xd.size:
        raise DimensionError(f"cannot reshape {xd.shape} to {shape}: element counts differ")
    out = Tensor._wrap(np.ascontiguousarray(xd.reshape(shape)))
    in_shape = xd.shape

    def bwd(g):
        return (np.ascontiguousarray(g.reshape(in_shape)),)

    return _emit(out, (x,), bwd)


def col_slice(x: Tensor, j0: int, j1: int) -> Tensor:
    """Columns [j0, j1) of a 2-d tensor."""
    _require_rank(x, 2, "col_slice input")
    if not (0 <= j0 < j1 <= x.shape[1]):
        raise DimensionError(f"column slice [{j0}:{j1}) out of range for {x.shape}")
    out = Tensor._wrap(np.ascontiguousarray(x.data[:, j0:j1]))
    in_shape = x.shape

    def bwd(g):
        full_g = np.zeros(in_shape, dtype=g.dtype)
        full_g[:, j0:j1] = g
        return (full_g,)

    return _emit(out, (x,), bwd)


def concat_cols(parts) -> Tensor:
    """Concatenate 2-d tensors with equal row counts along columns."""
    parts = tuple(parts)
    arrays = [p.data for p in parts]
    if not arrays:
        raise DimensionError("concat_cols needs at least one part")
    rows, dt = arrays[0].shape[0], arrays[0].dtype
    if any(a.ndim != 2 or a.shape[0] != rows or a.dtype != dt for a in arrays):
        for p in parts:
            _require_rank(p, 2, "concat_cols part")
            if p.shape[0] != rows:
                raise DimensionError(f"concat_cols row mismatch: {p.shape} vs {parts[0].shape}")
        _common_dtype(*parts)
    out = Tensor._wrap(np.concatenate(arrays, axis=1))
    widths = [a.shape[1] for a in arrays]

    def bwd(g):
        grads, j = [], 0
        for w in widths:
            grads.append(np.ascontiguousarray(g[:, j : j + w]))
            j += w
        return grads

    return _emit(out, parts, bwd)


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    _require_rank(m, 2, "softmax_rows input")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor._wrap(y)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _emit(out, (m,), bwd)


# Score blocks hold at most this many elements (256 KiB in f32): whole heads
# when one head fits, else query-row tiles of one head.  It is the budget at
# which OpenBLAS 0.3.31 runs the key-major products fastest.  Per query row
# at T_k = 1024, d = 8, f32 (one thread, best of 7, a Sapphire Rapids core):
#
#     rows per tile              32    64    96   128   256
#     K Q^T         ns / row    221   187   243   385   279
#     [V|1]^T E^T   ns / row    232   236   272   468   476
#
# Both products slow down past 96 rows, where M N K passes ~10^6 (it looks
# like OpenBLAS's small-matrix path).  Whole untaped calls at T = 1024, 8
# heads, took 14.3, 10.4, 9.7, 13.7 and 14.3 ms at budgets 2^14 ... 2^18;
# at T = 256 (one head per block) 2^16 was within 3% of the best.
_ATTENTION_BLOCK_ELEMENTS = 1 << 16


def _attention_blocks(heads: int, tq: int, tk: int):
    """(heads per block, query rows per block) under the element budget."""
    if tq * tk <= _ATTENTION_BLOCK_ELEMENTS:
        return min(heads, _ATTENTION_BLOCK_ELEMENTS // (tq * tk)), tq
    return 1, max(1, _ATTENTION_BLOCK_ELEMENTS // tk)


@functools.lru_cache(maxsize=None)
def _overflow_limits(dt: np.dtype, d: int):
    """(1 / sqrt(d), log2(e), ln(M) / 4, M^(3/4), sqrt(M / d) / 2, ones(d)) in
    the dtype, whose largest finite value is M, made once per (dtype, d): the
    attention scale and base change, the guard's bounds on the scaled scores,
    on T_k max(1, |v|) and on max|q| + max|k|, and a read-only ones(d) that
    sums a head's squares."""
    big, ones = np.finfo(dt).max, np.ones(d, dtype=dt)
    ones.setflags(write=False)
    return (dt.type(1.0 / math.sqrt(d)), dt.type(math.log2(math.e)), np.log(big) / 4,
            big ** 0.75, np.sqrt(big / d) / 2, ones)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Concatenated head outputs softmax(Q_j K_j^T / sqrt(d)) V_j, T_q x C.

    Head j owns channels [j*d, (j+1)*d), d = C / heads.  The scale is folded
    into Q^T (d x T_q) instead of the scores, and so is log2(e):
    exp(s) = 2^(s log2(e)), and ``exp2`` is the cheaper pass.  Score blocks
    are key-major, T_k x rows per head, the shape in which BLAS runs these
    d-narrow products fastest.  Per block the op makes one product
    E^T = K (scale log2(e) Q)^T, one in-place ``exp2`` and one product
    [V | 1]^T E^T, whose last row is each query's sum s, so the normaliser
    needs no pass of its own; columns are divided by s after the product.

    Softmax is shift-invariant, so the usual max shift only guards the
    exponential against overflow, and it is skipped per head when overflow
    is impossible.  With M the dtype's largest finite value and
    L = ln(M) / 4, Cauchy-Schwarz bounds every scaled score by

        |q_i . k_j / sqrt(d)| <= b = max_i |q_i / sqrt(d)| * max_j |k_j|.

    If b <= L, each exponential lies in [M^(-1/4), M^(1/4)]: finite and far
    above the smallest normal number, so none is subnormal.  Row sums are
    at most T_k M^(1/4), and |E [V | 1]| <= T_k M^(1/4) max(1, max|v|),
    which is finite when also T_k max(1, max|v|) <= M^(3/4).  When both
    hold the head is exponentiated unshifted: E, s and g / s then differ
    from their shifted values by a factor of at most e^b <= M^(1/4), so the
    adjoint stays finite as well, and the factor 4 in L leaves room for
    rounding in b and the scores.  The test is the same in base 2 (a
    base-2 exponent of at most log2(M) / 4), so it stays in natural units.
    Otherwise (or for non-finite input) that head takes the exact shift:
    its queries carry only the natural scale, each query's max over the
    keys (axis 0 of its block) is subtracted, and only the O(1) differences
    are scaled by log2(e), since folding before the shift would round large
    exponents at their own ulp.  b costs O(T d) per head.  An f32 head
    whose b, taken again in float64 from finite operands, passes M / 4
    could overflow f32 in its scores, their shifted differences or those
    scaled by log2(e), so it makes all three steps in float64 and casts back
    exponents clipped to [-M, 0]; f64 and non-finite heads never do.

    The per-head test runs only when a whole-tensor pre-test fails.  Every
    row has |q_i|^2 <= d max|q|^2, so b <= scale d max|q| max|k| in every
    head, and max(1, max|v|) in a head is at most its value over all heads.
    The pre-test asks first max|q| + max|k| <= sqrt(M / d) / 2, as
    max|q| <= sqrt(M / d) / 2 - max|k|, which cannot overflow, so that no
    squared row norm overflows, no head's b is inf * 0, and the product
    next is below M / (8 sqrt(d)); then 2 scale d max|q| max|k| <= L, the
    factor 2 covering the rounding of b, and T_k max(1, max|v|) <= M^(3/4).
    Passing it implies passing every head's test, so no head's decision
    changes; NaN and inf fail it, and the per-head test then confines them
    to their own heads.

    Score blocks hold at most ``_ATTENTION_BLOCK_ELEMENTS`` elements: as
    many whole heads as fit, or else query-row tiles of one head, all
    computed in one reused block buffer, taped or not.  Every other buffer
    is O(T C), so the op never holds a whole heads x T_q x T_k matrix.
    Every call copies out the row sums, so a taped call keeps no scores
    and no block: beside its operands, only its output and those sums,
    (C + heads) T_q elements.  Its adjoint rebuilds [V | 1] and the
    exponent operand by the forward's own code, reads O as a view of the
    output, and is written out directly, with P = E / s and gs = g / s:

        dS^T = ([V | 1] [gs | -rowsum(gs * O)]^T) * E^T,
        dQ^T = scale K^T dS^T,  dV = E^T gs,  dK = scale dS^T Q.

    The adjoint walks the forward's own blocks and makes each block's
    products for all its heads at once; dV and dK sum over a head's
    query-row tiles.  It recomputes every block's E^T by the forward's own
    code into a block buffer of its own, so E is the same to the bit
    (recompute as in memory-efficient attention, arXiv 2112.05682, and
    FlashAttention-2, arXiv 2307.08691).
    """
    qd, kd, vd = q.data, k.data, v.data
    dt = qd.dtype
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2 or not dt == kd.dtype == vd.dtype:
        for t, what in ((q, "queries"), (k, "keys"), (v, "values")):
            _require_rank(t, 2, f"attention {what}")
        _common_dtype(q, k, v)
    (tq, c), tk = qd.shape, kd.shape[0]
    if kd.shape != vd.shape or kd.shape[1] != c:
        raise DimensionError(
            f"attention operands do not conform: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if heads < 1 or c % heads:
        raise ConfigurationError(f"channel width {c} not divisible by {heads} heads")
    d = c // heads
    _note_matmul(heads * tq, d, tk, stage="attention_qk")
    _note_matmul(heads * tq, tk, d, stage="attention_av")
    kh = kd.reshape(tk, heads, d).transpose(1, 0, 2)  # K_h, T_k x d: a view

    scale, log2e, max_exponent, max_v_sum, max_operand, ones = _overflow_limits(dt, d)
    # NaN compares False, so non-finite input fails the pre-test and the
    # per-head test alike; np.maximum propagates NaN
    aq = np.maximum.reduce(np.abs(qd), axis=None)
    ak = np.maximum.reduce(np.abs(kd), axis=None)
    if (aq <= max_operand - ak and 2 * d * scale * aq * ak <= max_exponent
            and tk * np.maximum.reduce(np.abs(vd), axis=None, initial=1.0) <= max_v_sum):
        shifted = wide = ()
    else:
        # squared row norms per head, as (T heads, d) @ ones(d) products: rows
        # never mix heads, so a non-finite entry reaches only its own head's
        # bound.  A squared norm that overflows, or a bound of inf * 0, fails
        # the test as it must, so numpy's warnings about them are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            qn = np.square(qd).reshape(-1, d) @ ones
            kn = np.square(kd).reshape(-1, d) @ ones
            bound = scale * np.sqrt(np.maximum.reduce(qn.reshape(tq, heads))
                                    * np.maximum.reduce(kn.reshape(tk, heads)))
        vmax = np.maximum.reduce(np.maximum.reduce(np.abs(vd)).reshape(heads, d), axis=1,
                                 initial=1.0)
        shift_free = (bound <= max_exponent) & (tk * vmax <= max_v_sum)
        shifted = [j for j, ok in enumerate(shift_free.tolist()) if not ok]
        wide = []
        if shifted and dt == STANDARD:
            # b again, in float64, where finite f32 operands give a finite
            # bound; a non-finite head fails the test and keeps its path.
            # Past M / 4, the head's scores (up to b), their shifted
            # differences (2b) or those scaled by log2(e) could pass M
            with np.errstate(invalid="ignore"):
                qw, kw = qd.astype(WIDE).reshape(-1, d), kd.astype(WIDE).reshape(-1, d)
                bound = scale * np.sqrt(
                    np.maximum.reduce((qw * qw).sum(axis=1).reshape(tq, heads))
                    * np.maximum.reduce((kw * kw).sum(axis=1).reshape(tk, heads)))
            big = np.finfo(dt).max
            wide = [j for j in shifted if big / 4 < bound[j] < np.inf]

    def operands():
        """[V | 1] per head, T_k x (d + 1), and the exponent operand Q^T per
        head, d x T_q; a shifted head's Q^T keeps natural units until its
        shift.  The adjoint rebuilds both by this code."""
        v1 = np.empty((heads, tk, d + 1), dtype=dt)
        v1[..., :d], v1[..., d] = vd.reshape(tk, heads, d).transpose(1, 0, 2), 1
        qt = qd.T.reshape(heads, d, tq)
        qe = np.multiply(qt, scale * log2e, out=np.empty((heads, d, tq), dtype=dt))
        for j in shifted:
            np.multiply(qt[j], scale, out=qe[j])
        for j in wide:  # scored in float64 by exp_block; a zero product cannot overflow
            qe[j] = 0
        return v1, qe

    hb, rows = _attention_blocks(heads, tq, tk)
    blocks = [(j0, min(j0 + hb, heads), r0, min(r0 + rows, tq))
              for j0 in range(0, heads, hb) for r0 in range(0, tq, rows)]

    def block_view(buf, j0, j1, r0, r1):
        """A contiguous (heads, T_k, rows) view of a flat block buffer."""
        return buf[: (j1 - j0) * tk * (r1 - r0)].reshape(j1 - j0, tk, r1 - r0)

    def exp_block(qe, j0, j1, r0, r1, buf):
        """E^T for heads [j0, j1) and query rows [r0, r1) of one block, into
        `buf`.  The forward and the adjoint's recompute both run it on the
        same blocks, and each head's product is its own GEMM, so both see
        the same E to the bit."""
        eb = block_view(buf, j0, j1, r0, r1)
        np.matmul(kh[j0:j1], qe[j0:j1, :, r0:r1], out=eb)
        for j in shifted:
            if not j0 <= j < j1:
                continue
            if j in wide:
                # product, shift and scaling in float64; the exponents cast
                # back are in [-M, 0], and exp2(-M) is 0
                qj = qd[r0:r1, j * d:(j + 1) * d].T
                w = kh[j].astype(WIDE) @ np.multiply(qj, scale, dtype=WIDE)
                w -= w.max(axis=0)
                w *= math.log2(math.e)
                eb[j - j0] = np.maximum(w, -np.finfo(dt).max, out=w)
            else:
                eb[j - j0] -= eb[j - j0].max(axis=0)
                eb[j - j0] *= log2e
        return np.exp2(eb, out=eb)

    v1, qe = operands()
    e = np.empty(hb * tk * rows, dtype=dt)
    av = np.empty((heads, d + 1, tq), dtype=dt)  # ([V | 1]^T E^T) per head
    for j0, j1, r0, r1 in blocks:
        eb = exp_block(qe, j0, j1, r0, r1, e)
        np.matmul(v1[j0:j1].transpose(0, 2, 1), eb, out=av[j0:j1, :, r0:r1])
    # O, T_q x d per head: a divide over T_q-long rows, then one transposing
    # copy, is faster than dividing straight into the strided output
    o = (av[:, :d] / av[:, d:]).transpose(2, 0, 1).copy()
    sums = av[:, d].copy()  # row sums, heads x T_q

    def bwd(g):
        # with P = E / s, the adjoint only needs E and gs = g / s
        v1, qe = operands()
        gs = np.divide(g.reshape(tq, heads, d), sums.T[..., None])  # T_q x d per head
        gs1 = np.empty((heads, d + 1, tq), dtype=dt)  # [gs | -rowsum(gs * O)]^T
        gs1[:, :d] = gs.transpose(1, 2, 0)
        np.negative((gs1[:, :d] * o.transpose(1, 2, 0)).sum(axis=1), out=gs1[:, d])
        qh = qd.reshape(tq, heads, d).transpose(1, 0, 2)
        dq = np.empty((heads, d, tq), dtype=dt)  # dQ^T per head
        dk, dv = np.empty((heads, tk, d), dtype=dt), np.empty((heads, tk, d), dtype=dt)
        et, ds = np.empty(hb * tk * rows, dtype=dt), np.empty(hb * tk * rows, dtype=dt)
        for j0, j1, r0, r1 in blocks:
            eb = exp_block(qe, j0, j1, r0, r1, et)
            dsb = block_view(ds, j0, j1, r0, r1)  # dS^T
            np.matmul(v1[j0:j1], gs1[j0:j1, :, r0:r1], out=dsb)
            dsb *= eb
            np.matmul(kh[j0:j1].transpose(0, 2, 1), dsb, out=dq[j0:j1, :, r0:r1])
            # dV and dK sum over query-row tiles: the first writes, the rest add
            pv = np.matmul(eb, gs[r0:r1, j0:j1].transpose(1, 0, 2),
                           out=dv[j0:j1] if r0 == 0 else None)
            pk = np.matmul(dsb, qh[j0:j1, r0:r1], out=dk[j0:j1] if r0 == 0 else None)
            if r0:
                dv[j0:j1] += pv
                dk[j0:j1] += pk
        # dQ and dK take the scale as they merge their heads
        dq = np.multiply(dq.transpose(2, 0, 1), scale, out=np.empty((tq, heads, d), dtype=dt))
        dk = np.multiply(dk.transpose(1, 0, 2), scale, out=np.empty((tk, heads, d), dtype=dt))
        dv = np.ascontiguousarray(dv.transpose(1, 0, 2))
        return dq.reshape(tq, c), dk.reshape(tk, c), dv.reshape(tk, c)

    return _emit(Tensor._wrap(o.reshape(tq, c)), (q, k, v), bwd)


def pool2d(fmap: Tensor, s: int, kind: str) -> Tensor:
    """Window pooling of an HxWxC map by non-overlapping s x s windows.

    Average pooling spreads its adjoint uniformly; max pooling routes the
    adjoint to the first (row-major) maximal element of each window, a mask
    its adjoint builds from the input and the output, so a taped forward
    costs what an untaped one does.  Both adjoints are strided assignments
    into the (h/s, s, w/s, s, c) view of the input gradient.
    """
    _require_rank(fmap, 3, "pool2d input")
    if s < 1:
        raise ConfigurationError(f"pool window must be >= 1, got {s}")
    h, w, c = fmap.shape
    if h % s or w % s:
        raise ConfigurationError(
            f"pool window {s} does not divide spatial extents {h}x{w}"
        )
    if kind not in ("avg", "max"):
        raise ConfigurationError(f"unknown pooling kind {kind!r}")
    ho, wo = h // s, w // s
    blocks = fmap.data.reshape(ho, s, wo, s, c)

    # Fold the s*s window offsets in elementwise, in row-major order; a
    # reduction over a trailing axis of s*s is far slower.  A maximum is
    # exact in any order; at s = 2 the sum is bit-identical to that
    # reduction, and at s >= 3 it differs from numpy's pairwise sum only
    # by rounding.
    fold = np.add if kind == "avg" else np.maximum
    out_arr = blocks[:, 0, :, 0].copy()
    for i in range(s):
        for j in range(s):
            if i or j:
                fold(out_arr, blocks[:, i, :, j], out=out_arr)
    if kind == "avg":
        out_arr /= s * s

        def bwd(g):
            gx = np.empty((ho, s, wo, s, c), dtype=g.dtype)
            gx[...] = (g / (s * s))[:, None, :, None]
            return (gx.reshape(h, w, c),)
    else:
        def bwd(g):
            # the first maximal element of each window, in the fold's order
            first = np.empty((ho, s, wo, s, c), dtype=bool)
            unclaimed = np.ones((ho, wo, c), dtype=bool)
            for i in range(s):
                for j in range(s):
                    hit = np.equal(blocks[:, i, :, j], out_arr)
                    hit &= unclaimed
                    unclaimed ^= hit
                    first[:, i, :, j] = hit
            gx = np.multiply(g[:, None, :, None], first)
            gx += 0  # a negative g times False gives -0.0; make it +0.0
            return (gx.reshape(h, w, c),)

    return _emit(Tensor._wrap(out_arr), (fmap,), bwd)


def _resize_coords(n_in: int, n_out: int):
    # sample centers at (i + 0.5) / scale - 0.5, clamped to the valid range
    idx = np.arange(n_out, dtype=np.float64)
    src = (idx + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    lo = np.minimum(lo, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    w_hi = src - lo
    return lo, hi, w_hi


@functools.lru_cache(maxsize=64)
def _resize_matrix(n_in: int, n_out: int, dt: np.dtype) -> np.ndarray:
    """n_out x n_in linear interpolation weights along one axis.

    Cached per (n_in, n_out, dtype), since every forward resizes to the
    same few extents; all callers share the returned array, so it is
    read-only.
    """
    lo, hi, w_hi = _resize_coords(n_in, n_out)
    w_hi = w_hi.astype(dt)
    rows = np.arange(n_out)
    r = np.zeros((n_out, n_in), dtype=dt)
    r[rows, lo] = dt.type(1.0) - w_hi
    r[rows, hi] += w_hi  # lo == hi only where w_hi == 0
    r.setflags(write=False)
    return r


def bilinear_resize(fmap: Tensor, h_out: int, w_out: int) -> Tensor:
    """Bilinear resampling of an HxWxC map, per channel.

    Separable: out = R_h X R_w^T with one interpolation matrix per axis, so
    the adjoint is the two transposed products.  Their multiplies count
    under the ``resize`` stage.
    """
    _require_rank(fmap, 3, "bilinear_resize input")
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"output extents must be >= 1, got {h_out}x{w_out}")
    h, w, c = fmap.shape
    dt = fmap.dtype
    rh = _resize_matrix(h, h_out, dt)
    rw = _resize_matrix(w, w_out, dt)
    _note_matmul(h * w_out, w, c, stage="resize")
    _note_matmul(h_out, h, w_out * c, stage="resize")
    cols = np.matmul(rw, fmap.data)  # (h, w_out, c): each input row resized along w
    out = Tensor._wrap((rh @ cols.reshape(h, w_out * c)).reshape(h_out, w_out, c))

    def bwd(g):
        g_cols = (rh.T @ g.reshape(h_out, w_out * c)).reshape(h, w_out, c)
        return (np.matmul(rw.T, g_cols),)

    return _emit(out, (fmap,), bwd)


def space_to_channel(fmap: Tensor, s: int) -> Tensor:
    """Fold each s x s x C block into one (s*s*C)-channel pixel, row-major."""
    _require_rank(fmap, 3, "space_to_channel input")
    h, w, c = fmap.shape
    if s < 1:
        raise ConfigurationError(f"block size must be >= 1, got {s}")
    if h % s or w % s:
        raise ConfigurationError(
            f"block size {s} does not divide spatial extents {h}x{w}"
        )
    ho, wo = h // s, w // s
    out = Tensor._wrap(
        np.ascontiguousarray(
            fmap.data.reshape(ho, s, wo, s, c).transpose(0, 2, 1, 3, 4)
        ).reshape(ho, wo, s * s * c)
    )

    def bwd(g):
        return (
            np.ascontiguousarray(
                g.reshape(ho, wo, s, s, c).transpose(0, 2, 1, 3, 4)
            ).reshape(h, w, c),
        )

    return _emit(out, (fmap,), bwd)


# ---------------------------------------------------------------------------
# Tensor records: a dtype name, a JSON shape, a row-major little-endian payload
# ---------------------------------------------------------------------------


def encode_tensor(t: Tensor) -> tuple:
    """`t`'s record: its header fields (dtype name, shape) and payload bytes."""
    name = _DTYPE_TO_NAME[t.dtype]
    return ({"dtype": name, "shape": list(t.shape)},
            np.ascontiguousarray(t.data, dtype=_NAME_TO_DTYPE[name]).tobytes())


def json_shape(value, what: str) -> tuple:
    """A shape read from JSON: a list of 1-3 integer extents >= 1.  JSON
    reals, booleans and strings are not extents (ConfigurationError)."""
    if (not isinstance(value, list) or not 1 <= len(value) <= 3
            or not all(type(n) is int and n >= 1 for n in value)):
        raise ConfigurationError(f"{what} must be 1-3 integer extents >= 1, got {value!r}")
    return tuple(value)


def tensor_layout(fields, what: str) -> tuple:
    """(shape, little-endian dtype, payload byte count) of a record whose
    header fields were read from JSON: an object with a known dtype name
    and a ``json_shape``.  Raises ConfigurationError."""
    if not isinstance(fields, dict):
        raise ConfigurationError(f"{what} is not a JSON object")
    name = fields.get("dtype")
    if not isinstance(name, str) or name not in _NAME_TO_DTYPE:
        raise ConfigurationError(f"unknown dtype {name!r} in {what}")
    shape = json_shape(fields.get("shape"), f"shape in {what}")
    dt = _NAME_TO_DTYPE[name]
    return shape, dt, math.prod(shape) * dt.itemsize


def decode_tensor(blob: bytes, offset: int, shape: tuple, dt) -> Tensor:
    """The payload at `offset` of `blob`, checked by the caller to hold it.  On a
    little-endian host this is a view of `blob`: pass a fresh bytes object."""
    arr = np.frombuffer(blob, dtype=dt, count=math.prod(shape), offset=offset)
    return Tensor._wrap(np.ascontiguousarray(arr.reshape(shape), dtype=dt.newbyteorder("=")))


def write_rawtensor(path, tensor: Tensor):
    """rawtensor v1: one JSON header line (version, record fields), then the payload."""
    fields, payload = encode_tensor(tensor)
    with open(path, "wb") as fh:
        fh.write(json.dumps({"v": 1, **fields}, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


# The header line's length limit: a rawtensor header is a few dozen bytes
_MAX_RAWTENSOR_HEADER = 4096


def read_rawtensor(path) -> Tensor:
    """A rawtensor v1 file's tensor.  Reads at most the header line's limit,
    then the payload only once the bytes left in the file match the size the
    header states, so a malformed file costs no more than a valid one.  Raises
    ConfigurationError."""
    with open(path, "rb") as fh:
        header_line = fh.readline(_MAX_RAWTENSOR_HEADER + 1)
        if len(header_line) > _MAX_RAWTENSOR_HEADER:
            raise ConfigurationError(
                f"rawtensor header in {path} is longer than {_MAX_RAWTENSOR_HEADER} bytes")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"bad rawtensor header in {path}: {exc}") from exc
        shape, dt, nbytes = tensor_layout(header, f"rawtensor header in {path}")
        version = header.get("v")
        if type(version) is not int or version != 1:  # JSON true and 1.0 are not 1
            raise ConfigurationError(f"unsupported rawtensor version {version!r} in {path}")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != nbytes:
            raise ConfigurationError(f"rawtensor payload in {path} is {left} bytes, not {nbytes}")
        blob = fh.read(nbytes)
    return decode_tensor(blob, 0, shape, dt)
