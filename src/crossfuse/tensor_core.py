"""Dense tensor substrate with exact reverse-mode adjoints.

Every operation the fusion stack needs lives here: matrix products,
row-wise softmax, fused multi-head attention (a base-2 exponential over
cache-sized score blocks, shift-free when the scores provably cannot
overflow, with softmax row sums from a ones column appended to V; the
adjoint recomputes the blocks instead of keeping them all), 2-d
pooling, bilinear resizing, and the supporting
elementwise/reshape plumbing.  It also holds the parameter init rule type,
``ParamSpec``, and the one function that draws tensors from a spec,
``init_tensors``; every stage declares its learnables as specs and every
init path draws through it.  Forward calls optionally record onto a
:class:`Tape`; :func:`backward` replays the tape in reverse to produce a
:class:`GradRecord` for all watched (named) tensors, dropping each other
gradient once it is consumed.

The rawtensor reader and the ICAF tensor table share one rule for shapes
read from JSON, ``json_shape``.

Tensors are immutable after construction (the underlying numpy buffer is
write-protected) and carry either standard (float32) or wide (float64)
precision.  Wide precision is what the finite-difference oracles run in.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

STANDARD = np.float32
WIDE = np.float64

_DTYPE_TO_NAME = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_NAME_TO_DTYPE = {"f32": np.float32, "f64": np.float64}


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

    def to_dtype(self, dtype) -> "Tensor":
        if self.data.dtype == np.dtype(dtype):
            return self
        return Tensor._wrap(self.data.astype(dtype))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={_DTYPE_TO_NAME[self.dtype]})"


def zeros(shape, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=dtype))


def full(shape, value, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.full(shape, value, dtype=dtype))


def scalar(value, dtype=STANDARD) -> Tensor:
    return Tensor._wrap(np.array([value], dtype=dtype))


class ParamSpec(NamedTuple):
    """Shape and init rule of one learnable: uniform in +-bound, else fill."""

    shape: tuple
    bound: float | None = None
    fill: float = 0.0


def init_tensors(spec: dict, rng: np.random.Generator, dtype=STANDARD) -> dict:
    """One tensor per ``spec`` entry (name -> ParamSpec), drawn from `rng`
    in spec order; filled entries draw nothing."""
    return {name: full(p.shape, p.fill, dtype=dtype) if p.bound is None
            else Tensor(rng.uniform(-p.bound, p.bound, size=p.shape), dtype=dtype)
            for name, p in spec.items()}


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------


@dataclass
class GradRecord:
    """Accumulated gradients keyed by parameter name ("cfe_t.w_q", ...).

    A name is absent exactly when the parameter did not participate in the
    evaluated graph.  Present entries always match the parameter's shape.
    """

    entries: dict = field(default_factory=dict)

    def __contains__(self, name):
        return name in self.entries

    def __getitem__(self, name) -> Tensor:
        return self.entries[name]

    def get(self, name, default=None):
        return self.entries.get(name, default)

    def names(self):
        return sorted(self.entries)


class Tape:
    """Wengert list of recorded operations plus the set of watched tensors.

    Owned by exactly one evaluation at a time; activate with
    ``with record_on(tape): ...`` around the forward pass.
    """

    def __init__(self):
        self._steps = []  # (out, parents, backward_fn) in execution order
        self._watched = {}  # id(tensor) -> (name, tensor)

    def watch(self, tensor: Tensor, name: str):
        self._watched[id(tensor)] = (name, tensor)

    def watch_all(self, named_tensors):
        for name, t in named_tensors:
            self.watch(t, name)

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def last_output(self) -> Tensor:
        if not self._steps:
            raise TapeStateError("tape is empty: run a forward evaluation first")
        return self._steps[-1][0]


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "tapes", None)
    if stack is None:
        stack = []
        _tls.tapes = stack
    return stack


@contextmanager
def record_on(tape: Tape):
    """Activate `tape` so that ops executed in the block are recorded."""
    stack = _tape_stack()
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


def _recording() -> bool:
    """Whether a tape is active, i.e. whether the next `_emit` records."""
    return bool(_tape_stack())


def _emit(out: Tensor, parents, backward_fn):
    stack = _tape_stack()
    if stack:
        stack[-1]._steps.append((out, tuple(parents), backward_fn))
    return out


def backward(output_grad: Tensor, tape: Tape, output: Tensor | None = None) -> GradRecord:
    """Reverse sweep over `tape`, seeding `output` with `output_grad`.

    `output` defaults to the tape's final recorded result, and
    `output_grad` must match its shape and dtype.  Returns the gradient of
    every watched tensor that is reachable from the output; unreachable
    parameters are simply absent from the record.  A gradient that is not
    watched is dropped as soon as the step that produced the tensor has
    run, so the sweep holds only the gradients still to be consumed.
    """
    if not tape._steps:
        raise TapeStateError("backward before forward: tape has no recorded operations")
    if output is None:
        output = tape.last_output()
    if output_grad.shape != output.shape:
        raise DimensionError(
            f"output_grad shape {output_grad.shape} != output shape {output.shape}"
        )
    if output_grad.dtype != output.dtype:
        raise ConfigurationError(
            f"output_grad dtype {output_grad.dtype} != output dtype {output.dtype}"
        )
    grads = {id(output): np.array(output_grad.data, copy=True)}
    for out, parents, backward_fn in reversed(tape._steps):
        # every consumer of `out` was recorded after it, so its gradient is
        # complete here and, unless watched, needed by nothing later
        g = grads.get(id(out)) if id(out) in tape._watched else grads.pop(id(out), None)
        if g is None:
            continue
        parent_grads = backward_fn(g)
        for parent, pg in zip(parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    entries = {}
    for tid, (name, tensor) in tape._watched.items():
        g = grads.get(tid)
        if g is not None:
            entries[name] = Tensor._wrap(np.ascontiguousarray(g))
    return GradRecord(entries)


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
        if not stages:
            return sum(self.counts.values())
        return sum(self.counts.get(s, 0) for s in stages)


def _counter_state():
    state = getattr(_tls, "counters", None)
    if state is None:
        state = {"active": [], "stage": ["other"]}
        _tls.counters = state
    return state


@contextmanager
def count_multiplies(counter: MultiplyCounter | None = None):
    """Collect matmul multiply counts into `counter` for the duration."""
    counter = counter if counter is not None else MultiplyCounter()
    state = _counter_state()
    state["active"].append(counter)
    try:
        yield counter
    finally:
        state["active"].pop()


@contextmanager
def op_stage(name: str):
    """Label matmuls executed in this block for the multiply counter."""
    state = _counter_state()
    state["stage"].append(name)
    try:
        yield
    finally:
        state["stage"].pop()


def _note_matmul(m: int, k: int, n: int, stage: str | None = None):
    """Count an m x k by k x n product under `stage` (default: the active one)."""
    state = _counter_state()
    if state["active"]:
        stage = stage or state["stage"][-1]
        mults = m * k * n
        for counter in state["active"]:
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
    _require_rank(a, 2, "matmul lhs")
    _require_rank(b, 2, "matmul rhs")
    _common_dtype(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    _note_matmul(a.shape[0], a.shape[1], b.shape[1])
    out = Tensor._wrap(a.data @ b.data)

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _emit(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    _require_rank(a, 2, "transpose input")
    out = Tensor._wrap(np.ascontiguousarray(a.data.T))

    def bwd(g):
        return (np.ascontiguousarray(g.T),)

    return _emit(out, (a,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a rank-1 bias broadcast over rows."""
    _common_dtype(a, b)
    if a.shape == b.shape:
        out = Tensor._wrap(a.data + b.data)

        def bwd(g):
            return g, g

        return _emit(out, (a, b), bwd)
    if b.data.ndim == 1 and a.data.ndim == 2 and b.shape[0] == a.shape[1]:
        out = Tensor._wrap(a.data + b.data)

        def bwd_bias(g):
            return g, g.sum(axis=0)

        return _emit(out, (a, b), bwd_bias)
    raise DimensionError(f"add shapes do not conform: {a.shape} vs {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _common_dtype(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"sub shapes differ: {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data - b.data)

    def bwd(g):
        return g, -g

    return _emit(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    _common_dtype(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = Tensor._wrap(a.data * b.data)

    def bwd(g):
        return g * b.data, g * a.data

    return _emit(out, (a, b), bwd)


def scalar_mul(s: Tensor, x: Tensor) -> Tensor:
    """Scale `x` by the single-element learnable `s`."""
    if s.size != 1:
        raise DimensionError(f"scalar_mul coefficient must be one element, got {s.shape}")
    _common_dtype(s, x)
    sval = s.data.reshape(-1)[0]
    out = Tensor._wrap(sval * x.data)

    def bwd(g):
        ds = np.array([np.sum(g * x.data)], dtype=g.dtype)
        return ds, sval * g

    return _emit(out, (s, x), bwd)


def const_scale(x: Tensor, c: float) -> Tensor:
    """Scale by a fixed (non-learnable) constant."""
    cval = x.data.dtype.type(c)
    out = Tensor._wrap(cval * x.data)

    def bwd(g):
        return (cval * g,)

    return _emit(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0))
    if not _recording():
        return out
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return _emit(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out_arr = np.empty_like(d)
    pos = d >= 0
    out_arr[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out_arr[~pos] = ez / (1.0 + ez)
    out = Tensor._wrap(out_arr)

    def bwd(g):
        return (g * out_arr * (1.0 - out_arr),)

    return _emit(out, (x,), bwd)


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
    shape = tuple(int(n) for n in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}: element counts differ")
    out = Tensor._wrap(np.ascontiguousarray(x.data.reshape(shape)))
    in_shape = x.shape

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
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        _require_rank(p, 2, "concat_cols part")
        if p.shape[0] != rows:
            raise DimensionError(
                f"concat_cols row mismatch: {p.shape} vs {parts[0].shape}"
            )
    _common_dtype(*parts)
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.shape[1] for p in parts]

    def bwd(g):
        grads, j = [], 0
        for w in widths:
            grads.append(np.ascontiguousarray(g[:, j : j + w]))
            j += w
        return grads

    return _emit(out, tuple(parts), bwd)


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


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """T x C -> heads x T x (C / heads); head j owns a contiguous channel block."""
    t, c = x.shape
    return np.ascontiguousarray(x.reshape(t, heads, c // heads).transpose(1, 0, 2))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    heads, t, d = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t, heads * d)


# Score blocks hold at most this many elements (1 MiB in f32), so that a
# block stays in cache between the products and the exp: whole heads when one
# head fits, else query-row tiles of one head.
_ATTENTION_BLOCK_ELEMENTS = 1 << 18


def _attention_blocks(heads: int, tq: int, tk: int):
    """(heads per block, query rows per block) under the element budget."""
    if tq * tk <= _ATTENTION_BLOCK_ELEMENTS:
        return min(heads, _ATTENTION_BLOCK_ELEMENTS // (tq * tk)), tq
    return 1, max(1, _ATTENTION_BLOCK_ELEMENTS // tk)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         return_weights: bool = False):
    """Concatenated head outputs softmax(Q_j K_j^T / sqrt(d)) V_j, T_q x C.

    Head j owns channels [j*d, (j+1)*d), d = C / heads.  The scale is folded
    into Q (T_q x d) instead of the T_q x T_k scores, and so is log2(e):
    exp(s) = 2^(s log2(e)), and ``exp2`` is the cheaper pass.  Per score
    block the op makes one product Q K^T, one in-place ``exp2`` and one
    product with [V | 1], a T_k x (d + 1) operand whose ones column yields
    each row's sum s, so the normaliser needs no pass of its own; rows are
    divided by s after the product.

    Softmax is shift-invariant, so the usual row-max shift only guards the
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
    Otherwise (or for non-finite input) that head takes the exact row-max
    shift: its queries carry only the natural scale, the row max is
    subtracted from its natural scores, and only the O(1) differences are
    scaled by log2(e), since folding before the shift would round large
    exponents at their own ulp.  b costs O(T d) per head.

    Score blocks hold at most ``_ATTENTION_BLOCK_ELEMENTS`` elements: as
    many whole heads as fit, or else query-row tiles of one head, all
    computed in one reused block buffer, taped or not.  A taped call keeps
    no scores: only Q, K, [V | 1], the row sums, the output and that block
    buffer, which still holds the last block's E; besides the block that
    is O(T C) bytes.  Its adjoint is written out directly:

        dV = P^T g,  dS = P * (g V^T - rowsum(g * O)),
        dQ = scale * dS K,  dK = dS^T (scale * Q).

    With P = E / s and gs = g / s, dS is one product
    [gs | -rowsum(gs * O)] [V | 1]^T, times E.  The adjoint walks the
    forward's blocks again, in head groups under a quarter of the budget,
    and makes each group's products for all its heads at once; dV and dK
    sum over a head's query-row tiles.  It reads the last block's E from
    the kept buffer and recomputes every other group's E by the forward's
    own code, so E is the same to the bit (recompute as in memory-efficient
    attention, arXiv 2112.05682).

    With ``return_weights`` also returns the per-head probability matrices
    (not recorded on the tape).
    """
    for t, what in ((q, "queries"), (k, "keys"), (v, "values")):
        _require_rank(t, 2, f"attention {what}")
    dt = _common_dtype(q, k, v)
    tq, c = q.shape
    tk = k.shape[0]
    if k.shape != v.shape or k.shape[1] != c:
        raise DimensionError(
            f"attention operands do not conform: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if heads < 1 or c % heads:
        raise ConfigurationError(f"channel width {c} not divisible by {heads} heads")
    d = c // heads
    _note_matmul(heads * tq, d, tk, stage="attention_qk")
    _note_matmul(heads * tq, tk, d, stage="attention_av")
    scale = dt.type(1.0 / np.sqrt(d))
    log2e = dt.type(math.log2(math.e))
    qh = _split_heads(q.data, heads)
    kh = _split_heads(k.data, heads)
    v1 = np.ones((heads, tk, d + 1), dtype=dt)  # [V | 1] per head
    v1[..., :d] = v.data.reshape(tk, heads, d).transpose(1, 0, 2)

    big = np.finfo(dt).max
    bound = scale * np.sqrt((qh * qh).sum(axis=2).max(axis=1)
                            * (kh * kh).sum(axis=2).max(axis=1))
    vmax = np.maximum(np.abs(v1[..., :d]).max(axis=(1, 2)), 1.0)
    # NaN compares False, so non-finite input takes the shifted path
    shift_free = (bound <= np.log(big) / 4) & (tk * vmax <= big ** 0.75)
    shifted = np.flatnonzero(~shift_free).tolist()
    # the exponent operand: a shifted head keeps natural units until its shift
    qe = qh * (scale * log2e)
    for j in shifted:
        qe[j] = qh[j] * scale

    hb, rows = _attention_blocks(heads, tq, tk)
    e = np.empty((hb, rows, tk), dtype=dt)
    blocks = [(j0, min(j0 + hb, heads), r0, min(r0 + rows, tq))
              for j0 in range(0, heads, hb) for r0 in range(0, tq, rows)]

    def exp_block(j0, j1, r0, r1, buf):
        """E for heads [j0, j1) and query rows [r0, r1) of one block, into
        `buf`.  The forward and the adjoint's recompute both run it on the
        same row tiles, and each head's product is its own GEMM, so both see
        the same E to the bit even when the adjoint takes fewer heads."""
        eb = buf[: j1 - j0, : r1 - r0]
        np.matmul(qe[j0:j1, r0:r1], kh[j0:j1].transpose(0, 2, 1), out=eb)
        for j in shifted:
            if j0 <= j < j1:
                eb[j - j0] -= eb[j - j0].max(axis=1, keepdims=True)
                eb[j - j0] *= log2e
        return np.exp2(eb, out=eb)

    av = np.empty((heads, tq, d + 1), dtype=dt)
    probs = np.empty((heads, tq, tk), dtype=dt) if return_weights else None
    for j0, j1, r0, r1 in blocks:
        eb = exp_block(j0, j1, r0, r1, e)
        np.matmul(eb, v1[j0:j1], out=av[j0:j1, r0:r1])
        if return_weights:
            np.divide(eb, av[j0:j1, r0:r1, d:], out=probs[j0:j1, r0:r1])
    sums = av[..., d:]
    oh = av[..., :d] / sums
    out = Tensor._wrap(_merge_heads(oh))

    def bwd(g):
        # with P = E / s, the adjoint only needs E and gs = g / s (T_q x d)
        gs1 = np.empty((heads, tq, d + 1), dtype=dt)  # [gs | -rowsum(gs * O)]
        gs = gs1[..., :d]
        np.divide(_split_heads(g, heads), sums, out=gs)
        gs1[..., d] = -(gs * oh).sum(axis=2)
        qs = qh * scale  # dK takes the natural-scale queries
        dq, dk, dv = np.empty_like(qs), np.empty_like(kh), np.empty_like(kh)
        # The adjoint holds E and dS where the forward holds E alone, and
        # makes five passes over them, so it takes each block's heads in
        # groups under a quarter of the budget, which stay in cache.  The
        # forward left its last block's E in `e`.  Every other group's E is
        # recomputed into `eg`, so `e` keeps that block for a later sweep.
        hg = max(1, min(hb, _ATTENTION_BLOCK_ELEMENTS // 4 // (rows * tk)))
        eg, ds = np.empty((hg, rows, tk), dtype=dt), np.empty((hg, rows, tk), dtype=dt)
        for block in blocks:
            b0, b1, r0, r1 = block
            for j0 in range(b0, b1, hg):
                j1 = min(j0 + hg, b1)
                if block == blocks[-1]:
                    eb = e[j0 - b0 : j1 - b0, : r1 - r0]
                else:
                    eb = exp_block(j0, j1, r0, r1, eg)
                dsb = ds[: j1 - j0, : r1 - r0]
                np.matmul(gs1[j0:j1, r0:r1], v1[j0:j1].transpose(0, 2, 1), out=dsb)
                dsb *= eb
                np.matmul(dsb, kh[j0:j1], out=dq[j0:j1, r0:r1])
                # dV and dK sum over query-row tiles: the first writes, the rest add
                pv = np.matmul(eb.transpose(0, 2, 1), gs[j0:j1, r0:r1],
                               out=dv[j0:j1] if r0 == 0 else None)
                pk = np.matmul(dsb.transpose(0, 2, 1), qs[j0:j1, r0:r1],
                               out=dk[j0:j1] if r0 == 0 else None)
                if r0:
                    dv[j0:j1] += pv
                    dk[j0:j1] += pk
        dq *= scale
        return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)

    out = _emit(out, (q, k, v), bwd)
    if return_weights:
        return out, [Tensor._wrap(p) for p in probs]
    return out


def pool2d(fmap: Tensor, s: int, kind: str) -> Tensor:
    """Window pooling of an HxWxC map by non-overlapping s x s windows.

    Average pooling spreads its adjoint uniformly; max pooling routes the
    adjoint to the first (row-major) maximal element of each window.  Both
    adjoints are strided assignments into the (h/s, s, w/s, s, c) view of
    the input gradient.
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

        def bwd_avg(g):
            gx = np.empty((ho, s, wo, s, c), dtype=g.dtype)
            gx[...] = (g / (s * s))[:, None, :, None]
            return (gx.reshape(h, w, c),)

        return _emit(Tensor._wrap(out_arr), (fmap,), bwd_avg)

    out = Tensor._wrap(out_arr)
    if not _recording():
        return out
    # the first maximal element of each window, in the fold's order
    first = np.empty((ho, s, wo, s, c), dtype=bool)
    unclaimed = np.ones((ho, wo, c), dtype=bool)
    for i in range(s):
        for j in range(s):
            hit = np.equal(blocks[:, i, :, j], out_arr)
            hit &= unclaimed
            unclaimed ^= hit
            first[:, i, :, j] = hit

    def bwd_max(g):
        gx = np.multiply(g[:, None, :, None], first)
        gx += 0  # a negative g times False gives -0.0; make it +0.0
        return (gx.reshape(h, w, c),)

    return _emit(out, (fmap,), bwd_max)


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
# rawtensor v1 file format
# ---------------------------------------------------------------------------


def write_rawtensor(path, tensor: Tensor):
    """One JSON header line, then the row-major little-endian payload."""
    header = {
        "v": 1,
        "dtype": _DTYPE_TO_NAME[tensor.dtype],
        "shape": list(tensor.shape),
    }
    payload = np.ascontiguousarray(tensor.data, dtype=tensor.data.dtype.newbyteorder("<"))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def json_shape(value, what: str) -> tuple:
    """A shape read from JSON: a list of 1-3 integer extents >= 1.  JSON
    reals, booleans and strings are not extents (ConfigurationError)."""
    if (not isinstance(value, list) or not 1 <= len(value) <= 3
            or not all(type(n) is int and n >= 1 for n in value)):
        raise ConfigurationError(f"{what} must be 1-3 integer extents >= 1, got {value!r}")
    return tuple(value)


def read_rawtensor(path) -> Tensor:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"bad rawtensor header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigurationError(f"rawtensor header in {path} is not a JSON object")
    if header.get("v") != 1:
        raise ConfigurationError(f"unsupported rawtensor version {header.get('v')!r}")
    dt_name = header.get("dtype")
    if not isinstance(dt_name, str) or dt_name not in _NAME_TO_DTYPE:
        raise ConfigurationError(f"unknown rawtensor dtype {dt_name!r}")
    shape = json_shape(header.get("shape"), "rawtensor shape")
    dt = np.dtype(_NAME_TO_DTYPE[dt_name]).newbyteorder("<")
    expected = math.prod(shape) * dt.itemsize
    if len(blob) != expected:
        raise ConfigurationError(
            f"rawtensor payload is {len(blob)} bytes, expected {expected}"
        )
    arr = np.frombuffer(blob, dtype=dt).reshape(shape)
    return Tensor._wrap(np.ascontiguousarray(arr, dtype=_NAME_TO_DTYPE[dt_name]))


def dtype_name(dtype) -> str:
    return _DTYPE_TO_NAME[np.dtype(dtype)]


def dtype_from_name(name: str):
    try:
        return _NAME_TO_DTYPE[name]
    except KeyError:
        raise ConfigurationError(f"unknown dtype name {name!r}") from None
