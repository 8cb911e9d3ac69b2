"""Cross-modal feature enhancement: one direction of the dual
cross-attention pair.

Queries come from the auxiliary modality, keys and values from the
modality being enhanced.  The attention result is reprojected, blended
with the input through learnable scalar coefficients, and refined by a
two-layer feed-forward network:

    z  = multi_head_attention(q=aux, k=v=target)
    t' = alpha * (z @ w_o) + beta * target
    out = gamma * t' + delta * ffn(t')

All four coefficients start at 1.  ``cfe_spec`` declares the twelve
learnables and their init rules once, for every prefix they are laid out
under.  Heads slice the channel axis into
contiguous blocks; scores are scaled by 1/sqrt(C / heads), folded into the
queries.  After the three projections the whole multi-head attention is
one tape op, ``tensor_core.multi_head_attention``, with a hand-written
adjoint.  It exponentiates the scores without the row-max shift whenever
the Cauchy-Schwarz bound max|q|*max|k|/sqrt(C / heads) proves that exp
cannot overflow, and takes the softmax row sums from a ones column
appended to V, so the only pass over the T_q x T_k scores besides the two
products is one base-2 exponential (log2(e) is folded into the queries).
The scores are computed in cache-sized blocks of whole heads or query-row
tiles, the same blocks whether or not a tape records.  A taped call keeps
only its one block buffer of scores: its adjoint recomputes the other
blocks, so training holds one score block per attention call however many
iterations share the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .tensor_core import ConfigurationError, DimensionError, ParamSpec, Tensor
from .token_codec import TokenSeq

PARAM_NAMES = ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
               "alpha", "beta", "gamma", "delta")
COEFFICIENTS = (1.0, 1.0, 1.0, 1.0)  # initial alpha, beta, gamma, delta


@dataclass
class CfeParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    alpha: Tensor
    beta: Tensor
    gamma: Tensor
    delta: Tensor
    heads: int = 8

    def __post_init__(self):
        c = self.w_q.shape[0]
        if c % self.heads:
            raise ConfigurationError(
                f"channel width {c} not divisible by {self.heads} heads"
            )

    @property
    def channels(self) -> int:
        return self.w_q.shape[0]

    @property
    def ffn_hidden(self) -> int:
        return self.ffn_w1.shape[1]

    def named_tensors(self, prefix: str = ""):
        for name in PARAM_NAMES:
            yield prefix + name, getattr(self, name)


def cfe_spec(channels: int, ffn_hidden: int, coefficients=COEFFICIENTS) -> dict:
    """The learnables of one enhancement set, name -> ParamSpec in
    ``PARAM_NAMES`` order: projection and FFN weights uniform in
    +-1/sqrt(C), biases zero, residual coefficients filled."""
    bound = 1.0 / math.sqrt(channels)
    proj = ParamSpec((channels, channels), bound)
    alpha, beta, gamma, delta = (ParamSpec((1,), fill=x) for x in coefficients)
    return dict(w_q=proj, w_k=proj, w_v=proj, w_o=proj,
                ffn_w1=ParamSpec((channels, ffn_hidden), bound), ffn_b1=ParamSpec((ffn_hidden,)),
                ffn_w2=ParamSpec((ffn_hidden, channels), bound), ffn_b2=ParamSpec((channels,)),
                alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def init_cfe_params(channels: int, ffn_hidden: int, heads: int,
                    rng: np.random.Generator, dtype=tc.STANDARD,
                    coefficients=COEFFICIENTS) -> CfeParams:
    """One enhancement set drawn from ``cfe_spec``."""
    spec = cfe_spec(channels, ffn_hidden, coefficients)
    return CfeParams(**tc.init_tensors(spec, rng, dtype), heads=heads)


def cross_attention(q_tokens: TokenSeq, kv_tokens: TokenSeq, p: CfeParams,
                    return_weights: bool = False):
    """Multi-head scaled dot-product attention across two token sequences.

    Returns the concatenated head outputs (T_q x C), before the output
    projection.  With ``return_weights`` also returns the per-head
    attention probability matrices.
    """
    if q_tokens.channels != kv_tokens.channels:
        raise DimensionError(
            f"channel widths differ: queries {q_tokens.tokens.shape} vs "
            f"keys/values {kv_tokens.tokens.shape}"
        )
    c = q_tokens.channels
    if c != p.channels:
        raise DimensionError(
            f"token channels {c} do not match parameter channels {p.channels}"
        )
    with tc.op_stage("proj"):
        q = tc.matmul(q_tokens.tokens, p.w_q)
        k = tc.matmul(kv_tokens.tokens, p.w_k)
        v = tc.matmul(kv_tokens.tokens, p.w_v)
    return tc.multi_head_attention(q, k, v, p.heads, return_weights=return_weights)


def ffn(x: Tensor, p: CfeParams) -> Tensor:
    """Two fully-connected layers with a rectifier between them."""
    with tc.op_stage("ffn"):
        hidden = tc.matmul(x, p.ffn_w1)
    hidden = tc.relu(tc.add(hidden, p.ffn_b1))
    with tc.op_stage("ffn"):
        out = tc.matmul(hidden, p.ffn_w2)
    return tc.add(out, p.ffn_b2)


def cfe_forward(t_target: TokenSeq, t_aux: TokenSeq, p: CfeParams,
                attention_kv: TokenSeq | None = None) -> TokenSeq:
    """Enhance `t_target` with information queried from `t_aux`.

    `attention_kv` overrides the key/value source (defaults to the target
    itself); the residual path always keeps the target's own row order.
    """
    kv = t_target if attention_kv is None else attention_kv
    z = cross_attention(t_aux, kv, p)
    with tc.op_stage("proj"):
        z_proj = tc.matmul(z, p.w_o)
    attended = tc.scalar_mul(p.alpha, z_proj)
    t_prime = tc.add(attended, tc.scalar_mul(p.beta, t_target.tokens))
    out = tc.add(tc.scalar_mul(p.gamma, t_prime), tc.scalar_mul(p.delta, ffn(t_prime, p)))
    return TokenSeq(out, t_target.origin_h, t_target.origin_w)
