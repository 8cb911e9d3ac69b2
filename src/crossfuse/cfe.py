"""Cross-modal feature enhancement: one direction of the dual
cross-attention pair.

Queries come from the auxiliary modality, keys and values from the
modality being enhanced.  The attention result is reprojected, blended
with the input through learnable scalar coefficients, and refined by a
two-layer feed-forward network:

    z  = multi_head_attention(q=aux, k=v=target)
    t' = alpha * (z @ w_o) + beta * target
    out = gamma * t' + delta * ffn(t')

The target is the only key/value source, and z does not depend on the
order of its rows; the attention returns z alone, never its probabilities.
Tokens in and out are plain T x C tensors; this module never needs the
spatial grid they were flattened from.

All four coefficients start at 1.  ``cfe_spec`` declares the twelve
learnables and their init rules once, for every prefix they are laid out
under; the functions here take them as one leaf -> Tensor mapping with
those names, and the head count beside it.  Heads slice the channel axis
into contiguous blocks.  One call records eight tape steps: three
projections, the attention op, the output projection, the two residuals
(``scaled_sum``) and the FFN (``feed_forward``), all from ``tensor_core``.
"""

from __future__ import annotations

import math

from . import tensor_core as tc
from .tensor_core import ParamSpec, Tensor

COEFFICIENTS = (1.0, 1.0, 1.0, 1.0)  # initial alpha, beta, gamma, delta


def cfe_spec(channels: int, ffn_hidden: int) -> dict:
    """The learnables of one enhancement set, name -> ParamSpec in
    ``PARAM_NAMES`` order: projection and FFN weights uniform in
    +-1/sqrt(C), biases zero, coefficients ``COEFFICIENTS``, never decayed."""
    bound = 1.0 / math.sqrt(channels)
    proj = ParamSpec((channels, channels), bound)
    alpha, beta, gamma, delta = (ParamSpec((1,), fill=x, decay=False) for x in COEFFICIENTS)
    return dict(w_q=proj, w_k=proj, w_v=proj, w_o=proj,
                ffn_w1=ParamSpec((channels, ffn_hidden), bound), ffn_b1=ParamSpec((ffn_hidden,)),
                ffn_w2=ParamSpec((ffn_hidden, channels), bound), ffn_b2=ParamSpec((channels,)),
                alpha=alpha, beta=beta, gamma=gamma, delta=delta)


# the leaf names of one set, in spec order; the extents do not change them
PARAM_NAMES = tuple(cfe_spec(1, 1))


def cross_attention(q_tokens: Tensor, kv_tokens: Tensor, p, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention across two T x C token
    matrices: queries from `q_tokens`, keys and values from `kv_tokens`.

    Returns the concatenated head outputs (T_q x C), before the output
    projection.  Token channels that differ from the projections' raise
    DimensionError (from ``matmul``).
    """
    with tc.op_stage("proj"):
        q = tc.matmul(q_tokens, p["w_q"])
        k = tc.matmul(kv_tokens, p["w_k"])
        v = tc.matmul(kv_tokens, p["w_v"])
    return tc.multi_head_attention(q, k, v, heads)


def ffn(x: Tensor, p) -> Tensor:
    """Two fully-connected layers with a rectifier between them: one tape op."""
    with tc.op_stage("ffn"):
        return tc.feed_forward(x, p["ffn_w1"], p["ffn_b1"], p["ffn_w2"], p["ffn_b2"])


def cfe_forward(t_target: Tensor, t_aux: Tensor, p, heads: int) -> Tensor:
    """Enhance `t_target` with information queried from `t_aux`: the target
    supplies the attention's keys and values and the residual path."""
    z = cross_attention(t_aux, t_target, p, heads)
    with tc.op_stage("proj"):
        z_proj = tc.matmul(z, p["w_o"])
    t_prime = tc.scaled_sum(p["alpha"], z_proj, p["beta"], t_target)
    return tc.scaled_sum(p["gamma"], t_prime, p["delta"], ffn(t_prime, p))
