"""Spatial feature shrinking: compress HxWxC maps before attention.

Two variants.  The mixed-pooling variant blends average and max pooling
with a learnable weight ``lambda = sigmoid(lambda_raw)`` so the blend
stays in (0, 1) for any raw value; the blend is one tape op,
``tensor_core.sigmoid_blend``.  The convolution variant folds each
s x s x C block into channels and compresses back to C with a 1x1
projection.  Both divide the token count by s**2.  ``shrink_spec``
declares either variant's learnables and their init rules; the shrink
functions take them as a leaf -> Tensor mapping with those names.
"""

from __future__ import annotations

import numpy as np

from . import tensor_core as tc
from .tensor_core import DimensionError, ParamSpec, Tensor


def shrink_spec(variant: str, s: int, channels: int) -> dict:
    """One branch's shrink learnables, name -> ParamSpec: for pool the raw
    blend at 0 (lambda halfway between average and max), never decayed; for
    conv the projection uniform in +-1/sqrt(s*s*C) and a zero bias."""
    if variant == "pool":
        return {"lambda_raw": ParamSpec((1,), decay=False)}
    fan_in = s * s * channels
    return {"w": ParamSpec((fan_in, channels), 1.0 / np.sqrt(fan_in)),
            "b": ParamSpec((channels,))}


def shrink_pool(fmap: Tensor, s: int, p) -> Tensor:
    """lambda * avg_pool + (1 - lambda) * max_pool over s x s windows,
    lambda = sigmoid(p["lambda_raw"])."""
    avg = tc.pool2d(fmap, s, "avg")
    mx = tc.pool2d(fmap, s, "max")
    return tc.sigmoid_blend(p["lambda_raw"], avg, mx)


def shrink_conv(fmap: Tensor, s: int, p) -> Tensor:
    """Fold s x s x C blocks into channels, then project back to C by
    p["w"] ((s*s*C) x C) and p["b"] (C)."""
    if fmap.data.ndim != 3:
        raise DimensionError(f"feature map must be rank 3, got {fmap.shape}")
    h, w, c = fmap.shape
    expected = (s * s * c, c)
    if p["w"].shape != expected:
        raise DimensionError(
            f"shrink weight shape {p['w'].shape} does not match required {expected}"
        )
    folded = tc.space_to_channel(fmap, s)  # raises ConfigurationError on divisibility
    ho, wo = h // s, w // s
    flat = tc.reshape(folded, (ho * wo, s * s * c))
    with tc.op_stage("shrink"):
        projected = tc.matmul(flat, p["w"])
    return tc.reshape(tc.add(projected, p["b"]), (ho, wo, c))


def shrink(fmap: Tensor, s: int, p) -> Tensor:
    """The variant whose learnables `p` holds: pool for a ``lambda_raw``
    blend, else conv."""
    return (shrink_pool if "lambda_raw" in p else shrink_conv)(fmap, s, p)
