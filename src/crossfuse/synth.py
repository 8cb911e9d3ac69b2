"""Seeded synthetic feature-map pairs for the toy harness.

Each scene is a sum of Gaussian blobs with per-channel intensity
profiles.  A blob is visible in one branch only (with probability
`complementarity`) or in both; the reconstruction target is the
elementwise maximum of the pair, so it is only recoverable by actually
combining the two branches.  A map holds at most ``MAX_MAP_ELEMENTS``
elements and a scene at most ``MAX_BLOB_COUNT`` blobs (ConfigurationError
past either).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .tensor_core import ConfigurationError, Tensor

# 16 x the largest benchmark map (64x64x64): a scene past it is a corrupt config
MAX_MAP_ELEMENTS = 2**22
# 50 x the default count; each blob costs a pass over the map
MAX_BLOB_COUNT = 256


@dataclass(frozen=True)
class SyntheticPairSpec:
    h: int = 8
    w: int = 8
    c: int = 16
    blob_count: int = 5
    seed: int = 0
    complementarity: float = 0.5

    def __post_init__(self):
        if self.h < 1 or self.w < 1 or self.c < 1:
            raise ConfigurationError(
                f"extents must be >= 1, got {self.h}x{self.w}x{self.c}"
            )
        if self.h * self.w * self.c > MAX_MAP_ELEMENTS:
            raise ConfigurationError(
                f"a {self.h}x{self.w}x{self.c} map has more than {MAX_MAP_ELEMENTS} elements"
            )
        if not 0.0 <= self.complementarity <= 1.0:
            raise ConfigurationError(
                f"complementarity must be in [0, 1], got {self.complementarity}"
            )
        if not 0 <= self.blob_count <= MAX_BLOB_COUNT:
            raise ConfigurationError(
                f"blob_count must be in [0, {MAX_BLOB_COUNT}], got {self.blob_count}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def gen_synthetic_pair(spec: SyntheticPairSpec, dtype=tc.STANDARD):
    """Returns (rgb map, thermal map, target map), all HxWxC.

    Deterministic per seed: the generator stream is consumed identically
    regardless of how blobs land.
    """
    rng = np.random.default_rng(spec.seed)
    yy, xx = np.mgrid[0 : spec.h, 0 : spec.w].astype(np.float64)
    f_r = np.zeros((spec.h, spec.w, spec.c), dtype=np.float64)
    f_t = np.zeros_like(f_r)
    for _ in range(spec.blob_count):
        cy = rng.uniform(0, spec.h)
        cx = rng.uniform(0, spec.w)
        sigma = rng.uniform(0.8, max(spec.h, spec.w) / 4.0)
        amplitude = rng.uniform(0.5, 1.5)
        profile = rng.uniform(0.0, 1.0, size=spec.c)
        exclusive = rng.random() < spec.complementarity
        rgb_side = rng.random() < 0.5
        bump = amplitude * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        blob = bump[:, :, None] * profile[None, None, :]
        if not exclusive or rgb_side:
            f_r += blob
        if not exclusive or not rgb_side:
            f_t += blob
    target = np.maximum(f_r, f_t)
    return (
        Tensor(f_r, dtype=dtype),
        Tensor(f_t, dtype=dtype),
        Tensor(target, dtype=dtype),
    )
