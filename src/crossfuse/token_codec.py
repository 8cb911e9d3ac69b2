"""Feature-map <-> token-sequence conversion.

A token is the channel vector of one spatial position; flattening is
row-major, so token ``i`` of an HxWxC map is pixel ``(i // W, i % W)``.
An optional learnable per-token table is added at tokenize time to
inject spatial position into the otherwise order-free attention stage;
``pe_spec`` declares it and its init rule, and ``tokenize`` takes the
table itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor_core as tc
from .tensor_core import DimensionError, ParamSpec, Tensor


@dataclass
class TokenSeq:
    """T x C token matrix plus the spatial extents it was flattened from."""

    tokens: Tensor
    origin_h: int
    origin_w: int

    def __post_init__(self):
        if self.tokens.data.ndim != 2:
            raise DimensionError(f"tokens must be rank 2, got {self.tokens.shape}")
        if self.tokens.shape[0] != self.origin_h * self.origin_w:
            raise DimensionError(
                f"token count {self.tokens.shape[0]} != "
                f"{self.origin_h}x{self.origin_w} origin extents"
            )

    @property
    def count(self) -> int:
        return self.tokens.shape[0]

    @property
    def channels(self) -> int:
        return self.tokens.shape[1]


def pe_spec(tokens: int, channels: int) -> dict:
    """The positional table, name -> ParamSpec: uniform in +-0.02."""
    return {"table": ParamSpec((tokens, channels), 0.02)}


def tokenize(fmap: Tensor, table: Tensor | None = None) -> TokenSeq:
    """Flatten an HxWxC map to HW x C tokens, adding the positional
    `table` if given."""
    if fmap.data.ndim != 3:
        raise DimensionError(f"feature map must be rank 3, got {fmap.shape}")
    h, w, c = fmap.shape
    tokens = tc.reshape(fmap, (h * w, c))
    if table is not None:
        if table.shape != tokens.shape:
            raise DimensionError(
                f"positional embedding shape {table.shape} does not match "
                f"token shape {tokens.shape}"
            )
        tokens = tc.add(tokens, table)
    return TokenSeq(tokens, h, w)


def detokenize(seq: TokenSeq) -> Tensor:
    """Inverse of tokenize without the embedding."""
    return tc.reshape(seq.tokens, (seq.origin_h, seq.origin_w, seq.channels))
