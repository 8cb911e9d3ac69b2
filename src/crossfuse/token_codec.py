"""Feature-map <-> token-matrix conversion.

A token is the channel vector of one spatial position; flattening is
row-major, so token ``i`` of an HxWxC map is pixel ``(i // W, i % W)``.
Tokens are a plain (H*W) x C tensor: the stages between ``tokenize`` and
``detokenize`` never read the grid, so the caller that flattened a map
passes its extents back to ``detokenize``.  An optional learnable
per-token table is added at tokenize time to inject spatial position into
the otherwise order-free attention stage; ``pe_spec`` declares it and its
init rule, and ``tokenize`` takes the table itself.
"""

from __future__ import annotations

from . import tensor_core as tc
from .tensor_core import DimensionError, ParamSpec, Tensor


def pe_spec(tokens: int, channels: int) -> dict:
    """The positional table, name -> ParamSpec: uniform in +-0.02, never decayed."""
    return {"table": ParamSpec((tokens, channels), 0.02, decay=False)}


def tokenize(fmap: Tensor, table: Tensor | None = None) -> Tensor:
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
    return tokens


def detokenize(tokens: Tensor, h: int, w: int) -> Tensor:
    """The h x w x C map that `tokens` were flattened from (the inverse of
    tokenize without the embedding)."""
    return tc.reshape(tokens, (h, w, tokens.shape[-1]))
