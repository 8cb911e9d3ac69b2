"""Iterative refinement of the dual enhancement pair.

One block is two enhancement modules, one per branch, each querying the
opposite branch: a ``(p_r, p_t)`` pair of leaf -> Tensor mappings.  A
refinement applies a list of blocks in order.  Weight sharing is one
block object listed k times, so the parameter count is independent of the
iteration count; passing one mapping for both directions shares it
between them too, and the tape then sums every use into that one set.
The stacked baseline is k distinct blocks, whose learnables
``stacked_spec`` lays out (parameters grow linearly with depth).  A
``None`` mapping skips that direction, whose branch then only supplies
queries.  Each branch is a plain T x C token tensor.

Updates are synchronous by default: both branches of block k read the
pair produced by block k-1.  The sequential alternative (thermal sees the
already-updated rgb stream) is available behind a flag.
"""

from __future__ import annotations

from .cfe import cfe_forward, cfe_spec
from .tensor_core import ConfigurationError, Tensor


def stacked_spec(channels: int, ffn_hidden: int, blocks: int) -> dict:
    """The stacked baseline's learnables, name -> ParamSpec in draw order:
    one ``cfe_spec`` set under ``block{i}.cfe_r.`` and one under
    ``block{i}.cfe_t.`` per block."""
    if blocks < 1:
        raise ConfigurationError(f"stack needs at least one block, got {blocks}")
    cfe = cfe_spec(channels, ffn_hidden)
    return {f"block{i}.cfe_{branch}.{leaf}": p
            for i in range(blocks) for branch in "rt" for leaf, p in cfe.items()}


def icfe_forward(t_r: Tensor, t_t: Tensor, blocks, heads: int, sequential: bool = False):
    """Apply each ``(p_r, p_t)`` block of `blocks` once, in order.

    `p_r` enhances the rgb branch (queries from thermal), `p_t` the thermal
    branch; the same mapping for both shares one set between the
    directions, and the same block listed k times shares it between the
    iterations.  A ``None`` mapping skips its direction and an empty list
    every block; a skipped branch comes back as the same tensor object.
    """
    for p_r, p_t in blocks:
        new_r = t_r if p_r is None else cfe_forward(t_r, t_t, p_r, heads)
        if p_t is not None:
            t_t = cfe_forward(t_t, new_r if sequential else t_r, p_t, heads)
        t_r = new_r
    return t_r, t_t
