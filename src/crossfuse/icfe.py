"""Iterative refinement of the dual enhancement pair.

One block is two enhancement modules, one per branch, each querying the
opposite branch.  Iterating passes the same block parameters to every
pass, so the parameter count is independent of the iteration count;
passing one leaf -> Tensor mapping for both directions shares it between
them too, and the tape then sums every use into that one set.  The
stacked baseline chains independently parameterized blocks, laid out by
``stacked_spec`` (parameters grow linearly with depth).  Each branch is
a plain T x C token tensor.

Updates are synchronous by default: both branches of iteration k read the
pair produced by iteration k-1.  The sequential alternative (thermal sees
the already-updated rgb stream) is available behind a flag.
"""

from __future__ import annotations

from .cfe import PARAM_NAMES, cfe_forward, cfe_spec
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


def _dual_step(t_r: Tensor, t_t: Tensor, p_r, p_t, heads: int, sequential: bool):
    new_r = cfe_forward(t_r, t_t, p_r, heads)
    return new_r, cfe_forward(t_t, new_r if sequential else t_r, p_t, heads)


def icfe_forward(t_r: Tensor, t_t: Tensor, p_r, p_t, heads: int, iterations: int,
                 sequential: bool = False):
    """Apply the dual pair `iterations` times with the same parameters.

    `p_r` enhances the rgb branch (queries from thermal), `p_t` the thermal
    branch; the same mapping for both shares one set between the
    directions.  Zero iterations return the inputs untouched.
    """
    for _ in range(iterations):
        t_r, t_t = _dual_step(t_r, t_t, p_r, p_t, heads, sequential)
    return t_r, t_t


def stacked_forward(t_r: Tensor, t_t: Tensor, p, heads: int, sequential: bool = False):
    """Apply each block of a ``stacked_spec`` mapping once, in order."""
    blocks = len(p) // (2 * len(PARAM_NAMES))
    if not blocks:
        raise ConfigurationError("stacked_forward needs at least one block")
    for i in range(blocks):
        block_r, block_t = ({leaf: p[f"block{i}.cfe_{branch}.{leaf}"] for leaf in PARAM_NAMES}
                            for branch in "rt")
        t_r, t_t = _dual_step(t_r, t_t, block_r, block_t, heads, sequential)
    return t_r, t_t
