"""Dual-branch cross-attention feature fusion at desk scale."""

from .tensor_core import (
    ConfigurationError,
    DimensionError,
    GradRecord,
    MultiplyCounter,
    Tape,
    TapeStateError,
    Tensor,
    backward,
    count_multiplies,
    read_rawtensor,
    record_on,
    write_rawtensor,
)
from .token_codec import detokenize, tokenize
from .sfs import shrink_conv, shrink_pool
from .cfe import cfe_forward, cross_attention
from .icfe import icfe_forward
from .dmff import (
    DmffConfig,
    DmffWeights,
    FusionOutput,
    ParamSpec,
    assemble,
    dmff_fuse,
    init_dmff_weights,
    nin_fuse,
    param_spec,
    replace_parameters,
)
from .complexity_audit import CostExpr, attention_cost, ffn_cost, param_count
from .synth import SyntheticPairSpec, gen_synthetic_pair
from .train import TrainConfig, TrainResult, cosine_lr, train_toy
from .gradcheck import GradCheckReport, grad_check
from .weights_io import load_weights, save_weights

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
