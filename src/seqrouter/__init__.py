"""Copy-gated transformer encoders with geometric attention, plus the
algorithmic tasks and tooling to study how they route information."""

from .attention import (AttentionConfig, GeometricAttentionParams, MhaParams, Mode,
                        RelAttentionParams, attend, geometric_ordering, geometric_weights)
from .autodiff import DimensionError, Init, Parameter, Tape, TapeError, Tensor, grad_check
from .config import RunConfig, default_config, load_config
from .layers import ACTConfig, act_halting, act_readout, act_schedule, encoder_step
from .model import EncoderModel, ModelConfig, depth_heuristic, loss
from .optim import OptimizerState, adamw_step, clip_gradients
from .rng import RngTree

__version__ = "0.1.0"
