"""Desk-scale laboratory for fractal attention masks, summary-token
hierarchies, and positional encodings in a tiny ViT encoder."""

from .autodiff import Tape, Tensor
from .encoder import (
    EncoderConfig,
    EncoderParams,
    apply_checkpoint,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .grid import GridSpec, TokenLayout, build_layout, max_levels
from .mask import build_fractal_mask, build_full_mask
from .posenc import PosTable, alibi2d_bias, alibi_slopes, sincos2d

__version__ = "0.1.0"

__all__ = [
    "EncoderConfig",
    "EncoderParams",
    "GridSpec",
    "PosTable",
    "Tape",
    "Tensor",
    "TokenLayout",
    "alibi2d_bias",
    "alibi_slopes",
    "apply_checkpoint",
    "build_fractal_mask",
    "build_full_mask",
    "build_layout",
    "forward",
    "init_params",
    "load_checkpoint",
    "max_levels",
    "save_checkpoint",
    "sincos2d",
]
