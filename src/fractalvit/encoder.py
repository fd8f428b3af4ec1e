"""Desk-scale ViT encoder: patch embedding, token assembly, pre-norm
masked multi-head attention blocks with optional distance biases, and a
classification head read from the global token.

There is one forward path, over a stacked batch of images; ``forward`` is
that path on a batch of one. It is a fold over ``forward_stages``: embed,
then per layer an attention sublayer (LN, the q, k and v projections, one
fused ``Tape.attention`` that lays out and runs all heads, the output
projection, the residual add) and an MLP sublayer, then the head. Each
stage is bound to the parameter tensors its ``reads`` names and gets no
params, so it reads no other tensor. The mask (a bool array) and the
ALiBi biases enter the attention as one additive table built with the
params; the params hold all three read-only.

Everything runs in float64 through the tape engine; a forward pass on a
non-recording tape is plain inference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError, ContractError, ShapeError
from .grid import GridSpec, TokenLayout, build_layout
from .mask import build_fractal_mask, build_full_mask
from .posenc import alibi2d_bias, assemble_posenc, check_scheme_policy, check_tau
from .rng import Rng, check_seed, substream_seed

CHECKPOINT_MAGIC = b"FVIT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Model hyperparameters plus the positional/mask configuration."""

    grid: GridSpec
    d: int
    n_heads: int
    n_layers: int
    n_classes: int
    patch_size: int
    mlp_ratio: int = 4
    scheme: str = "sincos2d"
    policy: str = "summary"
    mask: str = "fractal"
    seed: int = 0
    tau: float = 10000.0

    def __post_init__(self):
        check_scheme_policy(self.scheme, self.policy, self.d)
        check_tau(self.tau)
        if self.mask not in ("full", "fractal"):
            raise ConfigError(f"mask must be 'full' or 'fractal', got {self.mask!r}")
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d < 2:
            raise ConfigError(f"d must be >= 2 for layer norm, got {self.d}")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} must be a multiple of n_heads={self.n_heads}")
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        check_seed(self.seed, "seed")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (
            self.grid.n_h * self.patch_size,
            self.grid.n_w * self.patch_size,
            3,
        )


class EncoderParams:
    """Named parameter tensors plus the fixed tables derived from a config.

    ``attn_bias`` is derived once from the mask and the ALiBi table, so the
    params keep read-only copies of both and mark ``attn_bias`` read-only;
    a new mask or ALiBi table needs a new EncoderParams.
    """

    def __init__(self, config: EncoderConfig, layout: TokenLayout,
                 mask: np.ndarray, tensors: dict[str, Tensor],
                 pos_trainable_rows: np.ndarray, alibi: np.ndarray | None):
        self.config = config
        self.layout = layout
        self._mask = np.array(mask, dtype=bool)
        self.tensors = tensors  # insertion order is the canonical order
        self.pos_trainable_rows = pos_trainable_rows
        self._alibi = None if alibi is None else np.array(alibi)
        # the additive attention table: ALiBi (or 0) on allowed pairs, -inf
        # on excluded ones; (n_heads, n, n) with ALiBi, else (n, n)
        self.attn_bias = np.where(self._mask, 0.0 if alibi is None else self._alibi,
                                  -np.inf)
        for table in (self._mask, self._alibi, self.attn_bias):
            if table is not None:
                table.flags.writeable = False

    @property
    def mask(self) -> np.ndarray:
        """(n, n) bool attention mask; true means attention is allowed."""
        return self._mask

    @property
    def alibi(self) -> np.ndarray | None:
        """(n_heads, n, n) ALiBi distance biases, or None."""
        return self._alibi

    def trainable_items(self):
        """Yield (name, tensor, row_mask) for every trainable tensor.

        ``row_mask`` is None except for a partially trainable position
        table, where it flags the rows the optimizer may touch.
        """
        for name, tensor in self.tensors.items():
            if name == "posenc":
                if self.pos_trainable_rows.any():
                    mask = None if self.pos_trainable_rows.all() \
                        else self.pos_trainable_rows
                    yield name, tensor, mask
            else:
                yield name, tensor, None

    def zero_grads(self) -> None:
        for tensor in self.tensors.values():
            tensor.zero_grad()


def check_params_config(config: EncoderConfig, params: EncoderParams) -> None:
    """Raise ``ContractError`` unless ``params`` were built for ``config``,
    naming each field that differs."""
    if config != params.config:
        theirs = vars(params.config)
        differ = [f"{name} {value!r} != {theirs[name]!r}"
                  for name, value in vars(config).items() if value != theirs[name]]
        raise ContractError("config differs from params.config: " + ", ".join(differ))


def init_params(config: EncoderConfig) -> EncoderParams:
    """Build layout, mask, position table, and freshly initialized weights.

    Projection weights are truncated normal (cut at 2 std) with std
    1/sqrt(fan_in), fan_in being the weight's second dimension. All of
    them come from one draw of unit truncated normals on substream 0 of
    the seed, sliced in canonical tensor order (patch_w, then wq, wk, wv,
    wo, mlp_w1, mlp_w2 per layer) and scaled per weight; this gives the
    same bits as one draw per weight at its own std. Biases,
    the classifier weight, the summary tokens, and the global token start
    at zero; layer-norm gains start at one. Fan-in scaling keeps the
    projections near unit gain at any width: a fixed std of 0.02 at d=32
    stalls the positional-encoding-free (scheme "none") recipes.
    """
    layout = build_layout(config.grid)
    mask = (
        build_fractal_mask(layout)
        if config.mask == "fractal"
        else build_full_mask(layout.total)
    )
    table = assemble_posenc(
        config.scheme, layout, config.d,
        seed=substream_seed(config.seed, 1),
        policy=config.policy, tau=config.tau,
    )
    alibi = None
    if config.scheme == "alibi2d":
        alibi = alibi2d_bias(
            layout, config.n_heads, regular_only=config.policy != "summary"
        )

    d, r = config.d, config.mlp_ratio
    tensors: dict[str, Tensor | None] = {}
    weights: list[tuple[str, tuple[int, int]]] = []  # drawn together below

    def weight(name, shape):
        tensors[name] = None  # holds the tensor's place in the order
        weights.append((name, shape))

    def zeros(name, shape):
        tensors[name] = Tensor(np.zeros(shape))

    def ones(name, shape):
        tensors[name] = Tensor(np.ones(shape))

    weight("patch_w", (d, 3 * config.patch_size ** 2))
    zeros("patch_b", (d,))
    for i in range(config.n_layers):
        p = f"layer{i}."
        ones(p + "ln1_gain", (d,))
        zeros(p + "ln1_shift", (d,))
        weight(p + "wq", (d, d))
        weight(p + "wk", (d, d))
        weight(p + "wv", (d, d))
        weight(p + "wo", (d, d))
        ones(p + "ln2_gain", (d,))
        zeros(p + "ln2_shift", (d,))
        weight(p + "mlp_w1", (r * d, d))
        zeros(p + "mlp_b1", (r * d,))
        weight(p + "mlp_w2", (d, r * d))
        zeros(p + "mlp_b2", (d,))
    if layout.n_additional > 0:
        zeros("summary_init", (layout.n_additional, d))
    zeros("global_token", (1, d))
    ones("final_gain", (d,))
    zeros("final_shift", (d,))
    zeros("head_w", (config.n_classes, d))
    zeros("head_b", (config.n_classes,))
    tensors["posenc"] = Tensor(table.vectors)

    sizes = [math.prod(shape) for _, shape in weights]
    draw = Rng(substream_seed(config.seed, 0)).truncated_normal_array(
        (sum(sizes),), std=1.0
    )
    for (name, shape), z in zip(weights, np.split(draw, np.cumsum(sizes)[:-1])):
        std = 1.0 / math.sqrt(shape[1])
        tensors[name] = Tensor((z * std).reshape(shape))

    return EncoderParams(config, layout, mask, tensors, table.trainable, alibi)


class Stage(NamedTuple):
    """One step of the forward: ``run(x, tape)`` maps the stage's input to
    its output. ``forward_stages`` binds ``run`` to the tensors named in
    ``reads`` and to the fixed values its body needs, so a stage cannot
    read any other tensor."""

    reads: tuple[str, ...]
    run: Callable[[Tensor, Tape], Tensor]


def patch_rows(images, config: EncoderConfig) -> Tensor:
    """The first stage's input: every image (H, W, 3) cut into its
    patches, row-major, each flattened in (row, col, channel) order, and
    stacked as (b * n_regular, 3 * patch_size**2) rows."""
    for image in images:
        if np.shape(image) != config.image_shape:
            raise ConfigError(
                f"image shape {np.shape(image)} does not match configured "
                f"{config.image_shape}"
            )
    n_h, n_w, ps = config.grid.n_h, config.grid.n_w, config.patch_size
    stacked = np.asarray(images, dtype=np.float64).reshape(-1, n_h, ps, n_w, ps, 3)
    return Tensor(stacked.transpose(0, 1, 3, 2, 4, 5).reshape(-1, 3 * ps * ps))


def _embed(patches: Tensor, tape: Tape, n_reg: int, patch_w: Tensor,
           patch_b: Tensor, posenc: Tensor, *appended: Tensor) -> Tensor:
    """Patch rows -> stacked (b*n, d) sequences [regular patches |
    ``appended``], each plus the position table. ``appended`` is the
    summary inits, if the layout has any, then the global token."""
    b = patches.data.shape[0] // n_reg
    tokens = tape.linear(patches, patch_w, patch_b)
    parts = []
    for i in range(b):
        parts.append(tape.slice_rows(tokens, i * n_reg, (i + 1) * n_reg))
        parts.extend(appended)
    seq = tape.concat(parts)
    return tape.add(seq, tape.concat([posenc] * b) if b > 1 else posenc)


def _attention_sublayer(x: Tensor, tape: Tape, attn_bias: np.ndarray,
                        n_heads: int, ln_gain: Tensor, ln_shift: Tensor,
                        wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """x + Wo MHA(LN(x)), x being (b*n, d). All heads run in one
    ``Tape.attention`` under the additive table ``attn_bias``."""
    ln = tape.layer_norm(x, ln_gain, ln_shift)
    q, k, v = (tape.linear(ln, w) for w in (wq, wk, wv))
    attn = tape.attention(q, k, v, attn_bias, n_heads)
    return tape.add(x, tape.linear(attn, wo))


def _mlp_sublayer(x: Tensor, tape: Tape, ln_gain: Tensor, ln_shift: Tensor,
                  w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """x + MLP(LN(x))."""
    h2 = tape.layer_norm(x, ln_gain, ln_shift)
    m = tape.gelu(tape.linear(h2, w1, b1))
    return tape.add(x, tape.linear(m, w2, b2))


def _head(x: Tensor, tape: Tape, total: int, final_gain: Tensor,
          final_shift: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Final LN, then the class logits (b, n_classes) read from each
    sequence's global token, the last of its ``total``."""
    b = x.data.shape[0] // total
    x = tape.layer_norm(x, final_gain, final_shift)
    pooled = tape.gather_rows(x, [(i + 1) * total - 1 for i in range(b)])
    return tape.linear(pooled, head_w, head_b)


def forward_stages(params: EncoderParams) -> list[Stage]:
    """The forward as an ordered list of stages: embed; per layer an
    attention sublayer and an MLP sublayer, each up to its residual add;
    then the head. Each parameter tensor is read by exactly one stage, so
    changing it leaves the input of that stage and of every earlier one
    as it was. A stage holds the tensor objects of ``params.tensors``:
    it sees values written into them in place, not tensors bound anew."""
    layout = params.layout

    def stage(body, reads, *fixed) -> Stage:
        tensors = [params.tensors[name] for name in reads]
        return Stage(reads, lambda x, tape: body(x, tape, *fixed, *tensors))

    embed = ("patch_w", "patch_b", "posenc", "summary_init", "global_token")
    stages = [stage(_embed, tuple(n for n in embed if n in params.tensors),
                    layout.n_regular)]
    for layer in range(params.config.n_layers):
        p = f"layer{layer}."
        stages.append(stage(
            _attention_sublayer,
            tuple(p + w for w in ("ln1_gain", "ln1_shift", "wq", "wk", "wv", "wo")),
            params.attn_bias, params.config.n_heads,
        ))
        stages.append(stage(
            _mlp_sublayer,
            tuple(p + w for w in ("ln2_gain", "ln2_shift", "mlp_w1", "mlp_b1",
                                  "mlp_w2", "mlp_b2")),
        ))
    stages.append(stage(_head, ("final_gain", "final_shift", "head_w", "head_b"),
                        layout.total))
    return stages


def run_stages(stages, x: Tensor, tape: Tape) -> Tensor:
    """Fold ``x`` through ``stages`` in order."""
    for stage in stages:
        x = stage.run(x, tape)
    return x


def forward(image: np.ndarray, config: EncoderConfig,
            params: EncoderParams) -> Tensor:
    """Class logits (n_classes,) of one image: ``forward_batch`` on a
    batch of one, without recording."""
    tape = Tape(recording=False)
    logits = forward_batch([image], config, params, tape)
    return tape.reshape(logits, (config.n_classes,))


def forward_batch(images, config: EncoderConfig, params: EncoderParams,
                  tape: Tape | None = None) -> Tensor:
    """Class logits (B, n_classes) for a batch of images: the fold of
    their patch rows over ``forward_stages``.

    Each image's sequence is [regular patches | summary inits | global]
    plus the position table; the sequences are stacked and every layer
    runs on the stack. ``params.config`` must equal ``config``.
    """
    if tape is None:
        tape = Tape(recording=False)
    if len(images) < 1:
        raise ContractError("forward_batch needs at least one image")
    check_params_config(config, params)
    return run_stages(forward_stages(params), patch_rows(images, config), tape)


def batch_loss(images, labels, config: EncoderConfig, params: EncoderParams,
               tape: Tape, *, logits_out: list | None = None) -> Tensor:
    """Mean cross-entropy over a batch, via the stacked forward. With
    ``logits_out`` the forward's (B, n_classes) logit array is appended to
    it, so a caller that also needs the logits runs no second forward."""
    logits = forward_batch(images, config, params, tape)
    if logits_out is not None:
        logits_out.append(logits.data)
    return tape.softmax_cross_entropy_rows(logits, labels)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def save_checkpoint(path: str, params: EncoderParams) -> None:
    """Binary format: magic "FVIT", version u32 LE, then one record per
    tensor: name length u32, name bytes, rank u32, dims u32[], float64
    data little-endian row-major. Tensors appear in canonical order."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, tensor in params.tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            dims = tensor.data.shape
            fh.write(struct.pack("<I", len(dims)))
            fh.write(struct.pack(f"<{len(dims)}I", *dims))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint back into name -> array, in file order.

    A file that is not a checkpoint, or that ends inside a record, raises
    ``ContractError``. The format stores no tensor count, so a file cut
    exactly between two records reads as a checkpoint with fewer
    tensors; ``apply_checkpoint`` rejects it by name.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ContractError(f"{path} is not a checkpoint (bad magic)")
    pos = 4

    def take(size: int, what: str) -> int:
        """Offset of the next ``size`` bytes, which must be in the file."""
        nonlocal pos
        if len(blob) - pos < size:
            raise ContractError(
                f"{path} is truncated: {what} at byte {pos} needs {size} "
                f"bytes, {len(blob) - pos} left"
            )
        pos += size
        return pos - size

    (version,) = struct.unpack_from("<I", blob, take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    state: dict[str, np.ndarray] = {}
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "name length"))
        start = take(name_len, "tensor name")
        try:
            name = blob[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ContractError(f"{path}: tensor name at byte {start} is not UTF-8") from None
        (rank,) = struct.unpack_from("<I", blob, take(4, f"rank of {name}"))
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"dims of {name}"))
        count = math.prod(dims)
        data = np.frombuffer(blob, dtype="<f8", count=count,
                             offset=take(8 * count, f"data of {name}"))
        state[name] = data.reshape(dims).astype(np.float64)
    return state


def apply_checkpoint(params: EncoderParams, state: dict[str, np.ndarray]) -> None:
    """Load saved arrays into the params, validating names and shapes."""
    missing = set(params.tensors) - set(state)
    extra = set(state) - set(params.tensors)
    if missing or extra:
        raise ShapeError(
            f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    for name, array in state.items():
        tensor = params.tensors[name]
        if array.shape != tensor.data.shape:
            raise ShapeError(
                f"checkpoint tensor {name}: shape {array.shape} vs "
                f"expected {tensor.data.shape}"
            )
        tensor.data[...] = array
