"""Toy datasets, the training loop, permutation probes, and gradient checks.

The two tasks are deliberately tiny and noise-free so the symmetry caps
are exact: marked-patch (classify which patch differs from the
background) and same-block-pair (do two marked patches share a level-1
block). Evaluation sets are deterministic enumerations, not samples.
``TASKS`` maps each task name to its class count, sampler and
enumeration; the CLI and ``default_eval_set`` read tasks only from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tape, Tensor
from .encoder import (
    EncoderConfig,
    EncoderParams,
    batch_loss,
    check_params_config,
    forward,  # noqa: F401 - not called here; fvbench's tracer test wraps harness.forward
    forward_batch,
    forward_stages,
    init_params,
    patch_rows,
    run_stages,
)
from .errors import ConfigError
from .grid import GridSpec, TokenLayout, build_layout, max_levels
from .rng import Rng, check_seed, substream_seed

BACKGROUND = 0.25
MARK = 0.9

PERM_KINDS = ("any", "within-block", "block", "cross-block-transposition")


@dataclass
class ToyDataset:
    samples: list  # (image, label) pairs
    task: str      # a key of TASKS
    seed: int
    n_classes: int
    grid: GridSpec
    patch_size: int

    def __len__(self) -> int:
        return len(self.samples)


def _task_image(grid: GridSpec, patch_size: int, positions) -> np.ndarray:
    """Background image with the patches at ``positions`` (row-major patch
    indices) marked."""
    image = np.full((grid.n_h * patch_size, grid.n_w * patch_size, 3), BACKGROUND)
    for pos in positions:
        i, j = divmod(pos, grid.n_w)
        image[i * patch_size:(i + 1) * patch_size,
              j * patch_size:(j + 1) * patch_size] = MARK
    return image


def gen_marked_patch(grid: GridSpec, patch_size: int, count: int,
                     seed: int) -> ToyDataset:
    """Uniform background with exactly one marked patch; the label is the
    patch's row-major index."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    check_seed(seed, "data_seed")
    n = grid.n_h * grid.n_w
    rng = Rng(seed)
    positions = [rng.below(n) for _ in range(count)]
    samples = [(_task_image(grid, patch_size, (pos,)), pos) for pos in positions]
    return ToyDataset(samples, "marked", seed, n, grid, patch_size)


def enumerate_marked_patch_eval(grid: GridSpec, patch_size: int) -> ToyDataset:
    """Every marker position once, in order; the exact-cap eval set."""
    n = grid.n_h * grid.n_w
    samples = [(_task_image(grid, patch_size, (pos,)), pos) for pos in range(n)]
    return ToyDataset(samples, "marked", 0, n, grid, patch_size)


def _block_parents(grid: GridSpec) -> tuple:
    """Each patch's level-1 block: its parent token in the grid's layout
    with one summary level, or None for a patch outside the
    floor-truncated level-1 grid. Raises ``ConfigError`` unless the grid
    has both pair labels: a block, and a patch outside it."""
    one_level = min(1, max_levels(grid.n_h, grid.n_w, grid.k))
    layout = build_layout(replace(grid, levels=one_level))
    if not (layout.levels and layout.n_regular > grid.k ** 2):
        raise ConfigError(
            f"{grid.n_h}x{grid.n_w} grid with k={grid.k} cannot produce both "
            "pair labels"
        )
    return layout.parent[:layout.n_regular]


def _same_block(parents, p: int, q: int) -> int:
    return int(parents[p] is not None and parents[p] == parents[q])


def _pair_universe(grid: GridSpec):
    """Every pair (p < q) of distinct patches, split into same-block and
    cross-block pairs; a grid without both kinds raises ``ConfigError``."""
    parents = _block_parents(grid)
    same, cross = [], []
    for p in range(len(parents)):
        for q in range(p + 1, len(parents)):
            (same if _same_block(parents, p, q) else cross).append((p, q))
    return same, cross


def gen_same_block_pair(grid: GridSpec, patch_size: int, count: int,
                        seed: int) -> ToyDataset:
    """Two distinct marked patches; label 1 iff they share a level-1 block.

    The sampler alternates target labels, so class counts differ by at
    most one.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    check_seed(seed, "data_seed")
    parents = _block_parents(grid)
    n = len(parents)
    rng = Rng(seed)
    samples = []
    for idx in range(count):
        target = idx % 2
        while True:
            p = rng.below(n)
            q = rng.below(n)
            if p != q and _same_block(parents, p, q) == target:
                break
        samples.append((_task_image(grid, patch_size, (p, q)), target))
    return ToyDataset(samples, "pair", seed, 2, grid, patch_size)


def enumerate_same_block_pair_eval(grid: GridSpec,
                                   patch_size: int) -> ToyDataset:
    """Balanced deterministic eval set: every same-block pair plus an
    evenly strided selection of cross-block pairs (or vice versa when
    cross pairs are the scarcer class)."""
    same, cross = _pair_universe(grid)
    m = min(len(same), len(cross))

    def strided(pairs, label):
        return [(_task_image(grid, patch_size, pairs[(i * len(pairs)) // m]), label)
                for i in range(m)]

    return ToyDataset(strided(same, 1) + strided(cross, 0), "pair", 0, 2,
                      grid, patch_size)


class Task(NamedTuple):
    """One toy task: its class count on a grid, its seeded sampler
    ``sample(grid, patch_size, count, seed)`` and its deterministic eval
    enumeration ``enumerate(grid, patch_size)``."""

    n_classes: Callable[[GridSpec], int]
    sample: Callable[[GridSpec, int, int, int], ToyDataset]
    enumerate: Callable[[GridSpec, int], ToyDataset]


TASKS = {
    "marked": Task(lambda grid: grid.n_h * grid.n_w, gen_marked_patch,
                   enumerate_marked_patch_eval),
    "pair": Task(lambda grid: 2, gen_same_block_pair,
                 enumerate_same_block_pair_eval),
}


def task_named(name: str) -> Task:
    """The ``TASKS`` entry of ``name``; any other name is a ``ConfigError``."""
    if name not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {name!r}")
    return TASKS[name]


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

@dataclass
class TrainReport:
    config_echo: dict = field(default_factory=dict)
    losses: list = field(default_factory=list)
    train_accs: list = field(default_factory=list)
    eval_accs: list = field(default_factory=list)
    final_eval_acc: float = 0.0
    diverged: bool = False

    def to_text(self) -> str:
        lines = [f"{key} = {value}" for key, value in self.config_echo.items()]
        lines.append(f"diverged = {int(self.diverged)}")
        for e, (lo, ta, ea) in enumerate(
            zip(self.losses, self.train_accs, self.eval_accs)
        ):
            lines.append(
                f"epoch {e}: loss={lo!r} train_acc={ta!r} eval_acc={ea!r}"
            )
        lines.append(f"final_eval_acc = {self.final_eval_acc!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["epoch,loss,train_acc,eval_acc"]
        for e, (lo, ta, ea) in enumerate(
            zip(self.losses, self.train_accs, self.eval_accs)
        ):
            lines.append(f"{e},{lo!r},{ta!r},{ea!r}")
        return "\n".join(lines) + "\n"


def config_echo(config: EncoderConfig) -> dict:
    return {
        "grid": f"{config.grid.n_h}x{config.grid.n_w}",
        "k": str(config.grid.k),
        "levels": str(config.grid.levels),
        "dim": str(config.d),
        "heads": str(config.n_heads),
        "layers": str(config.n_layers),
        "mlp_ratio": str(config.mlp_ratio),
        "classes": str(config.n_classes),
        "patch": str(config.patch_size),
        "scheme": config.scheme,
        "policy": config.policy,
        "mask": config.mask,
        "seed": str(config.seed),
        "tau": repr(config.tau),
    }


# Images per evaluation forward. It bounds the activations of a chunk; the
# attention scores are bounded per block by Tape.attention. The value
# stays because OpenBLAS's gemm result depends on the row count M: logits
# of a batch of 8 or fewer differ in the last bit from those of 12 or
# more, so another chunk size would change evaluated bits. Such small
# row counts occur in the head and, since the last layer runs on the
# global rows only, in its q and output projections and its MLP: they
# all multiply b rows, one per image. ``train``'s
# logit reuse depends on it too: only a training set of at most
# EVAL_CHUNK images is evaluated in one forward of the same row count as
# its full-batch training step. The probes stack whole forwards without
# that cost: a ``Tape`` with ``copies`` runs one gemm per forward, which
# gives each forward its own bits (see the ``autodiff`` docstring).
EVAL_CHUNK = 64

# Most bytes of stacked stage input one probe forward takes: gradcheck's
# perturbed copies and permutation_test's base and permuted sequences run
# through a copies tape in chunks of this size, so memory does not grow
# with the entry or trial count. A chunk holds at least one entry or trial.
PROBE_STACK_BYTES = 1 << 16


def _per_chunk(item_bytes: int) -> int:
    """Entries or trials of ``item_bytes`` stacked input each per chunk."""
    return max(1, PROBE_STACK_BYTES // item_bytes)


def _hits(logits: np.ndarray, labels) -> float:
    """Rows whose first maximal logit is at their label; NaN when a logit
    is not finite, since an overflowed row has no meaningful maximum."""
    if not np.isfinite(logits).all():
        return math.nan
    return int((np.argmax(logits, axis=1) == labels).sum())


def evaluate(config: EncoderConfig, params: EncoderParams,
             dataset: ToyDataset) -> float:
    """Accuracy of ``params`` on ``dataset``: the share of samples whose
    first maximal logit is at their label, or NaN if any logit is not
    finite. The samples run in dataset order through ``forward_batch`` on
    a non-recording tape, in chunks of ``EVAL_CHUNK`` images."""
    hits = 0
    samples = dataset.samples
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start:start + EVAL_CHUNK]
        logits = forward_batch([img for img, _ in chunk], config, params).data
        hits += _hits(logits, [label for _, label in chunk])
    return hits / len(samples)


def default_eval_set(config: EncoderConfig, dataset: ToyDataset) -> ToyDataset:
    """The enumeration of the dataset's task on the dataset's grid."""
    return task_named(dataset.task).enumerate(dataset.grid, dataset.patch_size)


def _check_against_config(config: EncoderConfig, data: ToyDataset,
                          what: str) -> None:
    if not data.samples:
        raise ConfigError(f"{what} is empty")
    if data.n_classes != config.n_classes:
        raise ConfigError(
            f"{what} has {data.n_classes} classes, config expects "
            f"{config.n_classes}"
        )
    for image, _ in data.samples:
        if image.shape != config.image_shape:
            raise ConfigError(
                f"{what} images {image.shape} do not match "
                f"config images {config.image_shape}"
            )


def _same_samples(a: ToyDataset, b: ToyDataset) -> bool:
    """True when two datasets hold equal (image, label) samples in the
    same order, so ``evaluate`` gives both the same accuracy."""
    return a is b or (
        len(a) == len(b)
        and all(
            label_a == label_b and np.array_equal(image_a, image_b)
            for (image_a, label_a), (image_b, label_b)
            in zip(a.samples, b.samples)
        )
    )


def train(config: EncoderConfig, dataset: ToyDataset, epochs: int, lr: float,
          batch: int, *, params: EncoderParams | None = None,
          eval_set: ToyDataset | None = None) -> TrainReport:
    """Mini-batch gradient descent with cosine decay and gradient clipping
    at global norm 1. Deterministic given the config and dataset seeds.

    Without ``eval_set`` the task's deterministic enumeration is the eval
    set. Both sets and ``params`` are checked against the config before
    the first step. An eval set holding the training samples, by identity
    or by content, is evaluated once per epoch, and that one accuracy is
    recorded as both the train and the eval accuracy.

    A full-batch run (``batch >= n`` and ``n <= EVAL_CHUNK``) evaluates
    the training set only once. Its single step per epoch forwards all n
    training images, shuffled, with the parameters the previous epoch
    left, before it updates them; a row-permuted batch of n images gives
    bit-identical logit rows, so step e+1's hits are epoch e's train
    accuracy. The records are put together after the step loop; only an
    epoch no step scores, the last, calls ``evaluate`` on the training
    set. A distinct eval set is still evaluated every epoch.
    """
    _check_against_config(config, dataset, "dataset")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if not math.isfinite(lr):
        raise ConfigError(f"lr must be a finite number, got {lr!r}")
    if params is None:
        params = init_params(config)
    check_params_config(config, params)
    if eval_set is None:
        eval_set = default_eval_set(config, dataset)
    _check_against_config(config, eval_set, "eval_set")
    eval_is_train = _same_samples(dataset, eval_set)

    report = TrainReport(config_echo=config_echo(config))
    report.config_echo.update(
        task=dataset.task, data_seed=str(dataset.seed), count=str(len(dataset)),
        epochs=str(epochs), lr=repr(lr), batch=str(batch),
    )

    shuffle_rng = Rng(
        substream_seed(config.seed, 2) ^ substream_seed(dataset.seed, 3)
    )
    n = len(dataset.samples)
    steps_per_epoch = (n + batch - 1) // batch
    total_steps = epochs * steps_per_epoch
    trainables = list(params.trainable_items())
    step = 0
    full_batch = batch >= n and n <= EVAL_CHUNK
    step_accs = []  # full batch: each step's hits score the previous epoch

    # an overflow shows as a non-finite loss, gradient norm or accuracy,
    # and each of those is reported as divergence, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = list(range(n))
            shuffle_rng.shuffle(order)
            batch_losses = []
            for start in range(0, n, batch):
                chunk = order[start:start + batch]
                labels = [dataset.samples[idx][1] for idx in chunk]
                tape = Tape()
                logits = []
                objective = batch_loss(
                    [dataset.samples[idx][0] for idx in chunk], labels,
                    config, params, tape, logits_out=logits,
                )
                if full_batch:
                    step_accs.append(_hits(logits[0], labels) / n)
                value = float(objective.data)
                if not math.isfinite(value):
                    report.diverged = True
                    break
                batch_losses.append(value)
                tape.backward(objective)

                sq_norm = 0.0
                grads = []
                for _, tensor, row_mask in trainables:
                    g = tensor.grad if row_mask is None \
                        else tensor.grad * row_mask[:, None]
                    grads.append(g)
                    sq_norm += float((g * g).sum())
                if not math.isfinite(sq_norm):
                    # exploded gradients freeze under clipping; call it divergence
                    report.diverged = True
                    break
                clip = 1.0 if sq_norm <= 1.0 else 1.0 / math.sqrt(sq_norm)
                lr_t = lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
                for (_, tensor, _), g in zip(trainables, grads):
                    tensor.data -= (lr_t * clip) * g
                params.zero_grads()
                step += 1
            if batch_losses:
                report.losses.append(sum(batch_losses) / len(batch_losses))
                if not full_batch:
                    report.train_accs.append(evaluate(config, params, dataset))
                if not eval_is_train:
                    report.eval_accs.append(evaluate(config, params, eval_set))
            if report.diverged:
                break
        if full_batch:
            # the last recorded epoch has no later step to score it
            if len(step_accs) == len(report.losses):
                step_accs.append(evaluate(config, params, dataset))
            report.train_accs = step_accs[1:]
        if eval_is_train:
            report.eval_accs = list(report.train_accs)

        report.final_eval_acc = (
            report.eval_accs[-1] if report.eval_accs
            else evaluate(config, params, eval_set)
        )
    report.diverged = report.diverged or any(
        math.isnan(acc)
        for acc in report.train_accs + report.eval_accs + [report.final_eval_acc]
    )
    return report


# ----------------------------------------------------------------------
# symmetry probes
# ----------------------------------------------------------------------

def randomize_params(params: EncoderParams, rng: Rng) -> None:
    """Overwrite every trainable tensor with generic random values: normal
    draws of std 0.2.

    One ``normal_array`` call draws every value, sliced per tensor in
    ``trainable_items`` order, so the draws and the state ``rng`` is left
    in equal those of one call per tensor. A partially trainable position
    table takes a slice of its full shape; its non-trainable rows are
    drawn and then dropped.

    Layer-norm gains get 1 + noise so no feature direction collapses.
    The symmetry and gradient probes need this because the standard init
    zeroes the classifier head, which pins all logits to zero.
    """
    items = list(params.trainable_items())
    sizes = [tensor.data.size for _, tensor, _ in items]
    draws = np.split(rng.normal_array((sum(sizes),), std=0.2),
                     np.cumsum(sizes)[:-1])
    for (name, tensor, row_mask), draw in zip(items, draws):
        draw = draw.reshape(tensor.data.shape)
        if name.endswith("gain"):
            draw = 1.0 + draw
        if row_mask is None:
            tensor.data[...] = draw
        else:
            tensor.data[row_mask] = draw[row_mask]


def _by_parent(layout: TokenLayout, level: int) -> dict:
    """Cells of one level grouped by their parent token (None for cells
    without one), in token order."""
    off = layout.offsets[level]
    groups: dict = {}
    for cell in range(layout.counts[level]):
        groups.setdefault(layout.parent[off + cell], []).append(cell)
    return groups


def _shuffle_among(perm: list, members, rng: Rng) -> None:
    """Point ``perm``'s entries at ``members`` to a shuffle of ``members``."""
    shuffled = list(members)
    rng.shuffle(shuffled)
    for dst, src in zip(members, shuffled):
        perm[dst] = src


def sample_permutation(layout: TokenLayout, kind: str, rng: Rng) -> list[int]:
    """One trial's permutation of all ``layout.total`` tokens, mapping
    dest -> source.

    Regular tokens follow the patch permutation the kind samples. For
    ``block``, which relabels whole level-1 blocks, each level-1 summary
    token follows its block's cell. Every other token stays put.
    """
    if kind not in PERM_KINDS:
        raise ConfigError(f"kind must be one of {PERM_KINDS}, got {kind!r}")
    perm = list(range(layout.total))
    n_reg = layout.n_regular
    if kind == "any":
        _shuffle_among(perm, range(n_reg), rng)
        return perm

    if layout.levels < 1:
        raise ConfigError(f"perm kind {kind!r} needs at least one summary level")
    # patch indices of each level-1 block, row-major
    children = _by_parent(layout, 0)
    off1 = layout.offsets[1]
    blocks = [children[off1 + cell] for cell in range(layout.counts[1])]

    if kind == "within-block":
        for members in blocks:
            _shuffle_among(perm, members, rng)
        return perm

    if kind == "block":
        # Shuffle level-1 cells within their level-2 parent (the cells
        # without one form one more group); children move with their cell,
        # keeping the same within-block offset.
        cell_perm = list(range(len(blocks)))
        for members in _by_parent(layout, 1).values():
            _shuffle_among(cell_perm, members, rng)
        for dst_cell, src_cell in enumerate(cell_perm):
            perm[off1 + dst_cell] = off1 + src_cell
            for offset, dst_flat in enumerate(blocks[dst_cell]):
                perm[dst_flat] = blocks[src_cell][offset]
        return perm

    # cross-block-transposition
    if len(blocks) < 2:
        raise ConfigError("cross-block transposition needs >= 2 blocks")
    cells = [(idx, pos) for idx, members in enumerate(blocks) for pos in members]
    while True:
        a = cells[rng.below(len(cells))]
        b = cells[rng.below(len(cells))]
        if a[0] != b[0]:
            break
    perm[a[1]], perm[b[1]] = b[1], a[1]
    return perm


def permutation_test(config: EncoderConfig, params: EncoderParams, kind: str,
                     trials: int, seed: int) -> float:
    """Max over trials of |logits(image) - logits(permuted image)|, with
    random images and ``params`` (typically randomized) built for ``config``;
    NaN when a deviation is NaN, as on a model whose logits overflow.

    Both images run through one ``forward_stages`` list, and the permuted
    image is never built: summaries move in the sequence, patches in the
    image. The embed stage runs on the image's ``patch_rows`` reordered by
    the regular part of the token permutation; the rest of the
    permutation then reorders the summary and global rows of its output.
    A level-1 summary row is its ``summary_init`` row plus its position
    row, and only the embed stage is bound to either tensor, so moving
    the row equals relabeling both in the params.

    Each trial draws its image, then its permutation, and embeds both
    sequences; the later stages then run once per chunk of trials, on a
    ``Tape`` with one copy per sequence, so every logit has the bits of a
    forward of its image alone. A chunk holds at most
    ``PROBE_STACK_BYTES`` of embedded sequences."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    check_params_config(config, params)
    rng = Rng(seed)
    stages = forward_stages(params)
    layout = params.layout
    n_reg = layout.n_regular
    notape = Tape(recording=False)
    per_chunk = _per_chunk(2 * 8 * layout.total * config.d)  # 2 float64 sequences
    worst = 0.0
    for done in range(0, trials, per_chunk):
        seqs = []
        for _ in range(min(per_chunk, trials - done)):
            image = rng.uniform_array(config.image_shape)
            perm = sample_permutation(layout, kind, rng)
            rows = patch_rows([image], config)
            moved = stages[0].run(Tensor(rows.data[perm[:n_reg]]), notape)
            moved.data[n_reg:] = moved.data[perm[n_reg:]]
            seqs += [stages[0].run(rows, notape).data, moved.data]
        tape = Tape(recording=False, copies=len(seqs))
        logits = run_stages(stages[1:], Tensor(np.concatenate(seqs)), tape).data
        # np.maximum, unlike max(), keeps a NaN deviation
        worst = np.maximum(worst, np.abs(logits[0::2] - logits[1::2]).max())
    return float(worst)


# ----------------------------------------------------------------------
# gradient checking
# ----------------------------------------------------------------------

def gradcheck(config: EncoderConfig, eps: float = 1e-5, batch_size: int = 1,
              seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    of ``batch_loss``, the objective training runs, over every trainable
    parameter entry, on one random batch.

    The forward runs once and keeps each stage's input. The differences
    then go by chunks of entries: the first stage that reads the perturbed
    tensor runs once per step, +eps and -eps for each entry, and the later
    stages and the loss run once per chunk, on a ``Tape`` with one copy
    per step. The earlier stages do not read the tensor, and each copy
    has the bits of its own run, so every loss is bit for bit the one
    ``batch_loss`` gives. A chunk holds at most ``PROBE_STACK_BYTES`` of
    first-stage outputs.

    Relative error uses a 1e-6 denominator floor so finite-difference
    noise on near-zero gradients does not register as disagreement. A
    relative error that is not finite makes the result not finite. A step
    that leaves an entry unchanged, or that makes the loss overflow,
    raises ``ConfigError`` naming the first such entry.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps must be a positive finite step, got {eps!r}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    params = init_params(config)
    rng = Rng(substream_seed(seed, 7))
    randomize_params(params, rng)
    batch = [
        (rng.uniform_array(config.image_shape), rng.below(config.n_classes))
        for _ in range(batch_size)
    ]
    images = [image for image, _ in batch]
    labels = [label for _, label in batch]

    tape = Tape()
    tape.backward(batch_loss(images, labels, config, params, tape))

    notape = Tape(recording=False)
    stages = forward_stages(params)
    acts = [patch_rows(images, config)]  # each stage's input, then the logits
    for stage in stages:
        acts.append(stage.run(acts[-1], notape))
    first = {name: i for i, stage in enumerate(stages) for name in stage.reads}

    rel_errors = []
    for name, tensor, row_mask in params.trainable_items():
        flat = tensor.data.reshape(-1)
        indices = np.arange(flat.size) if row_mask is None \
            else np.flatnonzero(np.repeat(row_mask, tensor.data.shape[1]))
        i = first[name]

        def entry(idx: int) -> str:
            where = np.unravel_index(idx, tensor.data.shape)
            return f"{name}[{', '.join(map(str, where))}]"

        def losses(steps) -> np.ndarray | None:
            """The loss after each (index, value) step, or None when a step
            makes a stage overflow or the loss not finite."""
            outs = []
            try:
                for idx, value in steps:
                    saved = flat[idx]
                    flat[idx] = value
                    try:
                        outs.append(stages[i].run(acts[i], notape).data)
                    finally:
                        flat[idx] = saved
                stacked = Tape(recording=False, copies=len(outs))
                logits = run_stages(stages[i + 1:], Tensor(np.concatenate(outs)),
                                    stacked)
                loss = stacked.softmax_cross_entropy_rows(logits,
                                                          labels * len(outs)).data
            except FloatingPointError:
                return None
            return loss if np.isfinite(loss).all() else None

        values = flat[indices]
        unmoved = (values + eps == values) | (values - eps == values)
        if unmoved.any():
            raise ConfigError(f"eps {eps!r} is too small: "
                              f"{entry(indices[unmoved.argmax()])} does not move by it")
        per_chunk = _per_chunk(2 * acts[i + 1].data.nbytes)
        fd = np.empty(indices.size)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for lo in range(0, indices.size, per_chunk):
                steps = [(idx, value) for idx in indices[lo:lo + per_chunk].tolist()
                         for value in (flat[idx] + eps, flat[idx] - eps)]
                loss = losses(steps)
                if loss is None:
                    # a set of steps fails exactly when one of them fails
                    # on its own, so the first such step is the culprit
                    bad = next(idx for idx, value in steps
                               if losses([(idx, value)]) is None)
                    raise ConfigError(
                        f"eps {eps!r} is too large: the loss is not finite when "
                        f"{entry(bad)} moves by it"
                    )
                fd[lo:lo + len(steps) // 2] = (loss[0::2] - loss[1::2]) / (2.0 * eps)
        a = tensor.grad.reshape(-1)[indices]
        rel_errors.append(
            np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        )
    # np.max, unlike max(), keeps a NaN
    return float(np.concatenate(rel_errors).max())
