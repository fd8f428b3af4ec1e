"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), then runs identical rounds: timed task calls followed by a timed
inference call, each timed by the runner's ``Clock``. ``check`` runs once,
after the rounds and outside any timed region, on the outputs of the last
round.

Library functions are called through their modules (``harness.train``,
``encoder.init_params``) so that the traced run sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fractalvit import encoder, harness
from fractalvit.autodiff import Tape, Tensor
from fractalvit.encoder import EncoderConfig, EncoderParams
from fractalvit.grid import GridSpec
from fractalvit.rng import Rng, substream_seed

import checks

FD_EPS = 1e-5          # harness.gradcheck's default step
FD_BATCH = 2           # images in the central-difference batch
FD_RANDOM_ENTRIES = 1  # seeded entries per tensor group, besides the largest
PATCH = 4              # patch size of every workload's model


@dataclass
class RoundResult:
    ops: int             # operations attempted
    epochs: int = 0      # training epochs run
    trials: int = 0      # permutation trials run
    failures: list[str] = field(default_factory=list)
    outcome: tuple = ()  # compared bit for bit across rounds


def _group_of(name: str) -> str:
    """Tensor group of a parameter name, for the central-difference check."""
    if name.startswith("layer"):
        part = name.split(".", 1)[1]
        if part in ("wq", "wk", "wv", "wo"):
            return "attention"
        return "mlp" if part.startswith("mlp") else "norm"
    if name.startswith("final"):
        return "norm"
    if name in ("summary_init", "global_token"):
        return "tokens"
    return name.split("_", 1)[0]  # patch, head, posenc


def central_difference_entries(config: EncoderConfig, params: EncoderParams,
                               images, labels, rng: Rng):
    """(label, analytic, central difference) for the largest-gradient entry
    and ``FD_RANDOM_ENTRIES`` seeded entries of each tensor group, on the
    batch path training runs (``batch_loss``)."""
    tape = Tape()
    tape.backward(encoder.batch_loss(images, labels, config, params, tape))
    groups: dict[str, list] = {}
    for name, tensor, row_mask in params.trainable_items():
        grad = tensor.grad if tensor.grad is not None \
            else np.zeros_like(tensor.data)
        allowed = np.ones(tensor.data.shape, dtype=bool)
        if row_mask is not None:
            allowed &= row_mask[:, None]
        groups.setdefault(_group_of(name), []).append(
            (name, tensor, np.flatnonzero(allowed), grad.reshape(-1).copy())
        )
    params.zero_grads()

    notape = Tape(recording=False)

    def objective() -> float:
        return float(
            encoder.batch_loss(images, labels, config, params, notape).data
        )

    entries = []
    for group, members in groups.items():
        best = max(
            ((name, tensor, int(idx[np.argmax(np.abs(grad[idx]))]), grad)
             for name, tensor, idx, grad in members),
            key=lambda m: abs(m[3][m[2]]),
        )
        picks = [best]
        for _ in range(FD_RANDOM_ENTRIES):
            r = rng.below(sum(len(idx) for _, _, idx, _ in members))
            for name, tensor, idx, grad in members:
                if r < len(idx):
                    picks.append((name, tensor, int(idx[r]), grad))
                    break
                r -= len(idx)
        for name, tensor, idx, grad in picks:
            flat = tensor.data.reshape(-1)
            saved = flat[idx]
            flat[idx] = saved + FD_EPS
            plus = objective()
            flat[idx] = saved - FD_EPS
            minus = objective()
            flat[idx] = saved
            entries.append((f"{group}:{name}[{idx}]", float(grad[idx]),
                            (plus - minus) / (2.0 * FD_EPS)))
    return entries


def model_checks(config: EncoderConfig, params: EncoderParams,
                 initial: EncoderParams, fd_images, fd_labels,
                 eval_images, eval_labels, accuracy: float,
                 rng: Rng) -> list[str]:
    """The checks every workload makes on one model.

    ``params`` is the model after the last round and ``accuracy`` what
    ``harness.evaluate`` returned for it on (eval_images, eval_labels);
    ``initial`` is the same model at its initial values.
    """
    notape = Tape(recording=False)
    init_loss = float(encoder.batch_loss(
        fd_images, fd_labels, config, initial, notape).data)
    failures = checks.check_init_loss(init_loss, config.n_classes)

    batch = encoder.forward_batch(eval_images, config, params).data
    single = np.stack(
        [encoder.forward(img, config, params).data for img in eval_images]
    )
    failures += checks.check_batch_matches_single(batch, single)
    failures += checks.check_accuracy(accuracy, single, eval_labels)
    failures += checks.check_central_difference(
        central_difference_entries(config, params, fd_images, fd_labels, rng)
    )
    return failures


def _copy_params(params: EncoderParams, data: dict) -> EncoderParams:
    return EncoderParams(
        params.config, params.layout, params.mask,
        {name: Tensor(array) for name, array in data.items()},
        params.pos_trainable_rows, params.alibi,
    )


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MarkedWorkload:
    """``harness.train`` on the marked-patch task, then ``harness.evaluate``.

    Every round trains from the same initial parameters, so every round
    does the same work and ends with the same numbers.
    """

    name: str
    reference: str  # the clock.REFERENCES entry closest to its cost mix
    grid: GridSpec
    d: int
    heads: int
    layers: int
    scheme: str
    epochs: int
    lr: float
    batch: int
    train_count: int | None  # None: the position enumeration
    eval_count: int | None   # None: train's default eval set
    eval_calls: int          # evaluate calls per round, timed together
    min_eval_acc: float | None = None

    def setup(self, seed: int) -> dict:
        n = self.grid.n_h * self.grid.n_w
        config = EncoderConfig(
            grid=self.grid, d=self.d, n_heads=self.heads,
            n_layers=self.layers, n_classes=n, patch_size=PATCH,
            scheme=self.scheme, policy="summary", mask="fractal", seed=seed,
        )
        params = encoder.init_params(config)
        if self.train_count is None:
            dataset = harness.enumerate_marked_patch_eval(self.grid, PATCH)
        else:
            dataset = harness.gen_marked_patch(
                self.grid, PATCH, self.train_count,
                substream_seed(seed, 11),
            )
        if self.eval_count is None:
            train_eval = None
            eval_set = harness.default_eval_set(config, dataset)
        else:
            train_eval = eval_set = harness.gen_marked_patch(
                self.grid, PATCH, self.eval_count,
                substream_seed(seed, 12),
            )
        return {
            "seed": seed, "config": config, "params": params,
            "init": {k: t.data.copy() for k, t in params.tensors.items()},
            "dataset": dataset, "train_eval": train_eval, "eval_set": eval_set,
        }

    def run_round(self, state: dict, clock) -> RoundResult:
        config, params = state["config"], state["params"]
        for name, data in state["init"].items():
            params.tensors[name].data[...] = data
        params.zero_grads()
        dataset, eval_set = state["dataset"], state["eval_set"]

        with clock.timing("task") as segment:
            report = harness.train(
                config, dataset, epochs=self.epochs, lr=self.lr,
                batch=self.batch, params=params, eval_set=state["train_eval"],
            )
        segment.items = len(report.losses) * len(dataset)
        with clock.timing("infer") as segment:
            accuracies = [harness.evaluate(config, params, eval_set)
                          for _ in range(self.eval_calls)]
        segment.items = self.eval_calls * len(eval_set)
        accuracy = accuracies[0]

        state["accuracy"] = accuracy
        steps = self.epochs * -(-len(dataset) // self.batch)
        failures = checks.check_training(
            report.losses, report.diverged, report.eval_accs, self.min_eval_acc,
        )
        return RoundResult(
            ops=steps + self.eval_calls,
            epochs=len(report.losses),
            failures=failures,
            outcome=(tuple(report.losses), tuple(report.eval_accs),
                     tuple(accuracies)),
        )

    def check(self, state: dict) -> list[str]:
        config, params = state["config"], state["params"]
        samples = state["dataset"].samples
        images = [img for img, _ in samples]
        labels = [label for _, label in samples]
        trained_loss = float(encoder.batch_loss(
            images, labels, config, params, Tape(recording=False)).data)
        eval_samples = state["eval_set"].samples
        return checks.check_trained_loss(trained_loss, config.n_classes) + model_checks(
            config, params, _copy_params(params, state["init"]),
            images[:FD_BATCH], labels[:FD_BATCH],
            [img for img, _ in eval_samples],
            [label for _, label in eval_samples],
            state["accuracy"], Rng(substream_seed(state["seed"], 13)),
        )


# ----------------------------------------------------------------------
# symmetry probes
# ----------------------------------------------------------------------

PROBE_KINDS = (
    ("any", "full", checks.check_invariant),
    ("within-block", "fractal", checks.check_invariant),
    ("block", "fractal", checks.check_invariant),
    ("cross-block-transposition", "fractal", checks.check_breaking),
)


@dataclass(frozen=True)
class ProbeWorkload:
    """Criterion 5's sweep (``randomize_params`` then ``permutation_test``
    per kind and model seed), then ``harness.gradcheck`` of a small
    preset."""

    name: str
    reference: str
    grid: GridSpec
    d: int
    heads: int
    layers: int
    model_seeds: int
    trials: int
    gradcheck_d: int
    gradcheck_layers: int

    def _config(self, mask, seed, d=None, layers=None, scheme="none",
                policy="none") -> EncoderConfig:
        return EncoderConfig(
            grid=self.grid, d=d or self.d, n_heads=self.heads,
            n_layers=layers or self.layers,
            n_classes=self.grid.n_h * self.grid.n_w,
            patch_size=PATCH, scheme=scheme, policy=policy,
            mask=mask, seed=seed,
        )

    def setup(self, seed: int) -> dict:
        models = []
        for kind, mask, check in PROBE_KINDS:
            for i in range(self.model_seeds):
                model_seed = substream_seed(seed, 20 + i)
                config = self._config(mask, model_seed)
                models.append(
                    (kind, check, model_seed, config, encoder.init_params(config))
                )
        gc_config = self._config(
            "fractal", seed, d=self.gradcheck_d, layers=self.gradcheck_layers,
            scheme="sincos2d", policy="summary",
        )
        gc_entries = sum(
            int(t.data.size if m is None else m.sum() * t.data.shape[1])
            for _, t, m in encoder.init_params(gc_config).trainable_items()
        )
        return {"seed": seed, "models": models, "gc_config": gc_config,
                "gc_evals": 2 * gc_entries}

    def run_round(self, state: dict, clock) -> RoundResult:
        models = state["models"]
        deviations = []
        for kind, _, model_seed, config, params in models:
            with clock.timing("task") as segment:
                harness.randomize_params(params, Rng(substream_seed(model_seed, 5)))
                deviations.append(harness.permutation_test(
                    config, params, kind, trials=self.trials,
                    seed=substream_seed(model_seed, 6),
                ))
            segment.items = self.trials
        with clock.timing("infer") as segment:
            worst = harness.gradcheck(state["gc_config"], eps=FD_EPS,
                                      batch_size=1, seed=state["seed"])
        segment.items = state["gc_evals"]

        failures = []
        for (kind, check, _, _, _), dev in zip(models, deviations):
            failures += check(kind, [dev])
        failures += checks.check_gradcheck(worst)
        return RoundResult(
            ops=len(models) + 1,
            trials=len(models) * self.trials,
            failures=failures,
            outcome=(tuple(deviations), worst),
        )

    def check(self, state: dict) -> list[str]:
        """The model checks on one randomized probe model, with random
        images and the marked-patch enumeration."""
        _, _, _, config, params = state["models"][0]
        rng = Rng(substream_seed(state["seed"], 13))
        images = [rng.uniform_array(config.image_shape) for _ in range(FD_BATCH)]
        labels = [rng.below(config.n_classes) for _ in range(FD_BATCH)]
        enumeration = harness.enumerate_marked_patch_eval(self.grid, PATCH)
        eval_images = [img for img, _ in enumeration.samples]
        eval_labels = [label for _, label in enumeration.samples]
        accuracy = harness.evaluate(config, params, enumeration)
        return model_checks(
            config, params, encoder.init_params(config), images, labels,
            eval_images, eval_labels, accuracy, rng,
        )


GRID_4 = GridSpec(4, 4, 2, 1)
GRID_14 = GridSpec(14, 14, 2, 3)

# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        # Criterion 6's marked-patch recipe; 30 epochs reach loss below ln 16
        # and an epoch with eval accuracy 1.0 at every seed tried. One
        # evaluate call takes about 6 ms, so a round times 20 together.
        MarkedWorkload(
            name="marked-4x4", reference="interpreter", grid=GRID_4,
            d=32, heads=2, layers=2,
            scheme="sincos2d", epochs=30, lr=0.2, batch=16,
            train_count=None, eval_count=None, eval_calls=20, min_eval_acc=0.9,
        ),
        MarkedWorkload(
            name="marked-14x14", reference="kernels", grid=GRID_14,
            d=96, heads=4, layers=4,
            scheme="alibi2d", epochs=1, lr=0.2, batch=8,
            train_count=24, eval_count=8, eval_calls=3,
        ),
        ProbeWorkload(
            name="probe-4x4", reference="interpreter", grid=GRID_4,
            d=32, heads=2, layers=2,
            model_seeds=3, trials=3, gradcheck_d=8, gradcheck_layers=1,
        ),
    )
}
