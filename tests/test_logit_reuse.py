"""``train`` reuses a full-batch step's logits as the previous epoch's
train accuracy. These tests pin that reuse against a reference loop that
evaluates after every epoch, and pin the invariant it rests on: a
row-permuted batch gives bit-identical logit rows on a recording tape and
on ``evaluate``'s non-recording one.
"""

import math

import numpy as np
import pytest

from fractalvit import harness
from fractalvit.autodiff import Tape
from fractalvit.encoder import EncoderConfig, batch_loss, init_params, save_checkpoint
from fractalvit.grid import GridSpec
from fractalvit.harness import (
    EVAL_CHUNK,
    TrainReport,
    config_echo,
    default_eval_set,
    enumerate_marked_patch_eval,
    enumerate_same_block_pair_eval,
    evaluate,
    gen_marked_patch,
    randomize_params,
    train,
)
from fractalvit.rng import Rng, substream_seed

GRID = GridSpec(4, 4, 2, 1)
GRID_8 = GridSpec(8, 8, 2, 2)


def config_for(grid=GRID, n_classes=16, patch=4, **overrides):
    base = dict(
        grid=grid, d=16, n_heads=2, n_layers=2, n_classes=n_classes,
        patch_size=patch, scheme="sincos2d", policy="summary",
        mask="fractal", seed=0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def reference_train(config, dataset, epochs, lr, batch, *, params=None,
                    eval_set=None):
    """``train`` as it was before logit reuse: every epoch that took a
    step ends with ``evaluate`` on the training set, and on a distinct
    eval set."""
    if params is None:
        params = init_params(config)
    if eval_set is None:
        eval_set = default_eval_set(config, dataset)
    eval_is_train = harness._same_samples(dataset, eval_set)
    report = TrainReport(config_echo=config_echo(config))
    report.config_echo.update(
        task=dataset.task, data_seed=str(dataset.seed), count=str(len(dataset)),
        epochs=str(epochs), lr=repr(lr), batch=str(batch),
    )
    shuffle_rng = Rng(
        substream_seed(config.seed, 2) ^ substream_seed(dataset.seed, 3)
    )
    n = len(dataset.samples)
    total_steps = epochs * ((n + batch - 1) // batch)
    trainables = list(params.trainable_items())
    step = 0
    for _ in range(epochs):
        order = list(range(n))
        shuffle_rng.shuffle(order)
        batch_losses = []
        for start in range(0, n, batch):
            chunk = order[start:start + batch]
            tape = Tape()
            objective = batch_loss(
                [dataset.samples[idx][0] for idx in chunk],
                [dataset.samples[idx][1] for idx in chunk],
                config, params, tape,
            )
            value = float(objective.data)
            if not math.isfinite(value):
                report.diverged = True
                break
            batch_losses.append(value)
            tape.backward(objective)
            sq_norm = 0.0
            grads = []
            with np.errstate(over="ignore", invalid="ignore"):
                for _, tensor, row_mask in trainables:
                    g = tensor.grad
                    if g is None:
                        g = np.zeros_like(tensor.data)
                    elif row_mask is not None:
                        g = g * row_mask[:, None]
                    grads.append(g)
                    sq_norm += float((g * g).sum())
            if not math.isfinite(sq_norm):
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
            train_acc = evaluate(config, params, dataset)
            report.train_accs.append(train_acc)
            report.eval_accs.append(
                train_acc if eval_is_train
                else evaluate(config, params, eval_set)
            )
        if report.diverged:
            break
    report.final_eval_acc = (
        report.eval_accs[-1] if report.eval_accs
        else evaluate(config, params, eval_set)
    )
    return report


def run_outputs(run, config, dataset, tmp_path, **kwargs):
    """Report text, CSV and checkpoint bytes of ``run`` from a fresh init."""
    params = init_params(config)
    report = run(config, dataset, params=params, **kwargs)
    path = tmp_path / "model.fvit"
    save_checkpoint(str(path), params)
    return report.to_text(), report.to_csv(), path.read_bytes()


def marked_8x8(count=None):
    if count is None:
        return enumerate_marked_patch_eval(GRID_8, 2)
    return gen_marked_patch(GRID_8, 2, count, seed=8)


CASES = {
    # full batch, the eval set is the training set
    "marked": (lambda: config_for(), lambda: enumerate_marked_patch_eval(GRID, 4),
               dict(epochs=4, lr=0.2, batch=16)),
    "pair": (lambda: config_for(n_classes=2, d=8, n_layers=1),
             lambda: enumerate_same_block_pair_eval(GRID, 4),
             dict(epochs=3, lr=0.1, batch=48)),
    # every image's logits tie: no position signal and the full mask
    "symmetric-none-full": (
        lambda: config_for(scheme="none", policy="none", mask="full"),
        lambda: enumerate_marked_patch_eval(GRID, 4),
        dict(epochs=3, lr=0.2, batch=20)),
    # full batch, the default eval set (the enumeration) is distinct
    "distinct-eval-set": (lambda: config_for(),
                          lambda: gen_marked_patch(GRID, 4, 12, seed=3),
                          dict(epochs=3, lr=0.2, batch=12)),
    # n = EVAL_CHUNK: the largest set that reuse applies to
    "alibi2d-8x8-64": (
        lambda: config_for(GRID_8, 64, 2, d=8, n_layers=1, scheme="alibi2d"),
        marked_8x8, dict(epochs=3, lr=0.2, batch=64)),
    # n = EVAL_CHUNK + 1: a batch of all images, but no reuse
    "alibi2d-8x8-65": (
        lambda: config_for(GRID_8, 64, 2, d=8, n_layers=1, scheme="alibi2d"),
        lambda: marked_8x8(65), dict(epochs=2, lr=0.2, batch=65)),
    "mini-batch": (lambda: config_for(),
                   lambda: gen_marked_patch(GRID, 4, 12, seed=4),
                   dict(epochs=3, lr=0.2, batch=5)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_bytes_equal_the_per_epoch_evaluation_loop(case, tmp_path):
    make_config, make_data, kwargs = CASES[case]
    config, dataset = make_config(), make_data()
    assert (kwargs["batch"] >= len(dataset)) == (case != "mini-batch")
    if case.endswith("-64") or case.endswith("-65"):
        assert len(dataset) == EVAL_CHUNK + case.endswith("-65")
    got = run_outputs(train, config, dataset, tmp_path, **kwargs)
    assert got == run_outputs(reference_train, config, dataset, tmp_path,
                              **kwargs)


def captured_eval_logits(monkeypatch, config, params, dataset):
    """The logit rows of ``evaluate``'s forward over ``dataset``."""
    rows = []
    real = harness.forward_batch

    def capture(*args, **kwargs):
        logits = real(*args, **kwargs)
        rows.append(logits.data)
        return logits

    monkeypatch.setattr(harness, "forward_batch", capture)
    evaluate(config, params, dataset)
    monkeypatch.undo()
    return np.concatenate(rows)


@pytest.mark.parametrize("config, dataset", [
    (config_for(d=32), enumerate_marked_patch_eval(GRID, 4)),
    (config_for(n_classes=2, d=32), enumerate_same_block_pair_eval(GRID, 4)),
    (config_for(GRID_8, 64, 2, d=32, scheme="alibi2d"), marked_8x8()),
], ids=["marked-16", "pair-48", "alibi2d-8x8-64"])
def test_shuffled_recording_forward_gives_evaluate_logit_rows(
        monkeypatch, config, dataset):
    n = len(dataset)
    assert n <= EVAL_CHUNK
    for draw in range(3):
        params = init_params(config)
        randomize_params(params, Rng(substream_seed(draw, 21)))
        expected = captured_eval_logits(monkeypatch, config, params, dataset)
        order = list(range(n))
        Rng(draw).shuffle(order)
        logits = []
        batch_loss([dataset.samples[i][0] for i in order],
                   [dataset.samples[i][1] for i in order],
                   config, params, Tape(), logits_out=logits)
        (rows,) = logits
        assert rows.tobytes() == expected[order].tobytes(), draw


def count_evaluate_calls(monkeypatch):
    calls = []
    real = harness.evaluate

    def counting(config, params, data):
        calls.append(data)
        return real(config, params, data)

    monkeypatch.setattr(harness, "evaluate", counting)
    return calls


def test_full_batch_run_evaluates_the_training_set_once(monkeypatch):
    calls = count_evaluate_calls(monkeypatch)
    ds = enumerate_marked_patch_eval(GRID, 4)
    report = train(config_for(), ds, epochs=5, lr=0.2, batch=16)
    assert len(report.losses) == 5
    assert len(calls) == 1 and calls[0] is ds


def test_full_batch_run_evaluates_a_distinct_eval_set_every_epoch(monkeypatch):
    calls = count_evaluate_calls(monkeypatch)
    ds = gen_marked_patch(GRID, 4, 12, seed=3)
    eval_set = enumerate_marked_patch_eval(GRID, 4)
    train(config_for(), ds, epochs=5, lr=0.2, batch=12, eval_set=eval_set)
    assert sum(data is eval_set for data in calls) == 5
    assert sum(data is ds for data in calls) == 1
    assert len(calls) == 6


@pytest.mark.parametrize("lr, path", [
    (1e100, "loss"),      # the second update overflows the next forward
    (1e160, "gradient"),  # the next loss is finite, its gradient norm is not
])
@pytest.mark.parametrize("eval_kind", ["train", "distinct"])
def test_divergence_under_reuse_matches_the_reference(monkeypatch, lr, path,
                                                      eval_kind):
    config = config_for()
    ds = gen_marked_patch(GRID, 4, 12, seed=5)
    eval_set = ds if eval_kind == "train" else None  # None: the enumeration
    steps = []
    real = harness.batch_loss

    def counting(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "batch_loss", counting)
    kwargs = dict(epochs=20, lr=lr, batch=len(ds), params=init_params(config),
                  eval_set=eval_set)
    # the overflow is the point here: the forward's scores overflow on the
    # loss path
    with np.errstate(over="ignore", invalid="ignore"):
        got = train(config, ds, **kwargs)
        kwargs["params"] = init_params(config)
        want = reference_train(config, ds, **kwargs)
    # a non-finite loss adds no record; a non-finite gradient norm does
    assert got.diverged
    assert len(steps) == len(got.losses) + (path == "loss")
    assert len(got.losses) >= 2  # a record was pending when it diverged
    for field in ("diverged", "losses", "train_accs", "eval_accs",
                  "final_eval_acc"):
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field
