"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The training-based
criteria use pinned recipes (full-batch gradient descent on the exact
task enumerations); they are the slow part of the suite.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from fractalvit.encoder import (
    EncoderConfig,
    apply_checkpoint,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from fractalvit.grid import GridSpec, build_layout, max_levels
from fractalvit.harness import (
    enumerate_marked_patch_eval,
    enumerate_same_block_pair_eval,
    evaluate,
    gradcheck,
    permutation_test,
    randomize_params,
    train,
)
from fractalvit.mask import build_fractal_mask
from fractalvit.posenc import alibi2d_bias, alibi_slopes, sincos2d
from fractalvit.rng import Rng, substream_seed

from test_mask import reference_four_summary_mask

GRID = GridSpec(4, 4, 2, 1)

# pinned training recipe: full-batch descent on the task enumeration from
# the fan-in init. Measured at init seeds 0-2: the sincos2d marked run is
# at accuracy 1.0 from the first epoch; the summary-only run leaves ln 16
# and settles at ln 4 (block found, marker within it not) by epoch 423
# (seed 1) and 815 (seed 0), seed 2 ending at loss 1.40. The pair runs use
# three layers: with two, block membership reaches the global token only
# through the layer-norm eps (constant patches and a zero patch bias make
# marked and background tokens equal after the first LN), and at lr 0.1
# and at lr 0.2 one of seeds 0-3 ended at 0.54. Three layers reach
# accuracy 1.0 by epoch 1000 at seeds 0-5 (lr 0.1).
TRAIN_SEED = 0
MARKED_EPOCHS = 2500
MARKED_LR = 0.2
PAIR_EPOCHS = 2500
PAIR_LR = 0.1
CAP_EPOCHS = 300  # runs that only demonstrate a symmetry cap
D_MODEL = 32
PAIR_LAYERS = 3


def model_config(scheme, policy, mask, n_classes=16, seed=TRAIN_SEED,
                 n_layers=2):
    return EncoderConfig(
        grid=GRID, d=D_MODEL, n_heads=2, n_layers=n_layers,
        n_classes=n_classes, patch_size=4, scheme=scheme, policy=policy,
        mask=mask, seed=seed,
    )


def report(line):
    print(line, flush=True)


# ----------------------------------------------------------------------
# 1. reference-snippet oracle
# ----------------------------------------------------------------------

def test_criterion_1_reference_mask_oracle():
    start = time.perf_counter()
    for n in (8, 16):
        layout = build_layout(GridSpec(n, n, 4, 1))
        ours = build_fractal_mask(layout)
        assert np.array_equal(ours, reference_four_summary_mask(n, n))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"PASS criterion 1: masks bit-identical to reference snippet "
           f"for 8x8 and 16x16 ({elapsed:.3f} s)")


# ----------------------------------------------------------------------
# 2. token-count identity
# ----------------------------------------------------------------------

def test_criterion_2_token_count_identity():
    expected = {2: 59, 3: 17, 4: 9, 5: 4}
    got = {}
    for k, want in expected.items():
        layout = build_layout(GridSpec(14, 14, k, max_levels(14, 14, k)))
        got[k] = layout.n_additional
        assert layout.n_additional == want
    report(f"PASS criterion 2: 14x14 additional-token totals {got}")


# ----------------------------------------------------------------------
# 3. positional-encoding algebra
# ----------------------------------------------------------------------

def test_criterion_3_positional_encoding_algebra():
    # per-pair identity within 1e-12 across representative grids
    worst_pair = 0.0
    for h, w, d in [(4, 4, 32), (16, 16, 64), (14, 14, 64)]:
        table = sincos2d(h, w, d).reshape(-1, d)
        pair = table[:, 0::2] ** 2 + table[:, 1::2] ** 2
        worst_pair = max(worst_pair, float(np.abs(pair - 1.0).max()))
        assert np.abs((table ** 2).sum(axis=1) - d / 2).max() < 1e-12
    assert worst_pair < 1e-12

    # squared norm lands exactly on d/2 on the preset-sized tables
    for h, w, d in [(4, 4, 32), (2, 2, 4)]:
        table = sincos2d(h, w, d).reshape(-1, d)
        assert np.all((table ** 2).sum(axis=1) == d / 2)

    # slope ratio constant within 1e-12
    for n in (2, 3, 6, 8):
        slopes = alibi_slopes(n)
        assert np.abs(slopes[1:] / slopes[:-1] - 2 ** (-8 / n)).max() < 1e-12

    # bias symmetric with zero diagonal
    layout = build_layout(GridSpec(8, 8, 2, 2))
    bias = alibi2d_bias(layout, 4)
    for h in range(4):
        assert np.array_equal(bias[h], bias[h].T)
        assert np.all(np.diagonal(bias[h]) == 0.0)
    report(f"PASS criterion 3: sincos2d pair identity (worst {worst_pair:.2e}), "
           f"norm d/2, slope ratios, bias symmetry")


# ----------------------------------------------------------------------
# 4. gradcheck on the tiny preset
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_gradcheck_tiny_preset():
    config = model_config("sincos2d", "summary", "fractal")
    start = time.perf_counter()
    worst = gradcheck(config, eps=1e-5, batch_size=1, seed=0)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    report(f"PASS criterion 4: gradcheck max rel err {worst:.3e} "
           f"in {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 5. equivariance suite
# ----------------------------------------------------------------------

def _sweep(scheme, policy, mask, kind, seeds=range(10), trials=3):
    values = []
    for seed in seeds:
        config = model_config(scheme, policy, mask, seed=seed)
        params = init_params(config)
        randomize_params(params, Rng(substream_seed(seed, 5)))
        values.append(
            permutation_test(config, params, kind, trials=trials,
                             seed=substream_seed(seed, 6))
        )
    return values


def test_criterion_5_equivariance_suite():
    full_any = _sweep("none", "none", "full", "any")
    assert max(full_any) < 1e-10

    within = _sweep("none", "none", "fractal", "within-block")
    assert max(within) < 1e-10

    block = _sweep("none", "none", "fractal", "block")
    assert max(block) < 1e-10

    breaking = _sweep("none", "none", "fractal", "cross-block-transposition")
    assert min(breaking) > 1e-6

    report(
        "PASS criterion 5: invariance max "
        f"{max(max(full_any), max(within), max(block)):.2e} (< 1e-10); "
        f"cross-block deviation min {min(breaking):.2e} (> 1e-6)"
    )


# ----------------------------------------------------------------------
# 6. marked-patch task
# ----------------------------------------------------------------------

def _train_marked(scheme, policy, mask, epochs, lr):
    config = model_config(scheme, policy, mask)
    dataset = enumerate_marked_patch_eval(GRID, 4)
    params = init_params(config)
    rep = train(config, dataset, epochs=epochs, lr=lr, batch=len(dataset),
                params=params)
    return config, params, rep


def _orbit_score(config, params, dataset, orbits):
    """(accuracy, spread) of a run whose eval samples form symmetry orbits.

    The samples of an orbit are images related by a mask automorphism, so
    their logit vectors coincide, and so do the logits of the classes the
    automorphisms exchange: a per-sample argmax among those ties is
    decided by rounding noise. ``spread`` is the largest deviation of a
    logit vector from its orbit's first member; the accuracy scores each
    orbit with one logit vector, the orbit mean.
    """
    logits = np.array(
        [forward(img, config, params).data for img, _ in dataset.samples]
    )
    labels = [label for _, label in dataset.samples]
    spread, hits = 0.0, 0
    for members in orbits:
        group = logits[members]
        spread = max(spread, float(np.abs(group - group[0]).max()))
        pred = int(np.argmax(group.mean(axis=0)))
        hits += sum(labels[i] == pred for i in members)
    return hits / len(labels), spread


@pytest.mark.slow
def test_criterion_6_marked_patch_suite():
    start = time.perf_counter()
    eval_set = enumerate_marked_patch_eval(GRID, 4)
    whole_set = [list(range(len(eval_set)))]

    _, _, rep = _train_marked("sincos2d", "summary", "fractal",
                              MARKED_EPOCHS, MARKED_LR)
    sincos_acc = rep.final_eval_acc
    assert sincos_acc >= 0.90

    # no position signal reaches a full-mask model: one orbit, identical
    # logits for every marker position
    config, params, _ = _train_marked("none", "none", "full",
                                      CAP_EPOCHS, MARKED_LR)
    full_none_acc, full_spread = _orbit_score(config, params, eval_set,
                                              whole_set)
    assert full_spread < 1e-10
    assert full_none_acc <= 0.125

    # transitivity cap: identical logits across all marker positions
    config, params, _ = _train_marked("none", "none", "fractal",
                                      CAP_EPOCHS, MARKED_LR)
    fractal_none_acc, spread = _orbit_score(config, params, eval_set,
                                            whole_set)
    assert spread < 1e-10
    assert fractal_none_acc <= 0.125

    # within-block marker moves are mask automorphisms that fix the
    # summaries, so the four logit vectors of each block coincide
    config, params, _ = _train_marked("none", "sincos2d", "fractal",
                                      MARKED_EPOCHS, MARKED_LR)
    blocks = [
        [
            (bi * 2 + di) * 4 + (bj * 2 + dj)
            for di in range(2)
            for dj in range(2)
        ]
        for bi in range(2)
        for bj in range(2)
    ]
    summary_only_acc, block_spread = _orbit_score(config, params, eval_set,
                                                  blocks)
    assert block_spread < 1e-10
    assert 0.20 <= summary_only_acc <= 0.27

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        f"PASS criterion 6: sincos2d {sincos_acc:.4f} (>= 0.90); "
        f"none+full {full_none_acc:.4f} (<= 0.125, logit spread "
        f"{full_spread:.2e}) and none+fractal {fractal_none_acc:.4f} "
        f"(<= 0.125, logit spread {spread:.2e}); "
        f"summary-only {summary_only_acc:.4f} (in [0.20, 0.27], "
        f"within-block spread {block_spread:.2e}); {elapsed:.0f} s"
    )


# ----------------------------------------------------------------------
# 7. same-block-pair task
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_same_block_pair_suite():
    start = time.perf_counter()
    dataset = enumerate_same_block_pair_eval(GRID, 4)

    config = model_config("none", "none", "fractal", n_classes=2,
                          n_layers=PAIR_LAYERS)
    params = init_params(config)
    rep = train(config, dataset, epochs=PAIR_EPOCHS, lr=PAIR_LR,
                batch=len(dataset), params=params)
    fractal_acc = rep.final_eval_acc
    assert fractal_acc >= 0.70

    # a full-mask model sees every pair image as the same token multiset
    config = model_config("none", "none", "full", n_classes=2,
                          n_layers=PAIR_LAYERS)
    params = init_params(config)
    train(config, dataset, epochs=CAP_EPOCHS, lr=PAIR_LR,
          batch=len(dataset), params=params)
    full_acc, full_spread = _orbit_score(config, params, dataset,
                                         [list(range(len(dataset)))])
    assert full_spread < 1e-10
    assert full_acc <= 0.55

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        f"PASS criterion 7: fractal+none {fractal_acc:.4f} (>= 0.70); "
        f"full+none {full_acc:.4f} (<= 0.55, logit spread "
        f"{full_spread:.2e}); {elapsed:.0f} s"
    )


# ----------------------------------------------------------------------
# 8. determinism
# ----------------------------------------------------------------------

def _run_cli(*args):
    cmd = [sys.executable, "-m", "fractalvit"] + [str(a) for a in args]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result


def test_criterion_8_determinism(tmp_path):
    # byte-identical outputs for every command with a fixed seed
    cases = {
        "mask": ["mask", "--grid", "8x8", "--k", "4", "--levels", "1"],
        "layout": ["layout", "--grid", "8x8", "--k", "2"],
        "posenc": ["posenc", "--scheme", "sincos2d", "--grid", "4x4",
                   "--dim", "16"],
        "table": ["posenc", "--scheme", "learned", "--grid", "4x4", "--k", "2",
                  "--levels", "1", "--dim", "16", "--seed", "9", "--table"],
        "train": ["train", "--grid", "4x4", "--k", "2", "--levels", "1",
                  "--dim", "16", "--heads", "2", "--layers", "1", "--patch", "4",
                  "--task", "marked", "--count", "8", "--epochs", "2",
                  "--batch", "4", "--lr", "0.1", "--seed", "3"],
        "gradcheck": ["gradcheck", "--grid", "2x2", "--k", "2", "--levels", "1",
                      "--dim", "8", "--heads", "2", "--layers", "1",
                      "--patch", "2", "--task", "marked"],
        "permtest": ["permtest", "--grid", "4x4", "--k", "2", "--levels", "1",
                     "--dim", "16", "--heads", "2", "--layers", "2",
                     "--patch", "2", "--task", "marked", "--scheme", "none",
                     "--policy", "none", "--kind", "within-block",
                     "--trials", "2"],
    }
    for name, args in cases.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        _run_cli(*args, "--out", a)
        _run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes(), name

    # checkpoints round-trip bitwise through save -> load -> forward
    config = model_config("sincos2d", "summary", "fractal")
    params = init_params(config)
    randomize_params(params, Rng(21))
    image = Rng(22).uniform_array(config.image_shape)
    before = forward(image, config, params).data
    path = str(tmp_path / "model.fvit")
    save_checkpoint(path, params)
    restored = init_params(config)
    apply_checkpoint(restored, load_checkpoint(path))
    after = forward(image, config, restored).data
    assert np.array_equal(before, after)

    save_checkpoint(str(tmp_path / "model2.fvit"), params)
    assert (tmp_path / "model.fvit").read_bytes() == \
        (tmp_path / "model2.fvit").read_bytes()

    report("PASS criterion 8: CLI outputs byte-identical across reruns; "
           "checkpoint round-trips bitwise")
