import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalvit import autodiff, harness
from fractalvit.autodiff import Tape, Tensor
from fractalvit.encoder import (
    EncoderConfig,
    EncoderParams,
    batch_loss,
    forward,
    forward_batch,
    forward_stages,
    init_params,
    patch_rows,
    run_stages,
    save_checkpoint,
)
from fractalvit.errors import ConfigError, ContractError
from fractalvit.grid import GridSpec, build_layout, max_levels
from fractalvit.harness import (
    BACKGROUND,
    MARK,
    TASKS,
    _block_parents,
    _pair_universe,
    _same_block,
    enumerate_marked_patch_eval,
    enumerate_same_block_pair_eval,
    evaluate,
    gen_marked_patch,
    gen_same_block_pair,
    gradcheck,
    permutation_test,
    randomize_params,
    sample_permutation,
    task_named,
    train,
)
from fractalvit.rng import Rng, substream_seed
from test_logit_reuse import reference_train

GRID = GridSpec(4, 4, 2, 1)


def small_config(**overrides):
    base = dict(
        grid=GRID, d=16, n_heads=2, n_layers=2, n_classes=16, patch_size=4,
        scheme="sincos2d", policy="summary", mask="fractal", seed=0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def test_marked_patch_basics():
    ds = gen_marked_patch(GRID, 4, 32, seed=0)
    assert ds.n_classes == 16
    assert len(ds) == 32
    image, label = ds.samples[0]
    assert image.shape == (16, 16, 3)
    marked = np.isclose(image, MARK).all(axis=2)
    background = np.isclose(image, BACKGROUND).all(axis=2)
    assert marked.sum() == 16  # exactly one 4x4 patch
    assert (marked | background).all()
    i, j = divmod(label, 4)
    assert marked[4 * i, 4 * j]


def test_marked_patch_same_seed_identical():
    a = gen_marked_patch(GRID, 4, 20, seed=7)
    b = gen_marked_patch(GRID, 4, 20, seed=7)
    for (img1, l1), (img2, l2) in zip(a.samples, b.samples):
        assert l1 == l2
        assert np.array_equal(img1, img2)


def test_marked_patch_label_histogram_uniform():
    ds = gen_marked_patch(GRID, 1, 16 * 1000, seed=3)
    counts = np.bincount([label for _, label in ds.samples], minlength=16)
    sigma = np.sqrt(16000 * (1 / 16) * (15 / 16))
    assert np.abs(counts - 1000).max() < 3 * sigma


def test_marked_patch_eval_enumeration():
    ev = enumerate_marked_patch_eval(GRID, 4)
    assert len(ev) == 16
    assert [label for _, label in ev.samples] == list(range(16))
    for pos, (image, label) in enumerate(ev.samples):
        lit = np.argwhere((image != harness.BACKGROUND).any(axis=-1))
        assert {(i // 4) * GRID.n_w + j // 4 for i, j in lit} == {pos}


def test_pair_labels_by_block():
    ds = gen_same_block_pair(GRID, 4, 40, seed=0)
    assert ds.n_classes == 2
    for image, label in ds.samples:
        marked = np.isclose(image, MARK).all(axis=2)
        positions = sorted(
            (i // 4) * 4 + (j // 4)
            for i, j in zip(*np.nonzero(marked))
            if i % 4 == 0 and j % 4 == 0
        )
        assert len(positions) == 2
        blocks = [(p // 4 // 2, p % 4 // 2) for p in positions]
        assert label == int(blocks[0] == blocks[1])


def test_pair_known_cases():
    # (0,0) and (1,1) share the top-left 2x2 block; (0,0) and (0,2) do not
    assert GRID.k == 2
    parents = _block_parents(GRID)
    assert _same_block(parents, 0 * 4 + 0, 1 * 4 + 1) == 1
    assert _same_block(parents, 0 * 4 + 0, 0 * 4 + 2) == 0
    # 5x5 at k=2: row and column 4 lie outside the floor-truncated 2x2
    # level-1 grid, so two patches there share no block
    parents = _block_parents(GridSpec(5, 5, 2, 2))
    assert _same_block(parents, 4 * 5 + 3, 4 * 5 + 4) == 0
    assert _same_block(parents, 3 * 5 + 2, 3 * 5 + 3) == 1


@st.composite
def grids(draw):
    """Grids up to 9x9 with k = 2-4 and any level count they allow."""
    n_h, n_w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = draw(st.integers(2, 4))
    return GridSpec(n_h, n_w, k, draw(st.integers(0, max_levels(n_h, n_w, k))))


def block_rule_universe(grid):
    """Brute-force pair universe: p and q share a block iff both lie in the
    same (i // k, j // k) cell of the floor-truncated level-1 grid."""
    def cell(pos):
        i, j = divmod(pos, grid.n_w)
        inside = i // grid.k < grid.n_h // grid.k and j // grid.k < grid.n_w // grid.k
        return (i // grid.k, j // grid.k) if inside else None

    n = grid.n_h * grid.n_w
    same, cross = [], []
    for p in range(n):
        for q in range(p + 1, n):
            shared = cell(p) is not None and cell(p) == cell(q)
            (same if shared else cross).append((p, q))
    return same, cross


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_layout_parent_pair_labels_equal_the_block_rule(grid):
    same, cross = block_rule_universe(grid)
    if same and cross:
        assert _pair_universe(grid) == (same, cross)


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_both_labels_check_raises_exactly_when_a_label_is_missing(grid):
    same, cross = block_rule_universe(grid)
    if same and cross:
        _block_parents(grid)
        return
    for build in (_block_parents, _pair_universe,
                  lambda g: gen_same_block_pair(g, 1, 4, 0)):
        with pytest.raises(ConfigError, match="cannot produce both pair labels"):
            build(grid)


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2 ** 16))
def test_task_class_counts_equal_their_datasets(grid, seed):
    for name, task in TASKS.items():
        try:
            datasets = [task.sample(grid, 1, 3, seed), task.enumerate(grid, 1)]
        except ConfigError:
            assert name == "pair"  # a grid without both pair labels
            continue
        for data in datasets:
            assert (data.task, data.n_classes) == (name, task.n_classes(grid))
            assert all(0 <= label < data.n_classes for _, label in data.samples)


def test_unknown_task_lists_the_known_ones():
    assert task_named("pair") is TASKS["pair"]
    with pytest.raises(ConfigError, match=re.escape(
            "task must be one of ('marked', 'pair'), got 'mirror'")):
        task_named("mirror")


def test_pair_balance_within_one():
    for count in (10, 11, 25):
        ds = gen_same_block_pair(GRID, 4, count, seed=1)
        ones = sum(label for _, label in ds.samples)
        assert abs(ones - (count - ones)) <= 1


def test_pair_single_block_grid_rejected():
    one_block = GridSpec(2, 2, 2, 1)
    message = "2x2 grid with k=2 cannot produce both pair labels"
    with pytest.raises(ConfigError, match=message):
        gen_same_block_pair(one_block, 4, 10, seed=0)
    with pytest.raises(ConfigError, match=message):
        enumerate_same_block_pair_eval(one_block, 4)


def test_pair_eval_balanced_and_deterministic():
    ev = enumerate_same_block_pair_eval(GRID, 4)
    labels = [label for _, label in ev.samples]
    assert labels.count(1) == labels.count(0) == 24
    ev2 = enumerate_same_block_pair_eval(GRID, 4)
    for (a, _), (b, _) in zip(ev.samples, ev2.samples):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------

def test_zero_learning_rate_keeps_parameters():
    config = small_config()
    params = init_params(config)
    before = {name: t.data.copy() for name, t in params.tensors.items()}
    ds = gen_marked_patch(GRID, 4, 8, seed=2)
    init_acc = evaluate(config, params, enumerate_marked_patch_eval(GRID, 4))
    report = train(config, ds, epochs=3, lr=0.0, batch=4, params=params)
    for name, t in params.tensors.items():
        assert np.array_equal(t.data, before[name]), name
    assert report.final_eval_acc == init_acc
    assert not report.diverged


def test_training_is_deterministic():
    def one_run():
        config = small_config()
        params = init_params(config)
        ds = gen_marked_patch(GRID, 4, 12, seed=4)
        report = train(config, ds, epochs=4, lr=0.2, batch=4, params=params)
        return report, params

    r1, p1 = one_run()
    r2, p2 = one_run()
    assert r1.to_text() == r2.to_text()
    assert r1.to_csv() == r2.to_csv()
    for name, t in p1.tensors.items():
        assert np.array_equal(t.data, p2.tensors[name].data)


def test_divergence_is_reported_and_halts():
    config = small_config()
    ds = gen_marked_patch(GRID, 4, 8, seed=5)
    report = train(config, ds, epochs=50, lr=1e160, batch=8)
    assert report.diverged
    assert len(report.losses) < 50


def test_overflowed_logits_score_nan_and_mark_the_run_diverged():
    # at d=32 the one step at lr 1e308 leaves parameters whose logits
    # overflow: the loss recorded before it is finite, the accuracies after
    # it are NaN, and no RuntimeWarning escapes
    ds = gen_marked_patch(GRID, 4, 4, seed=0)
    report = train(small_config(d=32), ds, epochs=1, lr=1e308, batch=4)
    assert report.diverged
    assert math.isfinite(report.losses[0])
    assert math.isnan(report.train_accs[0]) and math.isnan(report.eval_accs[0])
    assert math.isnan(report.final_eval_acc)


def test_report_text_and_csv_shape():
    config = small_config()
    ds = gen_marked_patch(GRID, 4, 8, seed=6)
    report = train(config, ds, epochs=3, lr=0.1, batch=4)
    text = report.to_text()
    assert "scheme = sincos2d" in text
    assert "task = marked" in text
    assert "final_eval_acc = " in text
    csv = report.to_csv().strip().split("\n")
    assert csv[0] == "epoch,loss,train_acc,eval_acc"
    assert len(csv) == 1 + 3


def test_train_validates_dataset_against_config():
    config = small_config(n_classes=4)
    ds = gen_marked_patch(GRID, 4, 8, seed=0)  # 16 classes
    with pytest.raises(ConfigError):
        train(config, ds, epochs=1, lr=0.1, batch=4)
    with pytest.raises(ConfigError, match="dataset is empty"):
        train(small_config(), replace(ds, samples=[]), epochs=1, lr=0.1, batch=4)


@pytest.mark.parametrize("bad, message", [
    ("empty", "eval_set is empty"),
    ("classes", "eval_set has 2 classes, config expects 16"),
    ("shape", "eval_set images (8, 8, 3) do not match config images (16, 16, 3)"),
])
def test_train_validates_eval_set_before_the_first_step(monkeypatch, bad, message):
    ds = gen_marked_patch(GRID, 4, 8, seed=0)
    eval_set = {
        "empty": replace(ds, samples=[]),
        "classes": enumerate_same_block_pair_eval(GRID, 4),
        "shape": enumerate_marked_patch_eval(GRID, 2),
    }[bad]

    def no_step(*args, **kwargs):
        raise AssertionError("trained before checking eval_set")

    monkeypatch.setattr(harness, "batch_loss", no_step)
    with pytest.raises(ConfigError, match=re.escape(message)):
        train(small_config(), ds, epochs=1, lr=0.1, batch=4, eval_set=eval_set)


@pytest.mark.parametrize("overrides, differ", [
    # one layer fewer ran silently, one more died on a missing tensor, and
    # another head count was ignored
    (dict(n_layers=1), "n_layers 1 != 2"),
    (dict(n_layers=3), "n_layers 3 != 2"),
    (dict(n_heads=4), "n_heads 4 != 2"),
    (dict(n_heads=4, n_layers=1), "n_heads 4 != 2, n_layers 1 != 2"),
])
def test_config_that_disagrees_with_the_params_raises(overrides, differ):
    config = small_config()
    params = init_params(config)
    randomize_params(params, Rng(2))
    before = {name: t.data.copy() for name, t in params.tensors.items()}
    other = replace(config, **overrides)
    ds = gen_marked_patch(GRID, 4, 4, seed=0)
    image = ds.samples[0][0]
    message = re.escape(f"config differs from params.config: {differ}")
    for call in (
        lambda: forward_batch([image], other, params),
        lambda: forward(image, other, params),
        lambda: evaluate(other, params, ds),
        lambda: permutation_test(other, params, "any", trials=1, seed=0),
        lambda: train(other, ds, epochs=1, lr=0.1, batch=4, params=params,
                      eval_set=ds),
    ):
        with pytest.raises(ContractError, match=message):
            call()
    for name, t in params.tensors.items():
        assert np.array_equal(t.data, before[name]), name


def eval_variant(ds, variant):
    """An eval set for ``train`` on ``ds``: None, ``ds`` itself, an equal
    copy, or a copy that differs in one label, one pixel or its length."""
    if variant == "none":
        return None
    if variant == "same":
        return ds
    samples = [(image.copy(), label) for image, label in ds.samples]
    if variant == "label":
        image, label = samples[3]
        samples[3] = (image, (label + 1) % ds.n_classes)
    elif variant == "pixel":
        image = samples[5][0]
        image[0, 0, 0] = np.nextafter(image[0, 0, 0], 1.0)
    elif variant == "shorter":
        samples = samples[:-1]
    return replace(ds, samples=samples)


@pytest.mark.parametrize("variant, calls_per_epoch", [
    ("none", 1), ("same", 1), ("copy", 1),
    ("label", 2), ("pixel", 2), ("shorter", 2),
])
def test_eval_set_equal_to_training_set_is_evaluated_once(
        monkeypatch, variant, calls_per_epoch):
    calls = []
    real_evaluate = harness.evaluate

    def counting_evaluate(config, params, data):
        calls.append(data)
        return real_evaluate(config, params, data)

    monkeypatch.setattr(harness, "evaluate", counting_evaluate)
    ds = enumerate_marked_patch_eval(GRID, 4)
    report = train(small_config(), ds, epochs=3, lr=0.2, batch=8,
                   eval_set=eval_variant(ds, variant))
    assert len(calls) == 3 * calls_per_epoch
    assert all(data is ds for data in calls[::calls_per_epoch])
    if calls_per_epoch == 1:
        assert report.train_accs == report.eval_accs


def test_equal_eval_set_reports_the_same_bytes(monkeypatch):
    ds = enumerate_marked_patch_eval(GRID, 4)

    def outputs(eval_set):
        report = train(small_config(), ds, epochs=4, lr=0.2, batch=8,
                       eval_set=eval_set)
        return report.to_text(), report.to_csv()

    shared = {outputs(eval_variant(ds, v)) for v in ("none", "same", "copy")}
    assert len(shared) == 1
    # the same bytes as evaluating the eval set separately every epoch
    monkeypatch.setattr(harness, "_same_samples", lambda a, b: False)
    assert shared == {outputs(None)}


@st.composite
def train_cases(draw):
    """A marked-patch run of d=8 and one layer: 2 to 12 samples, any batch
    up to n + 2, 1 to 4 epochs, an eval set that is None, the dataset, an
    equal copy or a distinct sample, and a learning rate that trains (0.2)
    or can blow the run up (1e100, 1e160)."""
    seed = draw(st.integers(0, 2 ** 16))
    ds = gen_marked_patch(GRID, 2, draw(st.integers(2, 12)), seed)
    variant = draw(st.sampled_from(["none", "same", "copy", "distinct"]))
    eval_set = (
        gen_marked_patch(GRID, 2, draw(st.integers(1, 12)), seed + 1)
        if variant == "distinct" else eval_variant(ds, variant)
    )
    return ds, dict(
        epochs=draw(st.integers(1, 4)), lr=draw(st.sampled_from([0.2, 1e100, 1e160])),
        batch=draw(st.integers(1, len(ds) + 2)), eval_set=eval_set,
    )


@settings(max_examples=30, deadline=None)
@given(case=train_cases())
def test_train_equals_the_per_epoch_evaluation_loop_property(case):
    ds, kwargs = case
    config = small_config(d=8, n_layers=1, patch_size=2)
    runs = []
    # the large learning rates overflow on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (train, reference_train):
            params = init_params(config)
            runs.append((run(config, ds, params=params, **kwargs), params))
    (got, got_params), (want, want_params) = runs
    # the reference loop leaves out train's last rule: a NaN accuracy is
    # divergence too
    want.diverged = want.diverged or any(
        math.isnan(acc)
        for acc in want.train_accs + want.eval_accs + [want.final_eval_acc]
    )
    for f in fields(got):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
    for name, tensor in got_params.tensors.items():
        assert tensor.data.tobytes() == want_params.tensors[name].data.tobytes(), name


def test_attention_blocks_do_not_change_training_bytes(monkeypatch, tmp_path):
    # alibi2d gives the (heads, n, n) table; a budget of one byte runs
    # every image of every batch and of the evaluation as its own block
    config = small_config(scheme="alibi2d")
    ds = gen_marked_patch(GRID, 4, 12, 3)

    def outputs(name):
        params = init_params(config)
        report = train(config, ds, epochs=3, lr=0.2, batch=5, params=params)
        path = tmp_path / name
        save_checkpoint(str(path), params)
        return report.to_text(), report.to_csv(), path.read_bytes()

    one_block = outputs("one.fvit")
    monkeypatch.setattr(autodiff, "ATTENTION_BLOCK_BYTES", 1)
    assert outputs("per_image.fvit") == one_block


# ----------------------------------------------------------------------
# permutation machinery
# ----------------------------------------------------------------------

def permute_patches_by_loop(image, perm, grid, patch_size):
    """Reference: copy each patch on its own."""
    out = np.empty_like(image)
    for dst, src in enumerate(perm):
        di, dj = divmod(dst, grid.n_w)
        si, sj = divmod(src, grid.n_w)
        out[
            di * patch_size:(di + 1) * patch_size,
            dj * patch_size:(dj + 1) * patch_size,
            :,
        ] = image[
            si * patch_size:(si + 1) * patch_size,
            sj * patch_size:(sj + 1) * patch_size,
            :,
        ]
    return out


@pytest.mark.parametrize("grid, patch", [
    (GRID, 4), (GridSpec(3, 5, 2, 1), 2), (GridSpec(1, 4, 2, 0), 3),
])
def test_permute_patches_equals_the_per_patch_loop(grid, patch):
    # permuting the patch rows is permuting the image's patches, then
    # cutting them into rows
    config = EncoderConfig(grid=grid, d=4, n_heads=1, n_layers=1, n_classes=2,
                           patch_size=patch)
    rng = np.random.default_rng(17)
    n = grid.n_h * grid.n_w
    image = rng.standard_normal(config.image_shape)
    rows = patch_rows([image], config).data
    for _ in range(5):
        perm = rng.permutation(n)
        moved = permute_patches_by_loop(image, perm, grid, patch)
        assert np.array_equal(patch_rows([moved], config).data, rows[perm])


@settings(max_examples=40, deadline=None)
@given(grid=grids(), patch=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_patch_rows_permute_as_the_image_does(grid, patch, seed):
    config = EncoderConfig(grid=grid, d=4, n_heads=1, n_layers=1, n_classes=2,
                           patch_size=patch)
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(config.image_shape)
    perm = rng.permutation(grid.n_h * grid.n_w)
    moved = permute_patches_by_loop(image, perm, grid, patch)
    assert np.array_equal(patch_rows([moved], config).data,
                          patch_rows([image], config).data[perm])


def relabel_summaries(params, perm):
    """Reference: new params whose ``summary_init`` and position rows are
    relabeled by the non-regular part of the token permutation ``perm``
    (token row t of the copy holds token row perm[t] of the original)."""
    layout = params.layout
    n_reg = layout.n_regular
    assert perm[layout.global_index] == layout.global_index
    source = np.array(perm[n_reg:])
    tensors = dict(params.tensors)
    pos = Tensor(params.tensors["posenc"].data)
    pos.data[n_reg:] = params.tensors["posenc"].data[source]
    tensors["posenc"] = pos
    if layout.n_additional:
        tensors["summary_init"] = Tensor(
            params.tensors["summary_init"].data[source[:-1] - n_reg])
    return EncoderParams(params.config, layout, params.mask, tensors,
                         params.pos_trainable_rows, params.alibi)


def permutation_test_by_image(config, params, kind, trials, seed):
    """Reference ``permutation_test``: build each permuted image, relabel
    the summaries in rebuilt params, and run ``forward`` on both."""
    rng = Rng(seed)
    n_reg = params.layout.n_regular
    worst = 0.0
    for _ in range(trials):
        image = rng.uniform_array(config.image_shape)
        perm = sample_permutation(params.layout, kind, rng)
        moved = permute_patches_by_loop(image, perm[:n_reg], config.grid,
                                        config.patch_size)
        base = forward(image, config, params).data
        other = forward(moved, config, relabel_summaries(params, perm)).data
        worst = max(worst, float(np.abs(base - other).max()))
    return worst


@pytest.mark.parametrize("kind", harness.PERM_KINDS)
def test_permutation_test_equals_forwarding_the_permuted_image(kind):
    config = small_config(grid=GridSpec(4, 4, 2, 2), scheme="alibi2d")
    params = init_params(config)
    randomize_params(params, Rng(3))
    expected = permutation_test_by_image(config, params, kind, 3, seed=11)
    assert permutation_test(config, params, kind, 3, seed=11) == expected
    assert expected > 1e-6  # alibi2d tells every kind apart


def allowed_kinds(layout):
    """The permutation kinds a layout's level count and blocks allow."""
    if not layout.levels:
        return ["any"]
    if layout.counts[1] < 2:
        return ["any", "within-block", "block"]
    return list(harness.PERM_KINDS)


@st.composite
def probe_cases(draw):
    """A randomized model on a grid up to 8x8 with k = 2-3, under a
    (scheme, policy) pair whose summary rows differ, and a kind its
    layout allows."""
    n_h, n_w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.integers(2, 3))
    grid = GridSpec(n_h, n_w, k, draw(st.integers(0, max_levels(n_h, n_w, k))))
    scheme, policy = draw(st.sampled_from([
        ("learned", "register"), ("sincos2d", "summary"), ("none", "register"),
        ("alibi2d", "summary"),
    ]))
    config = EncoderConfig(
        grid=grid, d=8, n_heads=2, n_layers=draw(st.integers(1, 2)),
        n_classes=3, patch_size=draw(st.integers(1, 2)), scheme=scheme,
        policy=policy, mask=draw(st.sampled_from(["fractal", "full"])),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    params = init_params(config)
    randomize_params(params, Rng(draw(st.integers(0, 2 ** 16))))
    kind = draw(st.sampled_from(allowed_kinds(params.layout)))
    return config, params, kind


@settings(max_examples=60, deadline=None)
@given(case=probe_cases(), seed=st.integers(0, 2 ** 16))
def test_permutation_test_equals_the_image_reference_property(case, seed):
    config, params, kind = case
    assert permutation_test(config, params, kind, 2, seed) == \
        permutation_test_by_image(config, params, kind, 2, seed)


def reference_permutation_test(config, params, kind, trials, seed):
    """Reference ``permutation_test``: the per-trial loop, with the base
    and the permuted sequence each run through the stages alone."""
    rng = Rng(seed)
    stages = forward_stages(params)
    n_reg = params.layout.n_regular
    notape = Tape(recording=False)
    worst = 0.0
    for _ in range(trials):
        image = rng.uniform_array(config.image_shape)
        perm = sample_permutation(params.layout, kind, rng)
        rows = patch_rows([image], config)
        base = run_stages(stages, rows, notape).data[0]
        seq = stages[0].run(Tensor(rows.data[perm[:n_reg]]), notape)
        seq.data[n_reg:] = seq.data[perm[n_reg:]]
        other = run_stages(stages[1:], seq, notape).data[0]
        worst = max(worst, float(np.abs(base - other).max()))
    return worst


@pytest.mark.parametrize("mask", ["fractal", "full"])
@pytest.mark.parametrize("kind", harness.PERM_KINDS)
def test_permutation_test_equals_the_per_trial_loop_bitwise(kind, mask):
    config = small_config(grid=GridSpec(4, 4, 2, 2), d=8, scheme="alibi2d",
                          mask=mask)
    params = init_params(config)
    randomize_params(params, Rng(5))
    # two full chunks of trials, then a partial one
    per_chunk = harness._per_chunk(2 * 8 * params.layout.total * config.d)
    assert per_chunk > 1
    trials = 2 * per_chunk + 1
    expected = reference_permutation_test(config, params, kind, trials, seed=4)
    assert permutation_test(config, params, kind, trials, seed=4) == expected
    assert expected > 1e-6  # alibi2d tells every kind apart


def test_sample_permutation_kinds():
    rng = Rng(0)
    layout = build_layout(GRID)
    unmoved = list(range(16, layout.total))  # summaries and the global token
    perm = sample_permutation(layout, "any", rng)
    assert sorted(perm[:16]) == list(range(16))
    assert perm[16:] == unmoved

    perm = sample_permutation(layout, "within-block", rng)
    assert perm[16:] == unmoved
    for dst, src in enumerate(perm[:16]):
        assert (dst // 4 // 2, dst % 4 // 2) == (src // 4 // 2, src % 4 // 2)

    perm = sample_permutation(layout, "block", rng)
    cell_perm = [src - 16 for src in perm[16:20]]
    assert sorted(cell_perm) == list(range(4))
    assert perm[20:] == unmoved[4:]
    for dst, src in enumerate(perm[:16]):
        # offsets within the block are preserved
        assert (dst // 4 % 2, dst % 4 % 2) == (src // 4 % 2, src % 4 % 2)
        # and the block's summary moves with it
        assert cell_perm[dst // 4 // 2 * 2 + dst % 4 // 2] == \
            src // 4 // 2 * 2 + src % 4 // 2

    perm = sample_permutation(layout, "cross-block-transposition", rng)
    moved = [i for i, p in enumerate(perm) if p != i]
    assert len(moved) == 2
    a, b = moved
    assert (a // 4 // 2, a % 4 // 2) != (b // 4 // 2, b % 4 // 2)


def test_sample_permutation_rejects_unknown_kind():
    # the kind is checked before the level count, so a grid without
    # summaries blames the kind, not the missing levels
    message = re.escape(f"kind must be one of {harness.PERM_KINDS}, got 'mirror'")
    for levels in (1, 0):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            sample_permutation(build_layout(GridSpec(4, 4, 2, levels)),
                               "mirror", Rng(0))


def test_permutation_kinds_need_summary_levels():
    with pytest.raises(ConfigError):
        sample_permutation(build_layout(GridSpec(4, 4, 2, 0)), "within-block",
                           Rng(0))


def test_block_kind_shuffles_level1_cells_within_their_level2_parent():
    # 14x14 with k=3 and two levels: the 4x4 level-1 cells in rows and
    # columns 0-2 share the one level-2 token, the other 7 have no parent
    # and form a group of their own; patches outside the 12x12 level-1
    # coverage never move, and neither do the level-2 and global tokens
    layout = build_layout(GridSpec(14, 14, 3, 2))
    off1 = layout.offsets[1]
    under_parent = {i * 4 + j for i in range(3) for j in range(3)}
    moved_groups = set()
    rng = Rng(4)
    for _ in range(20):
        perm = sample_permutation(layout, "block", rng)
        assert sorted(perm) == list(range(layout.total))
        assert perm[off1 + 16:] == list(range(off1 + 16, layout.total))
        cell_perm = [src - off1 for src in perm[off1:off1 + 16]]
        assert sorted(cell_perm) == list(range(16))
        for dst, src in enumerate(cell_perm):
            assert (dst in under_parent) == (src in under_parent)
            if dst != src:
                moved_groups.add(dst in under_parent)
        assert sorted(perm[:196]) == list(range(196))
        for dst, src in enumerate(perm[:196]):
            (di, dj), (si, sj) = divmod(dst, 14), divmod(src, 14)
            if di >= 12 or dj >= 12:
                assert src == dst
                continue
            # patch moves with its level-1 cell, at the same offset in it
            assert cell_perm[di // 3 * 4 + dj // 3] == si // 3 * 4 + sj // 3
            assert (di % 3, dj % 3) == (si % 3, sj % 3)
    assert moved_groups == {True, False}


def test_probes_reject_seeds_outside_the_stream_range():
    # such seeds used to alias one in range: 2**64 ran as seed 0
    config = small_config(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1,
                          n_classes=4, patch_size=2)
    params = init_params(config)
    for seed in (2 ** 64, -1):
        with pytest.raises(ConfigError, match="seed must be in"):
            permutation_test(config, params, "any", trials=2, seed=seed)
        with pytest.raises(ConfigError, match="seed must be in"):
            gradcheck(config, seed=seed)


def test_invariance_smoke():
    config = small_config(scheme="none", policy="none", mask="full")
    params = init_params(config)
    randomize_params(params, Rng(1))
    dev = permutation_test(config, params, "any", trials=2, seed=9)
    assert dev < 1e-10


def test_symmetry_breaking_smoke():
    config = small_config(scheme="none", policy="none", mask="fractal")
    params = init_params(config)
    randomize_params(params, Rng(2))
    dev = permutation_test(config, params, "cross-block-transposition",
                           trials=2, seed=9)
    assert dev > 1e-6


# ----------------------------------------------------------------------
# gradcheck
# ----------------------------------------------------------------------

def test_gradcheck_small_model_passes():
    config = small_config(
        grid=GridSpec(2, 2, 2, 1), d=8, n_heads=2, n_layers=1, n_classes=4,
        patch_size=2,
    )
    assert gradcheck(config, eps=1e-5, batch_size=1, seed=0) < 1e-4


def full_forward_gradcheck(config, eps, batch_size, seed):
    """``gradcheck`` without stage reuse: the whole ``batch_loss`` for every
    step, on the same params and batch, with the same error formula."""
    params = init_params(config)
    rng = Rng(substream_seed(seed, 7))
    randomize_params(params, rng)
    batch = [(rng.uniform_array(config.image_shape), rng.below(config.n_classes))
             for _ in range(batch_size)]
    images = [image for image, _ in batch]
    labels = [label for _, label in batch]
    tape = Tape()
    tape.backward(batch_loss(images, labels, config, params, tape))
    notape = Tape(recording=False)
    worst = 0.0
    for _, tensor, row_mask in params.trainable_items():
        grad = tensor.grad.reshape(-1)
        flat = tensor.data.reshape(-1)
        rows = range(tensor.data.shape[0]) if row_mask is None \
            else np.flatnonzero(row_mask)
        per_row = flat.size // tensor.data.shape[0]
        for idx in (r * per_row + c for r in rows for c in range(per_row)):
            saved = flat[idx]
            flat[idx] = saved + eps
            plus = float(batch_loss(images, labels, config, params, notape).data)
            flat[idx] = saved - eps
            minus = float(batch_loss(images, labels, config, params, notape).data)
            flat[idx] = saved
            fd = (plus - minus) / (2.0 * eps)
            rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6)
            assert math.isfinite(rel)
            worst = max(worst, rel)
    return worst


# A gradcheck case whose largest tensor, patch_w, has 384 entries. Its
# embedded sequence of 22 tokens of 8 features makes 23 entries a chunk, so
# patch_w spans 17 chunks, the last of 16 entries.
CHUNKED_CASE = dict(grid=GridSpec(4, 4, 2, 2), d=8, n_layers=1)


def test_the_chunked_gradcheck_case_ends_in_a_partial_chunk():
    config = small_config(**CHUNKED_CASE)
    params = init_params(config)
    entries = params.tensors["patch_w"].data.size
    assert entries == max(t.data.size for _, t, _ in params.trainable_items())
    embedded = forward_stages(params)[0].run(
        patch_rows([np.zeros(config.image_shape)], config), Tape(recording=False))
    per_chunk = harness._per_chunk(2 * embedded.data.nbytes)
    assert entries > 2 * per_chunk and entries % per_chunk


@pytest.mark.parametrize("overrides, batch_size", [
    # fvbench's probe-4x4 gradcheck preset
    (dict(d=8, n_layers=1), 1),
    (dict(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1, n_classes=4,
          patch_size=2, scheme="alibi2d"), 3),
    (dict(grid=GridSpec(2, 2, 2, 1), d=8, n_classes=4, patch_size=2,
          scheme="learned", policy="register"), 2),
    # posenc rows of the summary token are not trainable
    (dict(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1, n_classes=4,
          patch_size=2, scheme="learned", policy="none"), 2),
    (dict(grid=GridSpec(2, 2, 2, 1), d=8, n_classes=4, patch_size=2,
          mask="full"), 1),
    (dict(grid=GridSpec(2, 2, 2, 0), d=8, n_classes=4, patch_size=2), 1),
    (CHUNKED_CASE, 1),
])
def test_gradcheck_equals_the_full_forward_check_bitwise(overrides, batch_size):
    config = small_config(**overrides)
    expected = full_forward_gradcheck(config, 1e-5, batch_size, seed=3)
    assert gradcheck(config, eps=1e-5, batch_size=batch_size, seed=3) == expected
    assert 0.0 < expected < 1e-4


def test_gradcheck_reports_a_nan_gradient(monkeypatch):
    config = small_config(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1,
                          n_classes=4, patch_size=2)
    made = []
    real_init, real_backward = harness.init_params, Tape.backward

    def init(config):
        made.append(real_init(config))
        return made[-1]

    def backward(self, loss):
        real_backward(self, loss)
        made[0].tensors["head_b"].grad[0] = np.nan  # the last tensor checked

    monkeypatch.setattr(harness, "init_params", init)
    monkeypatch.setattr(Tape, "backward", backward)
    assert math.isnan(gradcheck(config, eps=1e-5, batch_size=1, seed=0))


def test_gradcheck_step_that_overflows_the_loss_is_a_config_error():
    config = small_config(grid=GridSpec(2, 2, 2, 1), d=8, n_heads=1,
                          n_layers=1, n_classes=4)
    with pytest.raises(ConfigError, match=re.escape(
            "eps 1e+300 is too large: the loss is not finite when "
            "patch_w[0, 0] moves by it")):
        gradcheck(config, eps=1e300, batch_size=1, seed=0)


def test_gradcheck_names_the_first_entry_whose_minus_step_overflows(monkeypatch):
    # Only layer0.mlp_w1 is checked. The MLP's layer norm outputs 0 in every
    # column but column 3, where it outputs -1, so moving mlp_w1[j, 3] down
    # by 1e300 sends hidden unit j to +1e300, which GELU passes and the final
    # layer norm overflows on; moving it up sends the unit to -1e300, which
    # GELU turns to 0. Entry [0, 3], flat index 3, is the first to fail, in
    # the middle of its chunk, and only its minus step fails.
    config = small_config(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1,
                          n_classes=4, patch_size=2)
    real_randomize = harness.randomize_params

    def randomize(params, rng):
        real_randomize(params, rng)
        params.tensors["layer0.ln2_gain"].data[...] = 0.0
        params.tensors["layer0.ln2_shift"].data[...] = np.eye(8)[3] * -1.0
        items = [item for item in params.trainable_items()
                 if item[0] == "layer0.mlp_w1"]
        params.trainable_items = lambda: iter(items)

    monkeypatch.setattr(harness, "randomize_params", randomize)
    # +eps and -eps copies of the MLP sublayer's float64 output
    entry_bytes = 2 * 8 * build_layout(config.grid).total * config.d
    assert harness._per_chunk(entry_bytes) > 4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match="^" + re.escape(
                "eps 1e+300 is too large: the loss is not finite when "
                "layer0.mlp_w1[0, 3] moves by it") + "$"):
            gradcheck(config, eps=1e300, batch_size=1, seed=0)


def test_gradcheck_step_too_small_to_move_an_entry_is_a_config_error():
    # patch_w[0, 0] + 1e-17 differs from patch_w[0, 0]; the larger
    # patch_w[0, 1] does not move, and a zero central difference would
    # report its correct gradient as a relative error near 1
    config = small_config(grid=GridSpec(2, 2, 2, 1), d=8, n_layers=1,
                          n_classes=4)
    with pytest.raises(ConfigError, match="^" + re.escape(
            "eps 1e-17 is too small: patch_w[0, 1] does not move by it") + "$"):
        gradcheck(config, eps=1e-17, batch_size=1, seed=0)


def test_loss_independent_parameter_has_zero_gradients_both_ways():
    # with an all-zero image the patch weight cannot influence the loss
    config = small_config(
        grid=GridSpec(2, 2, 2, 1), d=8, n_heads=2, n_layers=1, n_classes=4,
        patch_size=2,
    )
    params = init_params(config)
    randomize_params(params, Rng(3))
    image = np.zeros(config.image_shape)

    tape = Tape()
    tape.backward(batch_loss([image], [1], config, params, tape))
    analytic = params.tensors["patch_w"].grad
    assert analytic is not None and np.all(analytic == 0.0)

    notape = Tape(recording=False)
    w = params.tensors["patch_w"].data
    saved = w[0, 0]
    w[0, 0] = saved + 1e-4
    plus = float(batch_loss([image], [1], config, params, notape).data)
    w[0, 0] = saved - 1e-4
    minus = float(batch_loss([image], [1], config, params, notape).data)
    w[0, 0] = saved
    assert plus == minus  # finite difference is exactly zero too
