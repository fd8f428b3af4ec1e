"""Tests of the benchmark itself.

The command prints every metric BENCHMARK.json names, with that metric's
unit, and every output check rejects a deliberately wrong result.

    PYTHONPATH=src python -m pytest -q fvbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from fractalvit import encoder, harness  # noqa: E402
from fractalvit.autodiff import Tape  # noqa: E402
from fractalvit.encoder import EncoderConfig  # noqa: E402
from fractalvit.grid import GridSpec  # noqa: E402
from fractalvit.rng import Rng  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload, trace, key", [
    ("marked-4x4", 0, "end_to_end"),
    ("marked-4x4", 1, "per_layer"),
    ("probe-4x4", 0, "end_to_end"),
])
def test_command_prints_every_metric_with_its_unit(workload, trace, key):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
    if trace:
        # the wrapped import-time bindings in harness and encoder are seen
        for name in ("autodiff.ops_per_step", "encoder.batch_loss_ms",
                     "harness.evaluate_ms", "encoder.init_params_ms",
                     "grid.build_layout_ms", "posenc.assemble_posenc_ms"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_uninstall_restores_every_binding():
    before = (harness.forward, harness.init_params, encoder.build_layout,
              encoder.alibi2d_bias, Tape.linear, Rng.normal_array)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.forward is not before[0]
        assert encoder.build_layout is not before[2]
    finally:
        tracer.uninstall()
    after = (harness.forward, harness.init_params, encoder.build_layout,
             encoder.alibi2d_bias, Tape.linear, Rng.normal_array)
    assert all(a is b for a, b in zip(after, before))


# ----------------------------------------------------------------------
# each check passes on the program's output and rejects a wrong one
# ----------------------------------------------------------------------

@pytest.fixture
def model():
    grid = GridSpec(4, 4, 2, 1)
    config = EncoderConfig(grid=grid, d=8, n_heads=2, n_layers=1,
                           n_classes=16, patch_size=2)
    params = encoder.init_params(config)
    rng = Rng(3)
    images = [rng.uniform_array(config.image_shape) for _ in range(3)]
    labels = [rng.below(16) for _ in range(3)]
    return config, params, images, labels


def test_init_loss_check_rejects_a_loss_off_by_1e9(model):
    config, params, images, labels = model
    loss = float(encoder.batch_loss(images, labels, config, params,
                                    Tape(recording=False)).data)
    assert checks.check_init_loss(loss, 16) == []
    assert checks.check_init_loss(loss + 1e-9, 16)


def test_batch_check_rejects_logits_moved_by_1e6(model):
    config, params, images, _ = model
    harness.randomize_params(params, Rng(4))
    batch = encoder.forward_batch(images, config, params).data
    single = np.stack([encoder.forward(img, config, params).data
                       for img in images])
    assert checks.check_batch_matches_single(batch, single) == []
    single[1, 2] += 1e-6
    assert checks.check_batch_matches_single(batch, single)


def test_accuracy_check_rejects_a_wrong_share(model):
    config, params, _, _ = model
    harness.randomize_params(params, Rng(4))
    dataset = harness.enumerate_marked_patch_eval(config.grid, config.patch_size)
    labels = [label for _, label in dataset.samples]
    single = np.stack([encoder.forward(img, config, params).data
                       for img, _ in dataset.samples])
    accuracy = harness.evaluate(config, params, dataset)
    assert checks.check_accuracy(accuracy, single, labels) == []
    assert checks.check_accuracy(accuracy + 1 / len(labels), single, labels)


def test_central_difference_check_rejects_a_wrong_gradient(model):
    config, params, images, labels = model
    harness.randomize_params(params, Rng(4))
    entries = workloads.central_difference_entries(
        config, params, images, labels, Rng(5))
    assert {label.split(":")[0] for label, _, _ in entries} == {
        "patch", "attention", "mlp", "norm", "tokens", "head"}
    assert checks.check_central_difference(entries) == []
    label, analytic, numeric = entries[0]
    wrong = [(label, analytic * (1 + 1e-3), numeric)] + entries[1:]
    assert checks.check_central_difference(wrong)


def test_training_checks_reject_divergence_and_a_loss_at_chance():
    assert checks.check_training([2.0, 1.5], False, [0.5, 0.95], 0.9) == []
    assert checks.check_training([2.0, 1.5], True, [0.5, 0.95])
    assert checks.check_training([2.0, math.nan], False, [0.5, 0.95])
    assert checks.check_training([2.0, 1.5], False, [0.5, 0.85], 0.9)
    assert checks.check_trained_loss(math.log(16) - 1e-9, 16) == []
    assert checks.check_trained_loss(math.log(16), 16)


def test_probe_checks_reject_values_past_their_bounds():
    assert checks.check_invariant("any", [1e-15, 5e-11]) == []
    assert checks.check_invariant("any", [1e-15, 2e-10])
    assert checks.check_breaking("transposition", [0.01, 2e-6]) == []
    assert checks.check_breaking("transposition", [0.01, 5e-7])
    assert checks.check_gradcheck(5e-6) == []
    assert checks.check_gradcheck(2e-4)


def test_repeatability_check_rejects_a_last_bit_change():
    value = 0.1 + 0.2
    assert checks.check_repeatable((value,), (value,)) == []
    assert checks.check_repeatable((value,), (np.nextafter(value, 1.0),))
