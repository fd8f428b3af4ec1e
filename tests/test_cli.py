import math
import subprocess
import sys

import numpy as np
import pytest

from fractalvit import cli
from fractalvit.grid import GridSpec, build_layout
from fractalvit.mask import build_fractal_mask


def fvit(*args, env=None, timeout=None):
    cmd = [sys.executable, "-m", "fractalvit"] + [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=timeout)


# ----------------------------------------------------------------------
# mask command
# ----------------------------------------------------------------------

def test_mask_16x16_k4_csv(tmp_path):
    out = tmp_path / "mask.csv"
    result = fvit("mask", "--grid", "16x16", "--k", "4", "--levels", "1",
                  "--out", out)
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 273
    assert len(lines[0].split(",")) == 273


def test_mask_matches_library(tmp_path):
    out = tmp_path / "mask.csv"
    assert fvit("mask", "--grid", "8x8", "--k", "4", "--out", out).returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    parsed = np.array(rows, dtype=int).astype(bool)
    expected = build_fractal_mask(build_layout(GridSpec(8, 8, 4, 1)))
    assert np.array_equal(parsed, expected)


def test_mask_invalid_geometry_exits_2(tmp_path):
    result = fvit("mask", "--grid", "3x3", "--k", "4", "--levels", "1",
                  "--out", tmp_path / "m.csv")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_mask_out_that_cannot_be_a_new_file_exits_2(tmp_path):
    missing = tmp_path / "missing" / "m.csv"
    result = fvit("mask", "--grid", "4x4", "--out", missing)
    assert result.returncode == 2
    assert f"error: --out {missing}: directory {missing.parent} does not exist" \
        in result.stderr
    result = fvit("mask", "--grid", "4x4", "--out", tmp_path)
    assert result.returncode == 2
    assert f"error: --out {tmp_path} is a directory" in result.stderr


def test_mask_pgm_format(tmp_path):
    out = tmp_path / "mask.pgm"
    assert fvit("mask", "--grid", "4x4", "--k", "2", "--levels", "1",
                "--format", "pgm", "--out", out).returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "21 21"
    assert lines[2] == "255"


def test_mask_full_kind(tmp_path):
    out = tmp_path / "full.csv"
    assert fvit("mask", "--grid", "4x4", "--k", "2", "--kind", "full",
                "--out", out).returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    assert np.array(rows, dtype=int).all()


def test_mask_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fvit("mask", "--grid", "8x8", "--k", "2", "--out", a)
    fvit("mask", "--grid", "8x8", "--k", "2", "--out", b)
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# layout command
# ----------------------------------------------------------------------

def test_layout_dump(tmp_path):
    out = tmp_path / "layout.txt"
    assert fvit("layout", "--grid", "4x4", "--k", "2", "--levels", "1",
                "--out", out).returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 21
    assert lines[0].startswith("0\tregular")


def test_layout_out_that_cannot_be_written_exits_2(tmp_path):
    # the directory exists, but no file system takes a 300-byte name
    out = tmp_path / ("x" * 300)
    result = fvit("layout", "--grid", "4x4", "--out", out)
    assert result.returncode == 2
    assert f"error: --out {out}: cannot write: File name too long" \
        in result.stderr


# ----------------------------------------------------------------------
# posenc command
# ----------------------------------------------------------------------

def test_posenc_sincos_grid_rows(tmp_path):
    out = tmp_path / "pe.csv"
    result = fvit("posenc", "--scheme", "sincos2d", "--grid", "2x2",
                  "--dim", "4", "--out", out)
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    first = [float(v) for v in lines[0].split(",")]
    assert first == [0.0, 1.0, 0.0, 1.0]
    norms = [sum(float(v) ** 2 for v in line.split(",")) for line in lines]
    assert all(abs(n - 2.0) < 1e-12 for n in norms)


def test_posenc_alibi_slopes(tmp_path):
    out = tmp_path / "slopes.txt"
    assert fvit("posenc", "--scheme", "alibi-slopes", "--heads", "8",
                "--out", out).returncode == 0
    values = [float(line) for line in out.read_text().strip().split("\n")]
    assert values == [2.0 ** -(h + 1) for h in range(8)]


def test_posenc_assembled_table(tmp_path):
    out = tmp_path / "table.csv"
    result = fvit("posenc", "--scheme", "sincos2d", "--grid", "4x4", "--k", "2",
                  "--levels", "1", "--dim", "8", "--table", "--out", out)
    assert result.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 21
    assert lines[0].split(",")[0] == "0"


def test_posenc_rejects_gridless_scheme(tmp_path):
    result = fvit("posenc", "--scheme", "learned", "--grid", "4x4",
                  "--dim", "8", "--out", tmp_path / "x.csv")
    assert result.returncode == 2


def test_none_summary_rejected_alike_by_train_and_posenc_table(tmp_path):
    flags = ("--scheme", "none", "--policy", "summary")
    train = fvit("train", *flags, "--epochs", "1", "--out", tmp_path / "r.txt")
    table = fvit("posenc", "--table", *flags, "--out", tmp_path / "pe.csv")
    assert train.returncode == table.returncode == 2
    assert train.stderr == table.stderr
    assert train.stderr.startswith("error: scheme 'none' with policy 'summary'")
    assert not (tmp_path / "r.txt").exists()
    assert not (tmp_path / "pe.csv").exists()


def test_posenc_zero_dim_exits_2(tmp_path):
    out = tmp_path / "pe.csv"
    result = fvit("posenc", "--scheme", "sincos2d", "--grid", "4x4",
                  "--dim", "0", "--out", out)
    assert result.returncode == 2
    assert "error: sincos2d needs a positive d" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0x4", "4x0"])
def test_posenc_empty_grid_exits_2(tmp_path, grid):
    out = tmp_path / "pe.csv"
    result = fvit("posenc", "--scheme", "sincos2d", "--grid", grid,
                  "--out", out)
    assert result.returncode == 2
    assert f"error: sincos2d needs a grid of at least 1x1, got {grid}" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("table", [False, True])
def test_posenc_bad_tau_exits_2(tmp_path, table):
    out = tmp_path / "pe.csv"
    for tau in ("0", "-1", "nan", "inf"):
        result = fvit("posenc", "--scheme", "sincos2d", "--grid", "4x4",
                      "--dim", "8", "--tau", tau, "--out", out,
                      *(["--table"] if table else []))
        assert result.returncode == 2, tau
        assert "error: tau must be a positive finite number" in result.stderr
        assert not out.exists()


# ----------------------------------------------------------------------
# train command
# ----------------------------------------------------------------------

def train_args(tmp_path, **extra):
    args = [
        "train", "--grid", "4x4", "--k", "2", "--levels", "1", "--dim", "16",
        "--heads", "2", "--layers", "1", "--patch", "4", "--task", "marked",
        "--count", "8", "--epochs", "2", "--batch", "4", "--lr", "0.1",
        "--out", tmp_path / "report.txt",
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_train_zero_heads_exits_2(tmp_path):
    result = fvit(*train_args(tmp_path, heads=0))
    assert result.returncode == 2
    assert "error: n_heads must be >= 1" in result.stderr


def test_train_width_one_exits_2(tmp_path):
    # one feature used to reach layer_norm and exit 1 as an internal error
    result = fvit(*train_args(tmp_path, dim=1, heads=1, scheme="none",
                              policy="none"))
    assert result.returncode == 2
    assert result.stderr == "error: d must be >= 2 for layer norm, got 1\n"
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("extra,message", [
    (dict(layers=0), "n_layers must be >= 1, got 0"),
    (dict(patch=0), "patch_size must be >= 1, got 0"),
    # the marked task on one patch has one class
    (dict(grid="1x1", levels=0), "n_classes must be >= 2, got 1"),
    (dict(epochs=0), "epochs must be >= 1, got 0"),
    (dict(batch=0), "batch must be >= 1, got 0"),
])
def test_train_names_the_field_that_fails(tmp_path, extra, message):
    result = fvit(*train_args(tmp_path, **extra))
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "report.txt").exists()


def test_train_non_finite_lr_exits_2(tmp_path):
    for lr in ("nan", "inf"):
        result = fvit(*train_args(tmp_path, lr=lr))
        assert result.returncode == 2, lr
        assert "error: lr must be a finite number" in result.stderr


def test_train_bad_tau_exits_2(tmp_path):
    # tau = 0 used to build a NaN sincos2d table and exit 0 as diverged
    for tau in ("0", "-1", "nan", "inf"):
        result = fvit(*train_args(tmp_path, tau=tau))
        assert result.returncode == 2, tau
        assert "error: tau must be a positive finite number" in result.stderr
        assert not (tmp_path / "report.txt").exists()


def test_train_rejects_the_probe_flags(tmp_path, capsys):
    # train reads no probe key, so its parser has no flag for one
    for key, value in (("eps", "1e-5"), ("kind", "any"), ("trials", "0")):
        with pytest.raises(SystemExit) as exc:
            cli.main([str(a) for a in train_args(tmp_path, **{key: value})])
        assert exc.value.code == 2, key
        assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()
    # a config file shared with the probe commands still serves train
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 1e-5\nkind = any\ntrials = 0\n")
    assert cli.main([str(a) for a in train_args(tmp_path)]
                    + ["--config", str(cfg)]) == 0


def test_train_lr_zero_keeps_initial_accuracy(tmp_path):
    result = fvit(*train_args(tmp_path, lr="0.0"))
    assert result.returncode == 0
    text = (tmp_path / "report.txt").read_text()
    accs = [
        float(line.split("eval_acc=")[1])
        for line in text.splitlines()
        if line.startswith("epoch ")
    ]
    final = float(text.split("final_eval_acc = ")[1])
    assert all(a == final for a in accs)


def test_train_outputs_are_byte_identical(tmp_path):
    fvit(*train_args(tmp_path), "--csv", tmp_path / "a.csv")
    first_report = (tmp_path / "report.txt").read_bytes()
    first_csv = (tmp_path / "a.csv").read_bytes()
    fvit(*train_args(tmp_path), "--csv", tmp_path / "b.csv")
    assert (tmp_path / "report.txt").read_bytes() == first_report
    assert (tmp_path / "b.csv").read_bytes() == first_csv


def test_train_report_embeds_config(tmp_path):
    fvit(*train_args(tmp_path))
    text = (tmp_path / "report.txt").read_text()
    for key in ("grid = 4x4", "scheme = sincos2d", "mask = fractal",
                "task = marked", "epochs = 2", "seed = 0"):
        assert key in text, key


def test_train_checkpoint_written(tmp_path):
    ckpt = tmp_path / "model.fvit"
    assert fvit(*train_args(tmp_path), "--checkpoint", ckpt).returncode == 0
    assert ckpt.read_bytes()[:4] == b"FVIT"


def test_train_out_in_missing_directory_exits_2_before_training(tmp_path):
    # 10**6 epochs: reaching the write only after training would time out
    missing = tmp_path / "missing" / "report.txt"
    args = train_args(tmp_path, epochs=10**6)
    args[args.index("--out") + 1] = missing
    result = fvit(*args, timeout=60)
    assert result.returncode == 2
    assert f"error: --out {missing}: directory" in result.stderr
    assert not missing.parent.exists()


def test_train_checkpoint_in_missing_directory_exits_2(tmp_path):
    ckpt = tmp_path / "missing" / "model.fvit"
    result = fvit(*train_args(tmp_path, epochs=10**6), "--checkpoint", ckpt,
                  timeout=60)
    assert result.returncode == 2
    assert "error: --checkpoint" in result.stderr
    assert not (tmp_path / "report.txt").exists()


def test_train_checkpoint_that_cannot_be_written_exits_2(tmp_path):
    ckpt = tmp_path / ("x" * 300)
    result = fvit(*train_args(tmp_path), "--checkpoint", ckpt)
    assert result.returncode == 2
    assert f"error: --checkpoint {ckpt}: cannot write: File name too long" \
        in result.stderr


def test_train_assert_min_violation_exits_3(tmp_path):
    result = fvit(*train_args(tmp_path), "--assert-min", "0.99")
    assert result.returncode == 3
    assert "assertion failed" in result.stderr


# ----------------------------------------------------------------------
# config file and seed handling
# ----------------------------------------------------------------------

def test_config_file_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 4x4\nwarp_speed = 9\n")
    result = fvit("mask", "--config", cfg, "--out", tmp_path / "m.csv")
    assert result.returncode == 2
    assert "warp_speed" in result.stderr


def test_config_file_that_cannot_be_read_exits_2(tmp_path):
    missing = tmp_path / "missing.cfg"
    result = fvit("train", "--config", missing, "--out", tmp_path / "r.txt")
    assert result.returncode == 2
    assert "error: cannot read config file" in result.stderr
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"grid = \xff\xfe\n")
    result = fvit("mask", "--config", binary, "--out", tmp_path / "m.csv")
    assert result.returncode == 2
    assert "error: cannot read config file" in result.stderr


def test_config_file_values_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ngrid = 4x4\nk = 2\nlevels = 1\n"
                   "dim = 16\nheads = 2\nlayers = 1\npatch = 4\n"
                   "task = marked\ncount = 8\nepochs = 2\nbatch = 4\nlr = 0.0\n")
    out = tmp_path / "report.txt"
    result = fvit("train", "--config", cfg, "--epochs", "3", "--out", out)
    assert result.returncode == 0
    text = out.read_text()
    assert "epochs = 3" in text  # flag wins over file
    assert "dim = 16" in text


def test_fvit_seed_env_var(tmp_path):
    import os

    env = dict(os.environ)
    env["FVIT_SEED"] = "123"
    fvit(*train_args(tmp_path), env=env)
    assert "seed = 123" in (tmp_path / "report.txt").read_text()
    # explicit flag beats the environment
    fvit(*train_args(tmp_path), "--seed", "7", env=env)
    assert "seed = 7" in (tmp_path / "report.txt").read_text()


# ----------------------------------------------------------------------
# gradcheck / permtest commands
# ----------------------------------------------------------------------

SMALL_MODEL = ["--grid", "2x2", "--k", "2", "--levels", "1", "--dim", "8",
               "--heads", "2", "--layers", "1", "--patch", "2", "--task",
               "marked"]


def test_gradcheck_passes_and_asserts(tmp_path):
    out = tmp_path / "gc.txt"
    result = fvit("gradcheck", *SMALL_MODEL, "--assert-max", "1e-4",
                  "--out", out)
    assert result.returncode == 0, result.stderr
    value = out.read_text().split("max_rel_err = ")[1].strip()
    assert 0.0 <= float(value) < 1e-4  # a plain float, not a numpy repr


def test_gradcheck_assert_violation_exits_3(tmp_path):
    result = fvit("gradcheck", *SMALL_MODEL, "--assert-max", "1e-20")
    assert result.returncode == 3


def test_gradcheck_zero_eps_exits_2():
    result = fvit("gradcheck", *SMALL_MODEL, "--eps", "0")
    assert result.returncode == 2
    assert "error: eps must be a positive finite step" in result.stderr


def test_gradcheck_step_that_overflows_the_loss_exits_2(tmp_path):
    # the step overflows the forward, the mask is fine: a bad eps, not an
    # internal error
    out = tmp_path / "gc.txt"
    result = fvit("gradcheck", "--grid", "2x2", "--k", "2", "--levels", "1",
                  "--dim", "8", "--heads", "1", "--layers", "1",
                  "--eps", "1e300", "--out", out)
    assert result.returncode == 2
    assert result.stderr == ("error: eps 1e+300 is too large: the loss is not "
                             "finite when patch_w[0, 0] moves by it\n")
    assert not out.exists()


def test_gradcheck_step_too_small_to_move_an_entry_exits_2(tmp_path):
    # a zero central difference used to print max_rel_err = 1.048... and exit 0
    out = tmp_path / "gc.txt"
    result = fvit("gradcheck", "--grid", "2x2", "--k", "2", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--eps", "1e-17", "--out", out)
    assert result.returncode == 2
    assert result.stderr == ("error: eps 1e-17 is too small: patch_w[0, 1] "
                             "does not move by it\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--assert-max", "nan"), ("--assert-min", "inf"), ("--assert-max", "x"),
])
def test_assert_flag_that_is_not_finite_exits_2_before_any_work(
        tmp_path, flag, value):
    out = tmp_path / "gc.txt"
    result = fvit("gradcheck", *SMALL_MODEL, f"{flag}={value}", "--out", out)
    assert result.returncode == 2
    assert f"argument {flag}: must be a finite number, got {value!r}" \
        in result.stderr
    assert not out.exists()


def test_nan_value_fails_every_assertion_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "gradcheck", lambda *args, **kwargs: math.nan)
    out = tmp_path / "gc.txt"
    for flag in ("--assert-max", "--assert-min"):
        assert cli.main(["gradcheck", *SMALL_MODEL, flag, "0", "--out",
                         str(out)]) == 3
        assert capsys.readouterr().err == \
            "assertion failed: value nan is not a number\n"
        assert out.read_text().endswith("max_rel_err = nan\n")
    assert cli.main(["gradcheck", *SMALL_MODEL]) == 0


def test_permtest_within_block_invariance(tmp_path):
    out = tmp_path / "pt.txt"
    result = fvit("permtest", "--grid", "4x4", "--k", "2", "--levels", "1",
                  "--dim", "16", "--heads", "2", "--layers", "1", "--patch", "2",
                  "--task", "marked", "--scheme", "none", "--policy", "none",
                  "--mask", "fractal", "--kind", "within-block", "--trials", "3",
                  "--assert-max", "1e-10", "--out", out)
    assert result.returncode == 0, result.stderr
    assert "max_deviation = " in out.read_text()


def test_permtest_cross_block_breaks_invariance(tmp_path):
    # needs two layers: with one, the global readout only sees the
    # key/value multiset of the regular tokens, which any permutation
    # preserves
    result = fvit("permtest", "--grid", "4x4", "--k", "2", "--levels", "1",
                  "--dim", "16", "--heads", "2", "--layers", "2", "--patch", "2",
                  "--task", "marked", "--scheme", "none", "--policy", "none",
                  "--mask", "fractal", "--kind", "cross-block-transposition",
                  "--trials", "3", "--assert-min", "1e-6")
    assert result.returncode == 0, result.stderr


def test_permtest_assert_max_fails_a_model_whose_logits_overflow(
        tmp_path, monkeypatch, capsys):
    from test_harness import overflow_logits

    real_randomize = cli.randomize_params

    def randomize(params, rng):
        real_randomize(params, rng)
        overflow_logits(params)

    monkeypatch.setattr(cli, "randomize_params", randomize)
    out = tmp_path / "pt.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main([
            "permtest", "--grid", "4x4", "--k", "2", "--levels", "1",
            "--dim", "8", "--heads", "2", "--layers", "2", "--task", "marked",
            "--scheme", "none", "--policy", "none", "--mask", "fractal",
            "--kind", "cross-block-transposition", "--trials", "4",
            "--assert-max", "1e-10", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == \
        "assertion failed: value nan is not a number\n"
    assert out.read_text().endswith("max_deviation = nan\n")


@pytest.mark.parametrize("command, extra, last", [
    ("gradcheck", ["--batch-size", "2"],
     ["eps = 1e-5", "batch_size = 2", "max_rel_err = "]),
    ("permtest", ["--kind", "any", "--trials", "2"],
     ["kind = any", "trials = 2", "max_deviation = "]),
])
def test_probe_report_bytes_match_on_out_and_stdout(tmp_path, command, extra,
                                                    last):
    out = tmp_path / "report.txt"
    to_file = fvit(command, *SMALL_MODEL, *extra, "--out", out)
    to_stdout = fvit(command, *SMALL_MODEL, *extra)
    assert to_file.returncode == to_stdout.returncode == 0, to_file.stderr
    assert to_file.stdout == ""
    text = out.read_text()
    assert to_stdout.stdout == text
    lines = text.splitlines()
    assert lines[0] == "grid = 2x2" and lines[-4] == "tau = 10000.0"
    assert lines[-3:-1] == last[:2] and lines[-1].startswith(last[2])


def test_unknown_perm_kind_exits_2():
    result = fvit("permtest", "--kind", "mirror", "--trials", "1")
    assert result.returncode == 2
    assert result.stderr == (
        "error: kind must be one of ('any', 'within-block', 'block', "
        "'cross-block-transposition'), got 'mirror'\n"
    )


# ----------------------------------------------------------------------
# seeds outside [0, 2**64)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [str(2 ** 64), "-5"])
def test_seed_outside_the_stream_range_exits_2(tmp_path, seed):
    # such seeds used to alias one in range: 2**64 ran as 0, -5 as 2**64 - 5
    message = f"error: seed must be in [0, 2**64), got {seed}\n"
    result = fvit("permtest", *SMALL_MODEL, "--trials", "1", "--seed", seed)
    assert (result.returncode, result.stderr) == (2, message)
    result = fvit("posenc", "--table", "--scheme", "learned", "--seed", seed,
                  "--out", tmp_path / "pos.csv")
    assert (result.returncode, result.stderr) == (2, message)
    assert not (tmp_path / "pos.csv").exists()


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_fvit_seed_outside_the_stream_range_exits_2(seed):
    import os

    env = dict(os.environ, FVIT_SEED=seed)
    result = fvit("gradcheck", *SMALL_MODEL, env=env)
    assert result.returncode == 2
    assert result.stderr == f"error: seed must be in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_data_seed_outside_the_stream_range_exits_2(tmp_path, seed):
    for task in ("marked", "pair"):
        result = fvit(*train_args(tmp_path, task=task, data_seed=seed))
        assert result.returncode == 2, task
        assert result.stderr == \
            f"error: data_seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "report.txt").exists()


def test_largest_seeds_run(tmp_path):
    top = str(2 ** 64 - 1)
    result = fvit(*train_args(tmp_path, seed=top, data_seed=top))
    assert result.returncode == 0, result.stderr
    assert f"seed = {top}" in (tmp_path / "report.txt").read_text()
