"""Batch command-line front end.

Subcommands: mask, layout, posenc, train, gradcheck, permtest. Every
command is deterministic given its inputs and seed, and writes output
files byte-identically across repeated runs.

Exit codes: 0 success, 1 internal error, 2 configuration error (a grid
too large for memory among them), 3 assertion flag violated. FVIT_SEED
overrides the default seed when no config file or flag sets one.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from contextlib import contextmanager

from .encoder import EncoderConfig, init_params, save_checkpoint
from .errors import ConfigError
from .grid import GridSpec, build_layout, max_levels
from .harness import (
    config_echo,
    gradcheck,
    permutation_test,
    randomize_params,
    task_named,
    train,
)
from .mask import build_fractal_mask, build_full_mask, mask_csv, mask_pgm
from .posenc import alibi_slopes, assemble_posenc, csv_row, postable_csv, sincos2d
from .rng import Rng, check_seed, substream_seed


class AssertionFlagError(Exception):
    """An --assert-min / --assert-max bound was violated."""


DEFAULTS = {
    "grid": "4x4",
    "k": "2",
    "levels": "max",
    "dim": "32",
    "heads": "2",
    "layers": "2",
    "mlp_ratio": "4",
    "patch": "4",
    "scheme": "sincos2d",
    "policy": "summary",
    "mask": "fractal",
    "seed": "0",
    "tau": "10000.0",
    "task": "marked",
    "lr": "0.5",
    "epochs": "100",
    "batch": "16",
    "count": "64",
    "data_seed": "1",
    "eps": "1e-5",
    "kind": "within-block",
    "trials": "10",
}

# The keys encoder_config_from_values reads; every model command takes them.
MODEL_KEYS = ("grid", "k", "levels", "dim", "heads", "layers", "mlp_ratio",
              "patch", "scheme", "policy", "mask", "seed", "tau", "task")


def parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError(f"grid must look like HxW, got {text!r}") from None


def load_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment; unknown keys rejected."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def resolve_run_config(args) -> dict:
    """Defaults, then FVIT_SEED, then the config file, then flags."""
    values = dict(DEFAULTS)
    env_seed = os.environ.get("FVIT_SEED")
    if env_seed is not None:
        values["seed"] = env_seed
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return values


def _int(values: dict, key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from None


def _float(values: dict, key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {values[key]!r}") from None


def grid_from_values(values: dict) -> GridSpec:
    n_h, n_w = parse_grid(values["grid"])
    k = _int(values, "k")
    levels = values["levels"]
    if levels == "max":
        level_count = max_levels(n_h, n_w, k)
    else:
        try:
            level_count = int(levels)
        except ValueError:
            raise ConfigError(f"levels must be an integer or 'max', got {levels!r}") from None
    return GridSpec(n_h=n_h, n_w=n_w, k=k, levels=level_count)


def encoder_config_from_values(values: dict) -> EncoderConfig:
    grid = grid_from_values(values)
    return EncoderConfig(
        grid=grid,
        d=_int(values, "dim"),
        n_heads=_int(values, "heads"),
        n_layers=_int(values, "layers"),
        n_classes=task_named(values["task"]).n_classes(grid),
        patch_size=_int(values, "patch"),
        mlp_ratio=_int(values, "mlp_ratio"),
        scheme=values["scheme"],
        policy=values["policy"],
        mask=values["mask"],
        seed=_int(values, "seed"),
        tau=_float(values, "tau"),
    )


@contextmanager
def output_path(args, key: str):
    """The path of flag ``--key`` for the body to write; an ``OSError``
    (a name too long, a read-only directory) becomes a ``ConfigError``."""
    path = getattr(args, key)
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"--{key} {path}: cannot write: {exc.strerror}") from None


def write_text(args, key: str, text: str) -> None:
    with output_path(args, key) as path, open(path, "w", newline="") as fh:
        fh.write(text)


def check_assertions(value: float, args) -> None:
    if math.isnan(value) and (args.assert_max is not None
                              or args.assert_min is not None):
        raise AssertionFlagError(f"value {value!r} is not a number")
    if args.assert_max is not None and value > args.assert_max:
        raise AssertionFlagError(
            f"value {value!r} exceeds --assert-max {args.assert_max!r}"
        )
    if args.assert_min is not None and value < args.assert_min:
        raise AssertionFlagError(
            f"value {value!r} below --assert-min {args.assert_min!r}"
        )


def write_probe_report(args, config: EncoderConfig, extra: list[str],
                       value: float) -> None:
    """The config echo plus ``extra`` lines, to ``--out`` or stdout; then
    the ``--assert-*`` bounds are checked against ``value``."""
    echo = [f"{key} = {item}" for key, item in config_echo(config).items()]
    text = "\n".join(echo + extra) + "\n"
    if args.out:
        write_text(args, "out", text)
    else:
        sys.stdout.write(text)
    check_assertions(value, args)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_mask(args) -> int:
    values = resolve_run_config(args)
    grid = grid_from_values(values)
    layout = build_layout(grid)
    if args.kind == "full":
        built = build_full_mask(layout.total)
    else:
        built = build_fractal_mask(layout)
    write_text(args, "out",
               mask_pgm(built) if args.format == "pgm" else mask_csv(built))
    return 0


def cmd_layout(args) -> int:
    values = resolve_run_config(args)
    layout = build_layout(grid_from_values(values))
    write_text(args, "out", layout.dump())
    return 0


def cmd_posenc(args) -> int:
    values = resolve_run_config(args)
    scheme = values["scheme"]
    if scheme == "alibi-slopes":
        slopes = alibi_slopes(_int(values, "heads"))
        write_text(args, "out", "\n".join(repr(float(s)) for s in slopes) + "\n")
        return 0
    if args.table:
        layout = build_layout(grid_from_values(values))
        seed = _int(values, "seed")
        check_seed(seed, "seed")
        table = assemble_posenc(
            scheme, layout, _int(values, "dim"),
            seed=substream_seed(seed, 1),
            policy=values["policy"], tau=_float(values, "tau"),
        )
        write_text(args, "out", postable_csv(table))
        return 0
    if scheme != "sincos2d":
        raise ConfigError(
            f"scheme {scheme!r} has no grid table; use --table for assembled "
            "tables or 'alibi-slopes' for slopes"
        )
    n_h, n_w = parse_grid(values["grid"])
    table = sincos2d(n_h, n_w, _int(values, "dim"), _float(values, "tau"))
    rows = table.reshape(n_h * n_w, -1)
    write_text(args, "out", "".join(csv_row(row) + "\n" for row in rows))
    return 0


def cmd_train(args) -> int:
    values = resolve_run_config(args)
    config = encoder_config_from_values(values)
    dataset = task_named(values["task"]).sample(
        config.grid, config.patch_size, _int(values, "count"),
        _int(values, "data_seed"),
    )
    params = init_params(config)
    report = train(
        config, dataset,
        epochs=_int(values, "epochs"),
        lr=_float(values, "lr"),
        batch=_int(values, "batch"),
        params=params,
    )
    if args.out:
        write_text(args, "out", report.to_text())
    if args.csv:
        write_text(args, "csv", report.to_csv())
    if args.checkpoint:
        with output_path(args, "checkpoint") as path:
            save_checkpoint(path, params)
    check_assertions(report.final_eval_acc, args)
    return 0


def cmd_gradcheck(args) -> int:
    values = resolve_run_config(args)
    config = encoder_config_from_values(values)
    worst = gradcheck(
        config, eps=_float(values, "eps"),
        batch_size=args.batch_size, seed=config.seed,
    )
    write_probe_report(args, config, [
        f"eps = {values['eps']}",
        f"batch_size = {args.batch_size}",
        f"max_rel_err = {worst!r}",
    ], worst)
    return 0


def cmd_permtest(args) -> int:
    values = resolve_run_config(args)
    config = encoder_config_from_values(values)
    kind = values["kind"]
    params = init_params(config)
    randomize_params(params, Rng(substream_seed(config.seed, 5)))
    worst = permutation_test(
        config, params, kind,
        trials=_int(values, "trials"),
        seed=substream_seed(config.seed, 6),
    )
    write_probe_report(args, config, [
        f"kind = {kind}",
        f"trials = {values['trials']}",
        f"max_deviation = {worst!r}",
    ], worst)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_config_flags(sub, keys) -> None:
    sub.add_argument("--config", help="key=value config file")
    for key in keys:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _finite_float(text: str) -> float:
    """An assertion bound: a finite number, or argparse exits 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_assert_flags(sub) -> None:
    sub.add_argument("--assert-max", type=_finite_float, default=None)
    sub.add_argument("--assert-min", type=_finite_float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvit",
        description="Fractal attention masks, positional encodings, and "
                    "desk-scale ViT experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mask", help="write a fractal or full attention mask")
    _add_config_flags(p, ("grid", "k", "levels"))
    p.add_argument("--kind", choices=("fractal", "full"), default="fractal")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = subs.add_parser("layout", help="dump the token layout as text")
    _add_config_flags(p, ("grid", "k", "levels"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_layout)

    p = subs.add_parser("posenc", help="write positional-encoding tables")
    _add_config_flags(
        p, ("grid", "k", "levels", "dim", "heads", "scheme", "policy",
            "seed", "tau"),
    )
    p.add_argument("--table", action="store_true",
                   help="assembled per-token table for the full layout")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_posenc)

    p = subs.add_parser("train", help="train on a toy task")
    _add_config_flags(p, MODEL_KEYS + ("lr", "epochs", "batch", "count",
                                       "data_seed"))
    p.add_argument("--out", help="report text path")
    p.add_argument("--csv", help="per-epoch CSV path")
    p.add_argument("--checkpoint", help="save trained weights here")
    _add_assert_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("gradcheck", help="finite-difference gradient check")
    _add_config_flags(p, MODEL_KEYS + ("eps",))
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--out")
    _add_assert_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("permtest", help="permutation sensitivity probe")
    _add_config_flags(p, MODEL_KEYS + ("kind", "trials"))
    p.add_argument("--out")
    _add_assert_flags(p)
    p.set_defaults(func=cmd_permtest)

    return parser


def _name_max(directory: str) -> int:
    """The longest file name, in bytes, that ``directory`` takes, or -1
    where the system states no limit."""
    try:
        return os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit
        return -1


def check_output_dirs(args) -> None:
    """Every output path given must name a file in an existing directory,
    with a name no longer than that directory takes, so a bad path fails
    before any work runs. A read-only directory still fails only when the
    file is written (``output_path``)."""
    for key in ("out", "csv", "checkpoint"):
        path = getattr(args, key, None)
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"--{key} {path}: directory {directory} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"--{key} {path} is a directory")
        if 0 <= _name_max(directory) < len(os.fsencode(os.path.basename(path))):
            raise ConfigError(f"--{key} {path}: cannot write: "
                              f"{os.strerror(errno.ENAMETOOLONG)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_output_dirs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionFlagError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the size of every table and tensor grows with the grid
        grid = resolve_run_config(args)["grid"]
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command}: grid {grid} does not fit in "
              f"memory{detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
