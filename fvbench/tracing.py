"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``fractalvit`` module
at every name a caller looks them up by: the defining module, and every
other ``fractalvit`` module that bound the function at import time (for
example ``harness`` binds ``forward`` and ``init_params``, ``encoder``
binds ``build_layout`` and ``alibi2d_bias``). ``Tape`` primitives and the
``Rng`` array draws are wrapped on their classes.

Each wrapped call is a span. Spans are aggregated in memory under the key
(phase, parent span name, span name, recording), where ``recording`` tells
calls on recording tapes from calls on non-recording ones. A span's
children are the wrapped calls made while it is open, so self time is its
time minus the time of the children named.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# Every Tape primitive.
TAPE_OPS = (
    "add", "mul", "scale", "matmul", "linear", "transpose", "bmm",
    "swap_last", "reshape", "concat", "slice_rows", "slice_cols",
    "gather_rows", "sum_all", "layer_norm", "gelu", "masked_softmax",
    "softmax_cross_entropy_rows", "softmax_cross_entropy",
)

RNG_DRAWS = ("truncated_normal_array", "normal_array", "uniform_array")


class Record:
    """Aggregate of the spans that share one key."""

    __slots__ = ("calls", "seconds", "size", "children")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.size = 0
        self.children: dict[str, float] = defaultdict(float)


def _tape_recording(args, kwargs):
    return args[0].recording


def _encoder_recording(args, kwargs):
    """Whether a ``forward``/``forward_batch`` call runs on a recording tape
    (the tape is the fourth argument; None means a non-recording tape)."""
    tape = args[3] if len(args) > 3 else kwargs.get("tape")
    return tape is not None and tape.recording


def _shape_size(args, kwargs):
    shape = args[1]
    return math.prod(shape) if hasattr(shape, "__len__") else int(shape)


class Tracer:
    """Collects spans while ``phase`` is set; calls pass through otherwise."""

    def __init__(self):
        self.phase: str | None = None
        self.records: dict[tuple, Record] = defaultdict(Record)
        self._stack: list[tuple[str, dict]] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, fn, name, recording=None, size=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            children: dict[str, float] = defaultdict(float)
            stack.append((name, children))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1][name] += elapsed
                rec = tracer.records[(
                    phase, parent, name,
                    recording(args, kwargs) if recording else None,
                )]
                rec.calls += 1
                rec.seconds += elapsed
                if size is not None:
                    rec.size += size(args, kwargs)
                for child, seconds in children.items():
                    rec.children[child] += seconds

        return traced

    def _replace(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap_function(self, module, attr, name, **kw):
        """Wrap ``module.attr`` under every fractalvit name bound to it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "fractalvit" or mod_name.startswith("fractalvit.")
            ):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, bound, wrapped)

    def install(self) -> None:
        """Wrap the public functions of every measured layer."""
        from fractalvit import autodiff, encoder, grid, harness, mask, posenc, rng

        for op in TAPE_OPS:
            self._replace(
                autodiff.Tape, op,
                self._wrap(getattr(autodiff.Tape, op), f"autodiff.{op}",
                           recording=_tape_recording),
            )
        self._replace(
            autodiff.Tape, "backward",
            self._wrap(autodiff.Tape.backward, "autodiff.backward"),
        )
        for draw in RNG_DRAWS:
            self._replace(
                rng.Rng, draw,
                self._wrap(getattr(rng.Rng, draw), f"rng.{draw}",
                           size=_shape_size),
            )
        self._replace(
            rng.Rng, "shuffle",
            self._wrap(rng.Rng.shuffle, "rng.shuffle",
                       size=lambda args, kwargs: len(args[1])),
        )

        self._wrap_function(encoder, "init_params", "encoder.init_params")
        self._wrap_function(encoder, "forward", "encoder.forward",
                            recording=_encoder_recording)
        self._wrap_function(encoder, "forward_batch", "encoder.forward_batch",
                            recording=_encoder_recording,
                            size=lambda args, kwargs: len(args[0]))
        self._wrap_function(encoder, "batch_loss", "encoder.batch_loss")
        self._wrap_function(harness, "train", "harness.train")
        self._wrap_function(harness, "evaluate", "harness.evaluate",
                            size=lambda args, kwargs: len(args[2]))
        self._wrap_function(harness, "randomize_params",
                            "harness.randomize_params")
        self._wrap_function(harness, "permutation_test",
                            "harness.permutation_test")
        self._wrap_function(harness, "gradcheck", "harness.gradcheck")
        self._wrap_function(grid, "build_layout", "grid.build_layout")
        self._wrap_function(mask, "build_fractal_mask", "mask.build_mask")
        self._wrap_function(mask, "build_full_mask", "mask.build_mask")
        self._wrap_function(posenc, "assemble_posenc", "posenc.assemble_posenc")
        self._wrap_function(posenc, "alibi2d_bias", "posenc.alibi2d_bias")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def total(self, name, phases=None, parent=..., recording=...) -> Record:
        """Sum of the records of span ``name``, filtered by phase, parent
        span name and tape kind (``...`` matches any)."""
        out = Record()
        for (phase, par, span, rec), record in self.records.items():
            if span != name or (phases is not None and phase not in phases):
                continue
            if parent is not ... and par != parent:
                continue
            if recording is not ... and rec != recording:
                continue
            out.calls += record.calls
            out.seconds += record.seconds
            out.size += record.size
            for child, seconds in record.children.items():
                out.children[child] += seconds
        return out


# Primitives a training step records, reported per step.
STEP_OPS = (
    "linear", "layer_norm", "gelu", "masked_softmax", "bmm", "swap_last",
    "reshape", "slice_cols", "slice_rows", "concat", "add", "scale",
    "gather_rows", "softmax_cross_entropy_rows",
)

TIMED = ("task", "infer")


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(tracer: Tracer, setups: int, rounds) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``, of one traced pass of
    ``setups`` set-ups followed by ``rounds`` (``RoundResult`` list).

    A metric whose layer the workload does not call reads 0.
    """
    epochs = sum(r.epochs for r in rounds)
    trials = sum(r.trials for r in rounds)
    t = tracer.total
    steps = t("autodiff.backward", ("task",), parent="harness.train").calls
    out = {}
    for op in STEP_OPS:
        rec = t(f"autodiff.{op}", ("task",), recording=True)
        out[f"autodiff.{op}.ms"] = (_per(rec.seconds * 1e3, steps), "ms/step")
        out[f"autodiff.{op}.calls"] = (_per(rec.calls, steps), "calls/step")
    out["autodiff.backward_ms"] = (
        _per(t("autodiff.backward", ("task",)).seconds * 1e3, steps), "ms/step")
    out["autodiff.ops_per_step"] = (_per(sum(
        t(f"autodiff.{op}", ("task",), recording=True).calls for op in TAPE_OPS
    ), steps), "calls/step")
    forwards = t("encoder.forward", TIMED, recording=False).calls
    out["autodiff.infer_ops_per_forward"] = (_per(sum(
        t(f"autodiff.{op}", TIMED, parent="encoder.forward",
          recording=False).calls for op in TAPE_OPS
    ), forwards), "calls/forward")

    out["encoder.batch_loss_ms"] = (
        _per(t("encoder.batch_loss", ("task",)).seconds * 1e3, steps), "ms/step")
    rec = t("encoder.forward_batch", TIMED, recording=False)
    out["encoder.forward_batch_ms"] = (_per(rec.seconds * 1e3, rec.size), "ms/image")
    rec = t("encoder.forward", TIMED)
    out["encoder.forward_ms"] = (_per(rec.seconds * 1e3, rec.calls), "ms/call")
    rec = t("encoder.init_params")
    out["encoder.init_params_ms"] = (_per(rec.seconds * 1e3, rec.calls), "ms/call")

    rec = t("harness.train", ("task",))
    out["harness.train_ms"] = (_per(rec.seconds * 1e3, epochs), "ms/epoch")
    own = rec.seconds - sum(
        rec.children[child]
        for child in ("encoder.batch_loss", "autodiff.backward", "harness.evaluate")
    )
    out["harness.train_self_ms"] = (_per(own * 1e3, steps), "ms/step")
    rec = t("harness.evaluate", ("task",), parent="harness.train")
    out["harness.evaluate_ms"] = (_per(rec.seconds * 1e3, epochs), "ms/epoch")
    out["harness.evaluated_images_per_epoch"] = (_per(rec.size, epochs), "images/epoch")
    for name in ("randomize_params", "permutation_test"):
        rec = t(f"harness.{name}", ("task",), parent=None)
        out[f"harness.{name}_ms"] = (_per(rec.seconds * 1e3, trials), "ms/trial")
    rec = t("harness.gradcheck", TIMED)
    own = rec.seconds - sum(rec.children.values())
    out["harness.gradcheck_self_ms"] = (_per(own * 1e3, rec.calls), "ms/call")

    drawn = {"setup": 0, "timed": 0}
    for draw in RNG_DRAWS + ("shuffle",):
        rec = t(f"rng.{draw}")
        out[f"rng.{draw}_ms"] = (_per(rec.seconds * 1e6, rec.size), "ms/1k")
        drawn["setup"] += t(f"rng.{draw}", ("setup",)).size
        drawn["timed"] += t(f"rng.{draw}", TIMED).size
    out["rng.values_drawn"] = (_per(drawn["timed"], len(rounds)), "count/round")
    out["rng.setup_values_drawn"] = (_per(drawn["setup"], setups), "count/setup")

    for name in ("grid.build_layout", "mask.build_mask",
                 "posenc.assemble_posenc", "posenc.alibi2d_bias"):
        rec = t(name)
        out[f"{name}_ms"] = (_per(rec.seconds * 1e3, rec.calls), "ms/call")
    return out
