"""Output checks. Each takes results the program produced and the values
they are compared against, and returns a list of failure messages (empty
when the check passes). The reference side is always a computation made
apart from the call under test or a property the method must have, never a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

INIT_LOSS_TOL = 1e-12     # head_w and head_b start at zero: loss is ln C
BATCH_VS_SINGLE_TOL = 1e-10
CENTRAL_DIFF_TOL = 1e-4   # criterion 4's gradcheck bound
REL_ERR_FLOOR = 1e-6      # the denominator floor harness.gradcheck uses
INVARIANCE_TOL = 1e-10    # criterion 5
BREAKING_MIN = 1e-6       # criterion 5


def check_init_loss(loss: float, n_classes: int) -> list[str]:
    """The mean loss at the initial parameters is ln C."""
    err = abs(loss - math.log(n_classes))
    if not err <= INIT_LOSS_TOL:
        return [f"initial loss {loss!r} differs from ln {n_classes} by {err:.3e}"]
    return []


def check_batch_matches_single(batch_logits: np.ndarray,
                               single_logits: np.ndarray) -> list[str]:
    """``forward_batch`` logits equal the per-image ``forward`` logits."""
    if batch_logits.shape != single_logits.shape:
        return [f"logit shapes {batch_logits.shape} and {single_logits.shape}"]
    err = float(np.abs(batch_logits - single_logits).max())
    if not err <= BATCH_VS_SINGLE_TOL:
        return [f"forward_batch and forward logits differ by {err:.3e}"]
    return []


def check_accuracy(accuracy: float, single_logits: np.ndarray,
                   labels) -> list[str]:
    """``harness.evaluate``'s accuracy is the hit share of the per-image
    logits."""
    hits = int((np.argmax(single_logits, axis=1) == np.asarray(labels)).sum())
    expected = hits / len(labels)
    if accuracy != expected:
        return [f"evaluate accuracy {accuracy!r}, single-image hit share "
                f"{expected!r}"]
    return []


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                         REL_ERR_FLOOR)


def check_central_difference(entries) -> list[str]:
    """``entries`` holds (label, analytic, central difference) triples."""
    failures = []
    for label, analytic, numeric in entries:
        rel = relative_error(analytic, numeric)
        if not rel < CENTRAL_DIFF_TOL:
            failures.append(
                f"batch_loss gradient {label}: analytic {analytic!r}, "
                f"central difference {numeric!r}, relative error {rel:.3e}"
            )
    return failures


def check_training(losses, diverged: bool, eval_accs,
                   min_eval_acc: float | None = None) -> list[str]:
    """Training stays finite, and reaches ``min_eval_acc`` at some epoch
    when one is given."""
    failures = []
    if diverged or not all(math.isfinite(v) for v in losses):
        failures.append("training diverged")
    if min_eval_acc is not None and not max(eval_accs, default=0.0) >= min_eval_acc:
        failures.append(
            f"eval accuracy peaked at {max(eval_accs, default=0.0)!r}, "
            f"below {min_eval_acc}"
        )
    return failures


def check_trained_loss(loss: float, n_classes: int) -> list[str]:
    """The training-set loss at the trained parameters is below ln C, the
    loss of the initial parameters."""
    if not loss < math.log(n_classes):
        return [f"trained loss {loss!r} is not below ln {n_classes}"]
    return []


def check_invariant(kind: str, deviations) -> list[str]:
    """A permutation the model is invariant to moves no logit."""
    worst = max(deviations)
    if not worst < INVARIANCE_TOL:
        return [f"{kind}: deviation {worst:.3e} is not below {INVARIANCE_TOL}"]
    return []


def check_breaking(kind: str, deviations) -> list[str]:
    """A permutation that crosses blocks moves the logits."""
    least = min(deviations)
    if not least > BREAKING_MIN:
        return [f"{kind}: deviation {least:.3e} is not above {BREAKING_MIN}"]
    return []


def check_gradcheck(worst: float) -> list[str]:
    if not worst < CENTRAL_DIFF_TOL:
        return [f"gradcheck relative error {worst:.3e} is not below "
                f"{CENTRAL_DIFF_TOL}"]
    return []


def check_repeatable(first, again) -> list[str]:
    """Two rounds of the same work on the same inputs agree bit for bit."""
    if first != again:
        return [f"round results differ: {first!r} vs {again!r}"]
    return []
