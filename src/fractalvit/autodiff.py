"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set is what the encoder needs: linear layers, axis
permutation and one fused multi-head attention (``attention``: scaled
scores, softmax under an additive bias table with -inf on excluded
pairs, and the weighted sum of values, run in cache-sized blocks),
trailing-shape additive broadcasting for biases, row slicing, gathering
and concatenation, layer norm, exact-CDF GELU, and batched softmax
cross-entropy. 2-D ``matmul``, ``swap_last``, ``slice_cols``, the
single-row ``softmax_cross_entropy``, and the stacked ``bmm`` and
``masked_softmax`` that ``attention`` fuses have no caller in the
encoder; they stay because the benchmark's tracer
(``fvbench/tracing.py``) wraps each of them by name. ``bmm`` and
``masked_softmax`` are also the reference ``attention`` is tested
against, bit for bit.

Every op runs in float64. A ``Tape`` records the ops of one forward pass;
``Tape.backward`` replays the record once in reverse and accumulates
adjoints into the ``grad`` of each leaf: a participating tensor that no op
of the tape produced (parameters and inputs). Intermediates keep
``grad is None``. Repeated backward calls without resetting grads keep
accumulating, as an optimizer expects.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, InvalidMaskError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Most score bytes one block of ``Tape.attention`` holds: one 14x14 image
# (4 heads of 256 x 256 float64 scores), so a block's scores stay in cache
# from the product through the softmax to the weighted sum. A block holds
# at least one leading slice, however large.
ATTENTION_BLOCK_BYTES = 2 << 20


def _softmax_in_place(p: np.ndarray, bias: np.ndarray,
                      allowed: np.ndarray) -> None:
    """Turn scaled logits ``p`` into softmax(p + bias) over the last axis.

    ``allowed`` is ``bias != -inf``. Excluded entries come out as bitwise
    0.0. exp runs on the allowed entries only: numpy's vector exp falls
    back to a slow path for a lane that holds -inf, and exp(-inf) is 0
    anyway. A row with no finite entry signals a malformed mask and
    raises.
    """
    p += bias
    top = p.max(axis=-1, keepdims=True)
    if top.min() == -np.inf:
        raise InvalidMaskError("softmax row with no allowed entries")
    p -= top
    np.exp(p, out=p, where=allowed)
    np.copyto(p, 0.0, where=~allowed)
    p /= p.sum(axis=-1, keepdims=True)


class Tensor:
    """A dense float64 array plus an optional same-shape gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        """Adopt a freshly allocated float64 array without copying.

        Internal: only for op results that nothing else references.
        """
        out = object.__new__(cls)
        out.data = data
        out.grad = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of the primitive operations of one forward pass.

    Replaying the record in reverse visits every operation exactly once,
    which is all reverse mode needs. Constructing with ``recording=False``
    gives a tape that runs the same forward math with no bookkeeping, for
    inference and finite-difference loops.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._records: list[tuple[Tensor, object]] = []

    def _push(self, out: Tensor, pull) -> None:
        if self.recording:
            self._records.append((out, pull))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf ``t``.

        A leaf is a tensor the loss depends on that no op of this tape
        produced. The sweep works on a private adjoint map. An
        intermediate's adjoint is dropped as soon as the op that produced
        it has pulled it back, so the sweep holds the adjoints of the
        live frontier rather than of the whole tape. The leaves' adjoints
        are folded into ``grad`` at the end, so calling backward twice
        adds the same gradient twice rather than compounding.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}

        def accum(t: Tensor, delta: np.ndarray, owned: bool = False) -> None:
            """Add ``delta`` to t's adjoint; ``owned`` deltas are freshly
            allocated by the caller and may be adopted without a copy."""
            key = id(t)
            if key in adjoints:
                adjoints[key] += delta
            else:
                adjoints[key] = delta if owned else np.array(delta, dtype=np.float64)
                holders[key] = t

        for out, pull in reversed(self._records):
            g = adjoints.pop(id(out), None)
            if g is not None:
                pull(g, accum)
        for key, g in adjoints.items():  # only leaves are left
            holder = holders[key]
            if holder.grad is None:
                holder.grad = g  # the map owns g; donate instead of copying
            else:
                holder.grad += g

    # ------------------------------------------------------------------
    # primitive operations
    # ------------------------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a + b; b may be a trailing-shape slice (bias row)."""
        broadcast = a.data.shape != b.data.shape
        if broadcast:
            nd, bd = a.data.ndim, b.data.ndim
            if bd > nd or b.data.shape != a.data.shape[nd - bd:]:
                raise ShapeError(
                    f"add: shapes {a.data.shape} and {b.data.shape} do not align"
                )
        out = Tensor._wrap(a.data + b.data)

        def pull(g, accum):
            accum(a, g)
            if broadcast:
                lead = tuple(range(a.data.ndim - b.data.ndim))
                accum(b, g.sum(axis=lead), owned=True)
            else:
                accum(b, g)

        self._push(out, pull)
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise product of same-shape tensors."""
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"mul: shapes {a.data.shape} and {b.data.shape} differ"
            )
        out = Tensor._wrap(a.data * b.data)

        def pull(g, accum):
            accum(a, g * b.data, owned=True)
            accum(b, g * a.data, owned=True)

        self._push(out, pull)
        return out

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor._wrap(a.data * c)

        def pull(g, accum):
            accum(a, g * c, owned=True)

        self._push(out, pull)
        return out

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(
                f"matmul: shapes {a.data.shape} and {b.data.shape} do not chain"
            )
        out = Tensor._wrap(a.data @ b.data)

        def pull(g, accum):
            accum(a, g @ b.data.T, owned=True)
            accum(b, a.data.T @ g, owned=True)

        self._push(out, pull)
        return out

    def linear(self, x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
        """x @ w.T (+ bias): the row-vector convention every projection uses.

        Fusing the transpose and bias keeps the tape short; w has shape
        (out_features, in_features).
        """
        if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
            raise ShapeError(
                f"linear: input {x.data.shape} and weight {w.data.shape} "
                "do not share an inner dimension"
            )
        out_data = x.data @ w.data.T
        if bias is not None:
            if bias.data.shape != (w.data.shape[0],):
                raise ShapeError(
                    f"linear: bias {bias.data.shape} does not match "
                    f"out features {w.data.shape[0]}"
                )
            out_data += bias.data
        out = Tensor._wrap(out_data)

        def pull(g, accum):
            accum(x, g @ w.data, owned=True)
            accum(w, g.T @ x.data, owned=True)
            if bias is not None:
                accum(bias, g.sum(axis=0), owned=True)

        self._push(out, pull)
        return out

    def transpose(self, a: Tensor, axes=None) -> Tensor:
        """Permute axes: ``axes`` as in ``np.transpose``; without it, the
        transpose of a matrix. The result is C-contiguous."""
        if axes is None:
            if a.data.ndim != 2:
                raise ShapeError(f"transpose expects a matrix, got {a.data.shape}")
            axes = (1, 0)
        axes = tuple(axes)
        if sorted(axes) != list(range(a.data.ndim)):
            raise ShapeError(
                f"transpose: axes {axes} do not permute the axes of {a.data.shape}"
            )
        inverse = tuple(axes.index(i) for i in range(len(axes)))
        out = Tensor._wrap(np.ascontiguousarray(a.data.transpose(axes)))

        def pull(g, accum):
            accum(a, np.array(g.transpose(inverse), order="C"), owned=True)

        self._push(out, pull)
        return out

    def bmm(self, a: Tensor, b: Tensor) -> Tensor:
        """Matmul over the last two axes of equal-rank stacks (rank >= 3)
        whose leading axes agree."""
        if (
            a.data.ndim != b.data.ndim or a.data.ndim < 3
            or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-2]
        ):
            raise ShapeError(
                f"bmm: shapes {a.data.shape} and {b.data.shape} do not chain"
            )
        out = Tensor._wrap(a.data @ b.data)

        def pull(g, accum):
            accum(a, g @ b.data.swapaxes(-1, -2), owned=True)
            accum(b, a.data.swapaxes(-1, -2) @ g, owned=True)

        self._push(out, pull)
        return out

    def swap_last(self, a: Tensor) -> Tensor:
        """Transpose the trailing two axes of a stacked 3-D tensor."""
        if a.data.ndim != 3:
            raise ShapeError(f"swap_last expects 3-D, got {a.data.shape}")
        out = Tensor._wrap(np.ascontiguousarray(a.data.swapaxes(-1, -2)))

        def pull(g, accum):
            accum(a, g.swapaxes(-1, -2))

        self._push(out, pull)
        return out

    def reshape(self, a: Tensor, shape) -> Tensor:
        out = Tensor._wrap(a.data.reshape(shape).copy())

        def pull(g, accum):
            accum(a, g.reshape(a.data.shape))

        self._push(out, pull)
        return out

    def concat(self, parts: list[Tensor], axis: int = 0) -> Tensor:
        if axis not in (0, 1) or not parts:
            raise ShapeError("concat needs a non-empty list and axis 0 or 1")
        for p in parts:
            if p.data.ndim != 2:
                raise ShapeError(f"concat expects matrices, got {p.data.shape}")
        out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=axis))
        sizes = [p.data.shape[axis] for p in parts]

        def pull(g, accum):
            start = 0
            for p, size in zip(parts, sizes):
                sl = (slice(start, start + size), slice(None)) if axis == 0 \
                    else (slice(None), slice(start, start + size))
                accum(p, g[sl])
                start += size

        self._push(out, pull)
        return out

    def slice_rows(self, a: Tensor, start: int, stop: int) -> Tensor:
        return self._slice(a, start, stop, axis=0)

    def slice_cols(self, a: Tensor, start: int, stop: int) -> Tensor:
        return self._slice(a, start, stop, axis=1)

    def _slice(self, a: Tensor, start: int, stop: int, axis: int) -> Tensor:
        if a.data.ndim != 2:
            raise ShapeError(f"slice expects a matrix, got {a.data.shape}")
        n = a.data.shape[axis]
        if not (0 <= start < stop <= n):
            raise ContractError(f"slice [{start}:{stop}] outside axis of size {n}")
        sl = (slice(start, stop), slice(None)) if axis == 0 \
            else (slice(None), slice(start, stop))
        out = Tensor._wrap(a.data[sl].copy())

        def pull(g, accum):
            z = np.zeros_like(a.data)
            z[sl] = g
            accum(a, z, owned=True)

        self._push(out, pull)
        return out

    def gather_rows(self, a: Tensor, indices) -> Tensor:
        """Select rows of a matrix; backward scatter-adds into place."""
        if a.data.ndim != 2:
            raise ShapeError(f"gather_rows expects a matrix, got {a.data.shape}")
        idx = [int(i) for i in indices]
        n = a.data.shape[0]
        if any(not 0 <= i < n for i in idx):
            raise ContractError(f"gather indices outside [0, {n})")
        out = Tensor._wrap(a.data[idx].copy())

        def pull(g, accum):
            z = np.zeros_like(a.data)
            np.add.at(z, idx, g)
            accum(a, z, owned=True)

        self._push(out, pull)
        return out

    def sum_all(self, a: Tensor) -> Tensor:
        out = Tensor._wrap(np.asarray(a.data.sum()))

        def pull(g, accum):
            accum(a, np.full(a.data.shape, float(g)), owned=True)

        self._push(out, pull)
        return out

    def layer_norm(self, x: Tensor, gain: Tensor, shift: Tensor,
                   eps: float = 1e-6) -> Tensor:
        """Normalize the last axis to zero mean / unit population variance,
        then apply the affine ``gain * xhat + shift``."""
        d = x.data.shape[-1]
        if d < 2:
            raise ContractError("layer_norm needs at least 2 features")
        if gain.data.shape != (d,) or shift.data.shape != (d,):
            raise ShapeError(
                f"layer_norm affine shapes {gain.data.shape}/{shift.data.shape} "
                f"do not match feature dim {d}"
            )
        # numpy's mean and population var, with the centering done once
        xc = x.data - np.add.reduce(x.data, -1, keepdims=True) / d
        var = np.add.reduce(xc * xc, -1, keepdims=True) / d
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        out = Tensor._wrap(xhat * gain.data + shift.data)

        def pull(g, accum):
            gy = g * gain.data
            m1 = np.add.reduce(gy, -1, keepdims=True) / d
            m2 = np.add.reduce(gy * xhat, -1, keepdims=True) / d
            accum(x, (gy - m1 - xhat * m2) * inv, owned=True)
            lead = tuple(range(g.ndim - 1))
            accum(gain, (g * xhat).sum(axis=lead), owned=True)
            accum(shift, g.sum(axis=lead), owned=True)

        self._push(out, pull)
        return out

    def gelu(self, x: Tensor) -> Tensor:
        """x * Phi(x) with the exact Gaussian CDF (no tanh approximation)."""
        cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
        out = Tensor._wrap(x.data * cdf)
        if self.recording:
            slope = cdf + x.data * (np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI)

            def pull(g, accum):
                accum(x, g * slope, owned=True)

            self._push(out, pull)
        return out

    def masked_softmax(self, logits: Tensor, bias: np.ndarray,
                       scale: float = 1.0) -> Tensor:
        """softmax(scale * logits + bias) over the last axis.

        ``bias`` is a constant table matching the trailing axes of the
        logits; -inf marks an excluded entry, which comes out as bitwise
        0.0. A row with no finite entry signals a malformed mask and
        raises.
        """
        bias = np.asarray(bias, dtype=np.float64)
        nd, bd = logits.data.ndim, bias.ndim
        if bd > nd or bias.shape != logits.data.shape[nd - bd:]:
            raise ShapeError(
                f"bias shape {bias.shape} does not match logits {logits.data.shape}"
            )
        p = logits.data * scale
        _softmax_in_place(p, bias, bias != -np.inf)
        out = Tensor._wrap(p)

        def pull(g, accum):
            dz = g - (g * p).sum(axis=-1, keepdims=True)
            dz *= p  # exactly zero on excluded entries
            dz *= scale
            accum(logits, dz, owned=True)

        self._push(out, pull)
        return out

    def attention(self, q: Tensor, k_t: Tensor, v: Tensor, bias: np.ndarray,
                  scale: float) -> Tensor:
        """softmax(scale * q @ k_t + bias) @ v over stacks of rank >= 3.

        q is (L, ..., n, dk), k_t (L, ..., dk, m) and v (L, ..., m, dv);
        ``bias`` is one constant table over the trailing axes of a leading
        slice's (..., n, m) scores, with -inf on excluded entries. The
        leading axis runs in blocks of at most ``ATTENTION_BLOCK_BYTES`` of
        scores, so the scores never exist for the whole stack at once. Each
        slice goes through the same matmuls and row reductions as
        ``bmm`` -> ``masked_softmax`` -> ``bmm``, so the output and the
        gradients equal that composition's bit for bit.
        """
        qd, kd, vd = q.data, k_t.data, v.data
        lead = qd.shape[:-2]
        if (
            qd.ndim < 3 or kd.ndim != qd.ndim or vd.ndim != qd.ndim
            or kd.shape[:-2] != lead or vd.shape[:-2] != lead
            or kd.shape[-2] != qd.shape[-1] or vd.shape[-2] != kd.shape[-1]
        ):
            raise ShapeError(
                f"attention: shapes {qd.shape}, {kd.shape} and {vd.shape} "
                "do not chain"
            )
        bias = np.asarray(bias, dtype=np.float64)
        scores = (*lead[1:], qd.shape[-2], kd.shape[-1])
        if bias.ndim > len(scores) or bias.shape != scores[len(scores) - bias.ndim:]:
            raise ShapeError(
                f"attention: bias shape {bias.shape} does not match the "
                f"scores {scores} of one leading slice"
            )
        allowed = bias != -np.inf
        step = max(1, ATTENTION_BLOCK_BYTES // (8 * math.prod(scores)))
        blocks = [slice(i, i + step) for i in range(0, lead[0], step)]
        out_data = np.empty((*lead, qd.shape[-2], vd.shape[-1]))
        probs = []
        for sl in blocks:
            p = qd[sl] @ kd[sl]
            p *= scale
            _softmax_in_place(p, bias, allowed)
            np.matmul(p, vd[sl], out=out_data[sl])
            if self.recording:
                probs.append(p)
        out = Tensor._wrap(out_data)

        def pull(g, accum):
            dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
            for sl, p in zip(blocks, probs):
                gs = g[sl]
                dz = gs @ vd[sl].swapaxes(-1, -2)
                np.matmul(p.swapaxes(-1, -2), gs, out=dv[sl])
                dz -= (dz * p).sum(axis=-1, keepdims=True)
                dz *= p  # exactly zero on excluded entries
                dz *= scale
                np.matmul(dz, kd[sl].swapaxes(-1, -2), out=dq[sl])
                np.matmul(qd[sl].swapaxes(-1, -2), dz, out=dk[sl])
            # the composition's order, which matters when inputs coincide
            accum(v, dv, owned=True)
            accum(q, dq, owned=True)
            accum(k_t, dk, owned=True)

        self._push(out, pull)
        return out

    def softmax_cross_entropy_rows(self, logits: Tensor, labels) -> Tensor:
        """Mean softmax cross-entropy of a batch of logit rows."""
        if logits.data.ndim != 2:
            raise ShapeError(
                f"expected a batch of logit rows, got {logits.data.shape}"
            )
        b, n = logits.data.shape
        labels = [int(label) for label in labels]
        if len(labels) != b:
            raise ContractError(f"{len(labels)} labels for {b} rows")
        if any(not 0 <= label < n for label in labels):
            raise ContractError(f"label outside [0, {n})")
        rows = np.arange(b)
        top = logits.data.max(axis=-1, keepdims=True)
        shifted = logits.data - top
        lse = top[:, 0] + np.log(np.exp(shifted).sum(axis=-1))
        out = Tensor._wrap(np.asarray((lse - logits.data[rows, labels]).mean()))

        def pull(g, accum):
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[rows, labels] -= 1.0
            accum(logits, p * (float(g) / b), owned=True)

        self._push(out, pull)
        return out

    def softmax_cross_entropy(self, logits: Tensor, label: int) -> Tensor:
        """Scalar cross-entropy of a single logit row against ``label``."""
        flat = logits.data.reshape(-1)
        n = flat.size
        if not 0 <= label < n:
            raise ContractError(f"label {label} outside [0, {n})")
        top = flat.max()
        shifted = flat - top
        lse = top + math.log(np.exp(shifted).sum())
        out = Tensor._wrap(np.asarray(lse - flat[label]))

        def pull(g, accum):
            p = np.exp(shifted)
            p /= p.sum()
            p[label] -= 1.0
            accum(logits, (p * float(g)).reshape(logits.data.shape), owned=True)

        self._push(out, pull)
        return out
