"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operation set is the eight ops the encoder runs: ``linear`` layers, one
fused multi-head ``attention`` (it lays the projected rows out by head,
then runs scaled scores, softmax under an additive bias table with -inf
on excluded pairs, and the weighted sum of values in cache-sized
blocks; a sequence may have fewer query rows than keys), same-shape
``add``, ``reshape``, ``concat`` of row slices (it also slices and picks
rows), ``layer_norm``, exact-CDF ``gelu``, and batched softmax
cross-entropy (``softmax_cross_entropy_rows``). The bit-for-bit
reference ``attention`` is tested against, the unfused composition in
plain numpy, lives in ``tests/test_autodiff.py``. ``Tape`` binds twelve
more names to None: ops deleted from the library that the benchmark's
tracer still lists.

Every op runs in float64. A ``Tape`` records the ops of one forward pass;
``Tape.backward`` replays the record once in reverse and accumulates
adjoints into the ``grad`` of each leaf: a participating tensor that no op
of the tape produced (parameters and inputs). Intermediates keep
``grad is None``. Repeated backward calls without resetting grads keep
accumulating, as an optimizer expects.

A non-recording tape can run C independent forwards at once: with
``copies=C`` the rows of every tensor are C equal blocks, one per forward,
and each block gets exactly the bits of its own run. Only ``linear`` needs
to know: OpenBLAS's gemm result depends on the row count, so C blocks
flattened into one 2-D product differ in the last bit from the per-block
products, while a 3-D stack of the C products, one gemm each, matches
them. Over 900 shapes (1-64 rows, 8-128 in, 4-128 out, 2-17 copies; numpy
2.4.6, OpenBLAS 0.3.31, one thread and two) the flat product differed on
262 and the stack on none. Every other op works per row, or per image and
head.

Importing the module sets glibc's malloc to keep freed pages mapped
(``_keep_freed_pages_mapped``), since every step frees a whole tape.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, InvalidMaskError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-6  # added to the variance in layer_norm

# Most score bytes one block of ``Tape.attention`` holds: one 14x14 image
# (4 heads of 256 x 256 float64 scores), so a block's scores stay in cache
# from the product through the softmax to the weighted sum. A block holds
# at least one image, however large.
ATTENTION_BLOCK_BYTES = 2 << 20


def _keep_freed_pages_mapped() -> None:
    """Make glibc's malloc keep the pages a freed tape gave back.

    Each training step frees its whole tape. By default glibc then trims
    the top of the heap and unmaps every block above its mmap threshold,
    so the next step page-faults the same memory in again: about 1,060
    minor faults per recording step of 16 4x4 images at d=32 with two
    layers. With blocks under 32 MiB (glibc's largest threshold on
    64-bit) taken from the heap and the heap never trimmed, the pages
    stay mapped and such a step faults none. The cost is that the heap's
    high-water mark stays resident: 0.3 MB more peak RSS on the
    benchmark's probe-4x4 workload. It changes no value. Where the C
    library has no ``mallopt`` (not glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, -1)


_keep_freed_pages_mapped()


def _softmax_in_place(p: np.ndarray, bias: np.ndarray) -> None:
    """Turn scaled logits ``p`` into softmax(p + bias) over the last axis.

    Entries where ``bias`` is -inf come out as exp(-inf), bitwise +0.0. A
    bias row with no finite entry signals a malformed mask and raises; a
    row whose allowed logits overflowed to -inf comes out NaN.
    """
    p += bias
    top = p.max(axis=-1, keepdims=True)
    if top.min() == -np.inf and np.isneginf(bias).all(axis=-1).any():
        raise InvalidMaskError("softmax row with no allowed entries")
    p -= top
    np.exp(p, out=p)
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

    A non-recording tape with ``copies=C`` runs C independent forwards
    stacked by rows: ``linear`` multiplies each block of rows on its own,
    one gemm per copy, because one gemm over the flattened rows gives
    other bits, and ``softmax_cross_entropy_rows`` returns the C per-copy
    losses. Each copy's values are bit for bit those of its own run.
    """

    def __init__(self, recording: bool = True, copies: int = 1):
        if copies < 1 or (recording and copies > 1):
            raise ContractError(
                f"copies={copies} needs a non-recording tape and copies >= 1"
            )
        self.recording = recording
        self.copies = copies
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
        """Elementwise sum of same-shape tensors."""
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"add: shapes {a.data.shape} and {b.data.shape} differ"
            )
        out = Tensor._wrap(a.data + b.data)

        def pull(g, accum):
            accum(a, g)
            accum(b, g)

        self._push(out, pull)
        return out

    def linear(self, x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
        """x @ w.T (+ bias): the row-vector convention every projection uses.

        Fusing the transpose and bias keeps the tape short; w has shape
        (out_features, in_features). Each of the tape's ``copies`` blocks
        of rows is its own product.
        """
        if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
            raise ShapeError(
                f"linear: input {x.data.shape} and weight {w.data.shape} "
                "do not share an inner dimension"
            )
        rows, inner = x.data.shape
        if rows % self.copies:
            raise ShapeError(f"linear: {rows} rows do not split into "
                             f"{self.copies} copies")
        out_data = (x.data.reshape(self.copies, -1, inner) @ w.data.T) \
            .reshape(rows, -1)
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

    def reshape(self, a: Tensor, shape) -> Tensor:
        out = Tensor._wrap(a.data.reshape(shape).copy())

        def pull(g, accum):
            accum(a, g.reshape(a.data.shape))

        self._push(out, pull)
        return out

    def concat(self, parts) -> Tensor:
        """Stack row slices ``(a, rows)`` of matrices that share a column
        count. ``rows`` is a slice with step >= 1 that picks at least one
        row inside ``a`` (``slice(None)``: every row); a matrix may recur.
        The pull adds each part's adjoint rows into one zero buffer per
        distinct matrix, in part order."""
        if not parts:
            raise ShapeError("concat needs a non-empty list")
        first = parts[0][0].data.shape
        cols = first[1] if len(first) == 2 else None
        sizes = []
        for a, rows in parts:
            shape = a.data.shape
            if len(shape) != 2 or shape[1] != cols:
                raise ShapeError(f"concat expects matrices with one column "
                                 f"count, got {first} and {shape}")
            n = shape[0]
            start = 0 if rows.start is None else rows.start
            stop = n if rows.stop is None else rows.stop
            step = 1 if rows.step is None else rows.step
            if not (step >= 1 and 0 <= start < stop <= n):
                raise ContractError(f"concat: rows [{start}:{stop}:{step}] are "
                                    f"empty, reversed or outside [0, {n})")
            sizes.append((stop - start - 1) // step + 1)
        out = Tensor._wrap(np.concatenate([a.data[rows] for a, rows in parts]))

        def pull(g, accum):
            sums: dict[int, tuple[Tensor, np.ndarray]] = {}
            start = 0
            for (a, rows), size in zip(parts, sizes):
                if id(a) not in sums:
                    sums[id(a)] = (a, np.zeros_like(a.data))
                sums[id(a)][1][rows] += g[start:start + size]
                start += size
            for a, z in sums.values():
                accum(a, z, owned=True)

        self._push(out, pull)
        return out

    def layer_norm(self, x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
        """Normalize the last axis to zero mean / unit population variance
        (plus ``_LN_EPS``), then apply the affine ``gain * xhat + shift``."""
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
        inv = 1.0 / np.sqrt(var + _LN_EPS)
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

    def attention(self, q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray,
                  heads: int) -> Tensor:
        """Multi-head attention of m query rows over b stacked sequences of
        n tokens.

        k and v are the (b*n, d) rows of the key and value projections, q
        the (b*m, d) rows of the query projection; head i owns columns
        [i*dh, (i+1)*dh) with dh = d // heads. ``bias`` is a constant
        (heads, m, n) or (m, n) table with -inf on excluded pairs; its last
        axis gives n and the one before it m, with 1 <= m <= n. Each head
        computes softmax(q_i @ k_iᵀ / sqrt(dh) + bias) @ v_i, and the result
        is the heads merged back into (b*m, d) rows. The encoder passes
        m = n, every token a query, except in its last layer, where only
        the global token queries (m = 1). Images run in blocks of at most
        ``ATTENTION_BLOCK_BYTES`` of scores, so the scores never exist for
        the whole batch at once.

        The output and the gradients equal, bit for bit, those of the
        unfused composition reshape -> transpose -> batched matmul ->
        scaled softmax under the bias -> batched matmul -> transpose ->
        reshape, which ``reference_attention`` in ``tests/test_autodiff.py``
        spells out in numpy: each block runs the same matmuls and row
        reductions, and the adjoints are added in that composition's
        order, v, then q, then k.
        """
        qd, kd, vd = q.data, k.data, v.data
        if kd.ndim != 2 or vd.shape != kd.shape or qd.ndim != 2 \
                or qd.shape[1] != kd.shape[1]:
            raise ShapeError(
                f"attention: q, k and v must be (rows, d) matrices with one d "
                f"and equal k and v, got {qd.shape}, {kd.shape} and {vd.shape}"
            )
        rows, d = kd.shape
        if heads < 1 or d % heads:
            raise ShapeError(f"attention: d={d} does not split into {heads} heads")
        bias = np.asarray(bias, dtype=np.float64)
        m, n = bias.shape[-2:] if bias.ndim >= 2 else (0, 0)
        if bias.shape not in ((m, n), (heads, m, n)) or not 1 <= m <= n \
                or rows % n or qd.shape[0] != rows // n * m:
            raise ShapeError(
                f"attention: bias shape {bias.shape} does not fit {heads} heads "
                f"over query rows {qd.shape[0]} and key rows {rows}"
            )
        b, dh = rows // n, d // heads
        scale = 1.0 / np.sqrt(dh)

        def split(x: np.ndarray, t: int, axes) -> np.ndarray:
            """(b*t, d) rows as a contiguous (b, t, h, dh) stack permuted
            by ``axes``."""
            return np.ascontiguousarray(x.reshape(b, t, heads, dh).transpose(axes))

        def merge(stack: np.ndarray, axes) -> np.ndarray:
            """A stack that ``axes`` permutes to (b, t, h, dh), as
            contiguous (b*t, d) rows."""
            return np.ascontiguousarray(stack.transpose(axes)).reshape(-1, d)

        # Queries as (b, h, m, dh), values as (b, h, n, dh), keys already
        # transposed to (b, h, dh, n): a transpose inside the product would
        # run another BLAS kernel, whose bits may differ. (0, 2, 1, 3) is its
        # own inverse.
        qh = split(qd, m, (0, 2, 1, 3))
        kh = split(kd, n, (0, 2, 3, 1))
        vh = split(vd, n, (0, 2, 1, 3))
        step = max(1, ATTENTION_BLOCK_BYTES // (8 * heads * m * n))
        blocks = [slice(i, i + step) for i in range(0, b, step)]
        out_heads = np.empty_like(qh)
        probs = []
        for sl in blocks:
            p = qh[sl] @ kh[sl]
            p *= scale
            _softmax_in_place(p, bias)
            np.matmul(p, vh[sl], out=out_heads[sl])
            if self.recording:
                probs.append(p)
        out = Tensor._wrap(merge(out_heads, (0, 2, 1, 3)))

        def pull(g, accum):
            gh = split(g, m, (0, 2, 1, 3))
            dq, dk, dv = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
            for sl, p in zip(blocks, probs):
                gs = gh[sl]
                dz = gs @ vh[sl].swapaxes(-1, -2)
                np.matmul(p.swapaxes(-1, -2), gs, out=dv[sl])
                dz -= (dz * p).sum(axis=-1, keepdims=True)
                dz *= p  # exactly zero on excluded entries
                dz *= scale
                np.matmul(dz, kh[sl].swapaxes(-1, -2), out=dq[sl])
                np.matmul(qh[sl].swapaxes(-1, -2), dz, out=dk[sl])
            # the composition's order, which matters when inputs coincide
            accum(v, merge(dv, (0, 2, 1, 3)), owned=True)
            accum(q, merge(dq, (0, 2, 1, 3)), owned=True)
            accum(k, merge(dk, (0, 3, 1, 2)), owned=True)

        self._push(out, pull)
        return out

    def softmax_cross_entropy_rows(self, logits: Tensor, labels) -> Tensor:
        """Mean softmax cross-entropy of a batch of logit rows, one label
        per row. On a tape with ``copies`` > 1 it is the (copies,) array of
        the means over each copy's block of rows."""
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
        losses = (lse - logits.data[rows, labels]).reshape(self.copies, -1) \
            .mean(axis=1)
        out = Tensor._wrap(losses if self.copies > 1 else losses.reshape(()))

        def pull(g, accum):
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[rows, labels] -= 1.0
            accum(logits, p * (float(g) / b), owned=True)

        self._push(out, pull)
        return out

    # Names of deleted ops that the benchmark's tracer (``fvbench/tracing.py``)
    # still lists in ``TAPE_OPS`` and looks up on this class; no op answers
    # them. The benchmark change that ports the tracer to a tape hook deletes
    # these names together with ``TAPE_OPS``.
    mul = scale = matmul = transpose = bmm = swap_last = slice_rows = \
        slice_cols = gather_rows = sum_all = masked_softmax = \
        softmax_cross_entropy = None
