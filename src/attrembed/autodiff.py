"""Minimal dense-tensor engine with reverse-mode differentiation.

Supplies exactly the operations the attention-based embedding model needs:
1x1 convolution, affine maps, pointwise activations, a spatially flattened
softmax, attention-weighted pooling, elementwise combine, cosine similarity,
plus the plumbing required to assemble a training loss.

The head operations carry an optional leading batch axis: given (n, ...)
inputs they treat each row independently, and attribute lookups
(:func:`matrix_column`, :func:`batch_item`) gather by an index array whose
entries may differ, and repeat, from row to row.  One training batch thus
records one small graph whatever its size; an unbatched input runs the same
code with an empty batch shape.

Recording model: operations executed while a :class:`Tape` is active append
one entry each, in execution order, so the tape is topologically sorted by
construction.  :func:`backward` walks the tape in reverse and accumulates
gradients additively into every tensor that participated, leaves included.
Tensors and tapes are confined to one thread; independent tapes may run in
parallel on separate threads.

Precision is caller-chosen per tensor (float64 for gradient checking and
oracle work, float32 for training runs).  By default every completed
operation is checked for non-finite values and fails fast; the check can be
switched off for throughput with :func:`set_finite_checks`.
"""

from __future__ import annotations

import io
import math
import struct
import threading
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterable, Optional

import numpy as np

from .errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    FormatError,
    NumericalError,
    dimension_error,
)

MAX_RANK = 4
NORM_FLOOR = 1e-12

_state = threading.local()
_finite_checks = True


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the fail-fast non-finite check; returns the previous setting."""
    global _finite_checks
    previous = _finite_checks
    _finite_checks = bool(enabled)
    return previous


class Tensor:
    """Dense row-major array of real scalars, rank at most 4.

    ``grad`` is populated by :func:`backward` with an array of identical
    shape; ``node_id`` is the tensor's position on the tape that produced
    it, or None for leaves.
    """

    __slots__ = ("data", "grad", "node_id")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > MAX_RANK:
            raise DimensionError(
                f"tensor rank {arr.ndim} exceeds the supported maximum {MAX_RANK}"
            )
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Parameter:
    """A named trainable tensor.  Names are unique within a model."""

    __slots__ = ("tensor", "name", "trainable")

    def __init__(self, data, name: str, trainable: bool = True, dtype=None):
        self.tensor = data if isinstance(data, Tensor) else Tensor(data, dtype=dtype)
        self.name = name
        self.trainable = trainable

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class Tape:
    """Ordered record of executed operations.

    Entries are appended at execution time, so every operation's inputs
    precede it.  Cleared (or replaced) between training steps.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> int:
        node_id = len(self._nodes)
        self._nodes.append((out, backward_fn))
        return node_id

    def clear(self) -> None:
        self._nodes.clear()


@contextmanager
def recording(tape: Tape):
    """Make ``tape`` the active tape for the calling thread."""
    previous = getattr(_state, "tape", None)
    _state.tape = tape
    try:
        yield tape
    finally:
        _state.tape = previous


def _emit(out_data: np.ndarray, backward_fn: Callable[[np.ndarray], None], op: str) -> Tensor:
    if _finite_checks and not np.all(np.isfinite(out_data)):
        raise NumericalError(f"{op} produced non-finite values")
    out = Tensor(out_data)
    tape = getattr(_state, "tape", None)
    if tape is not None:
        out.node_id = tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def _indices(idx, size: int, op: str) -> np.ndarray:
    """An int or int array of row indices, checked to lie in [0, size)."""
    arr = np.asarray(idx)
    if arr.dtype.kind not in "iu":
        raise ContractError(f"{op}: indices must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ContractError(f"{op}: index outside range [0, {size}): {arr.min()}..{arr.max()}")
    return arr


def conv_1x1(inp: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Pointwise convolution of a (c, h, w) or (n, c, h, w) map with a
    (c_out, c) kernel.

    out[..., o, y, x] = sum_c kernel[o, c] * inp[..., c, y, x]  (+ bias[o])
    """
    if inp.data.ndim not in (3, 4) or kernel.data.ndim != 2 or kernel.shape[1] != inp.shape[-3]:
        raise dimension_error("conv_1x1", inp.shape, kernel.shape)
    *lead, c, h, w = inp.shape
    c_out = kernel.shape[0]
    x = inp.data.reshape(*lead, c, h * w)
    out = kernel.data @ x
    if bias is not None:
        if bias.shape != (c_out,):
            raise dimension_error("conv_1x1 bias", bias.shape, kernel.shape)
        out = out + bias.data[:, None]
    # sum over every axis but the channel one
    reduce_axes = tuple(range(len(lead))) + (-1,)

    def backward_fn(g: np.ndarray) -> None:
        g = g.reshape(*lead, c_out, h * w)
        inp.accumulate_grad((kernel.data.T @ g).reshape(inp.shape))
        kernel.accumulate_grad(np.tensordot(g, x, axes=(reduce_axes, reduce_axes)))
        if bias is not None:
            bias.accumulate_grad(g.sum(axis=reduce_axes))

    return _emit(out.reshape(*lead, c_out, h, w), backward_fn, "conv_1x1")


def fully_connected(inp: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map of a vector or of each row of an (n, k) matrix:
    inp @ weight.T (+ bias)."""
    if inp.data.ndim not in (1, 2) or weight.data.ndim != 2 or weight.shape[1] != inp.shape[-1]:
        raise dimension_error("fully_connected", inp.shape, weight.shape)
    out = inp.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise dimension_error("fully_connected bias", bias.shape, weight.shape)
        out = out + bias.data
    rows = inp.data.reshape(-1, inp.shape[-1])

    def backward_fn(g: np.ndarray) -> None:
        inp.accumulate_grad(g @ weight.data)
        g_rows = g.reshape(-1, weight.shape[0])
        weight.accumulate_grad(g_rows.T @ rows)
        if bias is not None:
            bias.accumulate_grad(g_rows.sum(axis=0))

    return _emit(out, backward_fn, "fully_connected")


_ACTIVATIONS = ("tanh", "relu", "sigmoid")


def pointwise_activation(inp: Tensor, kind: str) -> Tensor:
    """Elementwise tanh, relu, or sigmoid with its analytic derivative.

    relu uses subgradient 0 at the kink, so inactive units stay inert.
    """
    if kind == "tanh":
        out = np.tanh(inp.data)
        local = 1.0 - out * out
    elif kind == "relu":
        out = np.maximum(inp.data, 0.0)
        local = (inp.data > 0).astype(inp.data.dtype)
    elif kind == "sigmoid":
        e = np.exp(-np.abs(inp.data))  # stable on both half-lines
        out = np.where(inp.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        local = out * (1.0 - out)
    else:
        raise ContractError(f"unknown activation {kind!r}; expected one of {_ACTIVATIONS}")

    def backward_fn(g: np.ndarray) -> None:
        inp.accumulate_grad(g * local)

    return _emit(out, backward_fn, f"pointwise_activation[{kind}]")


def softmax_flat(scores: Tensor) -> Tensor:
    """Normalize a (1, h, w) score map, or each row of an (n, 1, h, w)
    batch, into (h, w) weights summing to 1.

    Numerically stabilized by max subtraction, hence shift-invariant.
    """
    if scores.data.ndim not in (3, 4) or scores.shape[-3] != 1:
        raise dimension_error("softmax_flat", scores.shape)
    if scores.data.size == 0:
        raise dimension_error("softmax_flat (empty spatial extent)", scores.shape)
    *lead, _, h, w = scores.shape
    flat = scores.data.reshape(*lead, h * w)
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    weights = (e / e.sum(axis=-1, keepdims=True)).reshape(*lead, h, w)

    def backward_fn(g: np.ndarray) -> None:
        inner = (g * weights).sum(axis=(-2, -1), keepdims=True)
        scores.accumulate_grad((weights * (g - inner))[..., None, :, :])

    return _emit(weights, backward_fn, "softmax_flat")


def weighted_spatial_sum(features: Tensor, weights: Tensor) -> Tensor:
    """Pool a (c, h, w) map into a length-c vector with (h, w) weights, or
    each row of an (n, c, h, w) batch with its own (n, h, w) weights.

    out[..., k] = sum_j weights[..., j] * features[..., k, j] over all
    spatial locations.
    """
    if features.data.ndim not in (3, 4) or weights.shape != features.shape[:-3] + features.shape[-2:]:
        raise dimension_error("weighted_spatial_sum", features.shape, weights.shape)
    *lead, c, h, w = features.shape
    f = features.data.reshape(*lead, c, h * w)
    out = (f @ weights.data.reshape(*lead, h * w, 1))[..., 0]

    def backward_fn(g: np.ndarray) -> None:
        features.accumulate_grad(g[..., :, None, None] * weights.data[..., None, :, :])
        weights.accumulate_grad((g[..., None, :] @ f).reshape(weights.shape))

    return _emit(out, backward_fn, "weighted_spatial_sum")


def elementwise_combine(a: Tensor, b: Tensor, kind: str, axis: int = -1) -> Tensor:
    """Hadamard product (``mul``) or contiguous join (``concat``, by default
    along the last axis) of two tensors."""
    if kind == "mul":
        if a.shape != b.shape:
            raise dimension_error("elementwise_combine[mul]", a.shape, b.shape)
        out = a.data * b.data

        def backward_fn(g: np.ndarray) -> None:
            a.accumulate_grad(g * b.data)
            b.accumulate_grad(g * a.data)

        return _emit(out, backward_fn, "elementwise_combine[mul]")

    if kind == "concat":
        if a.data.ndim != b.data.ndim or any(
            sa != sb
            for i, (sa, sb) in enumerate(zip(a.shape, b.shape))
            if i != axis % a.data.ndim
        ):
            raise dimension_error("elementwise_combine[concat]", a.shape, b.shape)
        out = np.concatenate([a.data, b.data], axis=axis)
        split = a.shape[axis]

        def backward_fn(g: np.ndarray) -> None:
            ga, gb = np.split(g, [split], axis=axis)
            a.accumulate_grad(ga)
            b.accumulate_grad(gb)

        return _emit(out, backward_fn, "elementwise_combine[concat]")

    raise ContractError(f"unknown combine kind {kind!r}; expected 'mul' or 'concat'")


def mean_pool_spatial(features: Tensor) -> Tensor:
    """Arithmetic mean per channel of a (c, h, w) map or of each row of an
    (n, c, h, w) batch.

    Implemented as a weighted spatial sum with uniform weights so the two
    pooling paths agree bitwise.
    """
    if features.data.ndim not in (3, 4):
        raise dimension_error("mean_pool_spatial", features.shape)
    *lead, _, h, w = features.shape
    uniform = Tensor(np.full((*lead, h, w), 1.0 / (h * w), dtype=features.dtype))
    return weighted_spatial_sum(features, uniform)


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between two nonzero vectors, as a scalar tensor,
    or between matching rows of two (n, d) matrices, as a length-n vector.

    A norm below 1e-12 in any row raises DegenerateVectorError: training
    should never produce such a vector, so surfacing it is diagnostic.
    """
    if u.data.ndim not in (1, 2) or u.shape != v.shape:
        raise dimension_error("cosine_similarity", u.shape, v.shape)
    nu = np.linalg.norm(u.data, axis=-1)
    nv = np.linalg.norm(v.data, axis=-1)
    degenerate = np.flatnonzero((nu < NORM_FLOOR) | (nv < NORM_FLOOR))
    if degenerate.size:
        row = int(degenerate[0])
        where = f" in row {row}" if u.data.ndim == 2 else ""
        raise DegenerateVectorError(
            f"cosine_similarity: vector norm below {NORM_FLOOR}{where} "
            f"(|u|={float(nu.reshape(-1)[row]):.3e}, |v|={float(nv.reshape(-1)[row]):.3e})"
        )
    cos = (u.data * v.data).sum(axis=-1) / (nu * nv)

    def backward_fn(g: np.ndarray) -> None:
        s, cu, cv, c = g[..., None], nu[..., None], nv[..., None], cos[..., None]
        u.accumulate_grad(s * (v.data / (cu * cv) - c * u.data / (cu * cu)))
        v.accumulate_grad(s * (u.data / (cu * cv) - c * v.data / (cv * cv)))

    return _emit(np.asarray(cos, dtype=u.dtype), backward_fn, "cosine_similarity")


# ---------------------------------------------------------------------------
# plumbing operations used to assemble models and losses
# ---------------------------------------------------------------------------

def matrix_column(weight: Tensor, j) -> Tensor:
    """Column j of a matrix; the lookup form of multiplying by a one-hot
    vector.  An (n,) index array gathers n columns as the rows of an
    (n, rows) matrix; repeated indices are allowed."""
    if weight.data.ndim != 2:
        raise dimension_error("matrix_column", weight.shape)
    j = _indices(j, weight.shape[1], "matrix_column")
    out = np.take(weight.data.T, j, axis=0)

    def backward_fn(g: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full.T, j, g)  # repeated columns accumulate
        weight.accumulate_grad(full)

    return _emit(out, backward_fn, "matrix_column")


def broadcast_spatial(vec: Tensor, h: int, w: int) -> Tensor:
    """Duplicate a length-c vector over an h x w grid, giving (c, h, w);
    an (n, c) matrix gives (n, c, h, w)."""
    if vec.data.ndim not in (1, 2):
        raise dimension_error("broadcast_spatial", vec.shape)
    out = np.broadcast_to(vec.data[..., None, None], (*vec.shape, h, w)).copy()

    def backward_fn(g: np.ndarray) -> None:
        vec.accumulate_grad(g.sum(axis=(-2, -1)))

    return _emit(out, backward_fn, "broadcast_spatial")


def batch_item(batch: Tensor, i) -> Tensor:
    """Select item i from a batched tensor (first axis); an index array
    gathers several items, repeated indices allowed."""
    if batch.data.ndim < 2:
        raise dimension_error("batch_item", batch.shape)
    i = _indices(i, batch.shape[0], "batch_item")
    out = np.take(batch.data, i, axis=0)

    def backward_fn(g: np.ndarray) -> None:
        if batch.grad is None:
            batch.grad = np.zeros_like(batch.data)
        np.add.at(batch.grad, i, g)  # repeated items accumulate

    return _emit(out, backward_fn, "batch_item")


def subtract(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b, on scalars or row-wise on vectors."""
    if a.shape != b.shape:
        raise dimension_error("subtract", a.shape, b.shape)
    out = a.data - b.data

    def backward_fn(g: np.ndarray) -> None:
        a.accumulate_grad(g)
        b.accumulate_grad(-g)

    return _emit(out, backward_fn, "subtract")


def add_constant(a: Tensor, k: float) -> Tensor:
    out = a.data + k

    def backward_fn(g: np.ndarray) -> None:
        a.accumulate_grad(g)

    return _emit(out, backward_fn, "add_constant")


def scalar_mean(terms: Tensor) -> Tensor:
    """Mean of the entries of a nonempty vector tensor, as a scalar tensor."""
    if terms.data.ndim != 1 or terms.shape[0] == 0:
        raise dimension_error("scalar_mean (nonempty vector)", terms.shape)
    n = terms.shape[0]
    out = np.asarray(terms.data.mean(), dtype=terms.dtype)

    def backward_fn(g: np.ndarray) -> None:
        terms.accumulate_grad(np.full_like(terms.data, g / n))

    return _emit(out, backward_fn, "scalar_mean")


def tensor_sum(t: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = np.asarray(t.data.sum(), dtype=t.dtype)

    def backward_fn(g: np.ndarray) -> None:
        t.accumulate_grad(np.full_like(t.data, float(g)))

    return _emit(out, backward_fn, "tensor_sum")


# ---------------------------------------------------------------------------
# reverse pass and gradient checking
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from ``loss``.

    Gradients accumulate additively across fan-out.  ``loss`` must be a
    scalar produced on this tape.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.node_id is None:
        raise ContractError("backward: loss tensor is detached from any tape")
    if loss.node_id >= len(tape) or tape._nodes[loss.node_id][0] is not loss:
        raise ContractError("backward: loss was not produced on this tape")
    loss.grad = np.ones_like(loss.data)
    for node_id in range(loss.node_id, -1, -1):
        out, backward_fn = tape._nodes[node_id]
        if out.grad is not None:
            backward_fn(out.grad)


GRAD_CHECK_STEP = 1e-5
# Central differences on a float64 loss of order one carry ~2e-11 of
# roundoff noise, so relative comparison below ~1e-7 of gradient mass is
# meaningless; the floor keeps near-zero gradients from failing on noise.
GRAD_CHECK_FLOOR = 1e-6


class GradCheckReport:
    """Per-parameter maximum relative error between analytic and numeric
    gradients, with the coordinates that exceeded the tolerance."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.per_parameter: dict[str, float] = {}
        self.failures: dict[str, list[tuple]] = {}

    @property
    def max_relative_error(self) -> float:
        return max(self.per_parameter.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"gradient check: max relative error {self.max_relative_error:.3e}"
            f" (tolerance {self.tolerance:.1e})"
        ]
        for name in sorted(self.per_parameter):
            flag = "FAIL" if name in self.failures else "ok"
            lines.append(f"  {flag:4s} {name}: {self.per_parameter[name]:.3e}")
            for idx, analytic, numeric, err in self.failures.get(name, [])[:5]:
                lines.append(
                    f"         at {idx}: analytic={analytic:.6e} numeric={numeric:.6e} rel={err:.3e}"
                )
        return "\n".join(lines)


def grad_check(
    model_fn: Callable[[], Tensor],
    params: Iterable[Parameter],
    tolerance: float = 1e-4,
    analytic: Optional[dict[str, np.ndarray]] = None,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``model_fn`` must deterministically rebuild the loss from the current
    parameter values; evaluation should be in 64-bit precision.  Relative
    error is |a - b| / max(1e-8, |a| + |b|) per coordinate.  ``analytic``
    overrides the backward-pass gradients (used for negative controls).
    """
    params = list(params)
    if analytic is None:
        tape = Tape()
        for p in params:
            p.zero_grad()
        with recording(tape):
            loss = model_fn()
        backward(tape, loss)
        analytic = {
            p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for p in params
        }

    def loss_value() -> float:
        return float(model_fn().data)

    report = GradCheckReport(tolerance)
    for p in params:
        if not p.trainable:
            continue
        a_grad = analytic[p.name]
        worst = 0.0
        failures = []
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + GRAD_CHECK_STEP
            up = loss_value()
            flat[i] = saved - GRAD_CHECK_STEP
            down = loss_value()
            flat[i] = saved
            numeric = (up - down) / (2.0 * GRAD_CHECK_STEP)
            analytic_i = float(a_grad.reshape(-1)[i])
            err = abs(analytic_i - numeric) / max(GRAD_CHECK_FLOOR, abs(analytic_i) + abs(numeric))
            if err > worst:
                worst = err
            if err > tolerance:
                idx = np.unravel_index(i, p.data.shape)
                failures.append((idx, analytic_i, numeric, err))
        report.per_parameter[p.name] = worst
        if failures:
            report.failures[p.name] = failures
    return report


# ---------------------------------------------------------------------------
# tensor serialization
# ---------------------------------------------------------------------------

MAGIC = b"ATT1"
_WIDTH_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def write_tensor(stream: BinaryIO, array: np.ndarray) -> None:
    """Serialize one array: magic, u32 rank, u32 extents, width flag byte,
    then the scalars little-endian row-major."""
    arr = np.asarray(array)
    if arr.ndim:  # ascontiguousarray would promote a scalar to rank 1
        arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float32:
        width = 4
    elif arr.dtype == np.float64:
        width = 8
    else:
        raise ContractError(f"write_tensor: unsupported dtype {arr.dtype}")
    if arr.ndim > MAX_RANK:
        raise DimensionError(f"write_tensor: rank {arr.ndim} exceeds {MAX_RANK}")
    stream.write(MAGIC)
    stream.write(struct.pack("<I", arr.ndim))
    for extent in arr.shape:
        stream.write(struct.pack("<I", extent))
    stream.write(bytes([width]))
    stream.write(arr.astype(_WIDTH_DTYPES[width], copy=False).tobytes())


def read_tensor(stream: BinaryIO) -> np.ndarray:
    """Inverse of :func:`write_tensor`.  Errors name the failing byte offset;
    a read past the stream's end fails before allocating what it claims."""
    base = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(base)
    magic = stream.read(4)
    if len(magic) < 4:
        raise FormatError(f"tensor stream truncated at byte {base}: missing magic")
    if magic != MAGIC:
        raise FormatError(f"bad tensor magic {magic!r} at byte {base}")

    def read_exact(n: int, what: str) -> bytes:
        at = stream.tell()
        buf = stream.read(n) if n <= end - at else b""
        if len(buf) < n:
            raise FormatError(f"tensor stream truncated at byte {at}: missing {what} ({n} bytes)")
        return buf

    (rank,) = struct.unpack("<I", read_exact(4, "rank"))
    if rank > MAX_RANK:
        raise FormatError(f"tensor rank {rank} at byte {base + 4} exceeds {MAX_RANK}")
    shape = tuple(
        struct.unpack("<I", read_exact(4, f"extent {i}"))[0] for i in range(rank)
    )
    (width,) = read_exact(1, "width flag")
    if width not in _WIDTH_DTYPES:
        raise FormatError(f"bad width flag {width} at byte {stream.tell() - 1}")
    payload = read_exact(math.prod(shape) * width, "tensor data")
    return np.frombuffer(payload, dtype=_WIDTH_DTYPES[width]).reshape(shape).copy()


def save_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor(f, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_tensor(f)
