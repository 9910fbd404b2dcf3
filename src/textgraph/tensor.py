"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is define-by-run: ops execute eagerly on numpy arrays and, when a
`Tape` is active, append a node recording how to push gradients back to their
inputs.  `backward(loss, tape)` replays the tape in reverse and accumulates
gradients into the `.grad` buffer of every tensor built with
``grad_enabled=True``.

An op computes an operand's gradient only when backward can read it: the
operand is a grad-enabled leaf, or an op output recorded on a tape.  The
binary ops (add, mul, matmul) and linear decide this per operand when
they run and hand backward None for a constant operand, such as frozen input
features, a mask or a scale, so no gradient is computed only to be dropped.

linear, add_tiled, take_prefix and take_strided are one-node forms of
add(matmul(...)) and of take_rows over a tiled, prefix or strided index, and
give their bytes, signed zeros included: take_rows's backward scatters into
zeros, which turns a -0.0 in g into 0.0, and theirs add g to 0.0 as well.
relu gives the bytes of np.where(a > 0, a, 0.0): every other input, -0.0 and
NaN included, maps to 0.0, never to -0.0.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

_TAPE_STACK: list["Tape"] = []
_GRAD_DISABLED = 0  # nesting depth of no_grad()


class Tensor:
    """A numpy float64 array plus an optional gradient buffer.

    grad_enabled marks leaf parameters; only those receive a .grad from
    backward().  Intermediate op outputs route gradients but never keep them.
    """

    __slots__ = ("data", "grad", "grad_enabled", "_src_tape")

    def __init__(self, data, grad_enabled: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.grad_enabled = bool(grad_enabled)
        self._src_tape: object | None = None  # the producing tape's token

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        flag = ", grad_enabled=True" if self.grad_enabled else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class TapeNode:
    inputs: tuple
    output: Tensor
    backward_fn: object  # grad_out -> tuple of per-input grads (None = skip)
    name: str


class Tape:
    """Append-only op record.  Use as a context manager around the forward pass."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        # Outputs point at this token, not at the tape: nodes hold their
        # outputs, so a back-pointer would make a cycle that only the cyclic
        # GC frees, keeping every finished step's graph alive until then.
        self.token = object()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)


@contextlib.contextmanager
def no_grad():
    """Disable recording; ops inside run as plain numpy, outputs are constants."""
    global _GRAD_DISABLED
    _GRAD_DISABLED += 1
    try:
        yield
    finally:
        _GRAD_DISABLED -= 1


def _active_tape(inputs) -> "Tape | None":
    if _GRAD_DISABLED or not _TAPE_STACK:
        return None
    tape = _TAPE_STACK[-1]
    for t in inputs:
        if t.grad_enabled or t._src_tape is tape.token:
            return tape
    return None


def _record(name: str, inputs: tuple, out_data: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape(inputs)
    if tape is not None:
        out._src_tape = tape.token
        tape.nodes.append(TapeNode(inputs, out, backward_fn, name))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every grad_enabled leaf.

    loss must be a scalar produced on this tape.  Gradients add across calls
    (.grad is += not =), so callers zero grads between optimizer steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward target must be scalar, got shape {loss.data.shape}")
    if loss._src_tape is not tape.token:
        raise ContractError("backward target was not produced on this tape")
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(tape.nodes):
        g = pending.pop(id(node.output), None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for t, gi in zip(node.inputs, input_grads):
            if gi is None:
                continue
            key = id(t)
            if key in pending:
                pending[key] = pending[key] + gi
            else:
                pending[key] = gi
            if t.grad_enabled:
                leaves[key] = t
    for key, t in leaves.items():
        g = pending[key]
        t.grad = g.copy() if t.grad is None else t.grad + g


def _wants_grad(t: Tensor) -> bool:
    """Whether backward may read t's gradient: t is a grad-enabled leaf or an
    op output recorded on a tape.  Any other tensor is a constant."""
    return t.grad_enabled or t._src_tape is not None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- basic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    wa, wb = _wants_grad(a), _wants_grad(b)
    return _record(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, a.data.shape) if wa else None,
                   _unbroadcast(g, b.data.shape) if wb else None),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data
    wa, wb = _wants_grad(a), _wants_grad(b)
    return _record(
        "mul", (a, b), out,
        lambda g: (_unbroadcast(g * bd, ad.shape) if wa else None,
                   _unbroadcast(g * ad, bd.shape) if wb else None),
    )


def neg(a: Tensor) -> Tensor:
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands must have the same ndim >= 2.

    Batched forms contract the last two axes; leading axes must match exactly
    (no broadcasting, to keep the backward rule trivial).
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim != bd.ndim:
        raise ShapeError(f"matmul needs equal ndim >= 2, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)
    wa, wb = _wants_grad(a), _wants_grad(b)

    def back(g):
        return (np.matmul(g, bd.swapaxes(-1, -2)) if wa else None,
                np.matmul(ad.swapaxes(-1, -2), g) if wb else None)

    return _record("matmul", (a, b), out, back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """add(matmul(x, w), b) for 2-D x and w and 1-D b, as one tape node with
    one output buffer; the bias is added in place."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or b.data.shape != (wd.shape[1],) \
            or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"linear needs (n, k) @ (k, m) + (m,), got "
                         f"{xd.shape} @ {wd.shape} + {b.data.shape}")
    out = np.matmul(xd, wd)
    out += b.data
    wx, ww, wb = _wants_grad(x), _wants_grad(w), _wants_grad(b)

    def back(g):
        return (np.matmul(g, wd.T) if wx else None,
                np.matmul(xd.T, g) if ww else None,
                g.sum(axis=0) if wb else None)

    return _record("linear", (x, w, b), out, back)


def relu(a: Tensor) -> Tensor:
    # np.fmax(-0.0, 0.0) is -0.0 in numpy's scalar loops and 0.0 in its
    # vector loops; adding 0.0 makes it 0.0 in both, as np.where gives.
    # fmax maps NaN to 0.0.
    ad = a.data
    out = np.fmax(ad, 0.0)
    out += 0.0
    return _record("relu", (a,), out, lambda g: (g * (ad > 0.0),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed as logaddexp(0, x) so large |x| never overflows."""
    out = np.logaddexp(0.0, a.data)
    sig = np.exp(a.data - out)  # sigmoid(x), stable at both tails
    return _record("softplus", (a,), out, lambda g: (g * sig,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", (a,), y, back)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _record("sum", (a,), out, back)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape) / count,)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape) / count,)

    return _record("mean", (a,), out, back)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return _record("reshape", (a,), out, lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record("transpose", (a,), a.data.transpose(axes), lambda g: (g.transpose(inv),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _record("concat", tensors, out, lambda g: tuple(np.split(g, splits, axis=axis)))


# ------------------------------------------------------------- gather ops


def _check_indices(idx: np.ndarray, bound: int, what: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} out of range [0, {bound}): min {idx.min()}, max {idx.max()}")
    return idx


# Rank passes that would touch fewer buckets than this give way to one
# sequential fold per remaining bucket.
_MIN_PASS_BUCKETS = 8


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable"); keys in [0, 2**16) sort as uint16, by
    radix, many times faster, and a stable sort's order is unique."""
    narrow = keys.min() >= 0 and keys.max() < 1 << 16
    return np.argsort(keys.astype(np.uint16) if narrow else keys, kind="stable")


def scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray,
                row_index: np.ndarray | None = None) -> np.ndarray:
    """out[ids[i]] += rows[i] for every i, bit for bit as np.add.at does it.

    With row_index, row i is rows[row_index[i]] instead; each pass gathers
    only the rows it adds, so the caller never builds rows[row_index].

    Every bucket must receive its rows in row order, starting from its old
    value, since float addition does not reassociate (np.add.reduceat, which
    sums in its own order, is not exact).  A stable sort by bucket ranks each
    row among its bucket's rows, and the buckets are then ordered by size,
    largest first.  Their old values are gathered once into a dense
    accumulator acc.  The buckets that still have a row of rank k are then a
    prefix acc[:m_k], so pass k is one contiguous in-place add of each
    bucket's k-th row: every bucket still sees old + r0 + r1 + ... in
    occurrence order, the additions np.add.at makes.  When fewer than
    _MIN_PASS_BUCKETS buckets still have rows, each of them folds its rest
    left to right with np.add.accumulate.  acc is written back once.
    Returns out.
    """
    n = ids.shape[0]
    if n == 0:
        return out
    order = _stable_order(ids)
    sorted_ids = ids[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=n)
    by_size = _stable_order(sizes.max() - sizes)  # largest first
    starts = starts[by_size]
    sizes = sizes[by_size]
    buckets = sorted_ids[starts]
    src = order if row_index is None else row_index[order]
    # live[k]: buckets with more than k rows, i.e. the prefix pass k adds to
    live = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    passes = int(np.count_nonzero(live >= _MIN_PASS_BUCKETS))
    acc = out[buckets]
    for k, m in enumerate(live[:passes].tolist()):
        acc[:m] += rows[src[starts[:m] + k]]
    folds = int(live[passes]) if passes < live.size else 0
    for j, (start, size) in enumerate(zip(starts[:folds].tolist(), sizes[:folds].tolist())):
        sel = src[start + passes:start + size]
        acc[j] = np.add.accumulate(np.concatenate([acc[j:j + 1], rows[sel]]))[-1]
    out[buckets] = acc
    return out


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (axis 0); repeated indices scatter-add their gradients."""
    idx = _check_indices(indices, a.data.shape[0], "row index")
    out = a.data[idx]

    def back(g):
        flat = g.reshape((idx.size,) + a.data.shape[1:])
        return (scatter_add(np.zeros_like(a.data), idx.ravel(), flat),)

    return _record("take_rows", (a,), out, back)


def _take_slice(name: str, a: Tensor, rows: slice) -> Tensor:
    """The rows of a basic slice, as take_rows over the same indices gives
    them: a copy, and a backward that adds g to 0.0 in those rows of a zero
    array instead of scattering."""
    out = a.data[rows].copy()

    def back(g):
        grad = np.zeros_like(a.data)
        np.add(g, 0.0, out=grad[rows])
        return (grad,)

    return _record(name, (a,), out, back)


def take_prefix(a: Tensor, n: int) -> Tensor:
    """Rows [:n] of a: take_rows(a, np.arange(n))."""
    if not 0 <= n <= a.data.shape[0]:
        raise IndexError(f"row prefix {n} out of range [0, {a.data.shape[0]}]")
    return _take_slice("take_prefix", a, slice(n))


def take_strided(a: Tensor, step: int) -> Tensor:
    """Rows 0, step, 2*step, ... of a: take_rows(a, np.arange(0, n, step))."""
    if step < 1:
        raise ContractError(f"row step must be >= 1, got {step}")
    return _take_slice("take_strided", a, slice(None, None, step))


def add_tiled(a: Tensor, table: Tensor, period: int) -> Tensor:
    """a + take_rows(table, np.tile(np.arange(period), n)) for a of n*period
    rows, as one broadcast add of table[:period] over a viewed as
    (n, period, ...).  table's gradient sums g over the n tiles in order,
    starting from 0.0 as the scatter into zeros does."""
    rows = a.data.shape[0]
    if not 0 < period <= table.data.shape[0] or rows % period \
            or a.data.shape[1:] != table.data.shape[1:]:
        raise ShapeError(f"cannot tile rows [:{period}] of {table.data.shape} "
                         f"over {a.data.shape}")
    tiled = (rows // period, period) + a.data.shape[1:]
    out = (a.data.reshape(tiled) + table.data[:period]).reshape(a.data.shape)
    wa, wt = _wants_grad(a), _wants_grad(table)

    def back(g):
        gt = None
        if wt:
            gt = np.zeros_like(table.data)
            np.add.reduce(g.reshape(tiled), axis=0, initial=0.0, out=gt[:period])
        return (g if wa else None, gt)

    return _record("add_tiled", (a, table), out, back)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of a into num_segments buckets given per-row bucket ids."""
    seg = _check_indices(segment_ids, num_segments, "segment id")
    if seg.shape[0] != a.data.shape[0]:
        raise ShapeError(f"segment ids ({seg.shape[0]}) != rows ({a.data.shape[0]})")
    out = scatter_add(np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64),
                      seg, a.data)
    return _record("segment_sum", (a,), out, lambda g: (g[seg],))


def gather_segment_sum(a: Tensor, indices, segment_ids, num_segments: int) -> Tensor:
    """segment_sum(take_rows(a, indices), segment_ids, num_segments) as one op.

    Forward and backward are bit-identical to the two-op form, but the tape
    records one node, and neither pass builds the gathered rows as a whole:
    the scatter reads a.data[indices] (forward) and g[segment_ids]
    (backward) through its row_index."""
    idx = _check_indices(indices, a.data.shape[0], "row index")
    seg = _check_indices(segment_ids, num_segments, "segment id")
    if idx.ndim != 1 or seg.shape != idx.shape:
        raise ShapeError(f"need 1-D indices and segment ids of one length, got "
                         f"{idx.shape} and {seg.shape}")
    out = scatter_add(np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64),
                      seg, a.data, row_index=idx)

    def back(g):
        return (scatter_add(np.zeros_like(a.data), idx, g, row_index=seg),)

    return _record("gather_segment_sum", (a,), out, back)


# -------------------------------------------------------------- fused ops


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if gain.data.shape != (a.data.shape[-1],) or bias.data.shape != (a.data.shape[-1],):
        raise ShapeError(
            f"layer_norm gain/bias must be shape ({a.data.shape[-1]},), "
            f"got {gain.data.shape} and {bias.data.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    out = xhat * xhat
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    reduce_axes = tuple(range(a.data.ndim - 1))

    def back(g):
        gx_hat = g * gain.data
        term = gx_hat - gx_hat.mean(axis=-1, keepdims=True) \
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        ggain = (g * xhat).sum(axis=reduce_axes) if reduce_axes else (g * xhat)
        gbias = g.sum(axis=reduce_axes) if reduce_axes else g
        return inv * term, ggain, gbias

    return _record("layer_norm", (a, gain, bias), out, back)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels under softmax(logits); fused and stable."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.data.shape}")
    n, c = logits.data.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels must be shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c}): min {labels.min()}, max {labels.max()}")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - lse
    loss = -log_probs[np.arange(n), labels].mean()

    def back(g):
        p = np.exp(log_probs)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _record("softmax_cross_entropy", (logits,), np.float64(loss), back)


# ---------------------------------------------------------------- optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a dict of parameters; it holds its own step count and moment
    estimates.  step() updates the parameters in place from their .grad,
    skipping any without one (a frozen group); a zero gradient leaves its
    parameter bit-identical."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.steps = 0
        # first and second moment estimates, keyed like params
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self):
        self.steps += 1
        t = self.steps
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = np.asarray(p.grad, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ShapeError(f"grad for '{name}' has shape {g.shape}, param is {p.data.shape}")
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
