"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is define-by-run: ops execute eagerly on numpy arrays and, when a
`Tape` is active, append a node recording how to push gradients back to their
inputs.  `backward(loss, tape)` replays the tape in reverse and accumulates
gradients into the `.grad` buffer of every tensor built with
``grad_enabled=True``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

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

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", grad_enabled=True" if self.grad_enabled else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("divide by a python scalar, not a Tensor")
        return mul(self, _as_tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

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
    return _record(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _record(
        "sub", (a, b), out,
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _record(
        "mul", (a, b), out,
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
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

    def back(g):
        return np.matmul(g, bd.swapaxes(-1, -2)), np.matmul(ad.swapaxes(-1, -2), g)

    return _record("matmul", (a, b), out, back)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _record("relu", (a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed as logaddexp(0, x) so large |x| never overflows."""
    out = np.logaddexp(0.0, a.data)
    sig = np.exp(a.data - out)  # sigmoid(x), stable at both tails
    return _record("softplus", (a,), out, lambda g: (g * sig,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

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


def scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[ids[i]] += rows[i] for every i, bit for bit as np.add.at does it.

    Every bucket must receive its rows in row order, since float addition
    does not reassociate (np.add.reduceat, which sums in its own order, is
    not exact).  A stable sort by bucket ranks each row among its bucket's
    rows; one vectorized add per rank then touches each bucket at most once.
    When fewer than _MIN_PASS_BUCKETS buckets still have rows, each of them
    folds its rest left to right with np.add.accumulate.  Returns out.
    """
    n = ids.shape[0]
    if n == 0:
        return out
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=n)
    rank = np.arange(n) - np.repeat(starts, sizes)
    per_rank = np.bincount(rank)
    passes = int(np.count_nonzero(per_rank >= _MIN_PASS_BUCKETS))
    if passes:
        by_rank = order[np.argsort(rank, kind="stable")]
        lo = 0
        for count in per_rank[:passes].tolist():
            sel = by_rank[lo:lo + count]
            out[ids[sel]] += rows[sel]
            lo += count
    rest = sizes > passes
    for start, size in zip(starts[rest].tolist(), sizes[rest].tolist()):
        sel = order[start + passes:start + size]
        b = ids[sel[0]]
        out[b] = np.add.accumulate(np.concatenate([out[b:b + 1], rows[sel]]))[-1]
    return out


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (axis 0); repeated indices scatter-add their gradients."""
    idx = _check_indices(indices, a.data.shape[0], "row index")
    out = a.data[idx]

    def back(g):
        flat = g.reshape((idx.size,) + a.data.shape[1:])
        return (scatter_add(np.zeros_like(a.data), idx.ravel(), flat),)

    return _record("take_rows", (a,), out, back)


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
    records one node and keeps no gathered rows for backward."""
    idx = _check_indices(indices, a.data.shape[0], "row index")
    seg = _check_indices(segment_ids, num_segments, "segment id")
    if idx.ndim != 1 or seg.shape != idx.shape:
        raise ShapeError(f"need 1-D indices and segment ids of one length, got "
                         f"{idx.shape} and {seg.shape}")
    out = scatter_add(np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64),
                      seg, a.data[idx])

    def back(g):
        return (scatter_add(np.zeros_like(a.data), idx, g[seg]),)

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
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
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


@dataclass
class AdamState:
    """First/second moment estimates keyed like the parameter dict."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> AdamState:
    """One Adam update, in place on params.  Missing grad keys are skipped
    (frozen groups); a zero gradient leaves the parameter bit-identical."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad for '{name}' has shape {g.shape}, param is {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return state


class Adam:
    """Convenience wrapper: pulls grads off the tensors, steps, zeroes."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.state = AdamState(learning_rate, beta1, beta2, epsilon)

    def step(self):
        grads = {k: p.grad for k, p in self.params.items() if p.grad is not None}
        adam_step(self.params, grads, self.state)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
