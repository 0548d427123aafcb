"""Dense tensor with reverse-mode autodiff, plus Adam and a finite-difference checker.

Values are stored as flat-compatible numpy arrays (row-major). Training runs in
float32; gradient checking switches the default dtype to float64 via
`use_dtype`. Leaf gradients accumulate across backward() calls until
explicitly zeroed; backward() consumes the graph it walks, so each interior
node's gradient and closure are freed once its own backward has run.

Multi-head attention is one node (`attention`) over projected [B, S, d]
streams: it splits and merges heads itself, and its hand-written backward
keeps only its inputs and the attention weights.
"""

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ContractError(RuntimeError):
    """Raised when an operation's preconditions are violated."""


class NumericError(RuntimeError):
    """Non-finite loss or parameter during training."""


_default_dtype = np.float32
_grad_enabled = True


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the default dtype (e.g. np.float64 for gradcheck)."""
    global _default_dtype
    prev = _default_dtype
    _default_dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _default_dtype = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-d array node in the autodiff graph.

    `requires_grad` marks leaf parameters; interior nodes receive gradients
    whenever any ancestor requires them, and backward fns compute no
    gradient for a parent outside the graph (a constant). `grad` is
    allocated by backward() on its first write, as an owned C-contiguous
    array.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def randn(rng: np.random.Generator, shape, scale=1.0, requires_grad=False):
        return Tensor((rng.standard_normal(shape) * scale).astype(_default_dtype),
                      requires_grad)

    @staticmethod
    def const(data):
        return Tensor(data, requires_grad=False)

    # -- basics ---------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _needs_graph(self) -> bool:
        """Whether gradients flow into this tensor: a parameter or an
        interior node. Independent of no_grad(), which only stops recording,
        so a graph recorded earlier still back-propagates inside it."""
        return self.requires_grad or self._backward_fn is not None or bool(self._parents)

    # -- graph plumbing -------------------------------------------------------

    def _record(self, out: "Tensor", parents: Sequence["Tensor"],
                backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        if _grad_enabled and any(p._needs_graph() for p in parents):
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accum(self, grad: np.ndarray):
        if self.grad is None:
            # owned, since later writes add in place; C order, since a layout
            # kept from `grad` (often a transposed view) changes the rounding
            # of the BLAS calls and reductions that read it later
            self.grad = np.array(grad, dtype=self.data.dtype, order="C")
        else:
            self.grad += grad

    def backward(self):
        """Populate the grads of every leaf the loss depends on. Accumulative
        on leaves; consumes the graph: each interior node drops its grad,
        closure and parents once its backward has run, so its arrays are
        freed during the pass and the graph cannot be walked again."""
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = node._backward_fn = None
            node._parents = ()

    # -- elementwise / arithmetic --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor.const(np.asarray(other, dtype=self.data.dtype))
        try:
            out = Tensor(self.data + other.data)
        except ValueError:
            raise ShapeError(f"add: incompatible shapes {self.shape} and {other.shape}")
        a, b = self, other

        def bw(g):
            if a._needs_graph():
                a._accum(_unbroadcast(g, a.shape))
            if b._needs_graph():
                b._accum(_unbroadcast(g, b.shape))

        return self._record(out, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data)
        a = self
        return self._record(out, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor.const(np.asarray(other, dtype=self.data.dtype))
        try:
            out = Tensor(self.data * other.data)
        except ValueError:
            raise ShapeError(f"mul: incompatible shapes {self.shape} and {other.shape}")
        a, b = self, other

        def bw(g):
            if a._needs_graph():
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b._needs_graph():
                b._accum(_unbroadcast(g * a.data, b.shape))

        return self._record(out, (a, b), bw)

    __rmul__ = __mul__

    def exp(self):
        out = Tensor(np.exp(self.data))
        a = self
        return self._record(out, (a,), lambda g: a._accum(g * out.data))

    def log(self):
        out = Tensor(np.log(self.data))
        a = self
        return self._record(out, (a,), lambda g: a._accum(g / a.data))

    def relu(self):
        out = Tensor(np.maximum(self.data, 0))
        a = self
        return self._record(out, (a,), lambda g: a._accum(g * (a.data > 0)))

    def sum(self):
        out = Tensor(self.data.sum())
        a = self
        return self._record(out, (a,), lambda g: a._accum(np.broadcast_to(g, a.shape).copy()))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape))
        a = self
        return self._record(out, (a,), lambda g: a._accum(g.reshape(a.shape)))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = Tensor(self.data.transpose(axes))
        a = self
        return self._record(out, (a,), lambda g: a._accum(g.transpose(np.argsort(axes))))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes; leading axes must match or broadcast."""
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        if a._needs_graph():
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b._needs_graph():
            b._accum(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return a._record(out, (a, b), bw)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def bw(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t._needs_graph():
                t._accum(piece)

    return tensors[0]._record(out, tuple(tensors), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax(q kᵀ / sqrt(dh)) v over projected streams, as one node.

    q: [B, Sq, d]; k, v: [B or 1, Sk, d], batch 1 broadcast over q's batch.
    Each stream splits, as a view, into n_heads heads of width d / n_heads.
    `mask` (bool, broadcastable to the [B, H, Sq, Sk] scores, True = keep)
    gives the False keys weight exactly 0 and gradient 0; every row must
    keep at least one key. Returns the output [B, Sq, d], heads merged, and
    the weights [B, H, Sq, Sk], which backward reads: do not write to them.
    The forward runs the softmax in place on one scores buffer; backward
    keeps only the inputs and the weights.
    """
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError(f"attention: query width {q.shape} vs key {k.shape}, value {v.shape}")
    dh = d // n_heads

    def split(x):          # [b, s, d] -> [b, H, s, dh]
        return x.reshape(x.shape[0], x.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):          # [b, H, s, dh] -> [b, s, d]
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    w = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scale = w.dtype.type(1.0 / np.sqrt(dh))
    w *= scale
    if mask is not None:
        np.copyto(w, -np.inf, where=~mask)
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    out = Tensor(merge(np.matmul(w, vh)))

    def bw(g):
        # the numpy operations, in order, of the backward of the op chain
        # split, matmul, scaling, softmax, matmul, merge
        # (tests/oracles.py:chain_attention), so that gradients equal the
        # chain's bit for bit; the chain's split gradient is C-ordered
        g = np.ascontiguousarray(split(g))
        gw = np.matmul(g, np.swapaxes(vh, -1, -2))
        if v._needs_graph():
            v._accum(merge(_unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g), vh.shape)))
        gw -= (gw * w).sum(axis=-1, keepdims=True)
        gw *= w
        gw *= scale
        if q._needs_graph():
            q._accum(merge(np.matmul(gw, kh)))
        if k._needs_graph():
            gk = np.matmul(np.swapaxes(qh, -1, -2), gw)
            k._accum(merge(np.swapaxes(
                _unbroadcast(gk, kh.shape[:-2] + kh.shape[:-3:-1]), -1, -2)))

    # with parents in this order, backward walks the graph, and so shared
    # nodes sum their gradients, in the order the op chain gave
    return q._record(out, (q, k, v), bw), w


def log_softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy log softmax (decode-time scoring)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    # the values of x.mean() and x.var() without their call overhead, and
    # with one mean instead of two
    d = x.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    centred = x.data - mu
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = Tensor(xhat * gain.data + bias.data)

    def bw(g):
        if x._needs_graph():
            gg = g * gain.data
            gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
            x._accum(gx.astype(x.data.dtype))
        if gain._needs_graph():
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias._needs_graph():
            bias._accum(_unbroadcast(g, bias.shape))

    return x._record(out, (x, gain, bias), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; backward scatter-adds."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bw(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        table._accum(acc)

    return table._record(out, (table,), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int = -1) -> Tensor:
    """Summed token cross entropy; positions equal to ignore_id contribute zero.

    `logits` has shape [n, V], `targets` length n. Normalization (per-token
    scaling) is the caller's job.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy: {n} rows vs targets shape {targets.shape}")
    keep = targets != ignore_id
    if np.any((targets[keep] < 0) | (targets[keep] >= v)):
        bad = targets[keep][(targets[keep] < 0) | (targets[keep] >= v)][0]
        raise IndexError(f"cross_entropy: target id {bad} outside vocabulary of size {v}")
    logp = log_softmax_np(logits.data, axis=-1)
    safe = np.where(keep, targets, 0)
    picked = logp[np.arange(n), safe]
    loss = -(picked * keep).sum()
    out = Tensor(loss)

    def bw(g):
        p = np.exp(logp)
        grad = p.copy()
        grad[np.arange(n), safe] -= 1.0
        grad *= keep[:, None]
        logits._accum(g.reshape(()) * grad)

    return logits._record(out, (logits,), bw)


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeError(f"adam: grad shape {g.shape} vs param {p.data.shape}")
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# -- gradient checking -------------------------------------------------------


def gradcheck(fn, tensors: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between backward() grads and central differences.

    `fn(*tensors)` must return a scalar Tensor. Run under use_dtype(np.float64)
    for meaningful tolerances. Relative error per element is
    |analytic - numeric| / max(1, |numeric|).
    """
    for t in tensors:
        t.data = np.asarray(t.data)   # 0-d numpy scalars are immutable
        t.grad = None
    loss = fn(*tensors)
    loss.backward()
    worst = 0.0
    with no_grad():   # the differenced forwards need no graph
        for t in tensors:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            flat = t.data.flat
            for i in range(t.data.size):
                orig = flat[i]
                flat[i] = orig + step
                up = fn(*tensors).item()
                flat[i] = orig - step
                down = fn(*tensors).item()
                flat[i] = orig
                numeric = (up - down) / (2 * step)
                err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
    return worst
