"""Dense float64 arithmetic with reverse-mode differentiation.

The engine is define-by-run: every operation records its parents and a
closure that routes the output adjoint back to them, and :func:`backward`
replays the tape in reverse topological order.  Values are numpy arrays
with two axes (a matrix) or three axes (a stack of matrices, one per
example).  Shapes are checked exactly on every operation;
nothing broadcasts except multiplication by a python scalar.  Reductions
use numpy's fixed pairwise summation order, so results are bit-identical
across runs and independent of thread count.

The fused encoder ops :func:`attention` and :func:`gelu_mlp`, and
:func:`gelu`, do their elementwise work in blocks of about
:data:`BLOCK_BYTES`, so temporaries stay in a core's L2 cache.  A block holds whole examples or whole rows
and runs the same per-element and per-row arithmetic a whole-array pass
would, so results do not depend on the block size.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# scale, gelu, split_heads, merge_heads, concat_axis1 and tile_stack have
# no caller in the package; they stay exported because the benchmark's
# tracer looks them up by name
__all__ = [
    "Node",
    "ShapeError",
    "constant",
    "parameter",
    "value_of",
    "add",
    "scale",
    "matmul",
    "batch_matmul",
    "transpose",
    "diag",
    "sqrt",
    "gelu",
    "layer_norm",
    "softmax",
    "cross_entropy",
    "concat_axis1",
    "tile_stack",
    "shared_prefix",
    "merge_lead",
    "split_lead",
    "split_heads",
    "merge_heads",
    "attention",
    "gelu_mlp",
    "block_row_mean",
    "outer_product_sum",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


# working-set size of one block of the fused ops: half a typical L2, so
# a block and its one or two sibling temporaries stay cache-resident
BLOCK_BYTES = 1 << 18
# additive score of a masked key: exp underflows to exactly 0
MASK_VALUE = -1e30


class Node:
    """A value in the computation graph.

    ``grad`` has the same shape as ``value`` and starts at zero; after
    :func:`backward` it holds the adjoint of the scalar loss.  Only
    leaves created with :func:`parameter` are ``trainable``; frozen
    leaves never receive gradient and never enter optimizer state.
    Gradient storage is allocated on first touch so evaluation-only
    graphs never pay for it.
    """

    __slots__ = ("value", "_grad", "trainable", "parents", "requires_grad", "_vjp")

    def __init__(
        self,
        value: np.ndarray,
        trainable: bool = False,
        parents: Sequence["Node"] = (),
        vjp: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.value = value
        self._grad: np.ndarray | None = None
        self.trainable = trainable
        self.parents = tuple(parents)
        self.requires_grad = trainable or any(p.requires_grad for p in self.parents)
        self._vjp = vjp

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, val: np.ndarray) -> None:
        self._grad = val

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "param" if self.trainable else ("leaf" if not self.parents else "op")
        return f"<Node {kind} shape={self.value.shape}>"


def _as_array(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"{name} must have 2 or 3 axes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def constant(data) -> Node:
    """Wrap an array as a frozen leaf."""
    return Node(_as_array(data, "constant"))


def parameter(data) -> Node:
    """Wrap an array as a trainable leaf."""
    return Node(_as_array(data, "parameter"), trainable=True)


def value_of(x) -> np.ndarray:
    """The plain array behind a node, or the array itself."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _op(value: np.ndarray, parents: Sequence[Node], vjp) -> Node:
    if any(p.requires_grad for p in parents):
        return Node(value, parents=parents, vjp=vjp)
    return Node(value)


def _accum(node: Node, g: np.ndarray, own: bool = False) -> None:
    """Add an adjoint contribution without the zero-fill pass.

    ``own=True`` hands over a buffer the caller will not touch again
    (fresh allocation, or a view of an adjoint that dies with this
    backward step); ``own=False`` copies, so ``g`` may alias storage the
    caller still needs or be read-only.
    """
    if node._grad is None:
        node._grad = g if own else np.array(g)
    else:
        node._grad += g


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")

    def vjp(g):
        if a.requires_grad and b.requires_grad:
            _accum(a, g, own=True)  # aliasing is fine: b takes a copy
            _accum(b, g)
        elif a.requires_grad:
            _accum(a, g, own=True)
        elif b.requires_grad:
            _accum(b, g, own=True)

    return _op(a.value + b.value, (a, b), vjp)


def scale(a: Node, c: float) -> Node:
    c = float(c)

    def vjp(g):
        if a.requires_grad:
            _accum(a, g * c, own=True)

    return _op(a.value * c, (a,), vjp)


def matmul(a: Node, b: Node) -> Node:
    """Matrix product of two 2-axis nodes."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.value.shape} and {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.value.shape} and {b.value.shape} disagree")

    def vjp(g):
        if a.requires_grad:
            _accum(a, g @ b.value.T, own=True)
        if b.requires_grad:
            _accum(b, a.value.T @ g, own=True)

    return _op(a.value @ b.value, (a, b), vjp)


def batch_matmul(a: Node, b: Node) -> Node:
    """Stacked matrix product: (B,n,k) @ (B,k,m) -> (B,n,m)."""
    if a.value.ndim != 3 or b.value.ndim != 3:
        raise ShapeError(f"batch_matmul expects stacks, got {a.value.shape} and {b.value.shape}")
    if a.value.shape[0] != b.value.shape[0] or a.value.shape[2] != b.value.shape[1]:
        raise ShapeError(f"batch_matmul: shapes {a.value.shape} and {b.value.shape} disagree")

    def vjp(g):
        if a.requires_grad:
            _accum(a, g @ b.value.transpose(0, 2, 1), own=True)
        if b.requires_grad:
            _accum(b, a.value.transpose(0, 2, 1) @ g, own=True)

    return _op(a.value @ b.value, (a, b), vjp)


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.value.shape}")

    def vjp(g):
        if a.requires_grad:
            _accum(a, g.T, own=True)

    # BLAS consumes strided views directly; no copy needed
    return _op(a.value.T, (a,), vjp)


def diag(q: Node) -> Node:
    """Turn a 1 x r row vector into the r x r diagonal matrix."""
    if q.value.ndim != 2 or q.value.shape[0] != 1:
        raise ShapeError(f"diag expects a 1 x r row vector, got shape {q.value.shape}")

    def vjp(g):
        if q.requires_grad:
            q.grad += np.diagonal(g).reshape(1, -1)

    return _op(np.diagflat(q.value[0]), (q,), vjp)


def sqrt(a: Node) -> Node:
    if np.any(a.value < 0.0):
        raise ValueError("sqrt: negative entry")
    out = np.sqrt(a.value)

    def vjp(g):
        if a.requires_grad:
            _accum(a, g * (0.5 / np.maximum(out, 1e-300)), own=True)

    return _op(out, (a,), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_rows(act: np.ndarray, deriv: np.ndarray | None) -> None:
    """Overwrite the (n, f) ``act`` with its GELU, in blocks of rows; fill
    ``deriv`` with the elementwise derivative when it is given."""
    n, f = act.shape
    step = max(1, BLOCK_BYTES // (f * 8))
    inner, t = np.empty((min(step, n), f)), np.empty((min(step, n), f))
    for s in range(0, n, step):
        x = act[s : s + step]
        ib, tb = inner[: x.shape[0]], t[: x.shape[0]]
        # tanh(c (x + 0.044715 x^3)); x0.5 and the scalar products are exact
        # reorderings, so every block matches a whole-array pass bit for bit
        np.multiply(x, x, out=ib)
        np.multiply(ib, x, out=ib)
        np.multiply(ib, 0.044715, out=ib)
        np.add(ib, x, out=ib)
        np.multiply(ib, _GELU_C, out=ib)
        np.tanh(ib, out=tb)
        if deriv is not None:
            # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)
            db = deriv[s : s + step]
            np.multiply(tb, tb, out=db)
            np.subtract(1.0, db, out=db)
            np.multiply(x, x, out=ib)
            np.multiply(ib, 3 * 0.044715, out=ib)
            np.add(ib, 1.0, out=ib)
            np.multiply(db, x, out=db)
            np.multiply(db, _GELU_C, out=db)
            np.multiply(db, ib, out=db)
            np.add(tb, 1.0, out=ib)
            np.add(ib, db, out=db)
            np.multiply(db, 0.5, out=db)
        np.add(tb, 1.0, out=tb)
        np.multiply(tb, x, out=x)
        np.multiply(x, 0.5, out=x)


def gelu(a: Node) -> Node:
    """GELU in the tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    out = np.array(a.value)
    deriv = np.empty_like(out) if a.requires_grad else None
    f = out.shape[-1]
    _gelu_rows(out.reshape(-1, f), None if deriv is None else deriv.reshape(-1, f))

    def vjp(g):
        _accum(a, np.multiply(g, deriv), own=True)

    return _op(out, (a,), vjp)


def layer_norm(a: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    """Normalize each row to zero mean / unit variance, then scale and shift.

    ``gamma`` and ``beta`` are ``1 x d`` rows applied to every row of ``a``.
    """
    if a.value.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {a.value.shape}")
    d = a.value.shape[1]
    if gamma.value.shape != (1, d) or beta.value.shape != (1, d):
        raise ShapeError(
            f"layer_norm: gamma/beta must be (1, {d}), got {gamma.value.shape} and {beta.value.shape}"
        )
    mu = a.value.mean(axis=1, keepdims=True)
    xc = a.value - mu
    # fused row dot: no (n, d) square temp for the variance
    var = np.einsum("ij,ij->i", xc, xc)[:, None] / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    out = xhat * gamma.value
    np.add(out, beta.value, out=out)

    def vjp(g):
        if a.requires_grad:
            # standard LN backward in terms of xhat, with reused temps
            gx = g * gamma.value
            m1 = gx.mean(axis=1, keepdims=True)
            m2 = np.einsum("ij,ij->i", gx, xhat)[:, None] / d
            t = xhat * m2
            np.subtract(gx, m1, out=gx)
            np.subtract(gx, t, out=gx)
            np.multiply(gx, inv, out=gx)
            _accum(a, gx, own=True)
        if gamma.requires_grad:
            _accum(gamma, np.einsum("ij,ij->j", g, xhat)[None, :], own=True)
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0, keepdims=True), own=True)

    return _op(out, (a, gamma, beta), vjp)


def softmax(a: Node) -> Node:
    """Softmax along the last axis, stabilized by subtracting the row max."""
    z = a.value - a.value.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    denom = z.sum(axis=-1, keepdims=True)
    out = np.divide(z, denom, out=z)

    def vjp(g):
        if a.requires_grad:
            s = g * out
            tot = s.sum(axis=-1, keepdims=True)
            np.subtract(g, tot, out=s)
            np.multiply(s, out, out=s)
            _accum(a, s, own=True)

    return _op(out, (a,), vjp)


def cross_entropy(logits: Node, labels) -> Node:
    """Mean softmax cross-entropy against integer labels.

    ``logits`` is (n, k); ``labels`` holds n class indices in [0, k).
    """
    if logits.value.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, k) logits, got shape {logits.value.shape}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.value.shape
    if labels.shape[0] != n:
        raise ShapeError(f"cross_entropy: {n} logit rows but {labels.shape[0]} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise IndexError(f"cross_entropy: label out of range for {k} classes")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(n), labels]
    out = np.array([[losses.mean()]])

    def vjp(g):
        if logits.requires_grad:
            p = np.exp(z - lse[:, None])
            p[np.arange(n), labels] -= 1.0
            np.multiply(p, g[0, 0] / n, out=p)
            _accum(logits, p, own=True)

    return _op(out, (logits,), vjp)


def concat_axis1(a: Node, b: Node) -> Node:
    """Concatenate two stacks along the row axis: (B,n1,d) + (B,n2,d)."""
    if (
        a.value.ndim != 3
        or b.value.ndim != 3
        or a.value.shape[0] != b.value.shape[0]
        or a.value.shape[2] != b.value.shape[2]
    ):
        raise ShapeError(f"concat_axis1: incompatible shapes {a.value.shape} and {b.value.shape}")
    n1 = a.value.shape[1]

    def vjp(g):
        if a.requires_grad:
            _accum(a, g[:, :n1], own=True)
        if b.requires_grad:
            _accum(b, g[:, n1:], own=True)

    return _op(np.concatenate([a.value, b.value], axis=1), (a, b), vjp)


def tile_stack(a: Node, b: int) -> Node:
    """Repeat a matrix into a stack of ``b`` identical copies."""
    if a.value.ndim != 2:
        raise ShapeError(f"tile_stack expects a matrix, got shape {a.value.shape}")
    if b < 1:
        raise ShapeError(f"tile_stack: stack size must be >= 1, got {b}")

    def vjp(g):
        if a.requires_grad:
            _accum(a, g.sum(axis=0), own=True)

    return _op(np.broadcast_to(a.value, (b, *a.value.shape)).copy(), (a,), vjp)


def shared_prefix(p: Node, x: Node, b: int) -> Node:
    """The rows of ``b`` examples that all start with the same k rows.

    ``p`` is the (k, c) shared prefix and ``x`` the (b*m, c) rows of the
    examples, example by example.  The result is (b*(k+m), c): each
    example's copy of ``p`` followed by its own m rows.  The adjoint of
    ``p`` is the sum over examples of their prefix rows' adjoints, so
    work done on ``p`` before this op is done once, not b times.
    """
    if p.value.ndim != 2 or x.value.ndim != 2 or p.value.shape[1] != x.value.shape[1]:
        raise ShapeError(f"shared_prefix: incompatible shapes {p.value.shape} and {x.value.shape}")
    if b < 1 or x.value.shape[0] % b != 0:
        raise ShapeError(f"shared_prefix: {x.value.shape[0]} rows not divisible by {b} examples")
    k, c = p.value.shape
    m = x.value.shape[0] // b
    out = np.empty((b, k + m, c))
    out[:, :k] = p.value
    out[:, k:] = x.value.reshape(b, m, c)

    def vjp(g):
        gs = g.reshape(b, k + m, c)
        if p.requires_grad:
            _accum(p, gs[:, :k].sum(axis=0), own=True)
        if x.requires_grad:
            _accum(x, gs[:, k:].reshape(b * m, c), own=True)

    return _op(out.reshape(b * (k + m), c), (p, x), vjp)


def merge_lead(a: Node) -> Node:
    """Flatten a stack (B,n,d) into a matrix (B*n, d)."""
    if a.value.ndim != 3:
        raise ShapeError(f"merge_lead expects a stack, got shape {a.value.shape}")
    shp = a.value.shape

    def vjp(g):
        if a.requires_grad:
            _accum(a, g.reshape(shp), own=True)

    return _op(a.value.reshape(shp[0] * shp[1], shp[2]), (a,), vjp)


def split_lead(a: Node, b: int) -> Node:
    """Reshape a matrix (B*n, d) back into a stack (B,n,d)."""
    if a.value.ndim != 2:
        raise ShapeError(f"split_lead expects a matrix, got shape {a.value.shape}")
    n, d = a.value.shape
    if n % b != 0:
        raise ShapeError(f"split_lead: {n} rows not divisible by stack size {b}")

    def vjp(g):
        if a.requires_grad:
            _accum(a, g.reshape(n, d), own=True)

    return _op(a.value.reshape(b, n // b, d), (a,), vjp)


def split_heads(a: Node, b: int, h: int) -> Node:
    """Rearrange (B*T, d) rows into per-head stacks (B*H, T, d/H)."""
    if a.value.ndim != 2:
        raise ShapeError(f"split_heads expects a matrix, got shape {a.value.shape}")
    n, d = a.value.shape
    if n % b != 0 or d % h != 0:
        raise ShapeError(f"split_heads: shape {a.value.shape} not divisible by B={b}, H={h}")
    t, dh = n // b, d // h

    def vjp(g):
        if a.requires_grad:
            _accum(a, g.reshape(b, h, t, dh).transpose(0, 2, 1, 3).reshape(n, d), own=True)

    out = np.ascontiguousarray(a.value.reshape(b, t, h, dh).transpose(0, 2, 1, 3)).reshape(b * h, t, dh)
    return _op(out, (a,), vjp)


def merge_heads(a: Node, b: int, h: int) -> Node:
    """Inverse of :func:`split_heads`: (B*H, T, dh) -> (B*T, H*dh)."""
    if a.value.ndim != 3:
        raise ShapeError(f"merge_heads expects a stack, got shape {a.value.shape}")
    bh, t, dh = a.value.shape
    if bh != b * h:
        raise ShapeError(f"merge_heads: leading axis {bh} is not B*H = {b}*{h}")

    def vjp(g):
        if a.requires_grad:
            _accum(a, np.ascontiguousarray(g.reshape(b, t, h, dh).transpose(0, 2, 1, 3)).reshape(bh, t, dh),
                   own=True)

    out = np.ascontiguousarray(a.value.reshape(b, h, t, dh).transpose(0, 2, 1, 3)).reshape(b * t, h * dh)
    return _op(out, (a,), vjp)


def attention(qkv: Node, n_heads: int, key_len) -> Node:
    """Multi-head scaled dot-product attention with per-example key masks.

    ``qkv`` is the (B*T, 3d) projection [q | k | v], example by example;
    head j of q reads columns j*d/H .. (j+1)*d/H, and of k and v the same
    columns shifted by d and 2d.  ``key_len`` holds one count per example:
    its queries see only its first ``key_len[i]`` keys.  The result is the
    (B*T, d) head-concatenated softmax(q kᵀ/√(d/H)) v; the adjoint is one
    (B*T, 3d) matrix laid out like ``qkv``.

    Blocks hold whole examples.  No probability tensor outlives a block:
    the backward recomputes each block's probabilities from q and k.
    """
    if qkv.value.ndim != 2 or qkv.value.shape[1] % 3 != 0:
        raise ShapeError(f"attention expects a (B*T, 3d) matrix, got shape {qkv.value.shape}")
    key_len = np.asarray(key_len, dtype=np.int64).reshape(-1)
    b = key_len.shape[0]
    n, d = qkv.value.shape[0], qkv.value.shape[1] // 3
    if b < 1 or n % b != 0 or n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"attention: shape {qkv.value.shape} not divisible by B={b}, H={n_heads}")
    t, h = n // b, n_heads
    dh = d // h
    if np.any(key_len < 1) or np.any(key_len > t):
        raise ValueError(f"attention: key lengths must lie in [1, {t}]")
    c = 1.0 / np.sqrt(dh)
    mask = None
    if np.any(key_len < t):  # (B, 1, 1, T) additive rows, broadcast over heads and queries
        mask = np.where(np.arange(t) >= key_len[:, None], MASK_VALUE, 0.0)[:, None, None, :]

    def heads(a: np.ndarray, j: int = 0) -> np.ndarray:
        """The (B, H, T, dh) view of columns j*d .. (j+1)*d of ``a``."""
        return a[:, j * d : (j + 1) * d].reshape(b, t, h, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = (heads(qkv.value, j) for j in range(3))
    step = max(1, BLOCK_BYTES // (h * t * t * 8))
    blocks = [slice(s, min(s + step, b)) for s in range(0, b, step)]
    buf_shape = (min(step, b), h, t, t)

    def probs(sl: slice, p: np.ndarray) -> np.ndarray:
        p = p[: sl.stop - sl.start]
        np.matmul(qh[sl], kh[sl].transpose(0, 1, 3, 2), out=p)
        np.multiply(p, c, out=p)
        if mask is not None:
            np.add(p, mask[sl], out=p)
        np.subtract(p, p.max(axis=-1, keepdims=True), out=p)
        np.exp(p, out=p)
        np.divide(p, p.sum(axis=-1, keepdims=True), out=p)
        return p

    out = np.empty((n, d))
    p_buf = np.empty(buf_shape)
    for sl in blocks:
        np.matmul(probs(sl, p_buf), vh[sl], out=heads(out)[sl])

    def vjp(g):
        gh = heads(g)
        dqkv = np.empty((n, 3 * d))
        dq, dk, dv = (heads(dqkv, j) for j in range(3))
        p_buf, dp_buf, s_buf = np.empty(buf_shape), np.empty(buf_shape), np.empty(buf_shape)
        for sl in blocks:
            p = probs(sl, p_buf)
            np.matmul(p.transpose(0, 1, 3, 2), gh[sl], out=dv[sl])
            # softmax backward: ds = p * (dp - rowsum(dp * p)), then the 1/√dh scale
            dp = dp_buf[: p.shape[0]]
            np.matmul(gh[sl], vh[sl].transpose(0, 1, 3, 2), out=dp)
            s = np.multiply(dp, p, out=s_buf[: p.shape[0]])
            np.subtract(dp, s.sum(axis=-1, keepdims=True), out=dp)
            np.multiply(dp, p, out=dp)
            np.multiply(dp, c, out=dp)
            np.matmul(dp, kh[sl], out=dq[sl])
            np.matmul(dp.transpose(0, 1, 3, 2), qh[sl], out=dk[sl])
        _accum(qkv, dqkv, own=True)

    return _op(out, (qkv,), vjp)


def gelu_mlp(x: Node, w1: Node, w2: Node) -> Node:
    """Feed-forward block gelu(x w1) w2, with :func:`gelu`'s tanh form.

    Both products run full-size; the GELU between them runs in blocks of
    rows.  The forward keeps the GELU derivative when ``x`` or ``w1``
    needs gradient and the activations when ``w2`` does, so the backward
    recomputes nothing.
    """
    if x.value.ndim != 2 or w1.value.ndim != 2 or w2.value.ndim != 2:
        raise ShapeError(
            f"gelu_mlp expects matrices, got {x.value.shape}, {w1.value.shape} and {w2.value.shape}"
        )
    if x.value.shape[1] != w1.value.shape[0] or w1.value.shape[1] != w2.value.shape[0]:
        raise ShapeError(
            f"gelu_mlp: shapes {x.value.shape}, {w1.value.shape} and {w2.value.shape} disagree"
        )
    act = x.value @ w1.value
    deriv = np.empty_like(act) if x.requires_grad or w1.requires_grad else None
    _gelu_rows(act, deriv)
    out = act @ w2.value
    if not w2.requires_grad:
        act = None

    def vjp(g):
        if w2.requires_grad:
            _accum(w2, act.T @ g, own=True)
        if deriv is not None:
            gh = g @ w2.value.T
            np.multiply(gh, deriv, out=gh)
            if x.requires_grad:
                _accum(x, gh @ w1.value.T, own=True)
            if w1.requires_grad:
                _accum(w1, x.value.T @ gh, own=True)

    return _op(out, (x, w1, w2), vjp)


def block_row_mean(a: Node, p: int) -> Node:
    """Average every block of ``p`` consecutive rows: (l, d) -> (l/p, d)."""
    if a.value.ndim != 2:
        raise ShapeError(f"block_row_mean expects a matrix, got shape {a.value.shape}")
    l, d = a.value.shape
    if p < 1 or l % p != 0:
        raise ShapeError(f"block_row_mean: block size p={p} does not divide row count l={l}")

    def vjp(g):
        if a.requires_grad:
            _accum(a, np.repeat(g / p, p, axis=0), own=True)

    return _op(a.value.reshape(l // p, p, d).mean(axis=1), (a,), vjp)


def outer_product_sum(m: Node, i: Node) -> Node:
    """Sum of rank-1 outer products of matching columns/rows of ``m`` and ``i``.

    C = sum_k m[:, k] (x) i[k, :], accumulated column by column in index
    order.  Algebraically this equals the matrix product m @ i; the
    forward pass deliberately takes the outer-product route so the two
    can be checked against each other.
    """
    if m.value.ndim != 2 or i.value.ndim != 2:
        raise ShapeError(f"outer_product_sum expects matrices, got {m.value.shape} and {i.value.shape}")
    if m.value.shape[1] != i.value.shape[0]:
        raise ShapeError(f"outer_product_sum: shapes {m.value.shape} and {i.value.shape} disagree")
    l, r = m.value.shape
    d = i.value.shape[1]
    acc = np.zeros((l, d))
    for k in range(r):
        acc += np.outer(m.value[:, k], i.value[k, :])

    def vjp(g):
        if m.requires_grad:
            _accum(m, g @ i.value.T, own=True)
        if i.requires_grad:
            _accum(i, m.value.T @ g, own=True)

    return _op(acc, (m, i), vjp)


def backward(loss: Node) -> None:
    """Populate gradients of every node that the scalar ``loss`` depends on."""
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward requires a 1x1 scalar loss, got shape {loss.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad += 1.0
    for node in reversed(order):
        if node._vjp is not None:
            node._vjp(node.grad)
            node._grad = None  # interior adjoints are dead once propagated
