"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

An op one of whose inputs requires grad builds a graph node holding its
parents and a closure that maps the output gradient to parent gradients; an
op over constants builds none, so a forward over constant parameters frees
each intermediate as soon as it drops it. Whether a graph is built is thus a
property of the inputs alone, and no state is shared between threads.
backward(params) walks the graph once in reverse topological order and
returns the gradient of each param as a value; it writes nothing into any
tensor, so graphs that share parameters can be backpropagated on several
threads at once, and backpropagating the same root again gives the same
gradients.
"""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, params) -> list[np.ndarray]:
        """Backpropagate from this scalar and return d(self)/d(p) for each p in
        params, zeros for a p the graph does not reach."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")

        wanted = {id(p) for p in params}
        found: dict[int, np.ndarray] = {}
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in _toposort(self):
            # every consumer of node comes earlier, so its gradient is complete
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if id(node) in wanted:
                found[id(node)] = g
            if node._backward_fn is None:
                continue
            for parent, pg in node._backward_fn(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        return [found[id(p)] if id(p) in found else np.zeros_like(p.data) for p in params]


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, backward_fn) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents) if req else (),
                  _backward_fn=backward_fn if req else None)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def bw(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return _node(out_data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def bw(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(-g, b.data.shape))]

    return _node(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        return [(a, _unbroadcast(g * b.data, a.data.shape)),
                (b, _unbroadcast(g * a.data, b.data.shape))]

    return _node(out_data, (a, b), bw)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two dims; leading dims broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def bw(g):
        ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape)
        gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape)
        return [(a, ga), (b, gb)]

    return _node(out_data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node. x: (..., d_in), w: (d_in, d_out), b: (d_out,).

    The products are matmul's over x's leading dims, a GEMM per matrix: one
    2-D BLAS call over all of x's rows was slower, and OpenBLAS's threads
    then fight the training threads. The bias gradient is an einsum column
    sum, without a temporary."""
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def bw(g):
        gx = np.matmul(g, w.data.T)
        gw = _unbroadcast(np.matmul(x.data.swapaxes(-1, -2), g), w.data.shape)
        gb = np.einsum("ij->j", g.reshape(-1, g.shape[-1]))
        return [(x, gx), (w, gw), (b, gb)]

    return _node(out_data, (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              key_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node: per group and
    head, softmax(scale * q k^T) over the unmasked keys, times v.

    q: (G, Tq, H, dh); k, v: (G, Tk, H, dh); key_mask: (G, Tk) bool, whose
    False keys get exactly zero weight and zero gradient. Returns (G, Tq, H,
    dh). A query with every key masked is an error. The forward is
    softmax_lastdim's; the node keeps only the weights, and its backward is
    the analytic one of the softmax and the two products (cf. FlashAttention,
    Dao et al. 2022)."""
    qh, kh, vh = (_heads_first(t.data) for t in (q, k, v))
    mask = None if key_mask is None else key_mask[:, None, None, :]
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    _softmax(p, mask)
    out_data = np.empty(q.shape[:2] + v.shape[2:])
    np.matmul(p, vh, out=_heads_first(out_data))

    def bw(g):
        gh = _heads_first(g)
        gq, gk, gv = (np.empty(t.shape) for t in (q, k, v))
        np.matmul(p.swapaxes(-1, -2), gh, out=_heads_first(gv))
        gs = np.matmul(gh, vh.swapaxes(-1, -2))  # d/d(weights), then d/d(scores)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        np.matmul(gs, kh, out=_heads_first(gq))
        np.matmul(gs.swapaxes(-1, -2), qh, out=_heads_first(gk))
        return [(q, gq), (k, gk), (v, gv)]

    return _node(out_data, (q, k, v), bw)


def _heads_first(x: np.ndarray) -> np.ndarray:
    """A (G, T, H, dh) array as a (G, H, T, dh) view."""
    return x.transpose(0, 2, 1, 3)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def bw(g):
        return [(a, g.transpose(inv))]

    return _node(out_data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    out_data = a.data.reshape(shape)

    def bw(g):
        return [(a, g.reshape(orig))]

    return _node(out_data, (a,), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.data.shape).copy())]
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return [(a, np.broadcast_to(gg, a.data.shape).copy())]

    return _node(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def bw(g):
        return [(a, g * out_data * (1.0 - out_data))]

    return _node(out_data, (a,), bw)


def tlog(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def bw(g):
        return [(a, g / a.data)]

    return _node(out_data, (a,), bw)


def texp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        return [(a, g * out_data)]

    return _node(out_data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        return [(a, g * (a.data > 0))]

    return _node(out_data, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """Exact erf-based GELU, x * Phi(x). The backward reuses the forward's Phi."""
    # erf is scipy.special's, imported on the first GELU forward so that a
    # process that never runs the model (retrieve, synth) never loads scipy;
    # Python's per-module import lock makes a first call on two threads safe
    from scipy.special import erf

    x = a.data
    phi = np.divide(x, _SQRT2)
    # scipy 1.17's erf releases the GIL: on 2 cores, 2 threads ran it 1.4-1.9x faster than 1
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if not a.requires_grad:  # no node keeps phi: x * Phi goes into its buffer
        phi *= x
        return Tensor(phi)
    out_data = x * phi

    def bw(g):
        d = np.multiply(x, -0.5)  # g * (Phi + x * pdf), one buffer
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x
        d += phi
        d *= g
        return [(a, d)]

    return _node(out_data, (a,), bw)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out_data = np.clip(a.data, lo, hi)

    def bw(g):
        return [(a, g * ((a.data >= lo) & (a.data <= hi)))]

    return _node(out_data, (a,), bw)


def softmax_lastdim(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last dim. mask: bool, broadcastable; False entries get
    exactly zero weight. A fully masked row is an error."""
    # order "K" keeps the input's memory layout, and so numpy's summation order
    out_data = _softmax(a.data.copy(order="K"), mask)

    def bw(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return [(a, out_data * (g - inner))]

    return _node(out_data, (a,), bw)


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Overwrite x, which the caller owns, with its softmax over the last dim
    and return it: masked entries become -inf, then exp(x - row max) / row
    sum, bitwise as out of place. The row maximum is a running np.maximum
    over the key columns, one call per column over all rows: a maximum is
    exact in any order, and on cascade's 6- and 19-key rows this beats
    numpy's max along a short contiguous axis, while on jm's 114-key rows
    it costs some (cf. Milakov & Gimelshein, 2018; ROADMAP item 9). The sum
    stays numpy's, so its pairwise order is unchanged."""
    if mask is not None:
        np.copyto(x, -np.inf, where=~np.asarray(mask, dtype=bool))
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    if not np.isfinite(m).all():
        raise ValueError("softmax row fully masked (or non-finite logits)")
    x -= m
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dim to zero mean / unit variance, then scale and
    shift by gamma and beta, both of the last dim's size."""
    x = a.data
    xhat = x - x.mean(axis=-1, keepdims=True)
    out_data = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out_data.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out_data)
    out_data += beta.data

    def bw(g):
        # inv * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = d(out)/d(xhat)
        d = x.shape[-1]
        gx = g * gamma.data
        t = gx * xhat
        t2 = t.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, t2, out=t)
        gx -= t
        gx *= inv
        g2 = g.reshape(-1, d)
        ggamma = np.einsum("ij,ij->j", g2, xhat.reshape(-1, d))
        return [(a, gx), (gamma, ggamma), (beta, np.einsum("ij->j", g2))]

    return _node(out_data, (a, gamma, beta), bw)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: out[... , :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError("gather_rows: id out of table range")
    out_data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return [(table, gt)]

    return _node(out_data, (table,), bw)


def stack(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        return [(t, np.take(g, i, axis=axis)) for i, t in enumerate(tensors)]

    return _node(out_data, tuple(tensors), bw)


def concat_lastdim(tensors: list[Tensor]) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[-1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)

    def bw(g):
        outs = []
        off = 0
        for t, sz in zip(tensors, sizes):
            outs.append((t, g[..., off:off + sz]))
            off += sz
        return outs

    return _node(out_data, tuple(tensors), bw)


def where_mask(cond: np.ndarray, a, b) -> Tensor:
    """Elementwise select: cond ? a : b. cond is a plain bool array."""
    a, b = _as_tensor(a), _as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def bw(g):
        full = np.broadcast_to(cond, g.shape)
        return [(a, _unbroadcast(np.where(full, g, 0.0), a.data.shape)),
                (b, _unbroadcast(np.where(full, 0.0, g), b.data.shape))]

    return _node(out_data, (a, b), bw)


def prefix_slice(a: Tensor, shape) -> Tensor:
    """The leading corner a[:shape[0], :shape[1], ...]; axes past len(shape)
    stay whole. Returns a itself when the corner is all of a."""
    shape = tuple(shape)
    if shape == a.data.shape[:len(shape)]:
        return a
    if len(shape) > a.data.ndim or any(not 0 <= n <= dim for n, dim in zip(shape, a.data.shape)):
        raise ValueError(f"prefix_slice: {shape} is not a corner of {a.data.shape}")
    idx = tuple(slice(0, n) for n in shape)
    out_data = np.ascontiguousarray(a.data[idx])

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return [(a, ga)]

    return _node(out_data, (a,), bw)


def token_at(a: Tensor, sample: int, field: int) -> Tensor:
    """Select one (sample, field) token from a (B, S, T, D) tensor -> (B, D)."""
    out_data = a.data[:, sample, field, :]

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[:, sample, field, :] = g
        return [(a, ga)]

    return _node(out_data, (a,), bw)


def zero_grads(params) -> None:
    """Does nothing: backward returns gradients and stores none. Kept only
    because perfbench/layers.py wraps it by name (OTHER_TENSOR_OPS)."""
