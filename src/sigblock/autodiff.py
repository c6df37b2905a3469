"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float ndarray and records, for every derived
value, the parent tensors and a closure that accumulates adjoints into
them. Calling :func:`backward` on a scalar walks the recorded graph in
reverse topological order, leaving ``grad`` arrays on every tensor that
requires gradients. Only the operations the pipeline calls are
implemented, as module functions rather than operators, one op per
operation: :func:`add`, :func:`mul`, :func:`div`, :func:`matmul`,
:func:`transpose`, :func:`sqrt`, :func:`tsum`, :func:`take_rows`,
:func:`scatter_rows`, :func:`concat`, :func:`reshape`, :func:`softmax`,
:func:`logsumexp`, :func:`embedding_bag` and :func:`bilstm`. The second
operand of ``add`` and ``mul`` may be a constant, an array or a scalar,
so ``x - y`` is ``add(x, mul(y, -1.0))`` and scaling is ``mul``.

Every op computes in the dtype of its inputs, and a gradient takes
the dtype of its tensor. A :class:`Tensor` keeps float32 data as
float32, whether or not it requires gradients (:func:`float_array`);
a constant operand takes the dtype of the tensor it meets, on every
numpy version; the step buffers of :func:`bilstm` and the sums of
:func:`embedding_bag`, :func:`take_rows` and :func:`scatter_rows`
follow their input; and :func:`backward` seeds the loss gradient in
the loss's dtype. So training and inference run in float32 from
float32 parameters, and the finite-difference gradient checks run the
same ops in float64 from float64 copies.

Graph recording is skipped entirely when no input requires gradients, so
the same functions double as the inference path. Each call still costs
its numpy work plus about a microsecond of Python, which dominates on
small inputs such as a single record; so the bidirectional LSTM, the
longest chain of small steps, is one hand-written op (:func:`bilstm`)
that steps both directions together, rather than a dozen nodes per
timestep and direction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def float_array(data) -> np.ndarray:
    """``data`` as an ndarray: float32 stays float32, anything else
    becomes float64. No copy is made when the dtype already fits."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)


class Tensor:
    """Node in the computation graph: a value plus adjoint bookkeeping.

    Float32 data stays float32, shared rather than copied, and any other
    data becomes float64 (:func:`float_array`); a gradient takes the
    tensor's dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def accumulate_rows(self, rows: np.ndarray, g: np.ndarray) -> None:
        """Add ``g[k]`` to gradient row ``rows[k]``; ``rows`` are unique.

        The other rows are left alone, so once the zero gradient exists a
        call costs time in the rows it touches only. A dense update would
        add 0.0 to them, which changes no value except a -0.0 into 0.0.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self.grad[rows] = g
        else:
            self.grad[rows] += g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _operand(a: Tensor, b) -> Tensor:
    """``b`` as the second operand of ``a``: a tensor as it is, anything
    else (an array or a scalar) a constant node in ``a``'s dtype, so a
    float64 constant never widens a float32 tensor, whether numpy casts
    scalars by value or by type (NEP 50)."""
    return b if isinstance(b, Tensor) else _node(np.asarray(b, a.data.dtype), (), None)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes introduced or expanded by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    """``a + b``; ``b`` is a tensor, an array or a scalar."""
    b = _operand(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """``a * b``; ``b`` is a tensor, an array or a scalar."""
    b = _operand(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * data / b.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a 2-D ``b``; ``a`` is 2-D or a stack (..., m, k)
    of matrices, each multiplied by ``b``."""
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            # every matrix of the stack stacked as rows of one
            rows = a.data.reshape(-1, a.data.shape[-1])
            b.accumulate(rows.T @ g.reshape(-1, g.shape[-1]))

    return _node(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-D tensor, C-contiguous."""
    data = np.ascontiguousarray(a.data.T)

    def backward(g):
        a.accumulate(g.T)

    return _node(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        a.accumulate(g * 0.5 / data)

    return _node(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a.accumulate(np.full(a.data.shape, g))
        elif keepdims:
            a.accumulate(np.broadcast_to(g, a.data.shape))
        else:
            a.accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _node(data, (a,), backward)


def _scatter_sum(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Rows ``values[i]`` summed into an (n, ...) zero array at ``index[i]``,
    in ``values``' dtype.

    One flattened ``np.bincount``, which adds in input order starting from
    zero, so every sum is bitwise the one an element-by-element loop
    gives; it adds in float64, so float32 rows are rounded once, at the
    end. ``index`` holds non-negative row numbers below ``n``.
    """
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    flat = np.asarray(index, dtype=np.int64)
    if width != 1:
        flat = (flat[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1), minlength=n * width)
    return out.astype(values.dtype, copy=False).reshape((n,) + values.shape[1:])


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by non-negative integer index; rows may repeat."""
    data = a.data[idx]

    def backward(g):
        a.accumulate(_scatter_sum(idx, g, a.data.shape[0]))

    return _node(data, (a,), backward)


def scatter_rows(src: Tensor, row_ids: np.ndarray, n_out: int) -> Tensor:
    """Sum rows of ``src`` into an (n_out, d) result at positions ``row_ids``."""
    data = _scatter_sum(row_ids, src.data, n_out)

    def backward(g):
        src.accumulate(g[row_ids])

    return _node(data, (src,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return _node(data, tuple(tensors), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a.accumulate(g.reshape(a.data.shape))

    return _node(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate((g - dot) * data)

    return _node(data, (a,), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = np.squeeze(m + np.log(s), axis=axis)
    soft = e / s

    def backward(g):
        a.accumulate(np.expand_dims(g, axis) * soft)

    return _node(data, (a,), backward)


def embedding_bag(table: Tensor, indices: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Sum of table rows per bag, like a sparse (bags x buckets) matmul.

    Bag ``b`` sums ``table[indices[offsets[b]:offsets[b+1]]]``, from zero
    and in index order; an empty bag yields a zero row. The backward pass
    touches only the gradient rows of the ids that occur.
    """
    n_bags = len(offsets) - 1
    counts = np.diff(offsets)
    data = _bag_sum(table.data, indices, offsets[:-1], counts)

    def backward(g):
        rows, inverse = np.unique(indices, return_inverse=True)
        bag_ids = np.repeat(np.arange(n_bags), counts)
        table.accumulate_rows(rows, _scatter_sum(inverse, g[bag_ids], len(rows)))

    return _node(data, (table,), backward)


def _bag_sum(
    rows: np.ndarray, indices: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per bag, the sum of ``rows[indices[start:start + count]]``.

    Every bag sums from zero in index order, as an element-by-element loop
    would. With fewer bags than the longest bag has ids, one padded gather
    puts bag b's k-th row at ``[b, k]`` (zero past its end), and a sum over
    k adds each bag's rows in order, because numpy adds along an outer
    axis one row at a time; ``+ 0.0`` turns an all -0.0 sum into the 0.0
    a sum from zero gives, for numpy versions that start a sum from its
    first row rather than from zero. One-column rows skip that
    branch: there the summed axis would be the inner loop, which numpy
    sums pairwise. Otherwise the loop runs over id positions: the bags are
    sorted longest first, so the bags holding a k-th id form a prefix, and
    step k adds those rows into that prefix. Both branches add in the
    dtype of ``rows``.
    """
    if not len(indices):
        return np.zeros((len(counts), rows.shape[1]), dtype=rows.dtype)
    longest = int(counts.max())
    if len(counts) < longest and rows.shape[1] > 1:
        k = np.arange(longest)
        past = k >= counts[:, None]
        rows_in = rows[indices[np.where(past, 0, starts[:, None] + k)]]
        rows_in[past] = 0.0
        return rows_in.sum(axis=1) + 0.0
    out = np.zeros((len(counts), rows.shape[1]), dtype=rows.dtype)
    order = np.argsort(-counts, kind="stable")
    starts = starts[order]
    # live[k]: how many bags hold more than k ids
    live = np.searchsorted(-counts[order], -np.arange(longest), side="left")
    for k, n in enumerate(live.tolist()):
        out[:n] += rows[indices[starts[:n] + k]]
    data = np.empty_like(out)
    data[order] = out
    return data


def _sigmoid(
    x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Logistic function, stable on both tails.

    ``e = exp(-|x|) <= 1`` never overflows; x >= 0 takes 1 / (1 + e) and
    x < 0 takes e / (1 + e), so the numerator is ``max(e, x >= 0)``.
    ``out`` receives the result and may be ``x`` itself; ``work`` holds
    e. Both are arrays shaped like ``x``, new ones when not given.
    """
    out = np.empty_like(x) if out is None else out
    work = np.empty_like(x) if work is None else work
    np.abs(x, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    np.maximum(work, x >= 0.0, out=out)
    work += 1.0
    out /= work
    return out


def bilstm(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """A bidirectional LSTM over a batch of equal-length sequences.

    ``x`` is (n, L, d). ``wx`` (2, d, 4H), ``wh`` (2, H, 4H) and ``b``
    (2, 4H) each hold the forward direction's weights, then the backward
    one's; their gate blocks are input, forget, cell and output, in that
    order. The result is (L, n, 2H): at every position the forward
    hidden state, then the backward one. Both directions start at zero
    state; the forward reads positions 0 to L - 1, the backward L - 1 to
    0. Per direction and step::

        z = (x_t @ wx + h @ wh) + b
        c = f * c + i * g        i, f, o = sigmoid(z blocks), g = tanh(z block)
        h = o * tanh(c)

    Step k runs forward position k beside backward position L - 1 - k as
    stacked (2, n, .) @ (2, ., 4H) products. numpy makes the same BLAS
    call for each item of a stack as for that matrix alone, so each
    direction gets the bits it would get on its own. Every buffer of
    both passes takes the dtype of ``x``, so float32 inputs step and
    backpropagate in float32.

    One tape node stands for the whole sequence. It keeps the gates and
    cell states of every step only when an input requires gradients; its
    backward is backpropagation through time, stacked the same way, with
    the weight and input gradients of all steps taken in one stacked
    matmul each.
    """
    n, length, dim = x.data.shape
    hidden = wh.data.shape[1]
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    track = x.requires_grad or wx.requires_grad or wh.requires_grad or b.requires_grad
    bias = b.data[:, None, :]
    dtype = x.data.dtype  # every buffer computes in the input's precision
    # step k writes forward position k and backward position L - 1 - k
    data = np.empty((length, n, 2 * hidden), dtype)
    if track:
        gates = np.empty((length, 2, n, 4 * hidden), dtype)  # i, f, g, o per step
        cells = np.zeros((length + 1, 2, n, hidden), dtype)  # cells[k] enters step k
        tanh_c = np.empty((length, 2, n, hidden), dtype)
    # step buffers, reused, and views of their gate blocks, made once: new
    # temporaries of both directions every step would add to the peak
    # memory of a large batch
    xk = np.empty((n, 2, dim), dtype)
    z = np.empty((2, n, 4 * hidden), dtype)  # pre-activations, then the gates
    work = np.empty_like(z)
    i_gate, f_gate, g_gate, o_gate = (z[:, :, a : a + hidden] for a in (0, h1, h2, h3))
    g = np.empty((2, n, hidden), dtype)
    h = np.zeros((2, n, hidden), dtype)
    c = np.zeros((2, n, hidden), dtype)
    for k in range(length):
        # mode="wrap" (the indices are in range) lets take write to xk unbuffered
        np.take(x.data, (k, length - 1 - k), axis=1, out=xk, mode="wrap")
        np.matmul(xk.transpose(1, 0, 2), wx.data, out=z)
        np.matmul(h, wh.data, out=work)
        z += work
        z += bias
        # tanh of the cell block, the sigmoid of the others
        np.tanh(g_gate, out=g)
        _sigmoid(z, out=z, work=work)
        g_gate[...] = g
        g *= i_gate
        c *= f_gate
        c += g
        np.tanh(c, out=h)
        if track:
            gates[k] = z
            cells[k + 1] = c
            tanh_c[k] = h
        h *= o_gate
        data[k, :, :hidden] = h[0]
        data[length - 1 - k, :, hidden:] = h[1]

    def backward(gout):
        # the gradient reaching each direction's state after step k
        g_steps = np.empty((length, 2, n, hidden), dtype)
        g_steps[:, 0] = gout[:, :, :hidden]
        g_steps[:, 1] = gout[::-1, :, hidden:]
        dz = np.empty((2, length, n, 4 * hidden), dtype)
        dh = np.zeros((2, n, hidden), dtype)
        dc = np.zeros((2, n, hidden), dtype)
        wh_t = wh.data.transpose(0, 2, 1)
        for k in range(length - 1, -1, -1):
            gk = gates[k]
            dh = dh + g_steps[k]
            dc = dc + dh * gk[..., h3:] * (1.0 - tanh_c[k] ** 2)
            dzk = dz[:, k]
            dzk[..., :h1] = dc * gk[..., h2:h3]
            dzk[..., h1:h2] = dc * cells[k]
            dzk[..., h2:h3] = dc * gk[..., :h1]
            dzk[..., h3:] = dh * tanh_c[k]
            # derivative of each gate's activation at its pre-activation
            dact = gk * (1.0 - gk)
            dact[..., h2:h3] = 1.0 - gk[..., h2:h3] ** 2
            dzk *= dact
            if k:
                dc = dc * gk[..., h1:h2]
                dh = dzk @ wh_t
        flat = dz.reshape(2, length * n, 4 * hidden)
        if wx.requires_grad:
            # each direction's inputs in its step order
            xs = np.empty((2, length, n, dim), dtype)
            xs[0] = x.data.transpose(1, 0, 2)
            xs[1] = xs[0, ::-1]
            wx.accumulate(xs.reshape(2, length * n, dim).transpose(0, 2, 1) @ flat)
        if wh.requires_grad:
            # each direction's state entering each step, in step order
            h_in = np.zeros((2, length, n, hidden), dtype)
            h_in[0, 1:] = data[:-1, :, :hidden]
            h_in[1, 1:] = data[:0:-1, :, hidden:]
            wh.accumulate(h_in.reshape(2, length * n, hidden).transpose(0, 2, 1) @ flat)
        if b.requires_grad:
            b.accumulate(flat.sum(axis=1))
        if x.requires_grad:
            dx = (flat @ wx.data.transpose(0, 2, 1)).reshape(2, length, n, dim)
            x.accumulate(dx[0].transpose(1, 0, 2))
            x.accumulate(dx[1, ::-1].transpose(1, 0, 2))

    return _node(data, (x, wx, wh, b), backward)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar ``loss`` into every parameter.

    The graph is released node by node as it is consumed, so a tensor
    graph can be backpropagated once per forward pass.
    """
    if loss.data.ndim != 0:
        raise ValueError("backward() expects a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    # a float64 seed would widen every gradient of a float32 loss (NEP 50)
    loss.grad = np.ones((), dtype=loss.data.dtype)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node._parents = ()
            node._backward = None
            node.grad = None
