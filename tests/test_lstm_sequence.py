"""The fused LSTM op against the per-step tape LSTM it replaces.

``lstm_tape`` below is the encoder's former LSTM: one tape node per
matmul, add, gate slice, sigmoid, tanh and product, step by step. The
fused :func:`autodiff.lstm_sequence` must give the same forward bits and
the same gradients up to summation order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock import autodiff as ad

from conftest import relative_error


def tape_sigmoid(a: ad.Tensor) -> ad.Tensor:
    data = ad._sigmoid(a.data)
    return ad._node(data, (a,), lambda g: a.accumulate(g * data * (1.0 - data)))


def tape_tanh(a: ad.Tensor) -> ad.Tensor:
    data = np.tanh(a.data)
    return ad._node(data, (a,), lambda g: a.accumulate(g * (1.0 - data * data)))


def lstm_tape(v_steps, wx, wh, b, hidden, batch):
    h = ad.Tensor(np.zeros((batch, hidden)))
    c = ad.Tensor(np.zeros((batch, hidden)))
    states = []
    for v in v_steps:
        z = ad.add(ad.add(ad.matmul(v, wx), ad.matmul(h, wh)), b)
        # one elementwise sigmoid over all gates; the cell slice is unused
        gates = tape_sigmoid(z)
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        g = tape_tanh(z[:, 2 * hidden : 3 * hidden])
        o = gates[:, 3 * hidden :]
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, tape_tanh(c))
        states.append(h)
    return states


def oracle(x, wx, wh, b, reverse):
    """(n, L, H) hidden states of the per-step tape LSTM."""
    n, length, _ = x.data.shape
    hidden = wh.data.shape[0]
    v_steps = [x[:, k, :] for k in range(length)]
    if reverse:
        states = lstm_tape(v_steps[::-1], wx, wh, b, hidden, n)[::-1]
    else:
        states = lstm_tape(v_steps, wx, wh, b, hidden, n)
    return ad.concat([ad.reshape(h, (n, 1, hidden)) for h in states], axis=1)


def make_inputs(rng, n, length, dim, hidden, scale, requires_grad):
    x = rng.standard_normal((n, length, dim)) * scale
    # pin some entries at the saturating values
    pinned = rng.random(x.shape) < 0.2
    x[pinned] = rng.choice([-40.0, 40.0], size=int(pinned.sum()))
    arrays = [
        x,
        rng.standard_normal((dim, 4 * hidden)),
        rng.standard_normal((hidden, 4 * hidden)),
        rng.standard_normal(4 * hidden),
    ]
    return [ad.Tensor(a, requires_grad=requires_grad) for a in arrays]


cases = st.tuples(
    st.integers(1, 5),  # n
    st.integers(1, 6),  # L
    st.integers(1, 4),  # d
    st.integers(1, 4),  # H
    st.booleans(),  # reverse
    st.sampled_from([0.1, 1.0, 40.0]),  # input scale
    st.integers(0, 2**32 - 1),
)


@given(cases)
@settings(max_examples=150, deadline=None)
def test_forward_is_per_step_tape_bitwise(case):
    n, length, dim, hidden, reverse, scale, seed = case
    rng = np.random.default_rng(seed)
    inputs = make_inputs(rng, n, length, dim, hidden, scale, requires_grad=False)
    got = ad.lstm_sequence(*inputs, reverse=reverse)
    want = oracle(*inputs, reverse)
    assert got.data.shape == (n, length, hidden)
    assert got.data.tobytes() == want.data.tobytes()
    # nothing recorded, nothing kept for a backward pass
    assert not got.requires_grad
    assert got._backward is None and got._parents == ()

    tracked = [ad.Tensor(t.data, requires_grad=True) for t in inputs]
    assert ad.lstm_sequence(*tracked, reverse=reverse).data.tobytes() == want.data.tobytes()


@given(cases)
@settings(max_examples=150, deadline=None)
def test_gradients_match_per_step_tape(case):
    n, length, dim, hidden, reverse, scale, seed = case
    rng = np.random.default_rng(seed)
    fused = make_inputs(rng, n, length, dim, hidden, scale, requires_grad=True)
    taped = [ad.Tensor(t.data.copy(), requires_grad=True) for t in fused]
    weights = ad.Tensor(rng.standard_normal((n, length, hidden)))
    ad.backward(ad.tsum(ad.mul(ad.lstm_sequence(*fused, reverse=reverse), weights)))
    ad.backward(ad.tsum(ad.mul(oracle(*taped, reverse), weights)))
    for got, want in zip(fused, taped):
        assert got.grad.shape == want.data.shape
        scale_floor = max(float(np.abs(want.grad).max()), 1e-300)
        assert relative_error(got.grad, want.grad, floor=scale_floor) < 1e-12


def test_only_inputs_that_require_gradients_get_them():
    rng = np.random.default_rng(0)
    x, wx, wh, b = make_inputs(rng, 3, 4, 2, 3, 1.0, requires_grad=False)
    wh.requires_grad = True
    ad.backward(ad.tsum(ad.lstm_sequence(x, wx, wh, b)))
    assert wh.grad is not None and wh.grad.shape == wh.data.shape
    assert x.grad is None and wx.grad is None and b.grad is None
