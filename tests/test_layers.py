"""Hand-checkable forward semantics of the individual layers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacxray.model.layers import (
    AvgPool2x2,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    Linear,
    MaxPool2x2,
    ReLU,
    RunCtx,
)

from conftest import benchmark_traced_classes
from oracles import conv_backward_shifted


def _ctx(tensors=None, *, mode):
    """A fresh context for one forward and the backward that follows it."""
    return RunCtx(tensors=tensors or {}, mode=mode, caches={})


def test_relu_clips_negative():
    x = np.array([[[[-1.0, 2.0], [0.0, -3.5]]]])
    out = ReLU("r").forward(x, _ctx(mode="eval"))
    assert np.array_equal(out, [[[[0.0, 2.0], [0.0, 0.0]]]])


def test_relu_matches_where_bit_for_bit_on_edge_values():
    # signed zeros, a NaN with a non-default payload, infinities and
    # subnormals, in a non-contiguous view like relu1's input without batchnorm
    nan = np.array([0x7FF800000000BEEF, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)
    tiny = np.nextafter(0.0, 1.0)
    edges = np.concatenate([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2.5e-310, -2.5e-310, 1.0, -1.0], nan])
    rng = np.random.default_rng(12)
    buf = rng.choice(edges, size=(2, 5, 3, 4))
    x = buf[:, :3]
    before = buf.tobytes()
    dy = rng.choice(edges, size=(2, 3, 3, 4))[:, :, ::-1]
    relu = ReLU("r")
    ctx = _ctx(mode="eval")
    y = relu.forward(x, ctx)
    mask = x > 0
    assert y.tobytes() == np.where(mask, x, 0.0).tobytes()
    assert relu.backward(dy, ctx, {}).tobytes() == np.where(mask, dy, 0.0).tobytes()
    assert buf.tobytes() == before  # the input is left as it was


def test_maxpool_2x2_stride_2():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = MaxPool2x2("mp").forward(x, _ctx(mode="eval"))
    assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def test_avgpool_2x2_stride_2():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = AvgPool2x2("ap").forward(x, _ctx(mode="eval"))
    assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_global_avg_pool():
    x = np.stack([np.full((3, 3), 2.0), np.arange(9.0).reshape(3, 3)])[None]
    out = GlobalAvgPool("gap").forward(x, _ctx(mode="eval"))
    assert np.allclose(out, [[2.0, 4.0]])


def test_conv_1x1_is_channel_mix():
    conv = Conv2d("c", c_in=2, c_out=1, kernel=1)
    w = np.array([[[[2.0]], [[-1.0]]]])  # out = 2*ch0 - ch1
    x = np.stack([np.ones((2, 2)), np.full((2, 2), 3.0)])[None]
    out = conv.forward(x, _ctx({"c.w": w}, mode="eval"))
    assert np.array_equal(out[0, 0], np.full((2, 2), -1.0))


def test_conv_3x3_same_padding_hand_example():
    conv = Conv2d("c", c_in=1, c_out=1, kernel=3, stride=1, pad=1)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0  # identity kernel
    x = np.arange(9.0).reshape(1, 1, 3, 3)
    out = conv.forward(x, _ctx({"c.w": w}, mode="eval"))
    assert np.array_equal(out, x)
    w2 = np.zeros((1, 1, 3, 3))
    w2[0, 0, 0, 1] = 1.0  # shift down: out[r] = in[r-1], zero row at the top
    out2 = conv.forward(x, _ctx({"c.w": w2}, mode="eval"))
    assert np.array_equal(out2[0, 0, 0], [0.0, 0.0, 0.0])
    assert np.array_equal(out2[0, 0, 1:], x[0, 0, :2])


def test_conv_stride_2_output_geometry():
    conv = Conv2d("c", c_in=1, c_out=3, kernel=7, stride=2, pad=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 1, 16, 16))
    out = conv.forward(x, _ctx({"c.w": rng.standard_normal((3, 1, 7, 7))}, mode="eval"))
    assert out.shape == (2, 3, 8, 8)


def test_batchnorm_train_normalizes_batch():
    bn = BatchNorm2d("b", channels=1)
    tensors = {}
    bn.init_params(np.random.default_rng(0), tensors)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 1, 5, 5)) * 3.0 + 7.0
    out = bn.forward(x, _ctx(tensors, mode="train"))
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-4  # epsilon slightly shrinks the std
    # running moments moved toward the batch statistics
    assert tensors["b.running_mean"][0] != 0.0
    assert tensors["b.running_var"][0] != 1.0


def test_batchnorm_eval_uses_running_moments():
    bn = BatchNorm2d("b", channels=1)
    tensors = {}
    bn.init_params(np.random.default_rng(0), tensors)
    tensors["b.running_mean"][0] = 2.0
    tensors["b.running_var"][0] = 4.0
    x = np.full((1, 1, 2, 2), 6.0)
    snapshot = {k: v.copy() for k, v in tensors.items()}
    out = bn.forward(x, _ctx(tensors, mode="eval"))
    assert np.allclose(out, (6.0 - 2.0) / np.sqrt(4.0 + 1e-5), atol=1e-9)
    for k in snapshot:  # eval must not touch the moments
        assert np.array_equal(snapshot[k], tensors[k])


def test_linear_affine():
    lin = Linear("l", d_in=2, d_out=1)
    tensors = {"l.w": np.array([[3.0, -1.0]]), "l.b": np.array([0.5])}
    out = lin.forward(np.array([[2.0, 4.0]]), _ctx(tensors, mode="eval"))
    assert np.array_equal(out, [[2.5]])


def test_maxpool_ties_route_to_first_maximum_in_row_major_order():
    # windows: all equal -> (0,0); (0,1) and (1,0) tied -> (0,1); only (1,1) max
    x = np.array([[[[1.0, 1.0, 0.0, 5.0, 0.0, 0.0],
                    [1.0, 1.0, 5.0, 0.0, 0.0, 9.0]]]])
    pool = MaxPool2x2("mp")
    ctx = _ctx(mode="eval")
    assert np.array_equal(pool.forward(x, ctx), [[[[1.0, 5.0, 9.0]]]])
    dx = pool.backward(np.array([[[[1.0, 2.0, 3.0]]]]), ctx, {})
    assert np.array_equal(dx[0, 0], [[1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.0, 0.0, 0.0, 3.0]])


def _conv_im2col_reference(x, w, dy, pad=0, stride=1):
    """The window-view im2col convolution, with its dx scatter."""
    from numpy.lib.stride_tricks import sliding_window_view

    n, c, h, wid = x.shape
    c_out, _, k, _ = w.shape
    ho, wo = (h + 2 * pad - k) // stride + 1, (wid + 2 * pad - k) // stride + 1
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, wid + 2 * pad))
        xp[:, :, pad : pad + h, pad : pad + wid] = x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n, ho * wo, c * k * k)
    wm = w.reshape(c_out, -1)
    y = np.ascontiguousarray((cols @ wm.T).transpose(0, 2, 1)).reshape(n, c_out, ho, wo)
    dym = np.ascontiguousarray(dy.reshape(n, c_out, ho * wo).transpose(0, 2, 1))
    dw = np.tensordot(dym, cols, axes=([0, 1], [0, 1])).reshape(w.shape)
    dwin = (dym @ wm).reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(xp.shape)
    for ki in range(k):
        for kj in range(k):
            dx[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += (
                dwin[:, :, :, :, ki, kj]
            )
    return y, dx[:, :, pad : pad + h, pad : pad + wid], dw


def test_pointwise_conv_matches_im2col_reference_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5, 6, 7))
    x[x < -1.0] = -0.0  # signed zeros must survive as well
    w = rng.standard_normal((4, 5, 1, 1))
    dy = rng.standard_normal((3, 4, 6, 7))
    conv = Conv2d("c", c_in=5, c_out=4, kernel=1)
    ctx = _ctx({"c.w": w}, mode="train")
    grads = {}
    y = conv.forward(x, ctx)
    dx = conv.backward(dy, ctx, grads)
    y_ref, dx_ref, dw_ref = _conv_im2col_reference(x, w, dy)
    assert y.tobytes() == y_ref.tobytes()
    assert dx.tobytes() == dx_ref.tobytes()
    assert grads["c.w"].tobytes() == dw_ref.tobytes()


def test_backward_without_grads_gives_same_input_gradient():
    rng = np.random.default_rng(6)
    x4 = rng.standard_normal((2, 3, 5, 5))
    # parameter gradients follow a train-mode forward only
    cases = [
        (Conv2d("l", 3, 4, 1), x4),
        (Conv2d("l", 3, 4, 3, pad=1), x4),
        (BatchNorm2d("l", 3), x4),
        (Linear("l", 3, 4), rng.standard_normal((2, 3))),
    ]
    for layer, x in cases:
        tensors = {}
        layer.init_params(np.random.default_rng(0), tensors)
        ctx = _ctx(tensors, mode="train")
        y = layer.forward(x, ctx)
        dy = rng.standard_normal(y.shape)
        grads = {}
        with_grads = layer.backward(dy, ctx, grads)
        assert grads, type(layer).__name__
        layer.forward(x, ctx)  # a backward takes its forward's cache
        without = layer.backward(dy, ctx, None)
        assert without.tobytes() == with_grads.tobytes(), type(layer).__name__


@pytest.mark.parametrize("kernel,pad", [(3, 1), (3, 0), (5, 2)])
@pytest.mark.parametrize("batch", [1, 3])
def test_shifted_gemm_conv_matches_im2col_reference(kernel, pad, batch):
    rng = np.random.default_rng(10 * kernel + pad + batch)
    x = rng.standard_normal((batch, 5, 9, 6))  # non-square: rows and columns differ
    w = rng.standard_normal((4, 5, kernel, kernel))
    conv = Conv2d("c", c_in=5, c_out=4, kernel=kernel, pad=pad)
    ctx = _ctx({"c.w": w}, mode="train")
    grads = {}
    y = conv.forward(x, ctx)
    dy = rng.standard_normal(y.shape)
    dx = conv.backward(dy, ctx, grads)
    y_ref, dx_ref, dw_ref = _conv_im2col_reference(x, w, dy, pad)
    assert y.shape == y_ref.shape and dx.shape == x.shape
    for got, want in ((y, y_ref), (dx, dx_ref), (grads["c.w"], dw_ref)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stem_conv_gives_weight_gradient_only():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 1, 12, 10))
    w = rng.standard_normal((4, 1, 7, 7))
    dy = rng.standard_normal((3, 4, 6, 5))
    conv = Conv2d("c", 1, 4, 7, stride=2, pad=3)
    ctx = _ctx({"c.w": w}, mode="train")
    y = conv.forward(x, ctx)
    y_ref, _, dw_ref = _conv_im2col_reference(x, w, dy, pad=3, stride=2)
    assert y.shape == y_ref.shape and np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    grads = {}
    assert conv.backward(dy, ctx, grads) is None
    assert np.max(np.abs(grads["c.w"] - dw_ref)) <= 1e-12 * np.max(np.abs(dw_ref))
    first = grads["c.w"].copy()
    conv.forward(x, ctx)  # a backward takes its forward's cache
    assert conv.backward(dy, ctx, None) is None
    conv.forward(x, ctx)
    assert conv.backward(dy, ctx, grads) is None  # a second call adds onto the first
    assert np.array_equal(grads["c.w"], 2.0 * first)


def _maxpool_scatter_reference(x, dy):
    """Max pooling's input gradient as a scatter of dy into the argmax slot
    of each flattened window, then back onto the input grid."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = np.stack([x[:, :, i : h2 * 2 : 2, j : w2 * 2 : 2] for i in (0, 1) for j in (0, 1)], axis=-1)
    dwin = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(dwin, np.argmax(win, axis=-1)[..., None], dy[..., None], axis=-1)
    dx = np.zeros((n, c, h, w))
    dx[:, :, : h2 * 2, : w2 * 2] = (
        dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2 * 2, w2 * 2)
    )
    return dx


def test_maxpool_backward_matches_scatter_reference_on_edge_values():
    # windows tied between signed zeros, holding NaN or only -inf, on odd
    # sides that drop a row or column; dy carries the same values
    edges = np.array([0.0, -0.0, np.nan, -np.inf, 1.0, -1.0])
    rng = np.random.default_rng(13)
    pool = MaxPool2x2("mp")
    for _ in range(200):
        shape = tuple(int(rng.integers(lo, hi)) for lo, hi in ((1, 3), (1, 4), (2, 8), (2, 8)))
        x = rng.choice(edges, size=shape)
        ctx = _ctx(mode="train")
        y = pool.forward(x, ctx)
        dy = rng.choice(edges, size=y.shape)
        dx = pool.backward(dy, ctx, None)
        assert dx.tobytes() == _maxpool_scatter_reference(x, dy).tobytes()


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_backward_takes_the_state_its_forward_cached(mode):
    rng = np.random.default_rng(14)
    x4 = rng.standard_normal((2, 3, 6, 6))
    cases = {
        "Conv2d": [(Conv2d("l", 3, 4, 3, pad=1), x4), (Conv2d("l", 1, 4, 7, stride=2, pad=3), x4[:, :1])],
        "BatchNorm2d": [(BatchNorm2d("l", 3), x4)],
        "ReLU": [(ReLU("l"), x4)],
        "MaxPool2x2": [(MaxPool2x2("l"), x4)],
        "AvgPool2x2": [(AvgPool2x2("l"), x4)],
        "GlobalAvgPool": [(GlobalAvgPool("l"), x4)],
        "Linear": [(Linear("l", 3, 4), x4[:, :, 0, 0])],
    }
    for name in benchmark_traced_classes()["LAYER_CLASSES"]:
        assert name in cases, f"no case for layer class {name}"
        for layer, x in cases[name]:
            tensors = {}
            layer.init_params(np.random.default_rng(0), tensors)
            ctx = _ctx(tensors, mode=mode)
            y = layer.forward(x, ctx)
            layer.backward(rng.standard_normal(y.shape), ctx, {} if mode == "train" else None)
            assert not ctx.caches, name


@settings(max_examples=300)
@given(
    n=st.integers(1, 3), c=st.integers(1, 9), c_out=st.integers(1, 9), k=st.sampled_from([1, 3]),
    h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
)
def test_shifted_conv_backward_equals_the_zero_filled_oracle(n, c, c_out, k, h, w, seed):
    # GEMM bits depend on the layout and shape of their operands, so writing
    # the first shift in place, past unfilled rows, is checked against the
    # zero-filled form at many shapes
    rng = np.random.default_rng(seed)
    conv = Conv2d("c", c, c_out, k, pad=k // 2)
    tensors = {}
    conv.init_params(rng, tensors)
    x = rng.standard_normal((n, c, h, w))
    ctx = _ctx(tensors, mode="train")
    y = conv.forward(x, ctx)
    dy = rng.standard_normal(y.shape)
    oracle_grads, grads = {}, {}
    expected = conv_backward_shifted(conv, dy, ctx.caches[conv.name], tensors, oracle_grads)
    assert conv.backward(dy, ctx, grads).tobytes() == expected.tobytes()
    assert grads[conv.wname].tobytes() == oracle_grads[conv.wname].tobytes()


def _backward_peak(layer, x, dy, tensors, *, hold=False):
    """tracemalloc peak of one train-mode backward over the memory traced
    when it starts. The forward before it is traced too, so an array it
    cached counts once freed; ``hold`` keeps that cache alive to the end."""
    ctx = _ctx(tensors, mode="train")
    tracemalloc.start()
    try:
        layer.forward(x, ctx)
        held = dict(ctx.caches) if hold else None  # alive until the return
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        layer.backward(dy, ctx, {})
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 3])
def test_conv_backward_frees_its_padded_input_after_the_weight_gradient(k):
    # the padded input xf is read last by the weight gradient, so the input
    # gradient's arrays are made after it is gone
    rng = np.random.default_rng(15)
    n, c, h, w = 2, 16, 48, 48
    conv = Conv2d("c", c, 12, k, pad=k // 2)
    tensors = {}
    conv.init_params(rng, tensors)
    x = rng.standard_normal((n, c, h, w))
    dy = rng.standard_normal((n, 12, h, w))
    xf_bytes = 8 * n * c * (h + k - 1) * (w + k - 1)
    freed = _backward_peak(conv, x, dy, tensors)
    held = _backward_peak(conv, x, dy, tensors, hold=True)
    assert held - freed > 0.95 * xf_bytes, (held / xf_bytes, freed / xf_bytes)


def test_batchnorm_backward_holds_two_arrays_beside_its_gradient():
    # dxhat and one scratch array for dy * xhat, dxhat * xhat and xhat * s2;
    # the slack covers numpy's reduction buffers
    rng = np.random.default_rng(16)
    bn = BatchNorm2d("bn", 16)
    tensors = {}
    bn.init_params(rng, tensors)
    x = rng.standard_normal((2, 16, 64, 64))
    dy = rng.standard_normal(x.shape)
    assert _backward_peak(bn, x, dy, tensors) <= 2 * dy.nbytes + 2**17
