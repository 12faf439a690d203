"""Primitive layers with explicit forward and backward passes.

Everything runs in float64 on (N, C, H, W) arrays so analytic gradients can be
verified against central finite differences. Layers never mutate their input
activations, and an input may be a view, such as the leading channels of a
dense block's feature buffer.

A layer's forward caches under its name only what its backward reads in
that mode, and its backward takes that state out of ``ctx.caches``, so one
forward serves one backward. Train mode serves a walk that takes parameter
gradients: a stride-1 convolution caches its input as a zero-padded
channels-last copy, the strided stem convolution its im2col matrix, a
linear layer its input, and batch normalization its normalized input (for a
dense layer's first normalization, a view into its block's shared
normalized buffer, see BlockNorm) with the inverse standard deviation. Eval
mode serves only an input-gradient walk: a stride-1 convolution keeps its
input's shape, the stem and a linear layer nothing, and batch normalization
its inverse standard deviation. In either mode ReLU caches its mask, max
pooling its argmax as one byte and the other pools their input's shape. The
stem's input is the image, so its backward computes the weight gradient only.
A backward lets go of each array once it has read it for the last time: a
stride-1 convolution frees its padded input once the weight gradient is
taken, before its input gradient is made, and batch normalization works in
one scratch array beside its input gradient.
A dense block with batch normalization keeps less in train mode: it runs
the relu and convolution after each of its batch normalizations in a
throwaway eval-mode context, and caches their train-mode state from the
batch normalization's cache just before the walk reaches that convolution
(BatchNorm2d.cached_output, Conv2d.restore_input; see network._DenseBlock).
Only the layers here read or write a cache entry.

Parameter naming: each layer owns entries in a flat ``tensors`` dict under its
dotted name, e.g. ``block0.layer1.conv2.w`` or ``head.fc1.b``. Weight decay
elsewhere keys off the ``.w`` suffix, so only convolution kernels and linear
weight matrices end in ``.w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class BlockNorm:
    """A dense block's train-mode normalization, shared by its layers' bn1.

    Channel j of the block's feature buffer holds the same data for every
    layer that reads it, so its batch mean ``m``, variance ``v``, inverse
    standard deviation ``inv`` and normalized values ``xhat`` are the same in
    each of those layers' bn1. The first bn1 that reads a channel computes
    them into these block-wide arrays; ``seen`` channels are done.
    """

    xhat: np.ndarray  # (n, channels, h, w)
    m: np.ndarray  # (1, channels, 1, 1), and so are v and inv
    v: np.ndarray
    inv: np.ndarray
    seen: int = 0

    @classmethod
    def empty(cls, shape) -> "BlockNorm":
        m, v, inv = np.empty((3, 1, shape[1], 1, 1))
        return cls(np.empty(shape), m, v, inv)


@dataclass
class RunCtx:
    """State threaded through one forward/backward pass. ``block_norm`` is set
    only in the context a dense block hands its layers' bn1 in train mode."""

    tensors: dict[str, np.ndarray]
    mode: str  # "train" | "eval"
    caches: dict = field(default_factory=dict)
    block_norm: BlockNorm | None = None


def _quantized_normal(rng: np.random.Generator, std: float, shape) -> np.ndarray:
    # draws pass through float32 so freshly initialized weights survive the
    # float32 weights file bitwise
    return (rng.normal(0.0, std, size=shape).astype(np.float32)).astype(np.float64)


class Layer:
    """Base: parameter-free, shape-preserving."""

    def __init__(self, name: str):
        self.name = name

    @property
    def layers(self) -> list["Layer"]:
        """The primitive layers of this network entry: the layer itself."""
        return [self]

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def init_params(self, rng: np.random.Generator, tensors: dict) -> None:
        pass

    def forward(self, x: np.ndarray, ctx: RunCtx) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, ctx: RunCtx, grads: dict | None) -> np.ndarray:
        """Return d(loss)/d(input), taking this layer's cache out of
        ``ctx.caches``. Parameter gradients are added into ``grads`` under
        their tensor names, after a train-mode forward only; ``grads=None``
        skips them."""
        raise NotImplementedError


class Conv2d(Layer):
    """2-D convolution without bias.

    Stride 1 runs as k*k shifted GEMMs (kn2row): the input is copied once
    into a zero-padded channels-last buffer ``xf`` of shape
    (n, hp*wp, c), and output row ``q`` of an item adds
    ``xf[q + ki*wp + kj] @ W[:, :, ki, kj].T`` for every kernel offset. Output
    rows are laid out on the padded width, so the last k-1 columns of each row
    are computed and then dropped. Each item gets its own GEMM, so its output
    does not depend on the batch it came in.

    Other strides use im2col over a window view. That path is the stem's,
    whose input is the image: its backward computes the weight gradient only
    and returns None.
    """

    def __init__(self, name: str, c_in: int, c_out: int, kernel: int, stride: int = 1, pad: int = 0):
        super().__init__(name)
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.wname = name + ".w"

    def param_shapes(self):
        return [(self.wname, (self.c_out, self.c_in, self.kernel, self.kernel))]

    def init_params(self, rng, tensors):
        fan_in = self.c_in * self.kernel * self.kernel
        tensors[self.wname] = _quantized_normal(rng, np.sqrt(2.0 / fan_in), self.param_shapes()[0][1])

    def forward(self, x, ctx):
        if self.stride == 1:
            return self._forward_shifted(x, ctx)
        return self._forward_im2col(x, ctx)

    def backward(self, dy, ctx, grads):
        if self.stride == 1:
            return self._backward_shifted(dy, ctx, grads)
        # the stem: its input is the image, so only the weight gradient
        cols = ctx.caches.pop(self.name)
        n, _, ho, wo = dy.shape
        if grads is not None:
            dym = np.ascontiguousarray(dy.reshape(n, self.c_out, ho * wo).transpose(0, 2, 1))
            dw = np.tensordot(dym, cols, axes=([0, 1], [0, 1]))  # (c_out, c*k*k)
            grads[self.wname] = grads.get(self.wname, 0.0) + dw.reshape(self.param_shapes()[0][1])
        return None

    def _geometry(self, h, wid):
        """Padded height and width, output height and width, and the count of
        output rows (on the padded width) whose windows all lie inside xf."""
        k, p = self.kernel, self.pad
        hp, wp = h + 2 * p, wid + 2 * p
        ho, wo = hp - k + 1, wp - k + 1
        return hp, wp, ho, wo, ho * wp - (k - 1)

    def _shifted_weights(self, ctx, wp):
        """Row offset into xf and (c_out, c) kernel slice of every kernel
        position, (ki, kj) in row-major order."""
        k = self.kernel
        wk = np.ascontiguousarray(ctx.tensors[self.wname].transpose(2, 3, 0, 1))
        offsets = [ki * wp + kj for ki in range(k) for kj in range(k)]
        return list(zip(offsets, wk.reshape(k * k, self.c_out, self.c_in)))

    def _padded(self, x):
        """x as the zero-padded channels-last rows xf, (n, hp*wp, c)."""
        n, c, h, wid = x.shape
        p = self.pad
        hp, wp = self._geometry(h, wid)[:2]
        xf = np.zeros((n, hp, wp, c)) if p else np.empty((n, hp, wp, c))
        xf[:, p : p + h, p : p + wid] = x.transpose(0, 2, 3, 1)
        return xf.reshape(n, hp * wp, c)

    def restore_input(self, x, ctx):
        """Cache the padded input as a train-mode forward of x does."""
        ctx.caches[self.name] = (self._padded(x), x.shape)

    def _forward_shifted(self, x, ctx):
        n, c, h, wid = x.shape
        hp, wp, ho, wo, m = self._geometry(h, wid)
        xf = self._padded(x)
        shifts = self._shifted_weights(ctx, wp)
        # the first shift covers all ho*wp rows; rows m.. take no other shift
        # and fall in the dropped columns
        y = xf[:, : ho * wp] @ shifts[0][1].T
        for off, wi in shifts[1:]:
            y[:, :m] += xf[:, off : off + m] @ wi.T
        ctx.caches[self.name] = (xf if ctx.mode == "train" else None, x.shape)
        y = y.reshape(n, ho, wp, self.c_out)[:, :, :wo]
        return np.ascontiguousarray(y.transpose(0, 3, 1, 2))

    def _backward_shifted(self, dy, ctx, grads):
        xf, (n, c, h, wid) = ctx.caches.pop(self.name)
        p, k = self.pad, self.kernel
        hp, wp, ho, wo, m = self._geometry(h, wid)
        shifts = self._shifted_weights(ctx, wp)
        # dy on xf's row grid, zero in the dropped columns and the rows past
        # ho, of which a 1x1 kernel has none
        dyf = np.empty((n, hp, wp, self.c_out)) if k == 1 else np.zeros((n, hp, wp, self.c_out))
        dyf[:, :ho, :wo] = dy.transpose(0, 2, 3, 1)
        dyf = dyf.reshape(n, hp * wp, self.c_out)
        if grads is not None:
            # one GEMM per shift over every item's rows: a row of dyf meets the
            # xf row off below it, and the zero rows cancel the rows that would
            # cross into the next item
            rows = n * hp * wp
            dyf_flat = dyf.reshape(rows, self.c_out)
            xf_flat = xf.reshape(rows, c)
            dwk = np.stack([np.dot(dyf_flat[: rows - off].T, xf_flat[off:]) for off, _ in shifts])
            del dyf_flat, xf_flat
            dw = np.ascontiguousarray(dwk.reshape(k, k, self.c_out, c).transpose(2, 3, 0, 1))
            grads[self.wname] = grads.get(self.wname, 0.0) + dw
        del xf  # read last by the weight gradient: freed before dxf is made
        # the first shift writes rows ..m and the rest start at zero; the
        # other shifts add into both
        dxf = np.empty((n, hp * wp, c))
        np.matmul(dyf[:, :m], shifts[0][1], out=dxf[:, :m])
        dxf[:, m:] = 0.0
        for off, wi in shifts[1:]:
            dxf[:, off : off + m] += dyf[:, :m] @ wi
        del dyf  # freed before the NCHW copy of dx is made
        dx = dxf.reshape(n, hp, wp, c)[:, p : p + h, p : p + wid]
        return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))

    def _forward_im2col(self, x, ctx):
        w = ctx.tensors[self.wname]
        n, c, h, wid = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        ho = (h + 2 * p - k) // s + 1
        wo = (wid + 2 * p - k) // s + 1
        xp = x
        if p:
            xp = np.zeros((n, c, h + 2 * p, wid + 2 * p), dtype=x.dtype)
            xp[:, :, p : p + h, p : p + wid] = x
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        # (n, c, ho, wo, k, k) -> (n, ho, wo, c, k, k)
        cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n, ho * wo, c * k * k)
        y = cols @ w.reshape(self.c_out, -1).T  # (n, ho*wo, c_out)
        ctx.caches[self.name] = cols if ctx.mode == "train" else None
        return np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(n, self.c_out, ho, wo)


class BatchNorm2d(Layer):
    """Per-channel batch normalization with running moments.

    Train mode normalizes by biased batch statistics and updates the running
    moments in place; eval mode normalizes by the stored running moments and
    leaves them untouched. ``ctx.mode`` alone picks the branch, in forward
    and in backward.

    In train mode the cache is the normalized input with the inverse
    standard deviation. Given ``ctx.block_norm``, the layer normalizes only
    the channels that no earlier bn1 of its block has seen and reads the
    rest from the block's shared arrays. numpy reduces a one-channel view in
    another order than the same channel of a wider view, so a lone new
    channel reduces together with its left neighbour, and an input of one
    channel reduces on its own: each channel's moments are bit for bit those
    of its whole input. In eval mode the cache is the inverse standard
    deviation alone: the input gradient ``(dy * gamma) * inv`` reads nothing
    else, and an eval pass takes no parameter gradients.
    """

    AXES = (0, 2, 3)

    def __init__(self, name: str, channels: int):
        super().__init__(name)
        self.channels = channels
        self.gname = name + ".gamma"
        self.bname = name + ".beta"
        self.rmname = name + ".running_mean"
        self.rvname = name + ".running_var"

    def param_shapes(self):
        c = (self.channels,)
        return [(self.gname, c), (self.bname, c), (self.rmname, c), (self.rvname, c)]

    def init_params(self, rng, tensors):
        c = self.channels
        tensors[self.gname] = np.ones(c)
        tensors[self.bname] = np.zeros(c)
        tensors[self.rmname] = np.zeros(c)
        tensors[self.rvname] = np.ones(c)

    def _channels(self, ctx, name):
        return ctx.tensors[name][None, :, None, None]

    @classmethod
    def _normalize(cls, x):
        """Batch mean, variance, inverse standard deviation and normalized
        input of x."""
        # one pass for the mean, one for the variance of the centred input:
        # the same sums np.mean and np.var take, without np.var's second mean
        nel = x.shape[0] * x.shape[2] * x.shape[3]
        m = np.add.reduce(x, axis=cls.AXES, keepdims=True) / nel
        d = x - m
        v = np.add.reduce(d * d, axis=cls.AXES, keepdims=True) / nel
        inv = 1.0 / np.sqrt(v + BN_EPS)
        d *= inv  # normalized in place: d is not read again
        return m, v, inv, d

    @classmethod
    def _normalize_shared(cls, x, norm):
        """Normalize the channels of x past ``norm.seen`` into ``norm`` and
        return the moments and normalized input of all of x's channels."""
        s, c = norm.seen, x.shape[1]
        lo = s - 1 if c - s == 1 else s  # a lone channel reduces with its left neighbour
        for dst, src in zip((norm.m, norm.v, norm.inv, norm.xhat), cls._normalize(x[:, lo:c])):
            dst[:, s:c] = src[:, s - lo :]
        norm.seen = c
        return norm.m[:, :c], norm.v[:, :c], norm.inv[:, :c], norm.xhat[:, :c]

    def forward(self, x, ctx):
        if ctx.mode == "train":
            if ctx.block_norm is not None and x.shape[1] > 1:
                m, v, inv, xhat = self._normalize_shared(x, ctx.block_norm)
            else:
                m, v, inv, xhat = self._normalize(x)
            for name, moment in ((self.rmname, m), (self.rvname, v)):
                running = ctx.tensors[name]
                running *= 1.0 - BN_MOMENTUM
                running += BN_MOMENTUM * moment.ravel()
            ctx.caches[self.name] = (xhat, inv)
        else:
            inv = 1.0 / np.sqrt(self._channels(ctx, self.rvname) + BN_EPS)
            xhat = x - self._channels(ctx, self.rmname)
            xhat *= inv
            ctx.caches[self.name] = inv
        return self._scale_shift(xhat, ctx)

    def cached_output(self, ctx):
        """The output of the train-mode forward whose cache is still here."""
        return self._scale_shift(ctx.caches[self.name][0], ctx)

    def _scale_shift(self, xhat, ctx):
        """The output for the normalized input xhat: gamma * xhat + beta."""
        y = self._channels(ctx, self.gname) * xhat
        y += self._channels(ctx, self.bname)
        return y

    def backward(self, dy, ctx, grads):
        dxhat = dy * self._channels(ctx, self.gname)
        if ctx.mode != "train":
            return dxhat * ctx.caches.pop(self.name)
        xhat, inv = ctx.caches.pop(self.name)
        # one scratch array serves dy * xhat, dxhat * xhat and xhat * s2 in turn
        t = np.empty_like(dxhat)
        if grads is not None:
            gx = np.sum(np.multiply(dy, xhat, out=t), axis=self.AXES)
            grads[self.gname] = grads.get(self.gname, 0.0) + gx
            grads[self.bname] = grads.get(self.bname, 0.0) + np.sum(dy, axis=self.AXES)
        nel = dy.shape[0] * dy.shape[2] * dy.shape[3]
        s1 = np.sum(dxhat, axis=self.AXES, keepdims=True)
        s2 = np.sum(np.multiply(dxhat, xhat, out=t), axis=self.AXES, keepdims=True)
        # (inv / nel) * (nel * dxhat - s1 - xhat * s2), in place on dxhat
        dxhat *= nel
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=t)
        dxhat *= inv / nel
        return dxhat


class ReLU(Layer):
    """max(x, 0) as np.where(x > 0, x, 0.0) gives it, bit for bit: NaN and
    -0.0 map to +0.0. The cache is the mask ``x > 0``."""

    @staticmethod
    def _masked(a, mask):
        # a's bits ANDed with the mask widened to all-ones or all-zeros words:
        # np.where(mask, a, 0.0) by construction, in one bitwise pass
        t = np.multiply(mask, np.int64(-1), dtype=np.int64)
        np.bitwise_and(t, a.view(np.int64), out=t)
        return t.view(np.float64)

    def forward(self, x, ctx):
        mask = x > 0
        ctx.caches[self.name] = mask
        return self._masked(x, mask)

    def backward(self, dy, ctx, grads):
        return self._masked(dy, ctx.caches.pop(self.name))


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; a trailing odd row/column is dropped.
    Gradient ties route to the first maximal element of each window."""

    # window offsets in the row-major order that decides which maximum counts
    # as first
    OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, ctx):
        n, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        win = np.stack([x[:, :, i : h2 * 2 : 2, j : w2 * 2 : 2] for i, j in self.OFFSETS], axis=-1)
        idx = np.argmax(win, axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        # an index into OFFSETS: one byte holds it
        ctx.caches[self.name] = (idx.astype(np.int8), x.shape)
        return y

    def backward(self, dy, ctx, grads):
        idx, shape = ctx.caches.pop(self.name)
        h2, w2 = shape[2] // 2, shape[3] // 2
        dx = np.zeros(shape)
        for k, (i, j) in enumerate(self.OFFSETS):
            dx[:, :, i : h2 * 2 : 2, j : w2 * 2 : 2] = np.where(idx == k, dy, 0.0)
        return dx


class AvgPool2x2(Layer):
    """2x2 average pooling, stride 2; a trailing odd row/column is dropped."""

    def forward(self, x, ctx):
        n, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        y = x[:, :, : h2 * 2, : w2 * 2].reshape(n, c, h2, 2, w2, 2).mean(axis=(3, 5))
        ctx.caches[self.name] = x.shape
        return y

    def backward(self, dy, ctx, grads):
        n, c, h, w = ctx.caches.pop(self.name)
        h2, w2 = h // 2, w // 2
        dx = np.zeros((n, c, h, w))
        dx[:, :, : h2 * 2, : w2 * 2] = np.repeat(np.repeat(dy, 2, axis=2), 2, axis=3) / 4.0
        return dx


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C) spatial mean."""

    def forward(self, x, ctx):
        ctx.caches[self.name] = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy, ctx, grads):
        n, c, h, w = ctx.caches.pop(self.name)
        return np.broadcast_to(dy[:, :, None, None], (n, c, h, w)) / (h * w)


class Linear(Layer):
    def __init__(self, name: str, d_in: int, d_out: int):
        super().__init__(name)
        self.d_in = d_in
        self.d_out = d_out
        self.wname = name + ".w"
        self.bname = name + ".b"

    def param_shapes(self):
        return [(self.wname, (self.d_out, self.d_in)), (self.bname, (self.d_out,))]

    def init_params(self, rng, tensors):
        tensors[self.wname] = _quantized_normal(rng, np.sqrt(2.0 / self.d_in), (self.d_out, self.d_in))
        tensors[self.bname] = np.zeros(self.d_out)

    def forward(self, x, ctx):
        ctx.caches[self.name] = x if ctx.mode == "train" else None
        # one (1, d_in) product per item: a single (n, d_in) GEMM would round
        # differently from a batch-1 product, so an item's output would depend
        # on the batch it came in
        return (x[:, None, :] @ ctx.tensors[self.wname].T)[:, 0] + ctx.tensors[self.bname]

    def backward(self, dy, ctx, grads):
        x = ctx.caches.pop(self.name)
        if grads is not None:
            grads[self.wname] = grads.get(self.wname, 0.0) + dy.T @ x
            grads[self.bname] = grads.get(self.bname, 0.0) + dy.sum(axis=0)
        # one product per item, as in forward, so an item's input gradient
        # does not depend on the batch it came in
        return (dy[:, None, :] @ ctx.tensors[self.wname])[:, 0]
