"""The trainable bypass: stacked bottleneck adapters over backbone taps.

Each adapter refines the running side activation ``s`` with the matching
(dequantized) backbone tap ``a``:

    u      = s + a
    s_next = LN( gelu(u W_down) W_up + u )

The side state starts as the embedding tap, s_0 = a_0. The final one
is blended with the last tap through a learnable sigmoid gate, pooled
over positions, and classified by a linear head. Backbone taps are
constants, so no gradient ever points at the device.

Both passes read tap l through one reader, ``read(tap, out)``, and only
when adapter l runs, into a single plane: the server's reader decodes
the batch's codes (:func:`sidetune.quantize.dequantize`), which it holds
until the step ends, and the default one copies a float array. The
reader's contract is that a tap reads the same bits each time, so the
taps must stay unchanged from the forward to its backward.

The forward keeps what its exact analytic reverse pass reads in its
:class:`Workspace`, the one holder of both passes' buffers: each
adapter's pre-activation and the tanh inside its gelu, the layer norm's
x̂ and 1/σ, which the kernels hand out as they compute them, and what
the head and the gate need. It keeps no tap and no adapter input: the
backward reads each tap again and rebuilds adapter l's input
u_l = (x̂_{l-1} · γ_{l-1} + β_{l-1}) + a_l (a_0 + a_1 for the first),
and each activation, from what is kept, with the forward's own
operations in the forward's order, so bit for bit. That is gradient checkpointing's trade
of compute for memory (Chen et al., 2016, arXiv 1604.06174): 2γ + 1
reads a step for γ taps, and one tap plane where M + 1 were kept. It
recomputes neither a layer-norm statistic nor a tanh. The buffers are
sized for one batch shape and written in place, and every forward runs
in a workspace its caller builds, so a caller that keeps one (the server
builds one per session) allocates nothing batch-sized per step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .backbone import BackboneWeights, ForwardWorkspace, forward_collect
from .binio import (
    FormatError,
    expect_magic,
    open_binary,
    read_exact,
    read_f32,
    write_f32,
    write_magic,
)
from .quantize import dequantize, quantize

CHECKPOINT_MAGIC = b"MBSN"
CHECKPOINT_VERSION = 1
# the checkpoint header's nonlinearity byte: 0, gelu, the only adapter sigma
GELU_CODE = 0

INIT_STD = 0.02  # the deviation of the adapters' initial projections


@dataclass(frozen=True)
class SideConfig:
    hidden: int
    bottleneck: int
    adapters: int
    classes: int

    def __post_init__(self):
        if not 1 <= self.bottleneck < self.hidden:
            raise ValueError(
                f"bottleneck {self.bottleneck} must be at least 1 and below hidden {self.hidden}"
            )
        if self.classes < 1:
            raise ValueError("head needs at least one output")
        if self.adapters < 1:
            raise ValueError(f"{self.adapters} adapters: a side network needs at least one")

    @property
    def param_count(self) -> int:
        """Elements of the flat parameter state."""
        return sum(math.prod(shape) for _, _, shape in _layout(self))


@dataclass
class AdapterParams:
    w_down: np.ndarray  # [H, m]
    w_up: np.ndarray    # [m, H]
    ln_gamma: np.ndarray
    ln_beta: np.ndarray


def _layout(config: SideConfig):
    """The one shape declaration of the side network: (adapter index, or
    None for a model-level tensor, name, shape) in checkpoint order. The
    scalar combine gate comes last; the checkpoint keeps it in its header."""
    h, m = config.hidden, config.bottleneck
    per_adapter = {"w_down": (h, m), "w_up": (m, h), "ln_gamma": (h,), "ln_beta": (h,)}
    for i in range(config.adapters):
        for name, shape in per_adapter.items():
            yield i, name, shape
    yield None, "head_weight", (h, config.classes)
    yield None, "head_bias", (config.classes,)
    yield None, "combine_gate", ()


class SideNetworkParams:
    """All trainable state as named views into one 1-D array `flat`, laid
    out by :func:`_layout`. Gradients and the Adam moments share the
    layout, so every whole-state operation is one vector expression.

    `flat` defaults to float32 zeros; any float dtype is accepted.
    """

    def __init__(self, config: SideConfig, flat: np.ndarray | None = None):
        size = config.param_count
        if flat is None:
            flat = np.zeros(size, dtype=np.float32)
        if flat.shape != (size,):
            raise ValueError(f"flat state of shape {flat.shape}, expected ({size},)")
        self.flat = flat
        self._views = []
        model, adapters = {}, [{} for _ in range(config.adapters)]
        off = 0
        for i, name, shape in _layout(config):
            n = math.prod(shape)
            view = flat[off:off + n].reshape(shape)
            off += n
            (model if i is None else adapters[i])[name] = view
            self._views.append((name if i is None else f"adapter{i}.{name}", view))
        self.adapters = [AdapterParams(**d) for d in adapters]
        self.head_weight = model["head_weight"]    # [H, C]
        self.head_bias = model["head_bias"]        # [C]
        self.combine_gate = model["combine_gate"]  # scalar logit, shape ()

    def named_tensors(self):
        """(name, view) pairs in layout order."""
        yield from self._views


class Workspace:
    """The buffers of a side forward and backward over [B, S] batches, and
    what the last forward left for the backward.

    It keeps no tap: each is read into `u` when an adapter needs it (see
    the module docstring). Each buffer holds, in turn, arrays that are
    never alive together:

    - u: each adapter's input u_l = s_{l-1} + tap_l, the tap read into
      it and the state added; then tap_M, read again, which the gate
      blend turns into its output z. In the backward, each adapter's
      input again, rebuilt;
    - work: the embedding tap, the side state's seed s_0; then each
      adapter's y = core + u, the layer norm's input,
      which the layer norm turns into the adapter's output s_l in place;
      in the backward, the gradient of the last adapter's output;
    - act: each adapter's activation gelu(pre), in turn; in the
      backward, the activation recomputed from pre and tanh, then the
      gradient of pre;
    - pre, tanh, xhat, inv_std: per adapter, what the backward reads.
      It then writes over an adapter's pre and tanh as it finishes with
      them, and over its x̂: first with x̂ · mean(d̂ · x̂), then with
      the state s_{l-1} that the adapter's input is rebuilt from (the
      embedding tap, read again, for the first adapter), then with the
      gradient of the adapter's input u, which is the gradient of the
      output of the adapter before;
    - grads: the gradient in the parameters' flat layout, written over by
      each backward.

    The layer norm keeps x̂ and 1/σ rather than its input, so its backward
    needs no statistic of its own; gelu keeps its tanh, from which gelu′
    takes a few passes instead of a second tanh, and the activation
    gelu's last three (:func:`sidetune.kernels.gelu_from_tanh`). A
    forward also sets `blend`, sigmoid(combine_gate), `gap`, the [B, H]
    sum over positions of tap_M − s_M (the pooling spreads one gradient
    evenly over the positions, so the gate's gradient needs no more),
    `pooled` and `logits`. The backward spends them and clears `logits`,
    so each backward needs a forward of its own.

    A caller that keeps one workspace allocates nothing batch-sized per
    step; the server builds it once per session, for the (B, S) of the
    session's Hello, before it accepts the session. `nbytes` counts every
    buffer above, not what a forward leaves in `gap`, `pooled` or `logits`,
    as :func:`workspace_bytes` counts them before any is built.
    """

    def __init__(self, config: SideConfig, batch: int, seq: int, dtype=np.float32):
        self.config = config
        self.shape = (batch, seq, config.hidden)
        for name, shape in _buffer_shapes(config, batch, seq).items():
            setattr(self, name, np.empty(shape, dtype))
        self.grads = SideNetworkParams(config, self.grads)
        self.blend = self.gap = self.pooled = self.logits = None

    @property
    def nbytes(self) -> int:
        return workspace_bytes(self.config, *self.shape[:2], self.grads.flat.dtype)


def _buffer_shapes(config: SideConfig, batch: int, seq: int) -> dict:
    """The shape of each buffer of a :class:`Workspace` over [batch, seq]
    batches, by attribute name; `grads` is the flat gradient."""
    n, h = config.adapters, config.hidden
    narrow = (n, batch, seq, config.bottleneck)
    return {"u": (batch, seq, h), "work": (batch, seq, h), "xhat": (n, batch, seq, h),
            "inv_std": (n, batch, seq), "pre": narrow, "act": narrow[1:], "tanh": narrow,
            "grads": (config.param_count,)}


def workspace_bytes(config: SideConfig, batch: int, seq: int, dtype=np.float32) -> int:
    """Bytes of the buffers of a :class:`Workspace` of these arguments, not built."""
    shapes = _buffer_shapes(config, batch, seq).values()
    return np.dtype(dtype).itemsize * sum(math.prod(shape) for shape in shapes)


def init_side(config: SideConfig, seed: int) -> SideNetworkParams:
    """Gaussian projections of mean 0 and deviation :data:`INIT_STD`,
    identity layer norms, zero head. Tensors are drawn in layout order."""
    rng = kernels.make_rng(seed)
    params = SideNetworkParams(config)
    for name, t in params.named_tensors():
        leaf = name.rpartition(".")[2]
        if leaf.startswith("w_"):
            t[...] = rng.normal(0.0, INIT_STD, size=t.shape)
        elif leaf.endswith("_gamma"):
            t[...] = 1
    return params


def copy_tap(tap: np.ndarray, out: np.ndarray) -> None:
    """The reader of float taps: a copy into `out`, the tap only read."""
    np.copyto(out, tap)


def _split_taps(taps, ws: Workspace):
    """(seed, block taps): the embedding tap that seeds the side state
    and the M taps of the adapters. `taps` holds the M + 1 taps of a
    forward; any other count, or a tap of another shape than the
    workspace's, is a configuration error."""
    m = ws.config.adapters
    if len(taps) != m + 1:
        raise ValueError(f"got {len(taps)} taps for {m} adapters (expected {m + 1})")
    if any(tuple(t.shape) != ws.shape for t in taps):
        raise ValueError(f"tap shapes {[t.shape for t in taps]}, workspace {ws.shape}")
    return taps[0], taps[1:]


def side_forward(taps, params: SideNetworkParams, ws: Workspace, read=copy_tap) -> np.ndarray:
    """Run the side stack of ``ws.config`` over the taps; returns the
    logits [B, C], and leaves in `ws` what :func:`side_backward` reads.

    `taps` holds M + 1 taps: the embedding tap, which seeds the side
    state, then one per adapter. ``read(tap, out)``
    writes a tap's values into `out`, a plane of the workspace; the
    default copies float arrays, and the server's step passes
    :func:`sidetune.quantize.dequantize` with the batch's codes. Each
    tap is read when its adapter runs, the last once more for the gate
    blend, and the taps are only read.
    """
    seed, block_taps = _split_taps(taps, ws)
    u, s = ws.u, ws.work  # s: s_0, then each adapter's y and, in place, its output
    read(seed, s)
    for l, ad in enumerate(params.adapters):
        read(block_taps[l], u)
        u += s  # u = tap_l + s_{l-1}
        pre = kernels.fast_matmul(u, ad.w_down, out=ws.pre[l])
        act = kernels.gelu(pre, out=ws.act, tanh=ws.tanh[l])
        kernels.fast_matmul(act, ad.w_up, out=s)
        s += u
        kernels.layer_norm(s, ad.ln_gamma, ad.ln_beta, kernels.LN_EPS, out=s,
                           xhat=ws.xhat[l], std=ws.inv_std[l])
        np.divide(1, ws.inv_std[l], out=ws.inv_std[l])

    blend = kernels.sigmoid(params.combine_gate)
    final_tap = u  # read again over u_M
    read(block_taps[-1], final_tap)
    ws.blend = float(blend)
    ws.gap = np.add.reduce(final_tap, axis=1) - np.add.reduce(s, axis=1)
    # z = blend * tap_M + (1 - blend) * s_M, in the plane of tap_M
    z = np.multiply(final_tap, blend, out=final_tap)
    s *= 1 - blend
    z += s
    ws.pooled = kernels.mean_pool(z)
    ws.logits = kernels.fast_matmul(ws.pooled, params.head_weight) + params.head_bias
    return ws.logits


def _layer_norm_backward(d, xhat, inv_std, gamma, grads: AdapterParams):
    """Layer norm's backward in place: `d` comes in as the gradient of
    the output and leaves as that of the input; the gradients of gamma
    and beta go into `grads`. With d̂ = d · gamma,

        dx = (d̂ - mean(d̂) - x̂ · mean(d̂ · x̂)) / σ,

    the means taken over each row. Row and column sums run in
    :func:`numpy.einsum`, as in the forward. x̂ · mean(d̂ · x̂) is formed
    in `xhat`'s own buffer, which the call spends.
    """
    h = d.shape[-1]
    dm, xm = d.reshape(-1, h), xhat.reshape(-1, h)
    np.einsum("ij,ij->j", dm, xm, out=grads.ln_gamma)
    np.einsum("ij->j", dm, out=grads.ln_beta)
    dm *= gamma
    size = d.dtype.type(h)
    mean = np.einsum("ij->i", dm)
    mean /= size
    mean_x = np.einsum("ij,ij->i", dm, xm)
    mean_x /= size
    dm -= mean[:, None]
    xm *= mean_x[:, None]
    dm -= xm
    dm *= inv_std.reshape(-1, 1)
    return d


def _activation(ws: Workspace, l: int) -> np.ndarray:
    """Adapter l's activation, recomputed into ``ws.act`` from what the
    forward kept, with the forward's own last operations
    (:func:`sidetune.kernels.gelu_from_tanh`), so bit for bit."""
    return kernels.gelu_from_tanh(ws.pre[l], ws.tanh[l], out=ws.act)


def _rebuild_input(ws: Workspace, params: SideNetworkParams, tap, seed, read, l: int):
    """Adapter l's input u_l = tap_l + s_{l-1}, rebuilt in ``ws.u`` with
    the forward's operations in the forward's order, so bit for bit. The
    state is rebuilt in x̂_l's plane, which the adapter's layer-norm
    backward has spent: s_{l-1} = x̂_{l-1} · γ + β, the last two
    operations of :func:`sidetune.kernels.layer_norm`, from the kept
    x̂_{l-1}; for the first adapter, s_0, the embedding tap `seed`, read
    again."""
    u = ws.u
    read(tap, u)
    if l:
        prev = params.adapters[l - 1]
        state = np.multiply(ws.xhat[l - 1], prev.ln_gamma, out=ws.xhat[l])
        state += prev.ln_beta
    else:
        state = ws.xhat[0]
        read(seed, state)
    u += state
    return u


def side_backward(
    ws: Workspace,
    d_logits: np.ndarray,
    params: SideNetworkParams,
    taps,
    read=copy_tap,
) -> SideNetworkParams:
    """Exact reverse pass of the forward that `ws` holds; returns
    gradients shaped like `params`.

    `taps` and `read` are the forward's: each adapter's input is rebuilt
    from the kept x̂ of the adapter before and a fresh read of its tap
    (see the module docstring), so the taps must read as they did in the
    forward. Backbone taps are treated as constants -- the gradient set
    contains only side-network tensors. Works in the workspace, writing
    over the forward's intermediates, and writes the gradients into its
    `grads`, so the next backward in it writes over them. A workspace
    that holds no forward, or one that a backward already spent, is
    refused.
    """
    if ws.logits is None:
        raise ValueError("the workspace holds no forward for a backward to read")
    if params.flat.shape != ws.grads.flat.shape or d_logits.shape != ws.logits.shape:
        raise ValueError("workspace does not match the given parameters and output grad")
    seed, block_taps = _split_taps(taps, ws)
    ws.logits = None
    grads = ws.grads  # every tensor of it is written below
    dtype = d_logits.dtype.type
    s_len = ws.shape[1]

    # head
    kernels.fast_matmul(ws.pooled.T, d_logits, out=grads.head_weight)
    d_logits.sum(axis=0, dtype=d_logits.dtype, out=grads.head_bias)
    # mean pooling spreads the gradient uniformly over positions
    d_z = kernels.fast_matmul(d_logits, params.head_weight.T)
    d_z /= dtype(s_len)

    # gate blend z = a * tap_M + (1 - a) * s_M; d_z is the same at every
    # position, so the gate's gradient needs tap_M - s_M summed over them
    a = dtype(ws.blend)
    d_blend = (d_z * ws.gap).sum(dtype=d_logits.dtype)
    grads.combine_gate[...] = d_blend * a * (1 - a)
    d_s = np.multiply(d_z[:, None, :], 1 - a, out=ws.work)

    rows = lambda t: t.reshape(-1, t.shape[-1])
    for l in reversed(range(len(params.adapters))):
        ad, g = params.adapters[l], grads.adapters[l]
        d_y = _layer_norm_backward(d_s, ws.xhat[l], ws.inv_std[l], ad.ln_gamma, g)

        # y = act @ w_up + u; act's buffer takes d_act once w_up's gradient has read it
        act = _activation(ws, l)
        kernels.fast_matmul(rows(act).T, rows(d_y), out=g.w_up)
        d_pre = kernels.fast_matmul(d_y, ad.w_up.T, out=act)
        kernels.gelu_backward(d_pre, ws.pre[l], ws.tanh[l])
        u = _rebuild_input(ws, params, block_taps[l], seed, read, l)
        kernels.fast_matmul(rows(u).T, rows(d_pre), out=g.w_down)
        if l:  # taps are constants; only s_{l-1} carries gradient, and s_0 is a tap
            d_s = kernels.fast_matmul(d_pre, ad.w_down.T, out=ws.xhat[l])  # x̂_l is spent
            d_s += d_y
    return grads


def combined_infer(
    backbone_weights: BackboneWeights,
    side_params: SideNetworkParams,
    side_config: SideConfig,
    tokens: np.ndarray,
    scheme: str = "none_fp16",
) -> np.ndarray:
    """Device-style prediction: frozen forward, quantize each tap with the
    session scheme as it is emitted, then the side stack's forward, which
    decodes each tap as the server's step does, each in a workspace built
    for the tokens' [B, S].

    Bit-identical to the logits the server computes for the same batch
    and scheme, because it is the same code path.
    """
    b, s = np.shape(tokens)
    taps = []
    ws = ForwardWorkspace(backbone_weights.config, b, s)
    forward_collect(backbone_weights, tokens, ws,
                    lambda _, t: taps.append(quantize(t, scheme, scratch=ws.wide[0])))
    return side_forward(taps, side_params, Workspace(side_config, b, s), dequantize)


def save_side(path, params: SideNetworkParams, config: SideConfig) -> None:
    """Header with the config and the combine gate, then every other
    tensor as float32 in layout order, which is `flat` minus the gate."""
    with open_binary(path, "wb") as fh:
        write_magic(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        fh.write(struct.pack(
            "<4IBf",
            config.hidden, config.bottleneck, config.adapters, config.classes,
            GELU_CODE, float(params.combine_gate),
        ))
        write_f32(fh, params.flat[:-1])


def load_side(path, config: SideConfig | None = None):
    """Load a checkpoint; returns (config, params). A provided `config`
    must agree with the stored dimensions."""
    with open_binary(path, "rb") as fh:
        expect_magic(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        h, m, n_ad, c, sigma, gate = struct.unpack("<4IBf", read_exact(fh, 21))
        if sigma != GELU_CODE:
            raise FormatError(f"unknown nonlinearity code {sigma}")
        try:
            stored = SideConfig(hidden=h, bottleneck=m, adapters=n_ad, classes=c)
        except ValueError as exc:  # a header no side network can have
            raise FormatError(f"checkpoint header: {exc}") from exc
        if config is not None and config != stored:
            raise FormatError(f"checkpoint config {stored} does not match {config}")
        params = SideNetworkParams(stored)
        params.flat[:-1] = read_f32(fh, (params.flat.size - 1,))
        params.combine_gate[...] = gate
        if fh.read(1):
            raise FormatError("trailing bytes after final tensor")
    return stored, params
