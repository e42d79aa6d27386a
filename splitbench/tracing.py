"""Spans around the program's entry points, recorded from outside it.

A :class:`Tracer` replaces a function with a timing wrapper at the place
its caller looks it up (a module attribute, a class attribute or an
instance attribute), so the program runs unchanged. Spans stay in memory
as tuples and are written once, when the role exits.

Each span carries the batch it belongs to. The wrappers that start a
batch's work (``make_batch``, ``encode``, ``train_iteration``) set the
current batch of their thread; every span on that thread inherits it
until the next one. Work that belongs to no batch gets -1.
"""

from __future__ import annotations

import json
import threading
import time

NO_BATCH = -1


def now() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []  # (thread, batch_id, layer, t_start, dur_ms, n)
        self.counters: dict[str, int] = {}
        self._local = threading.local()

    def wrap(self, owner, attr: str, layer: str, *, batch_in=None, batch_out=None,
             size=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span named `layer`.

        batch_in(*args) names the batch a call starts (None keeps the
        current one); batch_out(result) names the batch a call produced
        without changing the thread's current batch; size(args, result)
        gives the span a byte or item count; after(args, result) runs
        once the span is recorded.
        """
        inner = getattr(owner, attr)
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            if batch_in is not None:
                local.batch = batch_in(*args)
            t0 = now()
            result = inner(*args, **kwargs)
            t1 = now()
            batch = getattr(local, "batch", NO_BATCH)
            if batch_out is not None:
                produced = batch_out(result)
                batch = batch if produced is None else produced
            n = size(args, result) if size is not None else None
            spans.append((threading.get_ident(), batch, layer, t0, (t1 - t0) * 1e3, n))
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for thread, batch, layer, t0, dur_ms, n in self.spans:
                fh.write(json.dumps({
                    "role": self.role, "thread": thread, "batch_id": batch,
                    "layer": layer, "t_start": t0, "dur_ms": dur_ms, "n": n,
                }) + "\n")


def _batch_of_message(msg):
    return getattr(msg, "batch_id", NO_BATCH)


def _last_batch(messages):
    ids = [m.batch_id for m in messages if hasattr(m, "batch_id")]
    return ids[-1] if ids else None


def _wrap_kernels(tracer: Tracer, names) -> None:
    from sidetune import kernels

    for name in names:
        tracer.wrap(kernels, name, f"kernels.{name}")


def _wrap_transport(tracer: Tracer, transport) -> None:
    tracer.wrap(transport, "send", "transport.send", size=lambda a, r: len(a[0]))
    tracer.wrap(transport, "recv", "transport.recv", size=lambda a, r: len(r))


def install_device(tracer: Tracer, transport) -> None:
    """Trace the device: sampling, backbone, kernels, codec, framing, sends."""
    from sidetune import backbone, device

    tracer.wrap(device, "make_batch", "device.make_batch", batch_in=lambda task, i, b: i)
    tracer.wrap(device, "forward_collect", "backbone.forward")
    tracer.wrap(backbone, "layer_forward", "backbone.layer")
    # the one private boundary: the attention half of each layer
    tracer.wrap(backbone, "_self_attention", "backbone.attn")
    _wrap_kernels(tracer, ("matmul", "batched_matmul", "softmax_rows", "layer_norm"))
    tracer.wrap(device, "quantize", "quantize.quantize",
                size=lambda a, r: len(r.codes))
    tracer.wrap(device, "encode", "wire.encode",
                batch_in=_batch_of_message, size=lambda a, r: len(r))
    _wrap_transport(tracer, transport)


def install_server(tracer: Tracer, transport) -> None:
    """Trace the server: framing, decode, codec, side network, loss, Adam."""
    from sidetune import server, training, wire

    tracer.wrap(server, "train_iteration", "server.step",
                batch_in=lambda state, batch: batch.batch_id)
    tracer.wrap(training, "dequantize", "quantize.dequantize")
    tracer.wrap(training, "side_forward", "sidenet.forward")
    tracer.wrap(training, "side_backward", "sidenet.backward")
    tracer.wrap(training, "loss_and_grad", "training.loss")
    tracer.wrap(training, "adam_step", "training.adam")
    _wrap_kernels(tracer, ("matmul", "layer_norm", "mean_pool", "softmax_rows"))

    def count_skipped(args, result):
        decoder = args[0]
        tracer.counters["frames_skipped"] = max(
            tracer.counters.get("frames_skipped", 0), decoder.skipped)

    tracer.wrap(wire.StreamDecoder, "feed", "wire.decode", batch_out=_last_batch,
                size=lambda a, r: len(a[1]), after=count_skipped)
    _wrap_transport(tracer, transport)
