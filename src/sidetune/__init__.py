"""Server-assisted side-tuning over a one-way quantized activation stream.

A frozen GPT-style backbone runs forward-only on a device process and
streams low-bit intermediate activations to a server process, which
trains a parallel-adapter side-network against them. The uplink carries
the backbone's config, the quantized taps and the labels in clear, never
the tokens; yet a server that knows the backbone can recover the tokens
from the taps (see :mod:`sidetune.device`). The package's cost model
counts, per mode, the device buffers the code builds: the forward's
workspace (`inference`), plus two batch frames (`mobillm`), or one frame
and the side network's workspace, weights and Adam state (`side_local`).

Layout:

- :mod:`sidetune.kernels`   deterministic tensor math
- :mod:`sidetune.backbone`  frozen decoder with activation taps, weight file
- :mod:`sidetune.quantize`  fp16/fp8/fp4/nf4 activation codecs
- :mod:`sidetune.sidenet`   trainable adapter stack, forward + backward, checkpoint
- :mod:`sidetune.training`  cross-entropy, Adam, the per-batch training step
- :mod:`sidetune.wire`      framed one-way activation protocol and its byte counts
- :mod:`sidetune.transport` loopback / rate-limited / TCP byte streams
- :mod:`sidetune.device`    forward-only loop with one send thread; builds
                            every batch, for split and local runs alike
- :mod:`sidetune.server`    session handling, training loop, and local mode,
                            which reuses the device's batches and the
                            server's step
- :mod:`sidetune.costs`     device memory per mode, payload and step time
- :mod:`sidetune.cli`       the `sidetune` command; opens every TCP connection

`run_device` and `run_server` take a transport from their caller, so the
same two functions run over loopback, TCP or a rate-limited link.
"""

from .backbone import BackboneConfig, forward_collect, init_backbone, load_backbone, save_backbone
from .costs import ModelSpec, payload_per_iteration
from .device import CsvTask, DeviceConfig, SyntheticTask, load_csv_task, make_batch, run_device
from .quantize import SCHEMES
from .server import ServerConfig, local_mode, run_server
from .sidenet import SideConfig, SideNetworkParams, combined_infer, init_side, load_side, save_side
from .training import TrainState, adam_step, init_adam, loss_and_grad, train_iteration
from .wire import payload_bytes

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "CsvTask",
    "DeviceConfig",
    "ModelSpec",
    "SCHEMES",
    "ServerConfig",
    "SideConfig",
    "SideNetworkParams",
    "SyntheticTask",
    "TrainState",
    "adam_step",
    "combined_infer",
    "forward_collect",
    "init_adam",
    "init_backbone",
    "init_side",
    "load_backbone",
    "load_csv_task",
    "load_side",
    "local_mode",
    "loss_and_grad",
    "make_batch",
    "payload_bytes",
    "payload_per_iteration",
    "run_device",
    "run_server",
    "save_backbone",
    "save_side",
    "train_iteration",
]
