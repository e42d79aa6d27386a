"""Server-assisted side-tuning over a one-way quantized activation stream.

A frozen GPT-style backbone runs forward-only on a device process and
streams low-bit intermediate activations to a server process, which
trains a parallel-adapter side-network against them. The package also
ships the analytic cost model that accounts for the memory and payload
savings of the arrangement.

Layout:

- :mod:`sidetune.kernels`   deterministic tensor math
- :mod:`sidetune.backbone`  frozen decoder with activation taps, weight file
- :mod:`sidetune.quantize`  fp16/fp8/fp4/nf4 activation codecs
- :mod:`sidetune.sidenet`   trainable adapter stack, forward + backward, checkpoint
- :mod:`sidetune.training`  losses, Adam, the per-batch training step
- :mod:`sidetune.wire`      framed one-way activation protocol and its byte counts
- :mod:`sidetune.transport` loopback / rate-limited / TCP byte streams
- :mod:`sidetune.device`    forward-only loop with one send thread; builds
                            every batch, for split and local runs alike
- :mod:`sidetune.server`    session handling, training loop, and local mode,
                            which reuses the device's batches and the
                            server's step
- :mod:`sidetune.costs`     closed-form memory and payload estimates
- :mod:`sidetune.cli`       the `sidetune` command; opens every TCP connection

`run_device` and `run_server` take a transport from their caller, so the
same two functions run over loopback, TCP or a rate-limited link.
"""

from .backbone import (
    BackboneConfig,
    BackboneWeights,
    forward_collect,
    init_backbone,
    layer_forward,
    load_backbone,
    save_backbone,
)
from .costs import (
    CostReport,
    ModelSpec,
    device_memory_estimate,
    iteration_time_estimate,
    payload_per_iteration,
    preset_spec,
)
from .device import CsvTask, DeviceConfig, SyntheticTask, load_csv_task, make_batch, run_device
from .quantize import (
    QuantizedActivation,
    SCHEMES,
    dequantize,
    nf4_codebook,
    quantize,
)
from .server import ServerConfig, ServerReport, local_mode, run_server
from .sidenet import (
    AdapterParams,
    SideConfig,
    SideNetworkParams,
    combined_infer,
    init_side,
    load_side,
    save_side,
    side_backward,
    side_forward,
)
from .training import AdamState, IterationMetrics, TrainState, adam_step, init_adam, loss_and_grad, train_iteration
from .wire import payload_bytes

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AdapterParams",
    "BackboneConfig",
    "BackboneWeights",
    "CostReport",
    "CsvTask",
    "DeviceConfig",
    "IterationMetrics",
    "ModelSpec",
    "QuantizedActivation",
    "SCHEMES",
    "ServerConfig",
    "ServerReport",
    "SideConfig",
    "SideNetworkParams",
    "SyntheticTask",
    "TrainState",
    "adam_step",
    "combined_infer",
    "dequantize",
    "device_memory_estimate",
    "forward_collect",
    "init_adam",
    "init_backbone",
    "init_side",
    "iteration_time_estimate",
    "layer_forward",
    "load_backbone",
    "load_csv_task",
    "load_side",
    "local_mode",
    "loss_and_grad",
    "make_batch",
    "nf4_codebook",
    "payload_bytes",
    "payload_per_iteration",
    "preset_spec",
    "quantize",
    "run_device",
    "run_server",
    "save_backbone",
    "save_side",
    "side_backward",
    "side_forward",
    "train_iteration",
]
