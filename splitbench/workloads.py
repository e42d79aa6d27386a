"""The benchmark's model and its three traffic shapes.

Every workload trains the same side network over the same frozen
backbone; they differ only in batch shape, codec and uplink rate. The
task seed comes from the command line and reaches the program only as
generated batches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from sidetune import BackboneConfig, DeviceConfig, ServerConfig, SyntheticTask

LR = 5e-3
BACKBONE_SEED = 7
SIDE_SEED = 1
QUEUE_DEPTH = 4
TIMEOUT_S = 30.0

# Held-out batches come from this task seed. Training seeds must stay
# below it, so the two sets never share a sampling stream.
HELDOUT_SEED = 2**32
MAX_TRAIN_SEED = HELDOUT_SEED - 1

# Steps of local_mode compared against each split run, bit for bit.
LOCAL_CHECK_STEPS = 2


@dataclass(frozen=True)
class Model:
    """The shared model: 4 layers, 4 heads, H=32, cuts uniform:4 plus the
    embedding tap (5 taps), bottleneck 16, 2 classes, gelu adapters."""

    vocab: int = 16
    hidden: int = 32
    layers: int = 4
    heads: int = 4
    max_seq: int = 256
    cuts: tuple[int, ...] = (1, 2, 3, 4)
    bottleneck: int = 16
    classes: int = 2
    sigma: str = "gelu"


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int
    seq: int
    scheme: str
    steps: int             # server steps per session, fixed so losses repeat
    heldout_batches: int   # held-out batches of the workload's own shape
    rate_bps: float = 0.0  # device uplink rate; 0 leaves TCP unthrottled
    model: Model = Model()


WORKLOADS = {
    w.name: w
    for w in (
        # attention makes the device forward the bottleneck: backbone and
        # kernel gains show here
        Workload("long_seq", batch=16, seq=255, scheme="nf4", steps=6, heldout_batches=1),
        # long_seq's tokens with little attention: the server step nears the
        # device's, and the fp16 frames are the largest. Run by hand only:
        # BENCHMARK.json leaves it out so the other two get longer runs.
        Workload("short_seq", batch=272, seq=15, scheme="none_fp16", steps=12,
                 heldout_batches=1),
        # the 1 Mbps link is the bottleneck and the device queue fills:
        # payload, codec and overlap changes show here
        Workload("slow_uplink", batch=16, seq=63, scheme="nf4", steps=9, heldout_batches=4,
                 rate_bps=1e6),
    )
}


def backbone_config(m: Model) -> BackboneConfig:
    return BackboneConfig(vocab_size=m.vocab, hidden=m.hidden, layers=m.layers,
                          heads=m.heads, max_seq=m.max_seq, block_cuts=m.cuts,
                          tap_embedding=True)


def task(w: Workload, seed: int) -> SyntheticTask:
    return SyntheticTask(vocab_size=w.model.vocab, seq_len=w.seq, seed=seed)


def device_config(w: Workload, seed: int, steps: int | None = None) -> DeviceConfig:
    return DeviceConfig(
        backbone=backbone_config(w.model), task=task(w, seed), backbone_seed=BACKBONE_SEED,
        scheme=w.scheme, batch_size=w.batch, iterations=steps or w.steps,
        queue_depth=QUEUE_DEPTH, timeout_s=TIMEOUT_S,
    )


def server_config(w: Workload, checkpoint_path: str | None = None) -> ServerConfig:
    m = w.model
    return ServerConfig(
        backbone=backbone_config(m), bottleneck=m.bottleneck, classes=m.classes,
        nonlinearity=m.sigma, side_seed=SIDE_SEED, lr=LR, queue_depth=QUEUE_DEPTH,
        checkpoint_path=checkpoint_path, timeout_s=TIMEOUT_S,
    )


def to_json(w: Workload) -> dict:
    return asdict(w)


def from_json(d: dict) -> Workload:
    model = dict(d["model"], cuts=tuple(d["model"]["cuts"]))
    return Workload(**dict(d, model=Model(**model)))
