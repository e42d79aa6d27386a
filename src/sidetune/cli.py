"""Single entry point: one subcommand per runtime or diagnostic.

    sidetune server    --listen :9000 --bottleneck 16 --lr 5e-4 ...
    sidetune device    --server HOST:PORT --scheme nf4 --rate-mbps 10 ...
    sidetune local     --scheme fp16 --iters 500 --ckpt side.bin ...
    sidetune gradcheck
    sidetune estimate  --preset opt350m --mode mobillm --scheme nf4

`server` and `device` talk over TCP; this module is the one place that
opens those connections. `local` runs the same batch and training code in
one process with no connection at all.

Every setting is a flag; `sidetune COMMAND --help` lists each with its
default. Exit codes: 0 success, 1 configuration/usage error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import costs
from .backbone import BackboneConfig
from .device import DeviceConfig, SyntheticTask, load_csv_task, run_device
from .server import ServerConfig, local_mode, run_server
from .sidenet import save_side
from .transport import RateLimitedTransport, TcpTransport, tcp_listen_one
from .wire import ACK_REASONS, HandshakeError

SCHEME_ALIASES = {"fp16": "none_fp16", "fp8": "fp8_e4m3", "fp4": "fp4_grid", "nf4": "nf4"}

GRADCHECK_TOLERANCE = 1e-5


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors (exit 1, not argparse's 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_cuts(spec: str, layers: int) -> tuple[int, ...]:
    if spec.startswith("uniform:"):
        m = int(spec.split(":", 1)[1])
        if not 1 <= m <= layers:
            raise ValueError(f"uniform cut count must be in [1, {layers}]")
        cuts = tuple(round(layers * (i + 1) / m) for i in range(m))
        if len(set(cuts)) != m:
            raise ValueError(f"{m} uniform cuts collide over {layers} layers")
        return cuts
    return tuple(int(c) for c in spec.split(","))


def _add_backbone_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("backbone")
    g.add_argument("--vocab", type=int, default=16, help="vocabulary size")
    g.add_argument("--hidden", type=int, default=32, help="hidden width H")
    g.add_argument("--layers", type=int, default=4, help="decoder layer count L")
    g.add_argument("--heads", type=int, default=4, help="attention heads")
    g.add_argument("--max-seq", type=int, default=256, help="positional table size")
    g.add_argument("--cuts", default="uniform:4",
                   help="tap layout: uniform:M or comma list of layer indices")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    # only the commands that run the forward read the frozen weights
    g = p.add_argument_group("backbone weights")
    g.add_argument("--backbone-seed", type=int, default=7,
                   help="seed for the frozen random weights")
    g.add_argument("--backbone", default="", help="weight file path (overrides seed init)")


def _backbone_from_args(args) -> BackboneConfig:
    return BackboneConfig(
        vocab_size=args.vocab, hidden=args.hidden, layers=args.layers,
        heads=args.heads, max_seq=args.max_seq, block_cuts=_parse_cuts(args.cuts, args.layers),
    )


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("task and schedule")
    g.add_argument("--task", default="synth",
                   help="synth or csv:PATH (token-id columns plus a label)")
    g.add_argument("--scheme", default="fp16", choices=sorted(SCHEME_ALIASES),
                   help="activation quantization scheme")
    g.add_argument("--batch", type=int, default=16, help="mini-batch size")
    g.add_argument("--seq", type=int, default=255,
                   help="sequence length (synthetic task needs it odd)")
    g.add_argument("--epochs", type=int, default=20, help="passes over the data")
    g.add_argument("--samples", type=int, default=256,
                   help="synthetic samples per epoch")
    g.add_argument("--iters", type=int, default=0,
                   help="total iterations (overrides epochs when nonzero)")
    g.add_argument("--seed", type=int, default=0, help="task sampling seed")


def _task_from_args(args):
    if args.task == "synth":
        return SyntheticTask(vocab_size=args.vocab, seq_len=args.seq, seed=args.seed)
    if args.task.startswith("csv:"):
        return load_csv_task(args.task[4:])
    raise ValueError(f"unknown task {args.task!r} (expected synth or csv:PATH)")


def _device_config_from_args(args, **extra) -> DeviceConfig:
    return DeviceConfig(
        backbone=_backbone_from_args(args),
        task=_task_from_args(args),
        backbone_seed=args.backbone_seed,
        backbone_path=args.backbone or None,
        scheme=SCHEME_ALIASES[args.scheme],
        batch_size=args.batch,
        epochs=args.epochs,
        samples_per_epoch=args.samples,
        iterations=args.iters,
        **extra,
    )


def _add_side_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("side network and optimizer")
    g.add_argument("--bottleneck", type=int, default=16,
                   help="adapter bottleneck width m")
    g.add_argument("--classes", type=int, default=2, help="head outputs")
    g.add_argument("--side-seed", type=int, default=1, help="side init seed")
    g.add_argument("--lr", type=float, default=5e-4, help="Adam learning rate")
    g.add_argument("--ckpt", default="", help="final checkpoint path")
    g.add_argument("--metrics", default="", help="metrics JSONL path")


def _server_config_from_args(args, **extra) -> ServerConfig:
    return ServerConfig(
        backbone=_backbone_from_args(args),
        bottleneck=args.bottleneck,
        classes=args.classes,
        side_seed=args.side_seed,
        lr=args.lr,
        checkpoint_path=args.ckpt or None,
        metrics_path=args.metrics or None,
        **extra,
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sidetune",
        description="Server-assisted side-tuning over a one-way activation stream.",
    )
    sub = parser.add_subparsers(dest="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("server", formatter_class=fmt,
                       help="train side-networks for one incoming session")
    p.add_argument("--listen", default=":9000", help="bind address host:port")
    _add_backbone_flags(p)
    _add_side_flags(p)

    p = sub.add_parser("device", formatter_class=fmt,
                       help="stream quantized activations to a server")
    p.add_argument("--server", default="127.0.0.1:9000", help="server host:port")
    p.add_argument("--serial", action="store_true",
                   help="disable overlap; wait for a per-iteration server ack")
    p.add_argument("--fetch", default="", metavar="PATH",
                   help="fetch the trained side network before disconnecting and save it here")
    p.add_argument("--rate-mbps", type=float, default=0.0,
                   help="throttle the uplink to this rate (0 = unlimited)")
    p.add_argument("--log", default="", help="device timing JSONL path")
    _add_backbone_flags(p)
    _add_weight_flags(p)
    _add_task_flags(p)

    p = sub.add_parser("local", formatter_class=fmt,
                       help="run the identical pipeline in one process")
    _add_backbone_flags(p)
    _add_weight_flags(p)
    _add_task_flags(p)
    _add_side_flags(p)

    p = sub.add_parser("gradcheck", formatter_class=fmt,
                       help="analytic backward vs central finite differences")
    p.add_argument("--seeds", type=int, default=5, help="number of random configs")
    p.add_argument("--step", type=float, default=1e-6, help="finite-difference step")

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="print a memory/payload cost report as JSON")
    p.add_argument("--preset", default="opt350m",
                   help="opt350m, opt1.3b, or custom")
    p.add_argument("--mode", default="mobillm", choices=costs.MODES)
    p.add_argument("--scheme", default="fp16", choices=sorted(SCHEME_ALIASES))
    p.add_argument("--params", type=int, default=0, help="custom: parameter count")
    p.add_argument("--layers", type=int, default=24, help="custom: layer count")
    p.add_argument("--hidden", type=int, default=1024, help="custom: hidden width")
    p.add_argument("--heads", type=int, default=16, help="custom: heads")
    p.add_argument("--batch", type=int, default=16, help="batch size")
    p.add_argument("--seq", type=int, default=256, help="sequence length")
    p.add_argument("--dtype-bytes", type=int, default=2, help="2 or 4")
    p.add_argument("--gamma", type=int, default=0, help="taps (0 = one per layer)")
    p.add_argument("--bottleneck", type=int, default=16,
                   help="side_local: adapter bottleneck width m of the side network")
    p.add_argument("--rate-mbps", type=float, default=0.0,
                   help="uplink rate; adds an iteration-time estimate")
    p.add_argument("--t-fwd", type=float, default=0.0, help="device forward seconds")
    p.add_argument("--t-server", type=float, default=0.0, help="server step seconds")
    return parser


def _host_port(addr: str, default_host: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host or default_host, int(port)


def _summary(report) -> str:
    """Iterations, refused batches by reason, and the last step's loss and accuracy."""
    refused = ", ".join(f"{n} {reason}" for reason, n in sorted(report.invalid.items()))
    line = f"{report.iterations} iterations, refused {refused or 'none'}"
    if report.metrics:
        last = report.metrics[-1]
        line += f"; final loss {last.loss:.6f}, final batch acc {last.acc:.3f}"
    return line


def _cmd_server(args) -> int:
    config = _server_config_from_args(args)
    transport, _ = tcp_listen_one(*_host_port(args.listen, "0.0.0.0"))
    try:
        report = run_server(config, transport)
    finally:
        transport.close()
    if report.rejected is not None:
        print(f"session rejected: {ACK_REASONS[report.rejected]}")
        return 2
    print(f"trained {_summary(report)}")
    return 0 if report.clean_shutdown else 2


def _rate_bps(args) -> float:
    """--rate-mbps in bit/s: 0 means no rate, and one below 0 is refused."""
    if not 0 <= args.rate_mbps < np.inf:
        raise ValueError(f"--rate-mbps {args.rate_mbps} must be non-negative and finite")
    return args.rate_mbps * 1e6


def _cmd_device(args) -> int:
    rate_bps = _rate_bps(args)
    config = _device_config_from_args(
        args, serial=args.serial, fetch_checkpoint=bool(args.fetch), log_path=args.log or None,
    )
    transport = TcpTransport.connect(*_host_port(args.server, "127.0.0.1"),
                                     timeout=config.timeout_s)
    if rate_bps:
        transport = RateLimitedTransport(transport, rate_bps)
    try:
        report = run_device(config, transport)
    finally:
        transport.close()
    print(f"sent {report.iterations} batches, {report.bytes_sent} bytes "
          f"in {report.wall_s:.4f}s")
    if report.fetched_checkpoint:
        side_config, params = report.fetched_checkpoint
        save_side(args.fetch, params, side_config)
    return 2 if report.aborted else 0


def _cmd_local(args) -> int:
    report = local_mode(_device_config_from_args(args), _server_config_from_args(args))
    print(f"local run: {_summary(report)}")
    return 0 if report.metrics else 2


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    worst = run_gradcheck(seeds=args.seeds, step=args.step)
    print(f"max relative error over {args.seeds} configs: {worst:.3e}")
    if worst < GRADCHECK_TOLERANCE:
        print(f"PASS (< {GRADCHECK_TOLERANCE:g})")
        return 0
    print(f"FAIL (>= {GRADCHECK_TOLERANCE:g})")
    return 2


def _cmd_estimate(args) -> int:
    scheme = SCHEME_ALIASES[args.scheme]
    rate_bps = _rate_bps(args)
    shape = dict(batch_size=args.batch, seq_len=args.seq, dtype_bytes=args.dtype_bytes,
                 gamma=args.gamma, bottleneck=args.bottleneck)
    if args.preset == "custom":
        if not args.params:
            raise ValueError("custom preset needs --params")
        spec = costs.ModelSpec(params=args.params, layers=args.layers, hidden=args.hidden,
                               heads=args.heads, **shape)
    else:
        spec = costs.preset_spec(args.preset, **shape)
    report = costs.device_memory_estimate(spec, args.mode, scheme)
    if rate_bps:
        est = costs.iteration_time_estimate(
            args.t_fwd, report.payload_bytes_per_iter, rate_bps, args.t_server,
        )
        report = dataclasses.replace(report, est_iter_time_s=est)
    print(report.to_json())
    return 0


_COMMANDS = {
    "server": _cmd_server,
    "device": _cmd_device,
    "local": _cmd_local,
    "gradcheck": _cmd_gradcheck,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        print("sidetune: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, HandshakeError) as exc:
        print(f"sidetune: configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # transport drops, bad files, numeric faults
        print(f"sidetune: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
