"""One role of a benchmark session, run as its own OS process.

    python3 splitbench/role.py server SPEC --listen-fd FD
    python3 splitbench/role.py device SPEC --port PORT

SPEC is a JSON file written by session.py. The server accepts one
connection on an inherited listening socket, the device connects to it
on 127.0.0.1, and each calls the public ``run_server`` / ``run_device``
with a ``TcpTransport`` (wrapped in ``RateLimitedTransport`` on the
device when the workload throttles the uplink). The role writes its
result as JSON next to SPEC. The spec's mode picks what else it records:
"off" nothing, "spans" a span around each traced entry point (written at
exit), "memory" the tracemalloc peak. Spans and tracemalloc never share
a session, because tracemalloc slows every allocation the spans time.

When the machine has two CPUs to give, each role pins itself to its own
one, as if device and server were separate machines.

Both roles always record a few stamps on the system-wide monotonic clock:
each device call into ``forward_collect`` (the first ends set-up) and
the start and end of each server ``train_iteration``. Each device stamp,
and the end of each server step, also carries the role's CPU time, so CPU
is taken over the session only and interpreter start-up is excluded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import socket
import sys
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer, install_device, install_server, now  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_device(spec: dict, port: int, out: dict, tracer: Tracer | None) -> None:
    from sidetune import device
    from sidetune.transport import RateLimitedTransport, TcpTransport

    import workloads

    w = workloads.from_json(spec["workload"])
    config = workloads.device_config(w, spec["seed"])
    forward = device.forward_collect
    forwards = out["forwards"] = []  # [t, cpu] at each call

    def stamped(*args, **kwargs):
        forwards.append([now(), cpu_seconds()])
        if len(forwards) == 1:
            out["t_first_forward"], out["cpu_first_forward"] = forwards[0]
        return forward(*args, **kwargs)

    device.forward_collect = stamped

    transport = TcpTransport.connect("127.0.0.1", port, timeout=workloads.TIMEOUT_S)
    if w.rate_bps:
        transport = RateLimitedTransport(transport, w.rate_bps)
    if tracer is not None:
        install_device(tracer, transport)
    try:
        report = device.run_device(config, transport)
    finally:
        transport.close()
    out["t_end"] = now()
    out["cpu_end"] = cpu_seconds()
    out["report"] = {
        "iterations": report.iterations, "bytes_sent": report.bytes_sent,
        "max_queued_bytes": report.max_queued_bytes, "aborted": report.aborted,
        "wall_s": report.wall_s, "entries": report.entries,
    }


def _run_server(spec: dict, listen_fd: int, out: dict, tracer: Tracer | None) -> None:
    from sidetune import server
    from sidetune.transport import TcpTransport

    import workloads

    w = workloads.from_json(spec["workload"])
    config = workloads.server_config(w, checkpoint_path=spec["checkpoint"])
    step = server.train_iteration
    steps = out["steps"] = []

    def stamped(state, batch):
        t0 = now()
        metrics = step(state, batch)
        steps.append([batch.batch_id, t0, now(), metrics is not None, cpu_seconds()])
        return metrics

    server.train_iteration = stamped

    listener = socket.socket(fileno=listen_fd)
    listener.settimeout(workloads.TIMEOUT_S)
    try:
        conn, _ = listener.accept()
    finally:
        listener.close()
    conn.settimeout(None)
    out["t_accept"] = now()
    out["cpu_accept"] = cpu_seconds()
    transport = TcpTransport(conn)
    if tracer is not None:
        install_server(tracer, transport)
    try:
        report = server.run_server(config, transport)
    finally:
        transport.close()
    out["t_end"] = now()
    out["cpu_end"] = cpu_seconds()
    out["report"] = {
        "iterations": report.iterations, "dropped": report.dropped,
        "losses": report.losses, "clean_shutdown": report.clean_shutdown,
        "rejected": report.rejected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=["device", "server"])
    parser.add_argument("spec")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--listen-fd", type=int, default=-1)
    args = parser.parse_args(argv)

    with open(args.spec) as fh:
        spec = json.load(fh)
    if spec["cpus"]:
        os.sched_setaffinity(0, {spec["cpus"][args.role]})
    import workloads  # noqa: F401  (imports the program before any tracing starts)

    mode = spec["mode"]
    tracer = Tracer(args.role) if mode == "spans" else None
    if mode == "memory":
        tracemalloc.start()
    out: dict = {"role": args.role}
    code = 0
    try:
        if args.role == "device":
            _run_device(spec, args.port, out, tracer)
        else:
            _run_server(spec, args.listen_fd, out, tracer)
    except Exception:  # reported in the result; the session then fails
        out["error"] = traceback.format_exc()
        code = 1
    if mode == "memory":
        out["traced_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if tracer is not None:
        out["counters"] = tracer.counters
        tracer.write(spec[f"{args.role}_spans"])
    with open(spec[f"{args.role}_result"], "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
