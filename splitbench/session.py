"""Run one split-training session as two OS processes over TCP.

The parent process binds a listening socket on 127.0.0.1, hands it to
the server role, tells the device role the port, and starts both at
once. It waits for each with ``os.wait4`` to get its peak RSS, and kills
both if the session outlives its deadline.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import metrics
from tracing import now

HERE = os.path.dirname(os.path.abspath(__file__))
ROLE = os.path.join(HERE, "role.py")

# Every role runs its BLAS single-threaded: two busy roles on two CPUs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def role_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def role_cpus() -> dict | None:
    """One CPU of its own for each role, when there are two to give."""
    cpus = sorted(os.sched_getaffinity(0))
    return {"device": cpus[0], "server": cpus[1]} if len(cpus) >= 2 else None


@dataclass
class Session:
    """What one session left behind, plus the problems found in it."""

    mode: str  # "off", "spans" or "memory"; see role.py
    workdir: str
    t_spawn: float = 0.0
    device: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    rss_kib: dict = field(default_factory=dict)  # role -> ru_maxrss
    exit_codes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def checkpoint(self) -> str:
        return os.path.join(self.workdir, "side.ckpt")

    def spans_path(self, role: str) -> str:
        return os.path.join(self.workdir, f"{role}.spans.jsonl")

    def spans(self, role: str) -> list[dict]:
        with open(self.spans_path(role)) as fh:
            return [json.loads(line) for line in fh]

    @property
    def losses(self) -> list:
        return self.server.get("report", {}).get("losses", [])

    @property
    def setup_s(self) -> float:
        return self.device["t_first_forward"] - self.t_spawn

    def completions(self) -> list[float]:
        return [s[2] for s in self.server["steps"] if s[3]]

    def device_cpu_gaps(self) -> list[float]:
        """Device CPU from each forward_collect call to the next one.

        The first forward is warm-up and the last one's interval runs into
        shutdown, so neither counts.
        """
        return metrics.cpu_gaps([cpu for _, cpu in self.device["forwards"][1:]])

    def server_cpu_gaps(self) -> list[float]:
        """Server CPU between consecutive step completions: the wall window's steps."""
        done = sorted((s[2], s[4]) for s in self.server["steps"] if s[3])
        return metrics.cpu_gaps([cpu for _, cpu in done])


def _wait(procs: dict, deadline: float, session: Session) -> None:
    """Reap every role; kill the rest once `deadline` passes."""
    pending = dict(procs)
    while pending:
        for role, proc in list(pending.items()):
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                session.exit_codes[role] = proc.returncode
                session.rss_kib[role] = usage.ru_maxrss
                del pending[role]
        if pending and now() > deadline:
            session.problems.append(f"session passed its deadline; killed {sorted(pending)}")
            for proc in pending.values():
                proc.send_signal(signal.SIGKILL)
            deadline = float("inf")
        if pending:
            time.sleep(0.02)


def run_session(workload: dict, seed: int, expected_steps: int, frame_bytes: int,
                mode: str, workdir: str, src: str, deadline: float) -> Session:
    """One session: spawn both roles, wait, read and check their results.

    The roles import the program from `src`. `expected_steps` steps must
    train, and the device must send exactly `frame_bytes` per step.
    """
    os.makedirs(workdir)
    session = Session(mode=mode, workdir=workdir)
    spec = {
        "workload": workload, "seed": seed, "mode": mode, "cpus": role_cpus(),
        "checkpoint": session.checkpoint,
        "device_result": os.path.join(workdir, "device.json"),
        "server_result": os.path.join(workdir, "server.json"),
        "device_spans": session.spans_path("device"),
        "server_spans": session.spans_path("server"),
    }
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    env = role_env(src)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    procs = {}
    with open(os.path.join(workdir, "roles.log"), "w") as log:
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            fd = listener.fileno()
            session.t_spawn = now()
            procs["server"] = subprocess.Popen(
                [sys.executable, ROLE, "server", spec_path, "--listen-fd", str(fd)],
                pass_fds=(fd,), env=env, stdout=log, stderr=subprocess.STDOUT)
            procs["device"] = subprocess.Popen(
                [sys.executable, ROLE, "device", spec_path, "--port", str(port)],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        finally:
            listener.close()
            _wait(procs, deadline, session)

    for role in ("device", "server"):
        try:
            with open(spec[f"{role}_result"]) as fh:
                setattr(session, role, json.load(fh))
        except (OSError, ValueError):
            session.problems.append(f"{role} wrote no result")
            continue
        if session.exit_codes.get(role) != 0:
            session.problems.append(f"{role} exited with {session.exit_codes.get(role)}")
        if "error" in getattr(session, role):
            session.problems.append(f"{role} failed: {getattr(session, role)['error']}")
    if session.ok:
        _check(session, expected_steps, frame_bytes)
    return session


def _check(session: Session, steps: int, frame_bytes: int) -> None:
    dev, srv = session.device["report"], session.server["report"]
    problems = session.problems
    if srv["rejected"] is not None:
        problems.append(f"server rejected the session (status {srv['rejected']})")
    if not srv["clean_shutdown"]:
        problems.append("server did not shut down cleanly")
    if dev["aborted"]:
        problems.append("device aborted")
    if srv["dropped"]:
        problems.append(f"server dropped {srv['dropped']} batches")
    if srv["iterations"] != steps or len(session.completions()) != steps:
        problems.append(f"server trained {srv['iterations']} of {steps} steps")
    if dev["iterations"] != steps:
        problems.append(f"device sent {dev['iterations']} of {steps} batches")
    if dev["bytes_sent"] != steps * frame_bytes:
        problems.append(f"device sent {dev['bytes_sent']} bytes, expected "
                        f"{steps} x {frame_bytes}")
    if "t_first_forward" not in session.device:
        problems.append("device never called forward_collect")
