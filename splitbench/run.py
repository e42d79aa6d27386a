"""Split-training benchmark: a device and a server process over TCP.

    python3 splitbench/run.py --workload long_seq --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each run repeats one training
session -- the same workload, the same seed, so the same losses -- until
one more would overrun `--seconds`. With `--trace 0` all sessions are
untraced, at least three of them. With `--trace 1` the sessions go
untraced, traced with spans, traced with tracemalloc, and then alternate
untraced and span-traced while time is left. Every session spawns a device and a
server role (see ``role.py``). Afterwards the run checks the outputs:

* every configured step trained, the server shut down cleanly, the
  device did not abort, no batch was dropped;
* the loss trajectory and checkpoint are bit-identical across sessions;
* each step's uplink frame is ``costs.payload_per_iteration`` + 30 bytes;
* ``local_mode`` on the same config and seed reproduces the first
  LOCAL_CHECK_STEPS losses bit for bit.

Then it evaluates the checkpoint on a held-out set and prints every
metric with its unit, writes a result file with provenance under
``splitbench/out/``, and ends with one JSON line. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
the per-layer ones from the traced sessions. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import metrics
import provenance
from session import BLAS_ENV, BLAS_THREADS, now, run_session

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_SESSIONS = 3  # set-up time is the median of this many set-ups at least
RUN_DEADLINE_S = 150.0  # sessions still running then are killed and fail
FRAME_OVERHEAD = 30  # frame header and crc 16, batch id 8, label count 4, tap count 2


def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="training task seed")
    p.add_argument("--seconds", type=float, required=True, help="time spent in sessions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sidetune", "__init__.py")):
        print(f"no sidetune package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # pin this process's BLAS as the roles' before numpy loads
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed <= workloads.MAX_TRAIN_SEED:
        print(f"seed must be in [0, {workloads.MAX_TRAIN_SEED}]", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = benchmark(w, args.seed, args.seconds, bool(args.trace), tag)

    names = result["metric_order"]
    for name in names:
        m = result["metrics"][name]
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for line in result["notes"]:
        print(line)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    return 0 if result["correct"] else 1


def benchmark(w, seed: int, seconds: float, trace: bool, tag: str) -> dict:
    """Run the sessions and checks of one invocation; return its result."""
    import workloads

    facts_before = provenance.machine_facts()
    frame_bytes = expected_frame_bytes(w)
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)

    start = now()
    deadline = start + RUN_DEADLINE_S
    sessions = []

    def run(mode: str) -> float:
        sessions.append(run_session(
            workloads.to_json(w), seed, w.steps, frame_bytes, mode,
            os.path.join(rundir, f"session{len(sessions)}"), SRC, deadline))
        return now() - sessions[-1].t_spawn

    # a further session starts only if one more like the last still fits
    plan = ["off", "spans", "memory"] if trace else ["off"] * MIN_SESSIONS
    last = 0.0
    while plan or now() - start + last <= seconds:
        if plan:
            last = run(plan.pop(0))
        else:
            last = run("spans" if trace and sessions[-1].mode == "off" else "off")

    problems = {i: list(s.problems) for i, s in enumerate(sessions)}
    run_problems = cross_checks(w, seed, sessions)
    good = [s for i, s in enumerate(sessions) if not problems[i]] if not run_problems else []
    attempted = w.steps * len(sessions)
    failed = attempted - w.steps * len(good)
    correct = not run_problems and failed == 0

    result = {
        "workload": workloads.to_json(w), "seed": seed, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": {"run": run_problems, "sessions": problems},
        "losses": sessions[0].losses, "sessions": [session_summary(s) for s in sessions],
        "metrics": {}, "metric_order": [], "notes": [],
    }
    needed = {"off", "spans", "memory"} if trace else {"off"}
    if needed <= {s.mode for s in good}:
        untraced = [s for s in good if s.mode == "off"]
        heldout = heldout_eval(w, good[-1].checkpoint)
        result["heldout"] = heldout
        if not trace:
            values = end_to_end(w, untraced, heldout, (attempted - failed) / attempted)
        else:
            values, extra = per_layer(w, good, heldout)
            result["trace_details"] = extra
            result["notes"].append(
                f"cost model: slowest stage {extra['model_slowest']}; "
                f"busiest measured stage {extra['busiest_stage']}")
        units = declared_units(trace)
        if set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are emitted "
                               "or declared in BENCHMARK.json, but not both")
        result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        result["metric_order"] = list(values)
    for where, found in result["problems"]["sessions"].items():
        for p in found:
            result["notes"].append(f"FAILED session {where}: {p.splitlines()[-1]}")
    for p in run_problems:
        result["notes"].append(f"FAILED: {p}")

    result["provenance"] = provenance.collect(facts_before, seed, ROOT)
    path = os.path.join(OUT, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    # keep the spans of the first span-traced session next to the result
    for s in sessions:
        if s.mode == "spans":
            for role in ("device", "server"):
                if os.path.exists(s.spans_path(role)):
                    shutil.copyfile(s.spans_path(role),
                                    os.path.join(OUT, f"{tag}.{role}.spans.jsonl"))
            break
    if correct:
        shutil.rmtree(rundir, ignore_errors=True)
    result["notes"].append(f"result file: {os.path.relpath(path, ROOT)}")
    return result


def expected_frame_bytes(w) -> int:
    from sidetune import costs

    m = w.model
    spec = costs.ModelSpec(params=1, layers=m.layers, hidden=m.hidden, heads=m.heads,
                           seq_len=w.seq, batch_size=w.batch, gamma=len(m.cuts) + 1)
    return costs.payload_per_iteration(spec, w.scheme) + FRAME_OVERHEAD


def cross_checks(w, seed: int, sessions) -> list[str]:
    """Checks across sessions and against local_mode; empty when all hold."""
    import workloads
    from sidetune import local_mode

    problems = []
    ran = [(i, s) for i, s in enumerate(sessions) if s.ok]
    if not ran:
        return ["no session completed"]
    k, first = ran[0]
    with open(first.checkpoint, "rb") as fh:
        ckpt = fh.read()
    for i, s in ran[1:]:
        if s.losses != first.losses:
            problems.append(f"session {i} losses differ from session {k}")
        with open(s.checkpoint, "rb") as fh:
            if fh.read() != ckpt:
                problems.append(f"session {i} checkpoint differs from session {k}")
    n = min(workloads.LOCAL_CHECK_STEPS, w.steps)
    local = local_mode(workloads.device_config(w, seed, steps=n), workloads.server_config(w))
    if local.losses != first.losses[:n]:
        problems.append(f"local_mode losses {local.losses} differ from split "
                        f"{first.losses[:n]}")
    return problems


def heldout_eval(w, checkpoint: str) -> dict:
    """Mean cross-entropy and accuracy of the checkpoint on held-out batches."""
    import numpy as np
    import workloads
    from sidetune import combined_infer, load_side, make_batch
    from sidetune.device import load_device_backbone
    from sidetune.training import loss_and_grad

    config, params = load_side(checkpoint)
    weights = load_device_backbone(workloads.device_config(w, 0))
    task = workloads.task(w, workloads.HELDOUT_SEED)
    losses, hits, n = [], 0, 0
    for i in range(w.heldout_batches):
        tokens, labels = make_batch(task, i, w.batch)
        logits = combined_infer(weights, params, config, tokens, w.scheme)
        losses.append(loss_and_grad(logits, labels)[0])
        hits += int((logits.argmax(axis=1) == labels).sum())
        n += len(labels)
    return {"loss": float(np.mean(losses)), "acc": hits / n, "samples": n}


def end_to_end(w, sessions, heldout: dict, ok_ratio: float) -> dict:
    gaps = [metrics.window_gaps(s.completions()) for s in sessions]
    first = sessions[0]
    return {
        "samples_per_s": metrics.samples_per_s(gaps, w.batch),
        "step_ms_p50": metrics.step_ms_p50(gaps),
        "setup_s": statistics.median(s.setup_s for s in sessions),
        "uplink_bytes_per_step": first.device["report"]["bytes_sent"] / w.steps,
        "device_cpu_ms_per_step": metrics.cpu_ms_per_step(
            [s.device_cpu_gaps() for s in sessions]),
        "server_cpu_ms_per_step": metrics.cpu_ms_per_step(
            [s.server_cpu_gaps() for s in sessions]),
        "device_peak_rss_mb": statistics.median(
            metrics.rss_mib(s.rss_kib["device"]) for s in sessions),
        "server_peak_rss_mb": statistics.median(
            metrics.rss_mib(s.rss_kib["server"]) for s in sessions),
        "final_loss": first.losses[-1],
        "heldout_loss": heldout["loss"],
        "step_ok_ratio": ok_ratio,
    }


def per_layer(w, sessions, heldout: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the details behind them."""
    from sidetune import costs

    untraced = [s for s in sessions if s.mode == "off"]
    traced = [s for s in sessions if s.mode == "spans"]
    memory = [s for s in sessions if s.mode == "memory"]
    peaks = {role: max(getattr(s, role)["traced_peak_bytes"] for s in memory)
             for role in ("device", "server")}
    out, details = metrics.layer_metrics(
        [s.spans("device") for s in traced], [s.spans("server") for s in traced],
        [s.device for s in traced], [s.server for s in traced], peaks)

    traced_gaps = [metrics.window_gaps(s.completions()) for s in traced]
    untraced_gaps = [metrics.window_gaps(s.completions()) for s in untraced]
    if w.rate_bps:
        rate = w.rate_bps
    else:  # unthrottled: the rate the device's sends actually achieved
        rate = out["wire.frame_bytes"] * 8e3 / out["transport.send_ms"]
    check = metrics.cost_check(
        costs.iteration_time_estimate, details["device_stage_ms"], out["server.step_busy_ms"],
        out["wire.frame_bytes"], rate, metrics.step_ms_p50(traced_gaps))
    out["costs.predicted_step_ms"] = check.pop("predicted_step_ms")
    out["costs.step_ratio"] = check.pop("step_ratio")
    out["training.heldout_acc"] = heldout["acc"]
    out["trace.overhead_ratio"] = (metrics.samples_per_s(untraced_gaps, w.batch)
                                   / metrics.samples_per_s(traced_gaps, w.batch))
    busy = details["stage_busy_share"]
    return out, dict(check, busiest_stage=max(busy, key=busy.get), **details)


def session_summary(s) -> dict:
    return {
        "mode": s.mode, "ok": s.ok, "problems": s.problems,
        "setup_s": s.setup_s if "t_first_forward" in s.device else None,
        "exit_codes": s.exit_codes, "rss_kib": s.rss_kib,
        "completions": s.completions() if "steps" in s.server else [],
        "cpu_s": {"device": s.device.get("cpu_end", 0) - s.device.get("cpu_first_forward", 0),
                  "server": s.server.get("cpu_end", 0) - s.server.get("cpu_accept", 0)},
        "forwards": s.device.get("forwards", []),  # [t, cpu] per device forward
        "steps": s.server.get("steps", []),  # [batch, start, end, ok, cpu] per server step
    }


if __name__ == "__main__":
    sys.exit(main())
