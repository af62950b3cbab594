"""evlm benchmark: closed loop, one client, one process, one thread.

    python3 perfbench/run.py --workload train_frozen_vit --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --record perfbench/records/NAME.json

One workload runs in this process: it sets up, then issues ops back to back
for --seconds (and until MIN_OPS ops, so p90 has ten samples beyond it, for
at most twice --seconds), checking each op's output against the pinned
reference. SPREAD_SETUPS more set-ups are spread through that time, outside
it; setup_s is the mean of all set-ups. Ops and set-ups are timed in process
CPU seconds: the loop is single-threaded and does no blocking I/O, so this is
the wall time an op takes while it holds the CPU, without the time a shared
host takes the CPU away. The wall-clock p50 is kept in the run record. With
--trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json (p50 and tokens_per_s are printed above it); with
--trace 1 every other op runs with the layer wrappers installed, and the
line carries the per-layer metrics plus the tracing overhead (traced minus
untraced latency_s.p50). `--workload all` runs every workload, untraced and
traced, each in its own child process, prints one table and can write a run
record. Exit status: 0 when every op matched its reference, 1 when an op
failed or differed, 2 when the program or its references are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_frozen_vit", "train_moe_sft", "train_video", "probe")
# Set-ups besides the first, spread evenly through the timed phase: the host
# slows the CPU for seconds to minutes at a time, so set-ups made back to back
# would all land in one state.
SPREAD_SETUPS = 10
MIN_OPS = 100  # p90 by nearest rank has ten samples beyond it from 100 samples on
DEFAULT_SECONDS = 28.0
# Printed and recorded with --trace 0 but not in BENCHMARK.json: on a shared
# host they swing with the share of ops the host slows down (see README.md).
REPORTED_ONLY = {"latency_s.p50": "s", "tokens_per_s": "1/s"}


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and check evlm comes from it."""
    if not (SRC / "evlm" / "__init__.py").is_file():
        raise ProgramMissing(f"no evlm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evlm

    if Path(evlm.__file__).resolve().parent != (SRC / "evlm").resolve():
        raise ProgramMissing(f"evlm imported from {evlm.__file__}, not {SRC}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank and the number of samples beyond it."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload: str, seed: int):
    from bench_workloads import SETUPS, input_set

    t0 = process_time()
    state = SETUPS[workload](input_set(seed))
    return state, process_time() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setups: int = SPREAD_SETUPS, ops: int | None = None) -> dict:
    """Set up, run the closed loop, check outputs; return the raw run.

    `ops` fixes the op count instead of running for `seconds` (self-tests).
    """
    # imported here because they import evlm, which load_program() locates
    from bench_trace import Tracer, layer_metrics
    from bench_workloads import SETUPS, input_set, load_reference

    refs = load_reference(workload, seed)
    tracer = Tracer() if trace else None
    latencies: list[float] = []  # CPU seconds per op
    walls: list[float] = []
    traced_flags: list[bool] = []
    outputs: list[str | None] = []
    extra: dict[int, dict[str, float]] = {}
    failed = 0
    state, first = _timed_setup(workload, seed)
    setup_times = [first]
    try:
        if tracer is not None:  # one more set-up, traced, for its spans (checkpoint save)
            state.close()
            state = None
            tracer.install()
            try:
                state = SETUPS[workload](input_set(seed))
            finally:
                tracer.remove()
        start, cpu_start = perf_counter(), process_time()
        paused = paused_cpu = 0.0  # spent in spread set-ups, not in the timed phase
        i = 0
        while True:
            active = perf_counter() - start - paused
            progress = i / ops if ops is not None else active / seconds
            if len(setup_times) <= setups and progress >= len(setup_times) / (setups + 1):
                t0, c0 = perf_counter(), process_time()
                spare, spent = _timed_setup(workload, seed)
                spare.close()
                setup_times.append(spent)
                paused += perf_counter() - t0
                paused_cpu += process_time() - c0
                continue
            if ops is not None:
                if i >= ops:
                    break
            elif active >= seconds and (i >= MIN_OPS or active >= 2 * seconds):
                break
            state.prepare(i)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.begin_op(i)
                tracer.install()
            t0, c0 = perf_counter(), process_time()
            try:
                out = state.op(i)
            except Exception:  # a failed op is counted, not fatal
                out = None
                traceback.print_exc(file=sys.stderr)
            c1, t1 = process_time(), perf_counter()
            if traced:
                tracer.remove()
                extra[i] = {"moe.load_max_over_mean": state.load_ratio() or 0.0}
            expected = refs[i % state.cycle]
            if out != expected:
                failed += 1
                if failed <= 3:
                    print(f"op {i}: output {out!r} != reference {expected!r}", file=sys.stderr)
            latencies.append(c1 - c0)
            walls.append(t1 - t0)
            traced_flags.append(traced)
            outputs.append(out)
            i += 1
        cpu_total = process_time() - cpu_start - paused_cpu
    finally:
        if state is not None:
            state.close()

    run = {
        "workload": workload,
        "seed": seed,
        "input_set": input_set(seed),
        "trace": int(trace),
        "attempted": len(latencies),
        "failed": failed,
        "latencies": latencies,
        "walls": walls,
        "traced": traced_flags,
        "outputs": outputs,
        "cpu_s": cpu_total,
        "positions_per_op": state.positions,
        "setup_times": setup_times,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        traced_ops = [j for j, t in enumerate(traced_flags) if t]
        run["layers"] = layer_metrics(tracer, traced_ops, state.cfg, extra)
        run["tracer"] = tracer
    return run


def summarize(run: dict, spec: dict) -> tuple[dict, dict]:
    """(metrics for the result line, detail for the run record)."""
    untraced = sorted(l for l, t in zip(run["latencies"], run["traced"]) if not t)
    p50, _ = nearest_rank(untraced, 0.5)
    p90, beyond = nearest_rank(untraced, 0.9)
    detail = {
        "workload": run["workload"],
        "seed": run["seed"],
        "input_set": run["input_set"],
        "trace": run["trace"],
        "samples": run["attempted"],
        "failed": run["failed"],
        "failed_ratio": run["failed"] / run["attempted"],
        "latency_samples": len(untraced),
        "wall_latency_s.p50": nearest_rank(sorted(w for w, t in zip(run["walls"], run["traced"]) if not t), 0.5)[0],
        "p90_samples_beyond": beyond,
        "setups": len(run["setup_times"]),
    }
    if run["trace"]:
        traced = sorted(l for l, t in zip(run["latencies"], run["traced"]) if t)
        values = dict(run["layers"])
        values["trace.overhead_s"] = nearest_rank(traced, 0.5)[0] - p50
        wanted = spec["per_layer"]
        detail["traced_samples"] = len(traced)
    else:
        values = {
            "latency_s.p50": p50,
            "tokens_per_s": run["positions_per_op"] * run["attempted"] / run["cpu_s"],
            "setup_s": statistics.fmean(run["setup_times"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        if beyond >= 10:
            values["latency_s.p90"] = p90
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    detail["metrics"] = metrics
    if not run["trace"]:
        detail["reported"] = {name: {"value": values[name], "unit": unit} for name, unit in REPORTED_ONLY.items()}
    return metrics, detail


def run_one(args, spec: dict) -> int:
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, detail = summarize(run, spec)
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        run["tracer"].write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"workload={args.workload} seed={args.seed} input_set={run['input_set']} trace={args.trace}")
    print(f"samples={run['attempted']} failed={run['failed']} failed_ratio={detail['failed_ratio']!r}")
    for name, m in {**detail.get("reported", {}), **metrics}.items():
        print(f"{name}={m['value']!r} {m['unit']}")
    print("record " + json.dumps(detail))
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        entry = record["workloads"][workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            lines = [l for l in done.stdout.splitlines() if l.startswith("record ")]
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {done.returncode}", file=sys.stderr)
                status = 1
                continue
            detail = json.loads(lines[-1].removeprefix("record "))
            key = "per_layer" if trace else "end_to_end"
            shown = {**detail.pop("reported", {}), **detail.pop("metrics")}
            entry[key] = {k: v["value"] for k, v in shown.items()}
            entry["traced_run" if trace else "untraced_run"] = detail
        e2e, layers = entry.get("end_to_end", {}), entry.get("per_layer", {})
        print(f"== {workload}")
        for name, value in [*e2e.items(), ("failed_ratio", entry.get("untraced_run", {}).get("failed_ratio"))]:
            print(f"  {name:28s} {value!r}")
        for name, value in layers.items():
            print(f"  {name:28s} {value!r}")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"record={args.record}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="inputs come from input set seed mod 32")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="with --workload all: write the run record here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        spec = benchmark_spec()
        from bench_workloads import reference_path

        if args.workload != "all" and not reference_path(args.workload).is_file():
            raise ProgramMissing(f"no pinned references at {reference_path(args.workload)}")
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
