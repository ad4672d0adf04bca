"""exactfem benchmark: closed-loop workloads with exact output checks.

    python3 perfbench/run.py --workload build-grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the repository root; the library is imported from ./src.  One
process runs one workload with a single caller in a closed loop: the next op
starts when the previous one has returned and been checked.  The last line
of stdout is the JSON result; the line before it records the environment.

--trace 0 reports the end-to-end metrics.  --trace 1 installs span tracing
at the layer boundaries and runs a fixed number of cycles instead of
--seconds, so every count repeats exactly for a given seed.  With no
--workload, every workload runs in its own subprocess, untraced and then
traced, and the tracing overhead is reported per workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "exactfem"
SPAN_DIR = ROOT / ".perfbench"
# Set-ups before the first cycle, or before every cycle for a workload that
# sets up per cycle; setup_s is their median.
SETUP_REPEATS = 3
SETUPS_PER_CYCLE = 2


def import_library():
    """Import exactfem afresh from ./src, refusing any other copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


@dataclass
class Measured:
    """What one run measured.

    durations holds each op's time, with the reference's sampling taken
    out; cycles holds each cycle's summed op time; setups holds each
    set-up's time.
    """

    durations: list = field(default_factory=list)
    failed: int = 0
    cycles: list = field(default_factory=list)
    setups: list = field(default_factory=list)


def measure(workload, seconds=None, cycles=None, set_up=None, pacer=None):
    """Run whole cycles until `cycles` are done or `seconds` of op time passed.

    `set_up`, if given, is timed SETUP_REPEATS times before the first cycle,
    or SETUPS_PER_CYCLE times before every cycle for a workload that sets up
    per cycle.  `pacer`, if given, samples the reference at the start of
    every cycle and between ops.  Checks run outside the timed region; an
    op that raised or failed its exact check counts in `failed`.
    """
    run = Measured()
    clock = time.perf_counter
    spent = (lambda: pacer.spent) if pacer is not None else (lambda: 0.0)
    c = 0

    def timed_setups(repeats):
        for _ in range(repeats):
            t0 = clock()
            set_up()
            run.setups.append(clock() - t0)

    if set_up is not None and not workload.setup_per_cycle:
        timed_setups(SETUP_REPEATS)
    while c < cycles if cycles is not None else (c == 0 or sum(run.durations) < seconds):
        if set_up is not None and workload.setup_per_cycle:
            timed_setups(SETUPS_PER_CYCLE)
        gc.collect()
        if pacer is not None:
            pacer.sample()
        cycle_s = 0.0
        for inp in workload.cycle(c):
            if pacer is not None:
                pacer.maybe_sample()
            s0, t0 = spent(), clock()
            try:
                out = workload.op(inp)
                ok = True
            except Exception as exc:  # a raising op is a failed op
                print(f"op failed: {exc!r}", file=sys.stderr)
                ok = False
            run.durations.append(clock() - t0 - (spent() - s0))
            cycle_s += run.durations[-1]
            if ok:
                try:
                    ok = workload.check(inp, out)
                except Exception as exc:  # a check that cannot run is a failed check
                    print(f"check failed: {exc!r}", file=sys.stderr)
                    ok = False
            run.failed += not ok
        run.cycles.append(cycle_s)
        c += 1
    return run


def _git_commit() -> str:
    """HEAD of ROOT/.git if there is one, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_one(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload in this process; return (info line, result line)."""
    workload = WORKLOADS[name]()
    if traced:
        from spans import Tracer, unit

        tracer = Tracer()

    def set_up():
        package = import_library()
        if traced:
            tracer.install(package)
        workload.setup(package, seed, set_up.count)
        set_up.count += 1

    set_up.count = 0
    if traced:
        run = measure(workload, cycles=workload.trace_cycles, set_up=set_up)
    else:
        workload.pacer = pace.Pacer()
        run = measure(workload, seconds=seconds, set_up=set_up, pacer=workload.pacer)
    durations, failed = run.durations, run.failed
    ops = len(durations)
    p50 = statistics.median(durations)
    info = {
        "workload": name,
        "traced": traced,
        "env": environment(seed),
        "ops": ops,
        "cycles": len(run.cycles),
        "fail_ratio": failed / ops,
        "setup_runs_s": run.setups,
        "cycle_runs_s": run.cycles,
        "op_p50_s": p50,
        "op_p90_s": _p90(durations),
        "ops_per_s": ops / sum(durations),
    }
    if traced:
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{name}-seed{seed}.json")
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = getattr(workload, "output_bytes", 0)
        layers["trace.op_p50_s"] = p50
        layers["trace.ops"] = ops
        metrics = {key: _metric(value, unit(key)) for key, value in layers.items()}
    else:
        # Seconds at the reference speed: REFERENCE_S over the reference's
        # median time in this run, times the measured seconds.
        scale = pace.REFERENCE_S / statistics.median(workload.pacer.samples)
        info["reference_runs_s"] = workload.pacer.samples
        metrics = {
            "setup_s": _metric(statistics.median(run.setups) * scale, "s"),
            "cycle_s": _metric(statistics.median(run.cycles) * scale, "s"),
            "pass_ratio": _metric((ops - failed) / ops, "ratio"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    result = {"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}
    return info, result


def run_all(seed: int, seconds: float) -> dict:
    """Each workload in its own subprocess, untraced then traced, in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p50 = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise RuntimeError(f"{name} (trace {trace}) exited with {proc.returncode}")
            print("\n".join(lines))
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            p50[trace] = info["op_p50_s"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
        print(json.dumps({
            "workload": name,
            "tracing_overhead": p50[1] / p50[0],
            "base": {"untraced_op_p50_s": p50[0], "traced_op_p50_s": p50[1]},
        }))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            info, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(info))
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
