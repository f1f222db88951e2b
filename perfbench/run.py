"""Benchmark of qackit's command-line workflows.

    python3 perfbench/run.py --workload statevec-20q --seed 1 --seconds 20 --trace 0

Drives ``qackit.cli.main(argv)`` in-process as a closed loop: one client in
one process, each pass starting when the previous one ends, until
``--seconds`` have passed (at least one pass).  Every command's output is
checked; a failed command or check marks its pass failed and the run goes
on.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, which replay the same passes with spans
around each module's public calls, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
lines before it give every metric by name with its unit and sample count.
A JSON record of the run (environment, per-pass times, spans) is written to
``.perfbench_work/results/``.

Numeric threads are capped at the CPU count before numpy is imported.
"""
from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11

from tracing import Tracer, command_accounts, instrument, layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, Output, Step, Workload  # noqa: E402


# ---------------------------------------------------------------------------
# one pass


def invoke(argv: tuple[str, ...]) -> Output:
    from qackit import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # the pass is marked failed and the run goes on
        rc = None
        err.write(traceback.format_exc())
    return Output(rc, out.getvalue(), err.getvalue())


def _label(step: Step) -> str:
    return " ".join(step.argv[:2])


def run_pass(steps: list[Step], tracer=None) -> dict:
    """Run every step; return its times, named metrics and check problems."""
    times, outputs = [], []
    start = time.perf_counter()
    for step in steps:
        t0 = time.perf_counter()
        if tracer is None:
            outputs.append(invoke(step.argv))
        else:
            with tracer.span(f"cli.{step.argv[0]}", _label(step)):
                outputs.append(invoke(step.argv))
        times.append(time.perf_counter() - t0)
    pass_s = time.perf_counter() - start
    problems = []
    for step, out in zip(steps, outputs):
        try:
            found = step.check(out)
        except Exception as exc:  # a check that cannot read the output fails the pass
            found = [f"check raised {exc!r}"]
        problems += [f"{_label(step)}: {p}" for p in found]
    named: dict[str, float] = {}
    for step, t in zip(steps, times):
        if step.metric:
            named[step.metric] = named.get(step.metric, 0.0) + t
    return {"pass_s": pass_s, "step_s": times, "named": named, "problems": problems}


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if int((index / "level").read_text()) == level and kind in ("Unified", "Data"):
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(workload: Workload) -> dict:
    import numpy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "largest_array": workload.largest_array,
        "largest_array_bytes": workload.largest_array_bytes,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "loop": "closed, 1 client, 1 process",
    }


# ---------------------------------------------------------------------------
# a run


def time_setup() -> float:
    """Wall time of a fresh interpreter importing ``qackit.cli``.

    No timeout: with one, ``subprocess`` polls the child in steps of up to
    50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qackit.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    setup = [time_setup() for _ in range(SETUP_REPEATS)]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    plain, traced = [], []
    try:
        steps = workload.plan(workdir, seed)
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(run_pass(steps))
            if trace:
                tracer = Tracer(len(traced))
                with instrument(tracer):
                    traced.append((run_pass(steps, tracer), tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "steps": [list(s.argv) for s in steps],
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with ten samples beyond it, when it is above the median."""
    n = len(values)
    pct = 100.0 * (n - 10) / n if n > 10 else 0.0
    if pct <= 50.0:
        return None
    return pct, sorted(values)[n - 11]


def _line(name: str, value: float, unit: str, note: str) -> str:
    shown = f"{value:>14.6f}" if isinstance(value, float) else f"{value:>14d}"
    return f"  {name:<28} {shown} {unit:<6} {note}"


def _timing_note(values: list[float]) -> str:
    note = f"median of {len(values)} passes"
    tail = tail_percentile(values)
    if tail:
        note += f"; p{tail[0]:.0f} {tail[1]:.6f}"
    return note


def end_to_end(workload: Workload, run: dict) -> tuple[dict, list[str]]:
    plain = run["plain"]
    passes = [p["pass_s"] for p in plain]
    named = {m: [p["named"].get(m, 0.0) for p in plain] for m in workload.metrics}
    metrics = {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "command_s": (statistics.median(named[workload.metrics[0]]), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    failed = sum(1 for p in plain if p["problems"])
    lines = [
        _line("setup_s", metrics["setup_s"][0], "s", f"median of {len(run['setup'])} fresh imports of qackit.cli"),
        _line("pass_s", metrics["pass_s"][0], "s", _timing_note(passes)),
        _line("command_s", metrics["command_s"][0], "s", f"= {workload.metrics[0]}"),
        *(_line(m, statistics.median(v), "s", _timing_note(v)) for m, v in named.items()),
        _line("peak_rss_mib", metrics["peak_rss_mib"][0], "MiB", "ru_maxrss of the process"),
        _line("error_rate", failed / len(plain), "1", f"{failed} of {len(plain)} passes failed"),
    ]
    return metrics, lines


def per_layer(run: dict) -> tuple[dict, list[str]]:
    per_pass = [layer_metrics(tracer) for _, tracer in run["traced"]]
    metrics = {}
    for name in per_pass[0]:
        unit = unit_of(name)
        # counts repeat exactly from pass to pass; times are medians over traced passes
        value = statistics.median(p[name] for p in per_pass) if unit == "s" else per_pass[0][name]
        metrics[name] = (value, unit)
    pairs = [(u["pass_s"], t["pass_s"]) for u, (t, _) in zip(run["plain"], run["traced"])]
    metrics["trace.pass_s"] = (statistics.median(t for _, t in pairs), "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(u for u, _ in pairs), "s")
    # each traced pass against the untraced pass just before it, so slow drift cancels
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    lines = [_line(k, v, u, "") for k, (v, u) in metrics.items()]
    lines.append(f"command accounting, traced pass 0 (untraced: median of {len(run['plain'])} passes):")
    untraced = [statistics.median(p["step_s"][i] for p in run["plain"]) for i in range(len(run["steps"]))]
    for (_, traced_cmd, by_module), argv, plain_cmd in zip(command_accounts(run["traced"][0][1]), run["steps"], untraced):
        parts = " + ".join(f"{m} {t:.4f}" for m, t in sorted(by_module.items(), key=lambda kv: -kv[1]))
        lines.append(
            f"  {' '.join(argv[:2]):<24} traced {traced_cmd:.4f} s = {parts}; untraced {plain_cmd:.4f} s"
        )
    return metrics, lines


def _write_record(workload: Workload, seed: int, trace: bool, run: dict, result: dict, env: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    doc = {
        "workload": workload.name,
        "seed": seed,
        "environment": env,
        "steps": run["steps"],
        "setup_s": run["setup"],
        "passes": run["plain"],
        "traced_passes": [p for p, _ in run["traced"]],
        "spans": [s for _, tracer in run["traced"] for s in tracer.records()],
        "result": result,
    }
    path.write_text(json.dumps(doc) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qackit" / "__init__.py").is_file():
        print(f"error: no qackit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = environment(workload)
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    metrics, lines = per_layer(run) if args.trace else end_to_end(workload, run)
    passes = run["plain"] + [p for p, _ in run["traced"]]
    failed = [p for p in passes if p["problems"]]
    result = {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = _write_record(workload, args.seed, bool(args.trace), run, result, env)
    print(
        f"qackit benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; closed loop, 1 client, 1 process, {NPROC} numeric threads"
    )
    print("environment: " + json.dumps(env))
    print("\n".join(lines))
    for p in failed[:5]:
        print("FAILED pass: " + "; ".join(p["problems"][:3]))
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
