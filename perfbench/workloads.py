"""Workloads of the qackit CLI benchmark: the argv of each pass and the checks
on every command's output.

A pass is a list of ``Step``s, each one ``qackit`` command line.  The workload
seed feeds every ``--seed`` flag; the program sees only the argv and the files
earlier steps wrote.  Every pass of a run uses the same seed, so passes do the
same work and the exact counts of the traced run repeat.

Checks compare printed and written outputs with independent references: the
closed-form laws of the depth-2 nekomata grid, the exact cat state, and
recomputation from the written sample rows.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Output:
    """What one command produced; ``rc`` is None when ``main`` raised."""

    rc: int | None
    stdout: str
    stderr: str


Check = Callable[[Output], list[str]]


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: Check
    metric: str | None = None  # named end-to-end metric this command's time adds to


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    metrics: tuple[str, ...]  # named command metrics; the first is reported as command_s
    largest_array: str
    largest_array_bytes: int
    plan: Callable[[Path, int], list[Step]]


# ---------------------------------------------------------------------------
# references


def grid_bias_power(columns: int) -> float:
    """``b**n`` for the grid bias: the root of ``(1 - 2 b^n)^(2 columns) = 1/2``."""
    return -math.expm1(-math.log(2.0) / (2 * columns)) / 2.0


def grid_all_ones_law(n: int, columns: int) -> float:
    """Probability that the n grid targets measure all-ones.

    ``sum_S (-1)^(n-|S|) F(|S|)^M`` over row subsets S, with
    ``F(s) = (1 - 2 b^n)^2 + 4 b^n (b^(n-s) - b^n) = 1 - 4 b^n (1 - b^(n-s))``.
    """
    bn = grid_bias_power(columns)
    b = bn ** (1.0 / n)
    return math.fsum(
        math.comb(n, s) * (-1) ** (n - s) * math.exp(columns * math.log1p(-4.0 * bn * (1.0 - b ** (n - s))))
        for s in range(n + 1)
    )


# ---------------------------------------------------------------------------
# checks


def _exited_zero(out: Output) -> list[str]:
    if out.rc == 0:
        return []
    tail = out.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {out.rc}: {tail[0]}"]


def _checked(check: Check) -> Check:
    """Run ``check`` only on a command that exited 0."""

    def run(out: Output) -> list[str]:
        return _exited_zero(out) or check(out)

    return run


_DIST_LINE = re.compile(r"^\s+([01]+): (\S+)$", re.M)
_PQ_LINE = re.compile(r"all-zeros p=(\S+) all-ones q=(\S+) best nekomata fidelity=(\S+)")


def _simulate_output(stdout: str) -> tuple[dict[str, float], tuple[float, float, float]] | None:
    pq = _PQ_LINE.search(stdout)
    if pq is None:
        return None
    dist = {bits: float(p) for bits, p in _DIST_LINE.findall(stdout)}
    return dist, (float(pq[1]), float(pq[2]), float(pq[3]))


def nekomata_simulate_check(n: int, columns: int) -> Check:
    """All-zeros p is 1/2 and all-ones q the closed-form law, within 1e-9."""
    q_law = grid_all_ones_law(n, columns)

    def check(out: Output) -> list[str]:
        parsed = _simulate_output(out.stdout)
        if parsed is None:
            return ["simulate printed no all-zeros/all-ones line"]
        _, (p, q, _) = parsed
        problems = []
        if abs(p - 0.5) > 1e-9:
            problems.append(f"all-zeros p={p!r}, expected 0.5")
        if abs(q - q_law) > 1e-9:
            problems.append(f"all-ones q={q!r}, expected {q_law!r}")
        return problems

    return _checked(check)


def cat_simulate_check(n: int) -> Check:
    """Exactly {0^n: 1/2, 1^n: 1/2}: other entries at most 1e-12, fidelity 1."""

    def check(out: Output) -> list[str]:
        parsed = _simulate_output(out.stdout)
        if parsed is None:
            return ["simulate printed no all-zeros/all-ones line"]
        dist, (_, _, fid) = parsed
        problems = []
        for bits in ("0" * n, "1" * n):
            if abs(dist.get(bits, 0.0) - 0.5) > 1e-9:
                problems.append(f"P({bits})={dist.get(bits, 0.0)!r}, expected 0.5")
        stray = {b: p for b, p in dist.items() if len(b) != n or (b not in ("0" * n, "1" * n) and p > 1e-12)}
        if stray:
            problems.append(f"{len(stray)} entries besides 0^{n} and 1^{n}, e.g. {next(iter(stray.items()))}")
        if abs(fid - 1.0) > 1e-9:
            problems.append(f"best nekomata fidelity={fid!r}, expected 1")
        return problems

    return _checked(check)


def sample_check(samples: Path, summary: Path, trials: int, n: int, columns: int) -> Check:
    """Rows are consistent, the all-zeros and all-ones frequencies sit within
    5 sigma of 1/2 and of the closed-form law, and the summary's mean and
    variance equal those of the rows."""
    q_law = grid_all_ones_law(n, columns)

    def check(out: Output) -> list[str]:
        with open(samples, newline="") as f:
            rows = list(csv.reader(f))
        if rows[:1] != [["trial", "bitstring", "hamming_weight"]]:
            return [f"unexpected sample header {rows[:1]}"]
        rows = rows[1:]
        if len(rows) != trials:
            return [f"{len(rows)} sample rows, expected {trials}"]
        problems = []
        weights = [int(w) for _, _, w in rows]
        bad = [t for (t, bits, w) in rows if len(bits) != n or bits.count("1") != int(w)]
        if bad:
            problems.append(f"{len(bad)} rows whose weight or width is wrong, first trial {bad[0]}")
        for label, bits, law in (("all-zeros", "0" * n, 0.5), ("all-ones", "1" * n, q_law)):
            freq = sum(1 for _, b, _ in rows if b == bits) / trials
            sigma = math.sqrt(law * (1.0 - law) / trials)
            if abs(freq - law) > 5.0 * sigma:
                problems.append(f"{label} frequency {freq} is over 5 sigma from {law:.6f}")
        with open(summary) as f:
            doc = json.load(f)
        mean = math.fsum(weights) / trials
        variance = math.fsum((w - mean) ** 2 for w in weights) / trials
        for key, want in (("mean", mean), ("variance", variance)):
            if abs(doc[key] - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"summary {key}={doc[key]!r}, rows give {want!r}")
        return problems

    return _checked(check)


def compare_check(limit: float = 1e-10) -> Check:
    def check(out: Output) -> list[str]:
        m = re.search(r"max basis-input amplitude difference: (\S+)", out.stdout)
        if m is None:
            return ["simulate --compare printed no deviation"]
        dev = float(m[1])
        return [] if dev <= limit else [f"unitary deviation {dev!r} over {limit}"]

    return _checked(check)


def info_depth_check(depth: int) -> Check:
    def check(out: Output) -> list[str]:
        return [] if f"depth={depth}" in out.stdout.splitlines() else [f"info did not print depth={depth}"]

    return _checked(check)


VERIFY_SUITES = ("projections", "metric", "markov", "turan", "depth2-reduce")


def _suites_passed(out: Output) -> list[str]:
    lines = set(out.stdout.splitlines())
    missing = [s for s in VERIFY_SUITES if f"{s}: pass" not in lines]
    return [f"suites not passed: {missing}"] if missing else []


verify_check = _checked(_suites_passed)
ok = _checked(lambda out: [])


# ---------------------------------------------------------------------------
# plans


def _statevec_20q(wd: Path, seed: int) -> list[Step]:
    nek, cat, cat_nf = (str(wd / f) for f in ("nek21.json", "cat20.json", "cat20-nf.json"))
    return [
        Step(("build", "nekomata", "--n", "3", "--columns", "6", "--out", nek), ok),
        Step(("simulate", "--circuit", nek), nekomata_simulate_check(3, 6), "simulate_s"),
        Step(("build", "cat", "--n", "20", "--m", "2", "--out", cat), ok),
        Step(("simulate", "--circuit", cat), cat_simulate_check(20), "simulate_s"),
        Step(("transform", "normal-form", "--circuit", cat, "--out", cat_nf), ok),
        Step(("simulate", "--circuit", cat_nf), cat_simulate_check(20), "simulate_s"),
    ]


def _sample_plan(sampler: str, columns: int, metric: str) -> Callable[[Path, int], list[Step]]:
    n, trials = 6, 10_000

    def plan(wd: Path, seed: int) -> list[Step]:
        grid, samples, summary = wd / "grid.json", wd / "samples.csv", wd / "summary.json"
        return [
            Step(("build", "nekomata", "--n", str(n), "--columns", str(columns), "--out", str(grid)), ok),
            Step(
                (
                    "sample", "--circuit", str(grid), "--sampler", sampler, "--trials", str(trials),
                    "--seed", str(seed), "--out", str(samples), "--summary", str(summary),
                ),
                sample_check(samples, summary, trials, n, columns),
                metric,
            ),
        ]

    return plan


def _dense_check(wd: Path, seed: int) -> list[Step]:
    nek, par, par_nf, report = (str(wd / f) for f in ("nek8.json", "parity.json", "parity-nf.json", "verify.json"))
    return [
        Step(("build", "nekomata", "--n", "2", "--columns", "3", "--out", nek), ok),
        Step(("build", "parity-from-nekomata", "--constructor", nek, "--n", "2", "--out", par), ok),
        Step(("info", "--circuit", par), info_depth_check(11)),
        Step(("transform", "normal-form", "--circuit", par, "--out", par_nf), ok),
        Step(("simulate", "--circuit", par_nf, "--compare", par), compare_check(), "compare_s"),
        Step(("verify", "--suite", "all", "--seed", str(seed), "--report", report), verify_check, "verify_s"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "statevec-20q",
            "21-wire nekomata grid and 20-qubit cat (plain and normal form) simulated: all four gate "
            "kernels on 16-32 MiB state vectors; ir, serial and sampling stay idle",
            ("simulate_s",),
            "state vector at 21 qubits (complex128)",
            (1 << 21) * 16,
            _statevec_20q,
        ),
        Workload(
            "sample-direct",
            "direct sampler, 10^4 trials on the 12,006-wire n=6 grid: ir.validate, serial, classify, "
            "sampling and CSV writing; never calls statevec",
            ("sample_direct_s",),
            "trials x wires sample matrix (uint8)",
            10_000 * 12_006,
            _sample_plan("direct", 2000, "sample_direct_s"),
        ),
        Workload(
            "sample-factorized",
            "factorized per-gate sampler, 10^4 trials on the 1,206-wire n=6 grid: the sampling path kept "
            "apart from the direct one; never calls statevec",
            ("sample_factorized_s",),
            "trials x wires sample matrix (uint8)",
            10_000 * 1_206,
            _sample_plan("factorized", 200, "sample_factorized_s"),
        ),
        Workload(
            "dense-check",
            "11-wire parity circuit: info, normal form, two dense 2^11 x 2^11 unitaries compared, verify "
            "--suite all; kernels on a matrix batch axis plus transforms and analysis",
            ("compare_s", "verify_s"),
            "dense unitary at 11 qubits (complex128)",
            (1 << 22) * 16,
            _dense_check,
        ),
    )
}
