"""Tests of the benchmark itself: its references, that every output check can
fail, that exact counts repeat, and the shape of its result line.

    python3 -m pytest perfbench -q

The traced-count tests run one real pass of every workload twice (about a
minute on two cores).
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (caps numeric threads before numpy loads)

sys.path.insert(0, str(bench.SRC))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Output, Step  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# references


def test_grid_law_matches_known_values():
    assert wl.grid_all_ones_law(3, 6) == pytest.approx(0.2331430322522, abs=1e-12)
    assert wl.grid_all_ones_law(6, 2000) == pytest.approx(0.20729, abs=1e-5)
    assert wl.grid_all_ones_law(6, 200) == pytest.approx(0.13192, abs=1e-5)


def test_grid_law_matches_state_vector_oracle():
    from qackit import nekomata, statevec

    for n, columns in ((1, 4), (2, 3), (3, 2)):
        c = nekomata.build_depth2_nekomata(n, columns, nekomata.solve_bias(n, columns))
        report = statevec.best_nekomata_fidelity(statevec.run(c, statevec.zero_state(c.num_qubits)), c.targets)
        assert report.all_zeros_prob == pytest.approx(0.5, abs=1e-12)
        assert report.all_ones_prob == pytest.approx(wl.grid_all_ones_law(n, columns), abs=1e-12)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(list(range(20))) is None
    pct, value = bench.tail_percentile([float(x) for x in range(100)])
    assert pct == 90.0 and value == 89.0


# ---------------------------------------------------------------------------
# every check can fail


def _sim_out(dist: dict[str, float], p: float, q: float, fid: float, rc: int = 0) -> Output:
    lines = ["target wires: [0]"] + [f"  {b}: {v:.12g}" for b, v in dist.items()]
    lines.append(f"all-zeros p={p:.12g} all-ones q={q:.12g} best nekomata fidelity={fid:.12g}")
    return Output(rc, "\n".join(lines) + "\n", "" if rc == 0 else "error: boom\n")


def test_nekomata_simulate_check_fails_on_each_defect():
    check = wl.nekomata_simulate_check(3, 6)
    q = wl.grid_all_ones_law(3, 6)
    assert check(_sim_out({"000": 0.5, "111": q}, 0.5, q, 0.7)) == []
    assert check(_sim_out({}, 0.5, q + 1e-6, 0.7))
    assert check(_sim_out({}, 0.5 + 1e-6, q, 0.7))
    assert check(_sim_out({}, 0.5, q, 0.7, rc=1))
    assert check(Output(0, "target wires: [0]\n", ""))


def test_cat_simulate_check_fails_on_each_defect():
    check = wl.cat_simulate_check(4)
    good = {"0000": 0.5, "1111": 0.5, "1100": 1.2e-32}
    assert check(_sim_out(good, 0.5, 0.5, 1.0)) == []
    assert check(_sim_out({**good, "1100": 1e-6}, 0.5, 0.5, 1.0))
    assert check(_sim_out({"0000": 0.5 - 1e-6, "1111": 0.5}, 0.5, 0.5, 1.0))
    assert check(_sim_out({"000": 0.5, "1111": 0.5}, 0.5, 0.5, 1.0))
    assert check(_sim_out(good, 0.5, 0.5, 1.0 - 1e-6))
    assert check(_sim_out(good, 0.5, 0.5, 1.0, rc=1))


def _write_samples(tmp: Path, rows: list[str], mean_shift: float = 0.0) -> tuple[Path, Path]:
    samples, summary = tmp / "s.csv", tmp / "s.json"
    weights = [r.count("1") for r in rows]
    lines = ["trial,bitstring,hamming_weight"] + [f"{t},{r},{w}" for t, (r, w) in enumerate(zip(rows, weights))]
    samples.write_text("\n".join(lines) + "\n")
    mean = sum(weights) / len(weights)
    variance = sum((w - mean) ** 2 for w in weights) / len(weights)
    summary.write_text(json.dumps({"mean": mean + mean_shift, "variance": variance}))
    return samples, summary


def _grid_rows(trials: int, n: int, ones: int) -> list[str]:
    zeros = trials // 2
    return ["0" * n] * zeros + ["1" * n] * ones + ["1" + "0" * (n - 1)] * (trials - zeros - ones)


def test_sample_check_fails_on_each_defect(tmp_path):
    n, columns, trials = 6, 200, 10_000
    q = wl.grid_all_ones_law(n, columns)
    ones = round(q * trials)
    sigma = math.sqrt(q * (1 - q) * trials)
    ok = Output(0, "", "")

    def verdict(rows, mean_shift=0.0, out=ok, trials=trials):
        samples, summary = _write_samples(tmp_path, rows, mean_shift)
        return wl.sample_check(samples, summary, trials, n, columns)(out)

    assert verdict(_grid_rows(trials, n, ones)) == []
    assert verdict(_grid_rows(trials, n, ones + int(6 * sigma)))
    assert verdict(["0" * n] * 6000 + ["1" * n] * ones + ["1" + "0" * (n - 1)] * (4000 - ones))
    assert verdict(_grid_rows(trials, n, ones), mean_shift=1e-6)
    assert verdict(_grid_rows(trials, n, ones), trials=trials + 1)
    assert verdict(_grid_rows(trials, n, ones), out=Output(1, "", "error: boom"))
    samples, summary = _write_samples(tmp_path, _grid_rows(trials, n, ones))
    samples.write_text(samples.read_text().replace(f"{trials - 1},100000,1", f"{trials - 1},100000,2"))
    assert wl.sample_check(samples, summary, trials, n, columns)(ok)


def test_dense_check_checks_fail_on_each_defect():
    compare = wl.compare_check()
    assert compare(Output(0, "max basis-input amplitude difference: 8.882e-16\n", "")) == []
    assert compare(Output(0, "max basis-input amplitude difference: 1.000e-08\n", ""))
    assert compare(Output(0, "", ""))
    depth = wl.info_depth_check(11)
    assert depth(Output(0, "num_qubits=11\ndepth=11\n", "")) == []
    assert depth(Output(0, "num_qubits=11\ndepth=10\n", ""))
    passed = "".join(f"{s}: pass\n" for s in wl.VERIFY_SUITES)
    assert wl.verify_check(Output(0, passed, "")) == []
    assert wl.verify_check(Output(0, passed.replace("turan: pass", "turan: FAIL"), ""))
    assert wl.verify_check(Output(1, passed, ""))
    assert wl.ok(Output(None, "", "Traceback ..."))


def test_failed_command_marks_its_pass_failed_and_the_pass_goes_on(tmp_path, monkeypatch):
    tree = tmp_path / "tree.json"
    steps = [
        Step(("info", "--circuit", str(tmp_path / "missing.json")), wl.ok),
        Step(("build", "fanout-tree", "--n", "4", "--out", str(tree)), wl.ok),
    ]
    result = bench.run_pass(steps)
    assert len(result["problems"]) == 1 and result["problems"][0].startswith("info --circuit")
    assert tree.is_file()

    from qackit import cli

    def crash(argv):
        raise IndexError("boom")

    monkeypatch.setattr(cli, "main", crash)
    assert bench.invoke(("info",)).rc is None
    assert bench.run_pass(steps[1:])["problems"]


# ---------------------------------------------------------------------------
# traced passes


def _traced_pass(workload, seed: int, workdir: Path) -> tracing.Tracer:
    tracer = tracing.Tracer(0)
    with tracing.instrument(tracer):
        result = bench.run_pass(workload.plan(workdir, seed), tracer)
    assert result["problems"] == []
    return tracer


EXERCISED = {
    "statevec-20q": ("statevec.gates.rtensor", "statevec.gates.toffoli", "statevec.gates.or", "statevec.gates.one_qubit"),
    "sample-direct": ("sampling.trials",),
    "sample-factorized": ("sampling.trials", "sampling.factorized_draws"),
    "dense-check": ("statevec.gates.rtensor", "statevec.gate_amps"),
}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_exact_counts_repeat_and_self_times_account_for_each_command(name, tmp_path):
    workload = wl.WORKLOADS[name]
    first = _traced_pass(workload, 5, tmp_path)
    again = _traced_pass(workload, 5, tmp_path)
    counts = [{k: tracing.layer_metrics(t)[k] for k in tracing.COUNTED} for t in (first, again)]
    assert counts[0] == counts[1]
    for key in EXERCISED[name] + ("ir.validate_gates", "serial.json_bytes"):
        assert counts[0][key] > 0, key
    for command, traced_s, by_module in tracing.command_accounts(first):
        assert sum(by_module.values()) == pytest.approx(traced_s, abs=1e-9), command
    if name == "statevec-20q":
        kinds = {s.name for s in first.spans if s.name.startswith("statevec.layer.")}
        assert kinds == {f"statevec.layer.{k}" for k in tracing.GATE_KINDS}
    # the patched functions are restored
    from qackit import cli, statevec

    assert not hasattr(cli.validate, "__wrapped__") and not hasattr(statevec.run, "__wrapped__")


# ---------------------------------------------------------------------------
# the command line


def _result_line(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_result_line_reports_every_declared_metric():
    plain = _result_line("--workload", "statevec-20q", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["attempted"] >= 1 and plain["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    traced = _result_line("--workload", "statevec-20q", "--seed", "3", "--seconds", "0", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(wl.WORKLOADS)


def test_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "statevec-20q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
