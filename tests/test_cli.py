from __future__ import annotations

import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qackit import circuits_equal, deserialize, serialize, circuit, cnot
from qackit.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


def test_info_parity_circuit(tmp_path, capsys):
    path = tmp_path / "parity4.json"
    c = circuit(4, [[cnot(1, 0)], [cnot(2, 0)], [cnot(3, 0)]])
    path.write_text(serialize(c))
    assert run_cli("info", "--circuit", str(path)) == 0
    out = capsys.readouterr().out
    assert "size=3" in out and "depth=3" in out
    assert "layer 0: support [0, 1]" in out
    assert "layer 2: support [0, 3]" in out


def test_build_fanout_tree_and_info(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert run_cli("build", "fanout-tree", "--n", "4", "--m", "2", "--out", str(out)) == 0
    assert run_cli("info", "--circuit", str(out)) == 0
    text = capsys.readouterr().out
    assert "depth=2" in text and "size=3" in text


def test_build_nekomata_with_report(tmp_path):
    out = tmp_path / "nek.json"
    report = tmp_path / "params.json"
    code = run_cli(
        "build", "nekomata", "--n", "2", "--columns", "3",
        "--out", str(out), "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["columns"] == 3
    assert doc["residual"] <= 1e-10
    assert doc["impurity_union_bound"] > 0
    circ = deserialize(out.read_text())
    assert circ.num_qubits == 8


def test_transform_normal_form_and_compare(tmp_path, capsys):
    src = tmp_path / "c.json"
    dst = tmp_path / "nf.json"
    c = circuit(3, [[cnot(0, 1)], [cnot(1, 2)]])
    src.write_text(serialize(c))
    assert run_cli("transform", "normal-form", "--circuit", str(src), "--out", str(dst)) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--circuit", str(dst), "--compare", str(src)) == 0
    out = capsys.readouterr().out
    dev = float(out.split(":")[-1])
    assert dev <= 1e-9


def test_simulate_prints_target_distribution(tmp_path, capsys):
    out = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(out))
    capsys.readouterr()
    assert run_cli("simulate", "--circuit", str(out)) == 0
    text = capsys.readouterr().out
    assert "all-zeros p=0.5" in text
    assert "best nekomata fidelity" in text


def test_sample_csv_and_manifest(tmp_path):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    out = tmp_path / "samples.csv"
    summary = tmp_path / "summary.json"
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", "500", "--seed", "11",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["trial", "bitstring", "hamming_weight"]
    assert len(rows) == 501
    doc = json.loads(summary.read_text())
    assert doc["seed"] == 11 and doc["trials"] == 500
    with open(str(out) + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["seed"] == 11
    assert str(out) in manifest["outputs"]


@pytest.mark.parametrize("sampler", ["direct", "factorized"])
def test_sample_summary_tails_come_from_rows(tmp_path, sampler):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    out = tmp_path / "samples.csv"
    summary = tmp_path / "summary.json"
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", "400", "--seed", "7",
        "--sampler", sampler, "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    n = len(rows[0][1])
    weights = np.array([bits.count("1") for _, bits, _ in rows])
    mean = weights.mean()
    doc = json.loads(summary.read_text())
    assert doc["mean"] == pytest.approx(mean, abs=1e-12)
    assert len(doc["tails"]) == 3
    for tail in doc["tails"]:
        eps = tail["epsilon"]
        assert tail["upper_tail"] == np.mean(weights >= mean + eps * n)
        assert tail["lower_tail"] == np.mean(weights <= mean - eps * n)


def test_simulate_basis_input_and_state_export(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run_cli("build", "fanout-tree", "--n", "3", "--m", "2", "--out", str(tree))
    state = tmp_path / "state.json"
    capsys.readouterr()
    code = run_cli(
        "simulate", "--circuit", str(tree), "--input", "100", "--state-out", str(state)
    )
    assert code == 0
    from qackit.serial import state_from_json

    n, amps = state_from_json(state.read_text())
    assert n == 3
    assert np.argmax(np.abs(amps)) == 0b111


def test_build_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "2", "--out", str(a))
    run_cli("build", "nekomata", "--n", "2", "--columns", "2", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_sample_reproducible(tmp_path):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("sample", "--circuit", str(nek), "--trials", "200", "--seed", "5", "--out", str(a))
    run_cli("sample", "--circuit", str(nek), "--trials", "200", "--seed", "5", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_sample_factorized_sampler(tmp_path):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    out = tmp_path / "f.csv"
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", "300", "--seed", "3",
        "--sampler", "factorized", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 301


def test_verify_all_suites(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "all", "--seed", "0", "--report", str(report)) == 0
    doc = json.loads(report.read_text())
    assert set(doc["suites"]) == {"projections", "metric", "markov", "turan", "depth2-reduce"}
    assert all(s["passed"] for s in doc["suites"].values())


def test_verify_single_suite():
    assert run_cli("verify", "--suite", "markov", "--seed", "1") == 0


def test_simulate_rejects_too_wide_circuit_before_allocating(tmp_path, capsys):
    from qackit.statevec import MAX_QUBITS

    path = tmp_path / "wide.json"
    path.write_text(serialize(circuit(MAX_QUBITS + 1, [[cnot(0, 1)]])))
    tracemalloc.start()
    try:
        assert run_cli("simulate", "--circuit", str(path)) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "num_qubits must be in" in capsys.readouterr().err


def test_verify_markov_can_fail(tmp_path, monkeypatch, capsys):
    from qackit import analysis

    monkeypatch.setattr(analysis, "generalized_markov_threshold", lambda law, a, delta: -1.0)
    report = tmp_path / "verify.json"
    assert run_cli("verify", "--suite", "markov", "--seed", "4", "--report", str(report)) == 1
    out = capsys.readouterr().out
    assert "markov: FAIL" in out
    doc = json.loads(report.read_text())["suites"]["markov"]
    assert doc["passed"] is False and doc["violations"] == doc["instances"] > 0
    assert doc["seed"] == 4
    assert f"first failing instance {doc['first_failing_instance']} (seed 4)" in out


# suite -> (the analysis check it relies on, a failing stand-in built from the
# original, the first failing instance the suite then reports)
_BROKEN_CHECKS = {
    "projections": (
        "check_projection_chain_bound",
        lambda orig: lambda chain: dataclasses.replace(orig(chain), holds=False),
        0,
    ),
    "metric": ("chain_product_value", lambda orig: lambda *args: 2.0, "interpolation pair 0"),
    "turan": ("is_independent", lambda orig: lambda g, vertices: False, 0),
    "depth2-reduce": (
        "reduce_depth2_construction",
        lambda orig: lambda cons, goal: dataclasses.replace(orig(cons, goal), success_probability=-1.0),
        0,
    ),
}


@pytest.mark.parametrize("suite", sorted(_BROKEN_CHECKS))
def test_verify_suite_can_fail_and_names_its_first_failing_instance(suite, tmp_path, monkeypatch, capsys):
    from qackit import analysis

    name, broken, instance = _BROKEN_CHECKS[suite]
    monkeypatch.setattr(analysis, name, broken(getattr(analysis, name)))
    report = tmp_path / "verify.json"
    assert run_cli("verify", "--suite", suite, "--seed", "6", "--report", str(report)) == 1
    out = capsys.readouterr().out
    assert f"{suite}: FAIL" in out
    assert f"first failing instance {instance} (seed 6)" in out
    doc = json.loads(report.read_text())["suites"][suite]
    assert doc["passed"] is False
    assert doc["seed"] == 6 and doc["first_failing_instance"] == instance


def test_verify_exits_cleanly_when_an_analysis_check_fires(monkeypatch, capsys):
    # each call reports a lower success probability, so the reduction's own
    # check (final below the baseline) fires inside the depth2-reduce suite
    from qackit import analysis

    calls = iter(range(10**6))
    monkeypatch.setattr(analysis, "construction_success", lambda cons, goal: 1.0 - 1e-3 * next(calls))
    assert run_cli("verify", "--suite", "depth2-reduce", "--seed", "0") == 1
    err = capsys.readouterr().err
    assert "error: reduction decreased the construction's success probability" in err
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_qubits": 1, "targets": null, "layers": [[{"kind": "nope"}]]}')
    assert run_cli("info", "--circuit", str(bad)) == 1
    err = capsys.readouterr().err
    assert "error:" in err


_NONFINITE_GATES = {
    "rtensor": '{"kind": "rtensor", "factors": [{"qubit": 0, "amp0": [%s, 0], "amp1": [0, 0]}]}',
    "u1": '{"kind": "u1", "qubit": 0, "matrix": [[%s, 0], [0, 0], [0, 0], [1, 0]]}',
}


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("kind, message", [("rtensor", "non-normalized local state"), ("u1", "non-unitary")])
def test_nonfinite_numbers_from_a_file_are_rejected(tmp_path, capsys, value, kind, message):
    # json accepts NaN and Infinity; validation must still reject them
    path = tmp_path / "bad.json"
    gate = _NONFINITE_GATES[kind] % value
    path.write_text('{"num_qubits": 1, "targets": [0], "layers": [[%s]]}' % gate)
    out = tmp_path / "s.csv"
    assert run_cli("simulate", "--circuit", str(path)) == 1
    assert message in capsys.readouterr().err
    assert run_cli("sample", "--circuit", str(path), "--trials", "5", "--seed", "1", "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_cat_circuit(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert run_cli("build", "cat", "--n", "3", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--circuit", str(out)) == 0
    text = capsys.readouterr().out
    assert "000: 0.5" in text and "111: 0.5" in text


def test_build_parity_from_nekomata(tmp_path, capsys):
    cat2 = tmp_path / "cat2.json"
    from qackit import h_gate

    c = circuit(2, [[h_gate(0)], [cnot(0, 1)]])
    cat2.write_text(serialize(c))
    out = tmp_path / "parity.json"
    code = run_cli(
        "build", "parity-from-nekomata", "--constructor", str(cat2), "--n", "2", "--out", str(out)
    )
    assert code == 0
    assert run_cli("info", "--circuit", str(out)) == 0
    text = capsys.readouterr().out
    assert "depth=7" in text


def test_transform_hadamard_conjugate(tmp_path, capsys):
    src = tmp_path / "parity.json"
    c = circuit(3, [[cnot(1, 0)], [cnot(2, 0)]])
    src.write_text(serialize(c))
    dst = tmp_path / "fanout.json"
    code = run_cli(
        "transform", "hadamard-conjugate", "--circuit", str(src), "--n", "3", "--out", str(dst)
    )
    assert code == 0
    from qackit import fanout_unitary
    from qackit.statevec import unitary

    conj = deserialize(dst.read_text())
    assert np.max(np.abs(unitary(conj) - fanout_unitary(3))) < 1e-12


def test_transform_expand_or_cli(tmp_path):
    from qackit import Or

    src = tmp_path / "or.json"
    c = circuit(3, [[Or((0, 1), 2)]])
    src.write_text(serialize(c))
    dst = tmp_path / "expanded.json"
    assert run_cli("transform", "expand-or", "--circuit", str(src), "--out", str(dst)) == 0
    from qackit.statevec import unitary

    expanded = deserialize(dst.read_text())
    assert np.max(np.abs(unitary(expanded) - unitary(c))) < 1e-12


def test_build_fanout_tree_shared_controls(tmp_path, capsys):
    out = tmp_path / "wide.json"
    assert run_cli("build", "fanout-tree", "--n", "9", "--m", "3", "--out", str(out)) == 0
    assert run_cli("info", "--circuit", str(out)) == 0
    text = capsys.readouterr().out
    assert "depth=2" in text and "size=8" in text


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sample_rejects_nonpositive_trials(tmp_path, capsys, trials):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    out, summary = tmp_path / "s.csv", tmp_path / "summary.json"
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", trials, "--seed", "1",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 1
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


def test_sample_rejects_oversized_run_before_allocating(tmp_path, capsys):
    from qackit.sampling import MAX_SAMPLE_BYTES

    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(
            "sample", "--circuit", str(nek), "--trials", str(MAX_SAMPLE_BYTES), "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 1 << 20
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (1001, 6), (4, 0)])
def test_samples_csv_matches_csv_writer(shape):
    import io

    from qackit.cli import _samples_csv
    from qackit.rng import substream

    samples = substream(70).integers(0, 2, size=shape, dtype=np.uint8)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trial", "bitstring", "hamming_weight"])
    for t, row in enumerate(samples):
        writer.writerow([t, "".join("1" if b else "0" for b in row), int(row.sum())])
    assert _samples_csv(samples) == buf.getvalue()
