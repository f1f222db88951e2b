from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qackit import deserialize, serialize, circuit, cnot
from qackit.cli import main

from conftest import reference_unitary


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


@pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-directory", "target-is-a-directory"])
def test_failed_state_write_names_the_requested_file(tmp_path, capsys, missing_dir):
    circ = tmp_path / "c.json"
    circ.write_text(serialize(circuit(2, [[cnot(0, 1)]])))
    if missing_dir:
        dest = tmp_path / "nonexistent" / "x.json"
    else:
        # the temporary file is written, and moving it over a directory fails
        dest = tmp_path / "x.json"
        dest.mkdir()
    assert run_cli("simulate", "--circuit", str(circ), "--state-out", str(dest)) == 1
    err = capsys.readouterr().err
    assert "x.json" in err and ".tmp" not in err
    assert [p.name for p in tmp_path.rglob("*") if ".tmp" in p.name] == []


def test_failed_report_write_names_the_requested_file(tmp_path, capsys):
    report = tmp_path / "nonexistent" / "params.json"
    code = run_cli(
        "build", "nekomata", "--n", "2", "--columns", "3",
        "--out", str(tmp_path / "nek.json"), "--report", str(report),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(report) in err and ".tmp" not in err


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
    assert doc["read_r"] == n  # every column reaches both targets
    assert len(doc["tails"]) == 3
    for tail in doc["tails"]:
        eps = tail["epsilon"]
        assert tail["bound"] == pytest.approx(np.exp(-2.0 * eps * eps * n / doc["read_r"]))
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


def test_state_export_writes_every_zero_part_as_positive_zero(tmp_path, capsys):
    # the oracle negates exact zeros depending on which wires its buffer
    # held, so the file must not carry the sign of a zero part
    nek, par, state = (tmp_path / f for f in ("nek.json", "parity.json", "state.json"))
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    run_cli("build", "parity-from-nekomata", "--constructor", str(nek), "--n", "2", "--out", str(par))
    bits = "10000000000"
    assert run_cli("simulate", "--circuit", str(par), "--input", bits, "--state-out", str(state)) == 0
    capsys.readouterr()
    text = state.read_text()
    parts = [x for pair in json.loads(text)["amplitudes"] for x in pair]
    assert [x for x in parts if x == 0 and np.signbit(x)] == []
    from qackit import run
    from qackit.serial import state_from_json
    from qackit.statevec import basis_state

    n, amps = state_from_json(text)
    assert n == 11
    assert np.array_equal(amps, run(deserialize(par.read_text()), basis_state(11, bits)).amplitudes)


@pytest.mark.parametrize("bits", ["0_1", "+01", " 01", "01 ", "\u096701"])
def test_simulate_refuses_an_input_that_is_not_a_bit_string(tmp_path, capsys, bits):
    tree = tmp_path / "tree.json"
    run_cli("build", "fanout-tree", "--n", "3", "--m", "2", "--out", str(tree))
    capsys.readouterr()
    assert run_cli("simulate", "--circuit", str(tree), "--input", bits) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bit string {bits!r} may hold only the characters 0 and 1\n"


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


def test_sample_factorized_rejects_arity_over_the_cap(tmp_path, capsys):
    # n = 13 puts 13 factors on each column reflection; the direct sampler has no cap
    nek = tmp_path / "nek.json"
    assert run_cli("build", "nekomata", "--n", "13", "--columns", "2", "--out", str(nek)) == 0
    out = tmp_path / "f.csv"
    capsys.readouterr()
    code = run_cli(
        "sample", "--circuit", str(nek), "--sampler", "factorized", "--trials", "10", "--seed", "1",
        "--out", str(out),
    )
    assert code == 1
    assert "error: arity 13 over the factorized sampler cap" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "f.csv.manifest.json").exists()
    direct = tmp_path / "d.csv"
    assert run_cli("sample", "--circuit", str(nek), "--trials", "10", "--seed", "1", "--out", str(direct)) == 0
    assert len(direct.read_text().splitlines()) == 11


def test_verify_all_suites(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "all", "--seed", "0", "--report", str(report)) == 0
    doc = json.loads(report.read_text())
    assert set(doc["suites"]) == {"projections", "metric", "markov", "turan", "depth2-reduce"}
    assert all(s["passed"] for s in doc["suites"].values())
    # one report shape for every suite
    keys = {"passed", "instances", "failures", "seed", "first_failing_instance"}
    assert all(set(s) == keys for s in doc["suites"].values())
    instances = {name: s["instances"] for name, s in doc["suites"].items()}
    assert instances == {"projections": 500, "metric": 7, "markov": 200, "turan": 100, "depth2-reduce": 20}


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
    assert doc["passed"] is False and doc["failures"] == doc["instances"] > 0
    assert doc["seed"] == 4
    assert f"first failing instance {doc['first_failing_instance']} (seed 4)" in out


def test_verify_markov_checks_the_tail_bound(tmp_path, monkeypatch, capsys):
    # t = a always lies in [a, a e^{1/delta - 1}], so only the tail bound
    # P(X >= t) t <= delta E[X] can reject this stand-in
    from qackit import analysis

    monkeypatch.setattr(analysis, "generalized_markov_threshold", lambda law, a, delta: a)
    report = tmp_path / "verify.json"
    assert run_cli("verify", "--suite", "markov", "--seed", "4", "--report", str(report)) == 1
    assert "markov: FAIL" in capsys.readouterr().out
    doc = json.loads(report.read_text())["suites"]["markov"]
    assert doc["passed"] is False and doc["failures"] == 32 and doc["instances"] == 200


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


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy rejects a negative seed without naming the option
    assert run_cli("verify", "--suite", "metric", "--seed", "-1") == 2
    assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
    nek = tmp_path / "nek.json"
    assert run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek)) == 0
    out, summary = tmp_path / "s.csv", tmp_path / "summary.json"
    capsys.readouterr()
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", "10", "--seed", "-1",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 2
    assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists() and not summary.exists() and not (tmp_path / "s.csv.manifest.json").exists()


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_qubits": 1, "targets": null, "states": [], "layers": [[{"kind": "nope"}]]}')
    assert run_cli("info", "--circuit", str(bad)) == 1
    err = capsys.readouterr().err
    assert "error:" in err


_NONFINITE_FILES = {
    "rtensor": '{"num_qubits": 1, "targets": [0], "states": [[[%s, 0], [0, 0]]], '
    '"layers": [[{"kind": "rtensor", "qubits": [0], "states": [0]}]]}',
    "u1": '{"num_qubits": 1, "targets": [0], "states": [], '
    '"layers": [[{"kind": "u1", "qubit": 0, "matrix": [[%s, 0], [0, 0], [0, 0], [1, 0]]}]]}',
}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e200"])
@pytest.mark.parametrize("kind, message", [("rtensor", "non-normalized local state"), ("u1", "non-unitary")])
def test_nonfinite_numbers_from_a_file_are_rejected(tmp_path, capsys, value, kind, message):
    # json accepts NaN and Infinity; validation must still reject them, and
    # 1e200, whose square overflows a float
    path = tmp_path / "bad.json"
    path.write_text(_NONFINITE_FILES[kind] % value)
    out = tmp_path / "s.csv"
    for command in ("info", "simulate"):
        assert run_cli(command, "--circuit", str(path)) == 1
        assert f"layer 0, gate 0: {message}" in capsys.readouterr().err
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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_build_parity_from_nekomata_rejects_n_below_one(n, tmp_path, capsys):
    cat2 = tmp_path / "cat2.json"
    cat2.write_text(serialize(circuit(2, [[cnot(0, 1)]])))
    out = tmp_path / "parity.json"
    code = run_cli("build", "parity-from-nekomata", "--constructor", str(cat2), "--n", n, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: n must be at least 1\n"
    assert not out.exists()


def test_build_parity_from_nekomata_rejects_n_above_the_declared_targets(tmp_path, capsys):
    nek = tmp_path / "nek.json"
    run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek))
    capsys.readouterr()
    out = tmp_path / "parity.json"
    code = run_cli("build", "parity-from-nekomata", "--constructor", str(nek), "--n", "3", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: 3 inputs need 3 constructor targets, the constructor has 2\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # choose_columns(6, 0.25) = 41,834,371 columns: 251,006,232 wires
        ("nekomata", "--n", "6"),
        ("fanout-tree", "--n", "100000000"),
        ("cat", "--n", "100000000"),
    ],
)
def test_build_rejects_widths_over_the_cap_before_allocating(argv, tmp_path, capsys):
    out = tmp_path / "wide.json"
    tracemalloc.start()
    try:
        code = run_cli("build", *argv, "--out", str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 1 << 20
    assert "over the 1048576-wire" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _one_toffoli_file(path, num_qubits: int) -> str:
    path.write_text(
        '{"num_qubits": %d, "targets": null, "states": [], '
        '"layers": [[{"kind": "toffoli", "controls": [0, 1], "target": 2}]]}' % num_qubits
    )
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [("info",), ("transform", "normal-form", "--out", "nf.json")],
    ids=["info", "normal-form"],
)
def test_a_circuit_file_wider_than_the_build_cap_is_refused_before_allocating(argv, tmp_path, capsys, monkeypatch):
    from qackit.ir import MAX_WIRES

    monkeypatch.chdir(tmp_path)
    wide = _one_toffoli_file(tmp_path / "wide.json", MAX_WIRES + 1)
    tracemalloc.start()
    try:
        code = run_cli(*argv, "--circuit", wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 1 << 20
    assert capsys.readouterr().err == "error: circuit has 1048577 wires, over the 1048576-wire cap\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]


def test_parity_from_nekomata_refuses_a_result_wider_than_the_build_cap(tmp_path, capsys):
    from qackit.ir import MAX_WIRES

    constructor = _one_toffoli_file(tmp_path / "wide.json", MAX_WIRES)
    out = tmp_path / "parity.json"
    code = run_cli("build", "parity-from-nekomata", "--constructor", constructor, "--n", "1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: circuit has 1048578 wires, over the 1048576-wire cap\n"
    assert not out.exists()


def test_version_is_the_package_version(capsys):
    import qackit

    assert run_cli("--version") == 0
    assert capsys.readouterr().out == f"{qackit.__version__}\n"


def test_transform_hadamard_conjugate(tmp_path, capsys):
    src = tmp_path / "parity.json"
    c = circuit(3, [[cnot(1, 0)], [cnot(2, 0)]])
    src.write_text(serialize(c))
    dst = tmp_path / "fanout.json"
    code = run_cli(
        "transform", "hadamard-conjugate", "--circuit", str(src), "--n", "3", "--out", str(dst)
    )
    assert code == 0
    from qackit.statevec import unitary

    conj = deserialize(dst.read_text())
    assert np.max(np.abs(unitary(conj) - reference_unitary("fanout", 3))) < 1e-12


@pytest.mark.parametrize("n", ["0", "-1"])
def test_transform_hadamard_conjugate_rejects_nonpositive_n(n, tmp_path, capsys):
    src = tmp_path / "parity.json"
    src.write_text(serialize(circuit(3, [[cnot(1, 0)], [cnot(2, 0)]])))
    dst = tmp_path / "out.json"
    code = run_cli("transform", "hadamard-conjugate", "--circuit", str(src), "--n", n, "--out", str(dst))
    assert code == 1
    assert "error: hadamard conjugation needs n >= 1" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("depth", ["1", "0"])
def test_build_nekomata_rejects_depth_below_two(depth, tmp_path, capsys):
    out = tmp_path / "nek.json"
    assert run_cli("build", "nekomata", "--n", "6", "--depth", depth, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: depth must be at least 2\n"
    assert not out.exists()


def test_transform_lower_cli(tmp_path):
    from qackit import Or, Toffoli, validate
    from qackit.statevec import max_unitary_difference

    # a Toffoli and an Or holding their shared control at |1> and at |0>
    src = tmp_path / "mixed.json"
    c = circuit(3, [[Toffoli((0,), 1), Or((0,), 2)]])
    src.write_text(serialize(c))
    dst = tmp_path / "lowered.json"
    assert run_cli("transform", "lower", "--circuit", str(src), "--out", str(dst)) == 0
    lowered = deserialize(dst.read_text())
    assert validate(lowered) == []
    assert max_unitary_difference(c, lowered) < 1e-12


def test_transform_retired_subcommand_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "c.json"
    src.write_text(serialize(circuit(2, [[cnot(0, 1)]])))
    assert run_cli("transform", "expand-or", "--circuit", str(src), "--out", str(tmp_path / "o.json")) == 2
    assert "invalid choice: 'expand-or'" in capsys.readouterr().err


def _subcommands(parser) -> dict:
    """Subcommand name -> parser; empty when ``parser`` has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_docs_name_exactly_the_registered_subcommands():
    import pathlib
    import re

    from qackit import cli

    registered = {name: set(_subcommands(p)) for name, p in _subcommands(cli._build_parser()).items()}
    # the module docstring's "Subcommands:" sentence: ``name`` or ``name {a|b}``
    sentence = cli.__doc__.split("Subcommands:")[1].split(".")[0]
    documented = {
        name: set(subs.split("|")) if subs else set()
        for name, subs in re.findall(r"``([\w-]+)(?: \{([^}]*)\})?``", sentence)
    }
    assert documented == registered
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for command in ("build", "transform"):
        listed = readme.split(f"`{command}` subcommands:")[1].split(".")[0]
        names = {w for w in re.findall(r"`([^`]+)`", listed) if not w.startswith("-")}
        assert names == registered[command], command


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


def test_sample_summary_checks_the_read_bound_cap_before_writing(tmp_path, capsys):
    from qackit import h_gate

    # 2^16 wires, each a target: read-bound masks of up to 2^32 bits
    path = tmp_path / "wide.json"
    path.write_text(serialize(circuit(1 << 16, [[h_gate(0)]])))
    out, summary = tmp_path / "s.csv", tmp_path / "summary.json"
    code = run_cli(
        "sample", "--circuit", str(path), "--trials", "8", "--seed", "1", "--out", str(out), "--summary", str(summary)
    )
    assert code == 1
    assert "bit cap" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


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


def test_normal_form_of_a_cat_with_shared_controls_simulates(tmp_path, capsys):
    cat, nf = tmp_path / "cat9.json", tmp_path / "cat9-nf.json"
    assert run_cli("build", "cat", "--n", "9", "--m", "3", "--out", str(cat)) == 0
    assert run_cli("transform", "normal-form", "--circuit", str(cat), "--out", str(nf)) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--circuit", str(nf)) == 0
    out = capsys.readouterr().out
    assert "  000000000: 0.5\n" in out and "  111111111: 0.5\n" in out


def test_transform_refuses_to_write_an_invalid_circuit(tmp_path, capsys):
    tree, conj, nf = (tmp_path / f for f in ("tree.json", "conj.json", "nf.json"))
    assert run_cli("build", "fanout-tree", "--n", "9", "--m", "3", "--out", str(tree)) == 0
    assert run_cli("transform", "hadamard-conjugate", "--circuit", str(tree), "--out", str(conj)) == 0
    capsys.readouterr()
    # the H after the fanout stage rotates the control its reflections share
    assert run_cli("transform", "normal-form", "--circuit", str(conj), "--out", str(nf)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: normal-form gives an invalid circuit:\n")
    assert "overlapping supports on qubits [0]" in err
    assert not nf.exists() and not (tmp_path / "nf.json.manifest.json").exists()


def test_main_runs_different_subcommands_in_one_process(tmp_path, capsys):
    from qackit import cli

    tree, nf = tmp_path / "tree.json", tmp_path / "nf.json"
    assert run_cli("build", "fanout-tree", "--n", "4", "--out", str(tree)) == 0
    assert run_cli("info", "--circuit", str(tree)) == 0
    assert run_cli("verify", "--suite", "markov", "--seed", "2") == 0
    assert run_cli("transform", "normal-form", "--circuit", str(tree), "--out", str(nf)) == 0
    assert run_cli("info", "--circuit", str(nf)) == 0
    assert run_cli("simulate", "--circuit", str(nf), "--compare", str(tree)) == 0
    assert run_cli("info") == 2  # a usage error leaves the parser usable
    assert run_cli("info", "--circuit", str(tree)) == 0
    out = capsys.readouterr().out
    assert out.count("depth=2") == 3 and "markov: pass" in out
    assert cli._build_parser() is cli._build_parser()


def test_manifest_digests_are_the_sha256_of_the_bytes_on_disk(tmp_path):
    import hashlib

    nek, out, summary = tmp_path / "nek.json", tmp_path / "s.csv", tmp_path / "s.json"
    assert run_cli("build", "nekomata", "--n", "2", "--columns", "3", "--out", str(nek)) == 0
    code = run_cli(
        "sample", "--circuit", str(nek), "--trials", "50", "--seed", "1", "--out", str(out), "--summary", str(summary)
    )
    assert code == 0
    built = json.loads((tmp_path / "nek.json.manifest.json").read_text())
    sampled = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    digest = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (nek, out, summary)}
    assert built["outputs"] == {str(nek): digest[nek]}
    assert sampled["inputs"] == {str(nek): digest[nek]}
    assert sampled["outputs"] == {str(out): digest[out], str(summary): digest[summary]}


def test_a_file_in_the_per_factor_form_must_be_rebuilt(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(
        '{\n  "num_qubits": 2,\n  "targets": null,\n  "layers": [\n    [{"kind": "rtensor", "factors": '
        '[{"qubit": 0, "amp0": [1.0, 0.0], "amp1": [0.0, 0.0]}, {"qubit": 1, "amp0": [0.0, 0.0], '
        '"amp1": [1.0, 0.0]}]}]\n  ]\n}\n'
    )
    out = tmp_path / "s.csv"
    for argv in (
        ("info", "--circuit", str(old)),
        ("simulate", "--circuit", str(old)),
        ("sample", "--circuit", str(old), "--trials", "5", "--seed", "1", "--out", str(out)),
    ):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: top level: missing field 'states'\n"
    assert not out.exists()


def test_every_file_build_and_transform_write_round_trips_exactly(tmp_path):
    written = []

    def write(*argv) -> str:
        out = tmp_path / f"{len(written)}.json"
        assert run_cli(*argv, "--out", str(out)) == 0, argv
        written.append(out)
        return str(out)

    nek = write("build", "nekomata", "--n", "2", "--columns", "3")
    write("build", "nekomata", "--n", "8", "--depth", "3", "--columns", "3")
    tree = write("build", "fanout-tree", "--n", "9", "--m", "3")
    cat = write("build", "cat", "--n", "5", "--m", "2")
    parity = write("build", "parity-from-nekomata", "--constructor", nek, "--n", "2")
    for src in (nek, tree, cat, parity):
        for how in ("normal-form", "lower", "hadamard-conjugate"):
            write("transform", how, "--circuit", src)
    texts = [p.read_text() for p in written]
    assert any("-0.0" in t for t in texts)  # signed zeros are written, and must survive
    for text in texts:
        assert serialize(deserialize(text)) == text


def test_cli_commands_leave_no_qackit_object_in_a_reference_cycle(tmp_path, monkeypatch):
    # each json.dumps(..., indent=2) leaves one cycle of the stdlib's encoder
    # closures, which the collector frees; no qackit object is ever in a cycle
    import gc

    monkeypatch.chdir(tmp_path)
    commands = [
        ("build", "nekomata", "--n", "2", "--columns", "3", "--out", "nek.json", "--report", "report.json"),
        ("build", "fanout-tree", "--n", "5", "--out", "fan.json"),
        ("build", "cat", "--n", "5", "--out", "cat.json"),
        ("build", "parity-from-nekomata", "--constructor", "nek.json", "--n", "2", "--out", "par.json"),
        ("transform", "normal-form", "--circuit", "par.json", "--out", "nf.json"),
        ("transform", "lower", "--circuit", "par.json", "--out", "low.json"),
        ("transform", "hadamard-conjugate", "--circuit", "fan.json", "--out", "h.json"),
        ("simulate", "--circuit", "par.json", "--compare", "nf.json"),
        ("simulate", "--circuit", "cat.json", "--state-out", "state.json"),
        ("sample", "--circuit", "nek.json", "--trials", "64", "--seed", "1", "--out", "s.csv", "--summary", "sum.json"),
        ("sample", "--circuit", "nek.json", "--trials", "64", "--seed", "1", "--sampler", "factorized", "--out", "f.csv"),
        ("verify", "--suite", "all", "--report", "verify.json"),
        ("info", "--circuit", "par.json"),
    ]

    def module(obj) -> str:
        name = getattr(obj, "__module__", None)
        return name if isinstance(name, str) else ""

    flags = gc.get_debug()
    try:
        for argv in commands:
            # free earlier cycles for good, so that each command is judged alone
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            assert run_cli(*argv) == 0, argv
            gc.collect()
            ours = [type(o).__name__ for o in gc.garbage if module(o).startswith("qackit") or module(type(o)).startswith("qackit")]
            assert ours == [], argv
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
