from __future__ import annotations

import concurrent.futures
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qackit import (
    KET0,
    KET1,
    LocalState,
    OneQubit,
    Or,
    PLUS,
    RTensor,
    Toffoli,
    apply_gate,
    basis_state,
    best_nekomata_fidelity,
    build_depth2_nekomata,
    circuit,
    cnot,
    fidelity,
    h_gate,
    measure_in_basis,
    measurement_distribution,
    parity_from_nekomata,
    phase_dependent_fidelity,
    product_state,
    rtensor,
    run,
    solve_bias,
    to_rtensor_normal_form,
    zero_state,
)
from qackit import statevec
from qackit.statevec import MAX_COMPARE_QUBITS, MAX_QUBITS, StateVector, max_unitary_difference, unitary

from conftest import haar_local, haar_state, haar_unitary, random_multi_gate, random_qac_circuit
from qackit.rng import substream


def cat(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 2**-0.5
    return StateVector(n, amps)


def test_toffoli_definition():
    out = apply_gate(basis_state(3, "110"), Toffoli((0, 1), 2))
    assert np.argmax(np.abs(out.amplitudes)) == int("111", 2)


def test_reflection_about_one_is_z():
    g = rtensor({0: KET1})
    s0 = apply_gate(basis_state(1, "0"), g)
    s1 = apply_gate(basis_state(1, "1"), g)
    assert np.allclose(s0.amplitudes, [1, 0])
    assert np.allclose(s1.amplitudes, [0, -1])


def test_reflection_about_plus_plus():
    g = rtensor({0: PLUS, 1: PLUS})
    out = apply_gate(basis_state(2, "00"), g)
    assert np.allclose(out.amplitudes, [0.5, -0.5, -0.5, -0.5], atol=1e-12)


def test_run_parity_circuit():
    c = circuit(4, [[cnot(1, 0)], [cnot(2, 0)], [cnot(3, 0)]])
    out = run(c, basis_state(4, "0111"))
    assert np.argmax(np.abs(out.amplitudes)) == int("1111", 2)


def test_run_empty_and_hh():
    s = basis_state(2, "10")
    assert np.array_equal(run(circuit(2, []), s).amplitudes, s.amplitudes)
    c = circuit(2, [[h_gate(0)], [h_gate(0)]])
    assert np.max(np.abs(run(c, s).amplitudes - s.amplitudes)) < 1e-12


def test_fidelity_examples():
    assert fidelity(cat(2), cat(2)) == pytest.approx(1.0)
    assert fidelity(basis_state(2, "00"), basis_state(2, "11")) == 0.0
    assert fidelity(basis_state(2, "00"), cat(2)) == pytest.approx(0.5)


def test_phase_dependent_fidelity_examples():
    psi = StateVector(2, haar_state(4, substream(1)))
    assert phase_dependent_fidelity(psi, psi) == pytest.approx(1.0)
    neg = StateVector(2, -psi.amplitudes)
    assert phase_dependent_fidelity(psi, neg) == pytest.approx(-3.0)
    assert fidelity(psi, neg) == pytest.approx(1.0)
    plus = product_state([PLUS])
    assert phase_dependent_fidelity(basis_state(1, "0"), plus) == pytest.approx(2**0.5 - 1)


def test_phase_dependent_never_exceeds_fidelity():
    rng = substream(2)
    for _ in range(200):
        a = StateVector(3, haar_state(8, rng))
        b = StateVector(3, haar_state(8, rng))
        assert phase_dependent_fidelity(a, b) <= fidelity(a, b) + 1e-12


def test_measurement_distribution_cat3():
    dist = measurement_distribution(cat(3), (0, 1, 2))
    assert set(dist.probs) == {"000", "111"}
    assert dist.probs["000"] == pytest.approx(0.5)
    assert dist.probs["111"] == pytest.approx(0.5)


def test_measurement_distribution_plus_and_reflection():
    dist = measurement_distribution(product_state([PLUS]), (0,))
    assert dist.probs["0"] == pytest.approx(0.5)
    out = apply_gate(basis_state(2, "00"), rtensor({0: PLUS, 1: PLUS}))
    dist2 = measurement_distribution(out, (0, 1))
    for key in ("00", "01", "10", "11"):
        assert dist2.probs[key] == pytest.approx(0.25)


def test_measurement_distribution_qubit_order():
    s = run(circuit(2, [[h_gate(0)]]), basis_state(2, "01"))
    assert measurement_distribution(s, (1, 0)).probs["10"] == pytest.approx(0.5)


def reference_measurement_table(state: StateVector, qubits) -> dict[str, float]:
    """The target marginal as ``measurement_distribution`` computes it, with
    the table built one entry at a time."""
    m = state.num_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * m)
    drop = tuple(ax for ax in range(m) if ax not in qubits)
    if drop:
        probs = probs.sum(axis=drop)
    kept = [q for q in range(m) if q in qubits]
    probs = np.transpose(probs, [kept.index(q) for q in qubits]).reshape(-1)
    table: dict[str, float] = {}
    for i, p in enumerate(probs):
        if float(p) > 0.0:
            table[format(i, f"0{len(qubits)}b")] = float(p)
    return table


def test_measurement_distribution_matches_reference_loop():
    rng = substream(82)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        qubits = tuple(int(q) for q in rng.permutation(m)[: int(rng.integers(1, m + 1))])
        amps = haar_state(1 << m, rng)
        # exact zeros: drop every basis state whose target bits hit a banned pattern
        banned = rng.random(1 << len(qubits)) < 0.4
        banned[int(rng.integers(0, 1 << len(qubits)))] = False
        for i in range(1 << m):
            pattern = int("".join(str((i >> (m - 1 - q)) & 1) for q in qubits), 2)
            if banned[pattern]:
                amps[i] = 0.0
        state = StateVector(m, amps / np.linalg.norm(amps))
        got = measurement_distribution(state, qubits).probs
        ref = reference_measurement_table(state, qubits)
        assert list(got.items()) == list(ref.items())
        assert len(got) == (~banned).sum()
        assert all(type(p) is float for p in got.values())


def test_measure_in_basis_examples():
    branches = measure_in_basis(basis_state(1, "0"), 0, KET0)
    assert branches[0][0] == pytest.approx(1.0)
    assert branches[1][0] == 0.0 and branches[1][1] is None
    branches = measure_in_basis(product_state([PLUS]), 0, KET0)
    assert branches[0][0] == pytest.approx(0.5)
    assert branches[1][0] == pytest.approx(0.5)


def test_measurement_commutes_with_trailing_reflection():
    # measuring one wire of R_{delta x chi} psi in the delta basis matches
    # measuring psi first, then applying R_chi on the delta branch
    rng = substream(3)
    for _ in range(25):
        m = int(rng.integers(3, 5))
        wire = int(rng.integers(0, m))
        delta = haar_local(rng)
        others = [q for q in range(m) if q != wire]
        chi = {q: haar_local(rng) for q in rng.choice(others, size=int(rng.integers(1, m - 1)), replace=False)}
        psi = StateVector(m, haar_state(1 << m, rng))
        after = apply_gate(psi, rtensor({wire: delta, **chi}))
        got = measure_in_basis(after, wire, delta)
        base = measure_in_basis(psi, wire, delta)
        expect = [
            (base[0][0], apply_gate(base[0][1], rtensor(chi)) if base[0][1] else None),
            base[1],
        ]
        for (pa, sa), (pb, sb) in zip(got, expect):
            assert pa == pytest.approx(pb, abs=1e-10)
            if sa is not None:
                assert np.max(np.abs(sa.amplitudes - sb.amplitudes)) < 1e-10


def test_best_nekomata_fidelity_examples():
    rep = best_nekomata_fidelity(cat(2), (0, 1))
    assert rep.fidelity == pytest.approx(1.0)
    assert rep.all_zeros_prob == pytest.approx(0.5)
    rep2 = best_nekomata_fidelity(basis_state(2, "00"), (0, 1))
    assert rep2.fidelity == pytest.approx(0.5)
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.9)
    amps[3] = np.sqrt(0.1)
    rep3 = best_nekomata_fidelity(StateVector(2, amps), (0, 1))
    assert rep3.fidelity == pytest.approx(0.8)


def test_best_nekomata_fidelity_matches_phase_scan():
    # brute-force the best 2-nekomata (|00> e^{i phi} + |11>)/sqrt(2) and
    # compare with the closed form
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.9)
    amps[3] = np.sqrt(0.1) * np.exp(0.7j)
    state = StateVector(2, amps)
    best = 0.0
    for phi in np.linspace(0, 2 * np.pi, 4001):
        nu = np.zeros(4, dtype=complex)
        nu[0] = np.exp(1j * phi) * 2**-0.5
        nu[3] = 2**-0.5
        best = max(best, abs(np.vdot(nu, amps)) ** 2)
    rep = best_nekomata_fidelity(state, (0, 1))
    assert rep.fidelity == pytest.approx(best, abs=1e-6)


def test_best_nekomata_upper_bound_random():
    rng = substream(4)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        state = StateVector(m, haar_state(1 << m, rng))
        n_targets = int(rng.integers(1, m + 1))
        targets = tuple(int(q) for q in rng.choice(m, size=n_targets, replace=False))
        rep = best_nekomata_fidelity(state, targets)
        assert rep.fidelity <= 0.5 + np.sqrt(min(rep.all_zeros_prob, rep.all_ones_prob)) + 1e-12
        assert (rep.fidelity > 1 - 1e-9) == (
            abs(rep.all_zeros_prob - 0.5) < 1e-9 and abs(rep.all_ones_prob - 0.5) < 1e-9
        )


def test_controlled_target_probability_state():
    # states with p = 1/2 exactly and q >= 1/2 - (2/3)eps have best fidelity >= 1 - eps
    rng = substream(5)
    for _ in range(50):
        eps = float(rng.random() * 0.4 + 0.05)
        q = 0.5 - (2.0 / 3.0) * eps * float(rng.random())
        amps = np.zeros(8, dtype=complex)
        amps[0] = np.sqrt(0.5)
        amps[7] = np.sqrt(q)
        amps[3] = np.sqrt(0.5 - q)  # junk outside both target sectors
        rep = best_nekomata_fidelity(StateVector(3, amps), (0, 1))
        assert abs(rep.all_zeros_prob - 0.5) < 1e-12
        assert rep.fidelity >= 1 - eps - 1e-12


def test_norm_preservation_random_gates():
    rng = substream(6)
    for _ in range(60):
        c = random_qac_circuit(rng, max_qubits=5, max_depth=3)
        state = StateVector(c.num_qubits, haar_state(1 << c.num_qubits, rng))
        out = run(c, state)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_unitary_matches_run():
    rng = substream(7)
    c = random_qac_circuit(rng, max_qubits=4, max_depth=3)
    u = unitary(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10
    for idx in range(1 << c.num_qubits):
        out = run(c, basis_state(c.num_qubits, idx))
        assert np.max(np.abs(u[:, idx] - out.amplitudes)) < 1e-12


def wide_circuit(m: int, rng: np.random.Generator):
    """Three layers over all m wires: one-qubit gates, then multi-qubit gates."""
    layers = []
    for _ in range(3):
        layers.append([OneQubit(q, haar_unitary(rng)) for q in range(m) if rng.random() < 0.5])
        wires = [int(q) for q in rng.permutation(m)]
        layers.append([random_multi_gate(wires[i : i + 3], rng) for i in range(0, m - 2, 3)])
    return circuit(m, [lay for lay in layers if lay])


@pytest.mark.parametrize("m", [10, 11])
def test_unitary_matches_run_at_the_edges_of_every_block(m):
    rng = substream(83 + m)
    c = wide_circuit(m, rng)
    dim = 1 << m
    cols = statevec._BLOCK_AMPS >> m
    assert 1 < dim // cols  # more than one block
    u = unitary(c)
    for j in range(0, dim, cols):
        for idx in (j, j + cols - 1):
            out = run(c, basis_state(m, idx))
            assert np.max(np.abs(u[:, idx] - out.amplitudes)) < 1e-12


def test_unitary_peak_memory_stays_near_the_result_size():
    nek = build_depth2_nekomata(2, 3, solve_bias(2, 3))
    par = parity_from_nekomata(nek, 2)
    assert par.num_qubits == 11
    tracemalloc.start()
    try:
        u = unitary(par)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * u.nbytes


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        fidelity(zero_state(2), zero_state(3))
    with pytest.raises(ValueError):
        run(circuit(3, []), zero_state(2))
    with pytest.raises(ValueError):
        measurement_distribution(zero_state(2), (5,))


def test_width_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            zero_state(MAX_QUBITS + 1)
        with pytest.raises(ValueError):
            basis_state(MAX_QUBITS + 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        zero_state(0)


@pytest.mark.parametrize("index", [-1, 8])
def test_basis_index_out_of_range(index):
    with pytest.raises(ValueError):
        basis_state(3, index)


# ---------------------------------------------------------------------------
# independent reference: each gate's full matrix built from its definition

I2 = np.eye(2, dtype=complex)


def kron_wires(m: int, ops: dict) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for q in range(m):
        out = np.kron(out, ops.get(q, I2))
    return out


def reference_gate_matrix(m: int, g) -> np.ndarray:
    if isinstance(g, OneQubit):
        return kron_wires(m, {g.qubit: g.matrix})
    if isinstance(g, RTensor):
        projector = kron_wires(m, {q: np.outer(s.vec(), s.vec().conj()) for q, s in g.factors})
        return np.eye(1 << m) - 2.0 * projector
    # |x, b> -> |x, b ^ f(x)>: a permutation of basis states
    combine = all if isinstance(g, Toffoli) else any
    perm = np.zeros((1 << m, 1 << m))
    for i in range(1 << m):
        bits = [(i >> (m - 1 - q)) & 1 for q in range(m)]
        flip = combine(bits[c] for c in g.controls)
        perm[i ^ (flip << (m - 1 - g.target)), i] = 1.0
    return perm


def reference_unitary(c) -> np.ndarray:
    u = np.eye(1 << c.num_qubits, dtype=complex)
    for lay in c.layers:
        for g in lay.gates:
            u = reference_gate_matrix(c.num_qubits, g) @ u
    return u


def full_cover_circuits():
    """Toffoli and Or whose controls are every wire but the target, and a
    reflection over every wire, so that the kernels work on 0-d views."""
    for m in (2, 3, 4):
        rest = tuple(range(1, m))
        yield circuit(m, [[Toffoli(rest, 0)]])
        yield circuit(m, [[Or(rest, 0)]])
        yield circuit(m, [[Or(tuple(range(m - 1)), m - 1)]])
        yield circuit(m, [[RTensor(tuple((q, PLUS) for q in range(m)))]])


def test_kernels_match_kron_reference(monkeypatch):
    check_kernels_against_kron_reference(monkeypatch)


def test_kernels_match_kron_reference_when_every_gate_splits(monkeypatch):
    # every gate that leaves a wire free splits, on any machine
    monkeypatch.setattr(statevec, "_SPLIT_AMPS", 1)
    splits = count_splits(monkeypatch)
    check_kernels_against_kron_reference(monkeypatch)
    assert splits


def check_kernels_against_kron_reference(monkeypatch):
    rng = substream(8)
    circuits = list(full_cover_circuits())
    circuits += [random_qac_circuit(rng, max_qubits=6, max_depth=4) for _ in range(60)]
    for c in circuits:
        ref = reference_unitary(c)
        assert np.max(np.abs(unitary(c) - ref)) < 1e-12
        for block_amps in (1, 1 << 7):  # many column blocks, of one and of several columns
            with monkeypatch.context() as patch:
                patch.setattr(statevec, "_BLOCK_AMPS", block_amps)
                assert np.max(np.abs(unitary(c) - ref)) < 1e-12
        amps = haar_state(1 << c.num_qubits, rng)
        out = run(c, StateVector(c.num_qubits, amps))
        assert np.max(np.abs(out.amplitudes - ref @ amps)) < 1e-12


def test_state_does_not_follow_the_array_it_was_built_from():
    amps = haar_state(8, substream(80))
    state = StateVector(3, amps)
    before = state.amplitudes.copy()
    amps[:] = 0.0
    assert np.array_equal(state.amplitudes, before)
    assert not state.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_run_hands_its_buffer_to_the_result_without_a_second_copy():
    m = 16
    state = StateVector(m, haar_state(1 << m, substream(81)))
    c = circuit(m, [[Toffoli((0, 1, 2, 3), 4)]])
    tracemalloc.start()
    try:
        out = run(c, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state_bytes = 16 << m
    # one copy of the input plus the Toffoli's 1/32-size swap buffer
    assert peak < 1.25 * state_bytes
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    expected = state.amplitudes.reshape((2,) * m).copy()
    expected[1, 1, 1, 1] = expected[1, 1, 1, 1, ::-1]
    assert np.array_equal(out.amplitudes, expected.reshape(-1))


# ---------------------------------------------------------------------------
# two threads, and the streaming comparison


def dense_check_pair():
    """The 11-wire parity circuit and its normal form."""
    par = parity_from_nekomata(build_depth2_nekomata(2, 3, solve_bias(2, 3)), 2)
    return par, to_rtensor_normal_form(par)


def count_splits(monkeypatch) -> list:
    """Let gates split as on two CPUs; the returned list grows by one per split."""
    splits = []
    helper = statevec._helper_thread

    def counted():
        splits.append(1)
        return helper()

    monkeypatch.setattr(statevec, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(statevec, "_helper_thread", counted)
    return splits


def test_split_runs_give_identical_bits(monkeypatch):
    splits = count_splits(monkeypatch)
    m = 17
    c = wide_circuit(m, substream(90))
    state = StateVector(m, haar_state(1 << m, substream(91)))
    first, again = run(c, state), run(c, state)
    assert len(splits) == 2 * sum(len(lay.gates) for lay in c.layers)
    assert np.array_equal(first.amplitudes, again.amplitudes)


def test_split_gate_stays_on_one_thread_without_a_second_cpu(monkeypatch):
    monkeypatch.setattr(statevec, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(statevec, "_helper_thread", lambda: pytest.fail("split on one CPU"))
    monkeypatch.setattr(statevec, "_SPLIT_AMPS", 1)
    c = random_qac_circuit(substream(92), max_qubits=6, max_depth=3)
    u = unitary(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


def test_reflection_kernel_calls_no_public_function(monkeypatch):
    # the kernel may run on the helper thread, where no public call belongs
    def refuse(factors):
        raise AssertionError("product_state called")

    monkeypatch.setattr(statevec, "product_state", refuse)
    monkeypatch.setattr(statevec, "_SPLIT_AMPS", 1)
    splits = count_splits(monkeypatch)
    rng = substream(93)
    g = RTensor(((0, haar_local(rng)), (2, haar_local(rng))))
    out = run(circuit(3, [[g]]), zero_state(3))
    ref = reference_gate_matrix(3, g)[:, 0]
    assert splits and np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_max_unitary_difference_equals_the_dense_difference():
    rng = substream(94)
    pairs = [dense_check_pair()]
    pairs.append((wide_circuit(10, rng), wide_circuit(10, rng)))
    for a, b in pairs:
        assert max_unitary_difference(a, b) == np.max(np.abs(unitary(a) - unitary(b)))


def test_max_unitary_difference_stores_neither_unitary():
    par, nf = dense_check_pair()
    unitary_bytes = 16 << (2 * par.num_qubits)
    tracemalloc.start()
    try:
        dev = max_unitary_difference(nf, par)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dev < 1e-12
    assert peak <= 0.5 * unitary_bytes


def test_max_unitary_difference_at_the_compare_cap():
    # two unitaries of 2^13 x 2^13 would be 2 GiB; the compare holds two blocks
    m = MAX_COMPARE_QUBITS
    assert m == 13
    rng = substream(95)
    a = circuit(m, [[RTensor(tuple((q, haar_local(rng)) for q in range(0, m, 2)))], [Toffoli((0, 5), 12)]])
    b = circuit(m, [[Toffoli((0, 5), 12)], [RTensor(tuple((q, haar_local(rng)) for q in range(1, m, 3)))]])
    assert max_unitary_difference(a, a) == 0.0
    # on a basis state neither reflection's state is orthogonal to, the two differ
    assert max_unitary_difference(a, b) > 1e-3
    with pytest.raises(ValueError, match="capped at 12"):
        unitary(a)


def test_max_unitary_difference_checks_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 13"):
            max_unitary_difference(circuit(14, []), circuit(14, []))
        with pytest.raises(ValueError, match="differ in qubit count"):
            max_unitary_difference(circuit(3, []), circuit(4, []))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_helper_thread(monkeypatch):
    # the parent's helper thread does not exist in a forked child
    monkeypatch.setattr(statevec, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(statevec, "_SPLIT_AMPS", 1)
    c = circuit(3, [[h_gate(0)], [cnot(0, 1)]])
    expected = run(c, zero_state(3)).amplitudes
    pid = os.fork()
    if pid == 0:
        ok = np.array_equal(run(c, zero_state(3)).amplitudes, expected)
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on the parent's helper thread")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_callers_on_many_threads_share_one_helper(monkeypatch):
    monkeypatch.setattr(statevec, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(statevec, "_SPLIT_AMPS", 1)
    monkeypatch.setattr(statevec, "_helper", None)
    created = []

    class CountedExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedExecutor)
    rng = substream(96)
    circuits = [random_qac_circuit(rng, max_qubits=6, max_depth=4) for _ in range(8)]
    with monkeypatch.context() as serial:
        serial.setattr(statevec, "_SPLIT_AMPS", 1 << 60)
        expected = [unitary(c) for c in circuits]
    results = [None] * len(circuits)
    start = threading.Barrier(len(circuits))

    def work(i):
        start.wait(timeout=60)
        results[i] = unitary(circuits[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(circuits))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert np.max(np.abs(got - want)) < 1e-12
    assert len(created) == 1
    statevec._helper.shutdown()
