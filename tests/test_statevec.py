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
    MINUS,
    OneQubit,
    Or,
    PLUS,
    RTensor,
    Toffoli,
    basis_state,
    best_nekomata_fidelity,
    build_depth2_nekomata,
    cat_from_restricted_fanout,
    circuit,
    cnot,
    fanout_tree,
    h_gate,
    measurement_distribution,
    parity_from_nekomata,
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
    out = run(circuit(3, [[Toffoli((0, 1), 2)]]), basis_state(3, "110"))
    assert np.argmax(np.abs(out.amplitudes)) == int("111", 2)


def test_reflection_about_one_is_z():
    g = rtensor({0: KET1})
    s0 = run(circuit(1, [[g]]), basis_state(1, "0"))
    s1 = run(circuit(1, [[g]]), basis_state(1, "1"))
    assert np.allclose(s0.amplitudes, [1, 0])
    assert np.allclose(s1.amplitudes, [0, -1])


def test_reflection_about_plus_plus():
    g = rtensor({0: PLUS, 1: PLUS})
    out = run(circuit(2, [[g]]), basis_state(2, "00"))
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


def test_measurement_distribution_cat3():
    dist = measurement_distribution(cat(3), (0, 1, 2))
    assert set(dist.probs) == {"000", "111"}
    assert dist.probs["000"] == pytest.approx(0.5)
    assert dist.probs["111"] == pytest.approx(0.5)


def test_measurement_distribution_plus_and_reflection():
    dist = measurement_distribution(product_state([PLUS]), (0,))
    assert dist.probs["0"] == pytest.approx(0.5)
    out = run(circuit(2, [[rtensor({0: PLUS, 1: PLUS})]]), basis_state(2, "00"))
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


def control_read_circuit(m: int):
    """H on wires 2.. and then a Toffoli from wires 0 and 1 onto each of
    them: wires 0 and 1 are only read at |1>."""
    return circuit(m, [[h_gate(q) for q in range(2, m)], *([Toffoli((0, 1), q)] for q in range(2, m))])


def block_columns(m: int, moved: set) -> int:
    """Columns per block of ``unitary`` on a circuit of m wires that moves the
    wires ``moved``: ``2**k`` for the largest k at which a buffer over those
    wires and the last k holds at most ``_BLOCK_AMPS`` amplitudes."""
    fits = [k for k in range(m + 1) if (1 << k) << len(moved | set(range(m - k, m))) <= statevec._BLOCK_AMPS]
    return 1 << max(fits, default=0)


@pytest.mark.parametrize("m, controls", [(10, False), (11, False), (11, True)], ids=["10", "11", "controls"])
def test_unitary_matches_run_at_the_edges_of_every_block(m, controls):
    rng = substream(83 + m)
    c = control_read_circuit(m) if controls else wide_circuit(m, rng)
    dim = 1 << m
    cols = block_columns(m, set(range(2 if controls else 0, m)))
    assert 1 < dim // cols  # more than one block
    u = unitary(c)
    for j in range(0, dim, cols):
        for idx in (j, j + cols - 1):
            out = run(c, basis_state(m, idx))
            assert np.max(np.abs(u[:, idx] - out.amplitudes)) < 1e-12


def test_each_gate_kernel_is_built_once_for_all_the_column_blocks(monkeypatch):
    built = []
    slab_kernel = statevec._slab_kernel
    monkeypatch.setattr(statevec, "_slab_kernel", lambda g, m: built.append(g) or slab_kernel(g, m))
    monkeypatch.setattr(statevec, "_BLOCK_AMPS", 1 << 7)
    rng = substream(98)
    a, b = wide_circuit(6, rng), wide_circuit(6, rng)
    gates = [sum(len(lay.gates) for lay in c.layers) for c in (a, b)]
    unitary(a)
    assert len(built) == gates[0]
    built.clear()
    max_unitary_difference(a, b)
    assert len(built) == sum(gates)


def record_buffer_sizes(monkeypatch) -> list:
    """The returned list grows by the buffer's size, in amplitudes, at each gate."""
    sizes = []
    apply_in_place = statevec._apply_in_place

    def recorded(buf, k, step, bits):
        sizes.append(buf.size)
        apply_in_place(buf, k, step, bits)

    monkeypatch.setattr(statevec, "_apply_in_place", recorded)
    return sizes


def test_unitary_blocks_start_on_the_wires_their_columns_span(monkeypatch):
    m = 11
    cols = statevec._BLOCK_AMPS >> m
    sizes = record_buffer_sizes(monkeypatch)
    unitary(circuit(m, [[cnot(0, 1)], [h_gate(q) for q in range(m)]]))
    # the first gate runs on wires 0 and 1 and the last log2(cols) wires only
    assert sizes[0] < (1 << m) * cols
    assert max(sizes) == (1 << m) * cols


def test_unitary_blocks_widen_over_control_only_wires(monkeypatch):
    # wires 0 and 1 stay out of every buffer, so a block spans more columns
    m = 11
    cols = block_columns(m, set(range(2, m)))
    sizes = record_buffer_sizes(monkeypatch)

    def check_block_runs(circuits):
        gates = sum(len(lay.gates) for c in circuits for lay in c.layers)
        runs = len(sizes) // gates
        assert len(sizes) == runs * gates
        assert max(sizes) <= statevec._BLOCK_AMPS
        assert runs == (1 << m) // cols < (1 << m) // (statevec._BLOCK_AMPS >> m)
        sizes.clear()

    c = control_read_circuit(m)
    unitary(c)
    check_block_runs([c])
    pair = dense_check_pair()
    max_unitary_difference(*pair)
    check_block_runs(pair)


def test_unitary_peak_memory_stays_near_the_result_size():
    nek = build_depth2_nekomata(2, 3, solve_bias(2, 3))
    par = parity_from_nekomata(nek, 2)
    assert par.num_qubits == 11
    for c in (par, to_rtensor_normal_form(par)):
        tracemalloc.start()
        try:
            u = unitary(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * u.nbytes


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        run(circuit(3, []), zero_state(2))
    with pytest.raises(ValueError):
        measurement_distribution(zero_state(2), (5,))
    for targets in ((5,), (0, -1)):
        with pytest.raises(ValueError, match="out of range for 2 qubits"):
            best_nekomata_fidelity(zero_state(2), targets)


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


def phased(s: LocalState, phi: float) -> LocalState:
    z = complex(np.exp(1j * phi))
    return LocalState(z * s.amp0, z * s.amp1)


def control_wire_circuits():
    """Circuits whose early wires some gates only read at |0> or |1> up to
    phase, so that those wires stay out of the buffer while they do."""
    m = 6
    minus0, i1 = phased(KET0, np.pi), phased(KET1, np.pi / 2)
    x = np.array([[0, 1], [1, 0]])
    # phased controls on wires out of the buffer: a contraction, then an X
    yield circuit(m, [[rtensor({0: minus0, 1: i1, 2: PLUS})], [rtensor({0: i1, 3: minus0, 4: MINUS})]])
    # every factor on a wire out of the buffer: a sign on the whole buffer,
    # first on an empty buffer, then on one that holds wire 2
    yield circuit(m, [[rtensor({0: minus0, 1: i1})], [h_gate(2)], [rtensor({0: i1, 1: minus0, 5: KET1})]])
    # Toffoli and Or with every control out, and with one control held
    yield circuit(m, [[Toffoli((0, 1), 4)], [Or((0, 1, 2), 3)], [h_gate(1)], [Or((0, 1), 5), Toffoli((2, 3), 4)]])
    # control-only wires that later take an H or an X join at their bits
    yield circuit(
        m,
        [
            [Toffoli((0, 1), 2), Or((3, 4), 5)],
            [h_gate(0), OneQubit(3, x)],
            [OneQubit(1, x), Toffoli((0, 3), 4)],
            [Or((1, 4), 2), h_gate(5)],
        ],
    )


def full_cover_circuits():
    """Toffoli and Or whose controls are every wire but the target, and a
    reflection over every wire, so that the kernels work on 0-d views; then
    reflections whose |0>/|1> factors pick the slice they act on."""
    for m in (2, 3, 4):
        rest = tuple(range(1, m))
        yield circuit(m, [[Toffoli(rest, 0)]])
        yield circuit(m, [[Or(rest, 0)]])
        yield circuit(m, [[Or(tuple(range(m - 1)), m - 1)]])
        yield circuit(m, [[RTensor(tuple((q, PLUS) for q in range(m)))]])
    one, minus, general = phased(KET1, 0.7), phased(MINUS, -1.3), LocalState(0.6, 0.8j)
    # not |-> up to phase, and not |1> up to rounding (its norm is off by 8e-13)
    near_minus = LocalState(2**-0.5, -np.exp(1e-6j) * 2**-0.5)
    near_one = LocalState(0.0, 1.0 + 4e-13)
    # a zero diagonal: a swap of the two slices, then a phase on each that is not 1
    x, y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    anti = np.array([[0, np.exp(0.4j)], [np.exp(-2.1j), 0]])
    half = np.array([[0, 1], [-1j, 0]])
    for m in (2, 3):
        last = m - 1
        yield circuit(m, [[OneQubit(0, x)], [OneQubit(last, y)], [OneQubit(0, anti), OneQubit(1, half)]])
    for m in (3, 4):
        last = m - 1
        # no factor left: -1 on the slice, on every wire a 0-d slice
        yield circuit(m, [[rtensor({0: KET0, 2: one})]])
        yield circuit(m, [[RTensor(tuple((q, phased(KET0, q) if q % 2 else one) for q in range(m)))]])
        # a lone |-> up to phase: X on the slice, or everywhere
        yield circuit(m, [[rtensor({1: KET0, 0: one, last: minus})]])
        yield circuit(m, [[rtensor({1: minus})]])
        # general factors contracted on the slice
        yield circuit(m, [[rtensor({1: one, 0: PLUS, last: general})]])
        yield circuit(m, [[rtensor({0: KET0, 1: general})]])
        # near misses stay in the contraction
        yield circuit(m, [[rtensor({0: KET1, last: near_minus})]])
        yield circuit(m, [[rtensor({1: near_minus})]])
        yield circuit(m, [[rtensor({0: KET0, 1: near_one})]])


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
    circuits += control_wire_circuits()
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


def test_control_only_wires_match_kron_reference_from_every_basis_state():
    # a basis input starts the buffer empty; the column blocks are checked
    # against the same reference above
    for c in control_wire_circuits():
        ref = reference_unitary(c)
        m = c.num_qubits
        for j in range(1 << m):
            out = run(c, basis_state(m, j))
            assert np.max(np.abs(out.amplitudes - ref[:, j])) < 1e-12


def test_control_only_wires_never_join_the_buffer(monkeypatch):
    # the parity circuit's two inputs are read only by CZ-type reflections
    par = dense_check_pair()[0]
    m = par.num_qubits
    cols = block_columns(m, set(range(2, m)))
    sizes = record_buffer_sizes(monkeypatch)
    unitary(par)
    assert len(sizes) == (1 << m) // cols * sum(len(lay.gates) for lay in par.layers)
    assert max(sizes) == (1 << (m - 2)) * cols


def test_run_from_a_basis_state_matches_the_unitary_column():
    rng = substream(99)
    for _ in range(40):
        c = random_qac_circuit(rng, max_qubits=9, max_depth=4)
        m = c.num_qubits
        u = unitary(c)
        for j in {0, 5 % (1 << m), (1 << m) - 1, int(rng.integers(1 << m))}:
            out = run(c, basis_state(m, j))
            assert np.max(np.abs(out.amplitudes - u[:, j])) < 1e-12


def test_run_from_a_basis_state_keeps_untouched_wires_and_the_phase():
    m = 5
    # wires 0, 2 and 4 are touched by no gate, wire 3 first by the second layer
    c = circuit(m, [[h_gate(1)], [cnot(1, 3)], [rtensor({1: KET1, 3: PLUS})]])
    ref = reference_unitary(c)
    for j in (0, 0b10101, 0b01010, 0b11111):
        amps = 1j * basis_state(m, j).amplitudes
        for c_run, expected in ((c, ref @ amps), (circuit(m, []), amps)):
            out = run(c_run, StateVector(m, amps))
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-15
            assert not out.amplitudes.flags.writeable
            assert not np.shares_memory(out.amplitudes, amps)


def test_run_checks_the_width_and_every_gate_support_on_any_input():
    bad = circuit(3, [[h_gate(0)], [cnot(1, 5)]])
    for state in (zero_state(3), StateVector(3, haar_state(8, substream(100)))):
        with pytest.raises(ValueError, match=r"gate support \(1, 5\) out of range for 3 qubits"):
            run(bad, state)
        with pytest.raises(ValueError, match="circuit and state qubit counts differ"):
            run(circuit(4, [[h_gate(0)]]), state)


def test_a_control_only_wire_out_of_range_is_still_rejected():
    # wire 5 never joins the buffer, but the gate's whole support is checked
    for g, wires in ((Toffoli((5,), 1), r"\(1, 5\)"), (rtensor({0: KET0, 5: KET1}), r"\(0, 5\)")):
        bad = circuit(3, [[g]])
        message = rf"gate support {wires} out of range for 3 qubits"
        for state in (zero_state(3), StateVector(3, haar_state(8, substream(101)))):
            with pytest.raises(ValueError, match=message):
                run(bad, state)
        with pytest.raises(ValueError, match=message):
            unitary(bad)


# The last widening adds one wire, so it holds a half and a whole.  On the
# grid, the last Or's X then swaps the two halves of the whole buffer: a half
# for the swap and a half that numpy copies, as the two views' bounds overlap.
@pytest.mark.parametrize("which, bound", [("grid", 2.05), ("cat", 1.55)])
def test_run_from_zero_widens_without_a_second_full_buffer(which, bound):
    if which == "grid":
        c = build_depth2_nekomata(3, 6, solve_bias(3, 6))
    else:
        c = cat_from_restricted_fanout(fanout_tree(20, 2), 20)
    state = zero_state(c.num_qubits)
    assert c.num_qubits == (21 if which == "grid" else 20)
    tracemalloc.start()
    try:
        out = run(c, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * state.amplitudes.nbytes
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_normal_form_of_the_cat_circuit_matches_its_toffolis():
    m = 12
    c = cat_from_restricted_fanout(fanout_tree(m, 2), m)
    nf = to_rtensor_normal_form(c)
    assert any(isinstance(g, Toffoli) for lay in c.layers for g in lay.gates)
    assert all(isinstance(g, (OneQubit, RTensor)) for lay in nf.layers for g in lay.gates)
    for state in (zero_state(m), StateVector(m, haar_state(1 << m, substream(97)))):
        assert np.max(np.abs(run(nf, state).amplitudes - run(c, state).amplitudes)) < 1e-12


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
    # a dense input, so that the buffer holds wire 1, which the gate leaves free
    amps = haar_state(8, rng)
    out = run(circuit(3, [[g]]), StateVector(3, amps))
    ref = reference_gate_matrix(3, g) @ amps
    assert splits and np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_max_unitary_difference_equals_the_dense_difference():
    rng = substream(94)
    pairs = [dense_check_pair()]
    pairs.append((wide_circuit(10, rng), wide_circuit(10, rng)))
    for a, b in pairs:
        assert max_unitary_difference(a, b) == np.max(np.abs(unitary(a) - unitary(b)))


@pytest.mark.parametrize("block_amps", [1, 1 << 3])
def test_max_unitary_difference_on_blocks_that_hold_different_wires(monkeypatch, block_amps):
    # a moves wire 0, which b only reads at |1>; neither moves wires 1, 2 and 4
    m = 5
    a = circuit(m, [[h_gate(0)], [Toffoli((0,), 3)]])
    b = circuit(m, [[Toffoli((0,), 3)]])
    monkeypatch.setattr(statevec, "_BLOCK_AMPS", block_amps)
    sizes = record_buffer_sizes(monkeypatch)
    dev = max_unitary_difference(a, b)
    # one column per block: a's Toffoli holds wires 0 and 3, b's wire 3 alone
    assert {2, 4} <= set(sizes)
    assert dev > 0.5
    assert dev == np.max(np.abs(unitary(a) - unitary(b)))


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
