"""End-to-end compositions: approximate nekomata constructors driving the
parity construction, wire permutation glue, and X-conjugation symmetry."""
from __future__ import annotations

import numpy as np
import pytest

from qackit import (
    Circuit,
    best_nekomata_fidelity,
    build_depth2_nekomata,
    circuit,
    conjugate_by_hadamards,
    depth,
    parity_from_nekomata,
    permute_qubits,
    run,
    size,
    solve_bias,
    x_gate,
    zero_state,
)
from qackit.statevec import StateVector, basis_state, unitary
from qackit.rng import substream

from conftest import reference_unitary


def targets_first(c: Circuit) -> Circuit:
    """Permute a constructor so its designated targets become wires 0..n-1."""
    targets = c.targets
    rest = [q for q in range(c.num_qubits) if q not in targets]
    perm = {old: new for new, old in enumerate(list(targets) + rest)}
    out = permute_qubits(c, perm)
    return Circuit(out.num_qubits, out.layers, tuple(range(len(targets))))


def test_x_conjugated_constructor_keeps_fidelity():
    from qackit import Layer

    bias = solve_bias(2, 3)
    c = build_depth2_nekomata(2, 3, bias)
    flipped = Circuit(
        c.num_qubits, c.layers + (Layer(tuple(x_gate(q) for q in c.targets)),), c.targets
    )
    a = best_nekomata_fidelity(run(c, zero_state(8)), c.targets)
    b = best_nekomata_fidelity(run(flipped, zero_state(8)), c.targets)
    assert b.fidelity == pytest.approx(a.fidelity, abs=1e-12)
    assert b.all_zeros_prob == pytest.approx(a.all_ones_prob, abs=1e-12)
    assert b.all_ones_prob == pytest.approx(a.all_zeros_prob, abs=1e-12)


def _worst_clean_parity_pdf(constructor: Circuit, n: int) -> float:
    a = constructor.num_qubits
    par = parity_from_nekomata(constructor, n)
    worst = 1.0
    for x in range(1 << n):
        for b in range(2):
            idx = (x << (a + 1)) | b
            out = run(par, basis_state(n + a + 1, idx))
            flip = b ^ (bin(x).count("1") & 1)
            target = np.zeros(1 << (n + a + 1), dtype=complex)
            target[(x << (a + 1)) | flip] = 1.0
            worst = min(worst, 1.0 - float(np.linalg.norm(out.amplitudes - target) ** 2))
    return worst


def test_parity_from_approximate_grid_constructor():
    # grid constructors permuted so the targets lead, plugged into the parity
    # construction.  The worst-case clean-parity error stays within 7 times
    # the constructor's nekomata error at M = 1..3 (the ratio is 5.3 / 6.1 /
    # 6.5), not at every M: it is 7.52 at n=2's paper M = 34 (see
    # test_nekomata.test_parity_error_curve_at_choose_columns).
    n = 2
    worsts = {}
    for columns in (1, 2, 3):
        bias = solve_bias(n, columns)
        grid = targets_first(build_depth2_nekomata(n, columns, bias))
        fid = best_nekomata_fidelity(run(grid, zero_state(grid.num_qubits)), grid.targets).fidelity
        par = parity_from_nekomata(grid, n)
        assert depth(par) == 4 * depth(grid) + 3
        assert size(par) == 4 * size(grid) + 2 * n + 1
        worst = _worst_clean_parity_pdf(grid, n)
        worsts[columns] = worst
        assert worst >= 1.0 - 7.0 * (1.0 - fid)
    # error shrinks as the constructor improves
    assert worsts[1] < worsts[2] < worsts[3]


def test_parity_pairs_inputs_with_the_declared_targets():
    # the grid declares its targets last; moving them first must not change
    # which wires the inputs are paired with.  Two columns, because with one
    # every target is a copy of its column wire and either pairing agrees.
    grid = build_depth2_nekomata(2, 2, solve_bias(2, 2))
    assert grid.targets == (4, 5)
    assert _worst_clean_parity_pdf(grid, 2) == pytest.approx(
        _worst_clean_parity_pdf(targets_first(grid), 2), abs=1e-12
    )


def test_parity_circuit_is_h_conjugate_of_fanout():
    from qackit import cnot

    par = circuit(3, [[cnot(1, 0)], [cnot(2, 0)]])
    fan = conjugate_by_hadamards(par, 3)
    assert np.max(np.abs(unitary(fan) - reference_unitary("fanout", 3))) < 1e-12


def test_cat_targets_first_roundtrip():
    bias = solve_bias(2, 2)
    grid = build_depth2_nekomata(2, 2, bias)
    moved = targets_first(grid)
    assert moved.targets == (0, 1)
    got = best_nekomata_fidelity(run(moved, zero_state(moved.num_qubits)), moved.targets)
    want = best_nekomata_fidelity(run(grid, zero_state(grid.num_qubits)), grid.targets)
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12)


def test_depthd_builder_at_sixteen_wires():
    from qackit import build_depthd_nekomata, core_targets, grid_law

    c = build_depthd_nekomata(8, 3, 0.35, columns=2)
    assert c.num_qubits == 16
    assert depth(c) <= 3
    state = run(c, zero_state(16))
    rep = best_nekomata_fidelity(state, c.targets)
    assert rep.all_zeros_prob == pytest.approx(0.5, abs=1e-9)
    assert rep.fidelity >= 1 - 1.5 * (0.5 - rep.all_ones_prob) - 1e-12
    # the fanout stages copy each core target, so the targets follow the core's law
    p, q, fid = grid_law(core_targets(8, 3), 2, solve_bias(4, 2))
    assert rep.all_zeros_prob == pytest.approx(p, abs=1e-12)
    assert rep.all_ones_prob == pytest.approx(q, abs=1e-12)
    assert rep.fidelity == pytest.approx(fid, abs=1e-12)


def test_parity_from_exact_cat3_constructor():
    from qackit import cnot, h_gate
    from qackit.statevec import unitary as dense

    cat3 = circuit(3, [[h_gate(0)], [cnot(0, 1)], [cnot(1, 2)]])
    par = parity_from_nekomata(cat3, 3)
    assert par.num_qubits == 7
    assert depth(par) == 4 * 2 + 3
    u = dense(par)
    for x in range(8):
        for b in range(2):
            idx_in = (x << 4) | b
            parity = bin(x).count("1") & 1
            idx_out = (x << 4) | (b ^ parity)
            expect = np.zeros(128)
            expect[idx_out] = 1.0
            assert np.max(np.abs(u[:, idx_in] - expect)) < 1e-10


def test_fanout_tree_serialization_round_trip():
    from qackit import deserialize, fanout_tree, serialize

    c = fanout_tree(9, 3)  # control-sharing layers survive the round trip
    assert deserialize(serialize(c)) == c
