from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qackit import (
    KET1,
    MINUS,
    OneQubit,
    Or,
    PLUS,
    RTensor,
    Toffoli,
    basis_state,
    build_depth2_nekomata,
    build_depthd_nekomata,
    cat_from_restricted_fanout,
    circuit,
    cnot,
    conjugate_by_hadamards,
    cz,
    dagger,
    depth,
    fanout_tree,
    h_gate,
    lower,
    parity_from_nekomata,
    rtensor,
    run,
    size,
    solve_bias,
    to_rtensor_normal_form,
    topology,
    validate,
    x_gate,
    zero_state,
)
from qackit.statevec import max_unitary_difference, unitary

from conftest import haar_local, or_cz_collapses, random_qac_circuit, reference_classical, reference_unitary
from qackit.rng import substream


def parity_circuit(n: int):
    """CNOT chain computing |b, x> -> |b ^ parity(x), x> with b on wire 0."""
    return circuit(n, [[cnot(j, 0)] for j in range(1, n)])


# ---------------------------------------------------------------------------
# lower


def assert_lowered(c, lowered, atol=1e-12):
    """``lowered`` holds only one-qubit gates and Toffolis, passes
    ``validate`` and has ``c``'s unitary."""
    assert all(isinstance(g, (OneQubit, Toffoli)) for g in lowered.gates())
    assert validate(lowered) == []
    assert max_unitary_difference(c, lowered) <= atol


def test_lower_or_action_on_basis_states():
    c = circuit(4, [[Or((0, 1, 2), 3)]])
    lowered = lower(c)
    assert all(not isinstance(g, Or) for g in lowered.gates())
    for bits, expect in [("0000", "0000"), ("0100", "0101"), ("1110", "1111")]:
        out = run(lowered, basis_state(4, bits))
        assert np.argmax(np.abs(out.amplitudes)) == int(expect, 2)


def test_lower_or_unitary_and_topology():
    c = circuit(4, [[Or((0, 1, 2), 3)]])
    lowered = lower(c)
    assert_lowered(c, lowered)
    assert topology(lowered) == topology(c)


def test_lower_random_layers():
    rng = substream(21)
    for _ in range(20):
        c = random_qac_circuit(rng, max_qubits=6, max_depth=3)
        lowered = lower(c)
        assert topology(lowered) == topology(c)
        assert_lowered(c, lowered, atol=1e-10)


def reflection_matrix(factors: dict) -> np.ndarray:
    vec = np.array([1.0], dtype=complex)
    for q in sorted(factors):
        vec = np.kron(vec, factors[q].vec())
    dim = len(vec)
    return np.eye(dim) - 2.0 * np.outer(vec, vec.conj())


def lowered_reflection_matrix(factors: dict) -> np.ndarray:
    lowered = lower(circuit(len(factors), [[rtensor(factors)]]))
    assert all(isinstance(g, (OneQubit, Toffoli)) for g in lowered.gates())
    return unitary(lowered)


def test_synthesize_identity_layer_for_toffoli_state():
    lowered = lower(circuit(3, [[rtensor({0: KET1, 1: KET1, 2: MINUS})]]))
    assert [lay.gates for lay in lowered.layers] == [(Toffoli((0, 1), 2),)]


def test_synthesize_single_factor_reflection():
    lowered = lower(circuit(1, [[rtensor({0: PLUS})]]))
    assert [type(g) for g in lowered.gates()] == [OneQubit]
    assert np.max(np.abs(unitary(lowered) - reflection_matrix({0: PLUS}))) < 1e-10


def test_synthesize_two_factor():
    factors = {0: KET1, 1: PLUS}
    assert np.max(np.abs(lowered_reflection_matrix(factors) - reflection_matrix(factors))) < 1e-10


def test_synthesize_random_factors():
    rng = substream(22)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        factors = {q: haar_local(rng) for q in range(k)}
        assert np.max(np.abs(lowered_reflection_matrix(factors) - reflection_matrix(factors))) < 1e-10


def _lowering_cases():
    grid = build_depth2_nekomata(2, 3, solve_bias(2, 3))
    # on 9 wires: the 11-wire parity circuit of ``grid`` takes seconds to compare
    par = parity_from_nekomata(build_depth2_nekomata(2, 2, solve_bias(2, 2)), 2)
    cat = cat_from_restricted_fanout(fanout_tree(8, 2), 8)
    return {
        "grid": grid,
        "depth-3 builder": build_depthd_nekomata(4, 3, 0.25, columns=2),
        "fanout tree": fanout_tree(9, 3),
        "cat": cat,
        "parity": par,
        "parity normal form": to_rtensor_normal_form(par),
        "cat normal form": to_rtensor_normal_form(cat),
        "fanout tree normal form": to_rtensor_normal_form(fanout_tree(9, 3)),
    }


def test_lower_keeps_size_and_depth_of_builders_and_normal_forms():
    # no builder or normal form shares a wire at two basis values in a layer
    for name, c in _lowering_cases().items():
        lowered = lower(c)
        assert_lowered(c, lowered)
        assert (size(lowered), depth(lowered)) == (size(c), depth(c)), name


def test_lower_merges_adjacent_one_qubit_layers():
    # the 11-wire parity circuit of the dense check: one layer of one-qubit
    # gates between Toffoli layers, where unmerged lowering wrote 154 gates
    # in 38 layers
    c = parity_from_nekomata(build_depthd_nekomata(2, 2, 0.25, columns=3), 2)
    lowered = lower(c)
    assert_lowered(c, lowered)
    assert (len(list(lowered.gates())), len(lowered.layers)) == (118, 23)
    assert (size(lowered), depth(lowered)) == (size(c), depth(c)) == (25, 11)
    one_qubit = [all(isinstance(g, OneQubit) for g in lay.gates) for lay in lowered.layers]
    assert not any(a and b for a, b in zip(one_qubit, one_qubit[1:]))


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_one_qubit_layer_unchanged_shape():
    c = circuit(3, [[h_gate(0), x_gate(2)]])
    nf = to_rtensor_normal_form(c)
    assert depth(nf) == 0
    assert np.max(np.abs(unitary(nf) - unitary(c))) < 1e-12


def test_normal_form_trailing_x_pushed_to_front():
    # Toffoli followed by X on its control: the X moves to the initial layer
    # and the Toffoli becomes the reflection about |0, 1, ->
    c = circuit(3, [[Toffoli((0, 1), 2)], [x_gate(0)]])
    nf = to_rtensor_normal_form(c)
    assert np.max(np.abs(unitary(nf) - unitary(c))) < 1e-10
    first = nf.layers[0]
    assert all(isinstance(g, OneQubit) for g in first.gates)
    assert len(first.gates) == 1 and first.gates[0].qubit == 0
    refl = nf.layers[1].gates[0]
    assert isinstance(refl, RTensor)
    states = dict(refl.factors)
    assert abs(abs(states[0].amp0) - 1.0) < 1e-12  # control factor is |0> up to phase
    assert abs(abs(states[1].amp1) - 1.0) < 1e-12


def test_normal_form_allocates_per_touched_wire_not_per_wire():
    # one Toffoli on 2^16 wires; a pending gate per wire would take 12.5 MiB
    c = circuit(1 << 16, [[Toffoli((0, 1), 2)]])
    tracemalloc.start()
    try:
        nf = to_rtensor_normal_form(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(nf.layers) == 1 and len(nf.layers[0].gates) == 1


def test_rewrites_preserve_unitary_at_ten_qubits():
    rng = substream(26)
    c = random_qac_circuit(rng, max_qubits=10, max_depth=3)
    while c.num_qubits < 10:
        c = random_qac_circuit(rng, max_qubits=10, max_depth=3)
    base = unitary(c)
    assert np.max(np.abs(unitary(to_rtensor_normal_form(c)) - base)) < 1e-9
    assert np.max(np.abs(unitary(lower(c)) - base)) < 1e-9


def test_normal_form_shape_and_topology_random():
    rng = substream(23)
    for _ in range(30):
        c = random_qac_circuit(rng, max_qubits=5, max_depth=3)
        nf = to_rtensor_normal_form(c)
        assert topology(nf) == topology(c)
        assert np.max(np.abs(unitary(nf) - unitary(c))) < 1e-9
        for i, lay in enumerate(nf.layers):
            if i == 0 and any(isinstance(g, OneQubit) for g in lay.gates):
                assert all(isinstance(g, OneQubit) for g in lay.gates)
            else:
                assert all(isinstance(g, RTensor) and len(g.factors) >= 2 for g in lay.gates)


# ---------------------------------------------------------------------------
# hadamard conjugation


def test_conjugate_parity_gives_fanout():
    c = parity_circuit(4)
    conj = conjugate_by_hadamards(c, 4)
    assert np.max(np.abs(unitary(conj) - reference_unitary("fanout", 4))) < 1e-12
    assert topology(conj) == topology(c)


def test_conjugate_twice_is_identity():
    c = parity_circuit(3)
    twice = conjugate_by_hadamards(conjugate_by_hadamards(c, 3), 3)
    assert np.max(np.abs(unitary(twice) - unitary(c))) < 1e-12


def test_parity_matches_reference():
    assert np.max(np.abs(unitary(parity_circuit(3)) - reference_unitary("parity", 3))) < 1e-12


# ---------------------------------------------------------------------------
# fanout trees


def test_fanout_tree_trivial():
    assert fanout_tree(1, 2).layers == ()


def test_fanout_tree_4_2():
    c = fanout_tree(4, 2)
    assert depth(c) == 2 and size(c) == 3
    out = run(c, basis_state(4, "1000"))
    assert np.argmax(np.abs(out.amplitudes)) == int("1111", 2)


def test_fanout_tree_9_3():
    c = fanout_tree(9, 3)
    assert depth(c) == 2 and size(c) <= 8
    assert reference_classical(c, "100000000") == "1" * 9
    assert reference_classical(c, "0" * 9) == "0" * 9


def test_fanout_tree_bounds_sweep():
    for m in (2, 3, 4, 8):
        for n in range(1, 65):
            c = fanout_tree(n, m)
            d = 0
            reach = 1
            while reach < n:
                reach *= m
                d += 1
            assert depth(c) == d, (n, m)
            assert size(c) <= max(n - 1, 0), (n, m)
            assert c.num_qubits == n
            assert validate(c) == []
            assert reference_classical(c, "1" + "0" * (n - 1)) == "1" * n
            assert reference_classical(c, "0" * n) == "0" * n


# ---------------------------------------------------------------------------
# cat preparation


def test_cat_from_fanout_tree():
    for n in (2, 8):
        c = cat_from_restricted_fanout(fanout_tree(n, 2), n)
        out = run(c, zero_state(n))
        cat = np.zeros(1 << n, dtype=complex)
        cat[0] = cat[-1] = 2**-0.5
        assert abs(np.vdot(out.amplitudes, cat)) ** 2 == pytest.approx(1.0)


def test_cat_trivial_single_wire():
    c = cat_from_restricted_fanout(circuit(1, []), 1)
    out = run(c, zero_state(1))
    assert np.max(np.abs(out.amplitudes - np.array([2**-0.5, 2**-0.5]))) < 1e-12


# ---------------------------------------------------------------------------
# parity from a nekomata constructor


def exact_cat2_constructor():
    return circuit(2, [[h_gate(0)], [cnot(0, 1)]])


def test_parity_from_nekomata_shape():
    par = parity_from_nekomata(exact_cat2_constructor(), 2)
    assert par.num_qubits == 5
    assert depth(par) == 4 * 1 + 3
    assert size(par) == 4 * 1 + 2 * 2 + 1


def test_parity_from_nekomata_exact_action():
    par = parity_from_nekomata(exact_cat2_constructor(), 2)
    u = unitary(par)
    for x in range(4):
        for b in range(2):
            idx_in = (x << 3) | b
            parity = ((x >> 1) ^ x) & 1
            idx_out = (x << 3) | (b ^ parity)
            expect = np.zeros(32)
            expect[idx_out] = 1.0
            assert np.max(np.abs(u[:, idx_in] - expect)) < 1e-10


def test_parity_from_nekomata_basis_rows():
    par = parity_from_nekomata(exact_cat2_constructor(), 2)
    out = run(par, basis_state(5, "11000"))
    assert np.argmax(np.abs(out.amplitudes)) == int("11000", 2)  # parity 0: b kept
    out = run(par, basis_state(5, "01001"))
    assert np.argmax(np.abs(out.amplitudes)) == int("01000", 2)  # parity 1: b flipped


def test_parity_from_nekomata_depth_size_rule():
    rng = substream(24)
    for _ in range(5):
        cons = random_qac_circuit(rng, max_qubits=4, max_depth=3)
        n = 2
        par = parity_from_nekomata(cons, n)
        assert depth(par) == 4 * depth(cons) + 3
        assert size(par) == 4 * size(cons) + 2 * n + 1


def test_parity_from_nekomata_rejects_small_constructor():
    with pytest.raises(ValueError):
        parity_from_nekomata(circuit(1, []), 2)


# ---------------------------------------------------------------------------
# OR / controlled-phase collapse


@pytest.mark.parametrize("k", [2, 3, 4])
def test_or_cz_collapse(k):
    assert or_cz_collapses(k)


def test_dagger_inverts():
    rng = substream(25)
    c = random_qac_circuit(rng, max_qubits=4, max_depth=3)
    u = unitary(c)
    v = unitary(dagger(c))
    assert np.max(np.abs(v @ u - np.eye(u.shape[0]))) < 1e-10


def test_normal_form_on_control_sharing_fanout_stages():
    # fanout stages put CNOTs sharing a control in one layer; the emitted
    # reflections hold that wire at |1>, so they commute and their order in
    # the layer does not matter, and the layer stays valid
    c = fanout_tree(9, 3)
    nf = to_rtensor_normal_form(c)
    assert validate(nf) == []
    assert topology(nf) == topology(c)
    dev = np.max(np.abs(unitary(nf) - unitary(c)))
    assert dev < 1e-9


def test_normal_form_of_a_toffoli_and_an_or_sharing_a_control():
    c = circuit(3, [[Toffoli((0,), 1), Or((0,), 2)]])
    assert validate(c) == []
    nf = to_rtensor_normal_form(c)
    assert validate(nf) == []
    assert topology(nf) == topology(c)
    assert np.max(np.abs(unitary(nf) - unitary(c))) < 1e-12


def test_normal_form_folds_an_or_target_into_an_exact_x():
    from qackit import build_depth2_nekomata, solve_bias
    from qackit.ir import X_MATRIX
    from qackit.statevec import max_unitary_difference

    nf = to_rtensor_normal_form(circuit(3, [[Or((0, 1), 2)]]))
    (x,) = nf.layers[0].gates
    assert x.qubit == 2 and np.array_equal(x.matrix, X_MATRIX)
    # so the dense-check parity circuit and its normal form agree exactly
    par = parity_from_nekomata(build_depth2_nekomata(2, 3, solve_bias(2, 3)), 2)
    assert max_unitary_difference(to_rtensor_normal_form(par), par) == 0.0


def test_normal_form_can_have_no_valid_layering():
    # H on every wire after the fanout stage rotates the shared control
    c = conjugate_by_hadamards(fanout_tree(9, 3), 9)
    nf = to_rtensor_normal_form(c)
    assert np.max(np.abs(unitary(nf) - unitary(c))) < 1e-9
    assert "layer 1: overlapping supports on qubits [0]" in validate(nf)


def test_lower_or_with_shared_control_ors():
    c = circuit(5, [[Or((0, 1), 2), Or((0, 3), 4)]])
    assert validate(c) == []
    lowered = lower(c)
    assert_lowered(c, lowered)
    assert topology(lowered) == topology(c)


@pytest.mark.parametrize(
    "gates",
    [
        [Or((0, 1), 2), Toffoli((0,), 3)],
        [Toffoli((0,), 1), Or((0,), 2)],
        [Toffoli((0, 3), 1), Or((0, 4), 2)],
    ],
    ids=["or-toffoli", "toffoli-or", "toffoli-or-wider"],
)
def test_lower_splits_a_layer_sharing_a_wire_at_two_values(gates):
    # wire 0 is a control at |1> in the Toffoli and at |0> in the Or: one
    # conjugation cannot map |1> to both, so the layer takes two
    c = circuit(5, [gates])
    assert validate(c) == []
    lowered = lower(c)
    assert_lowered(c, lowered)
    assert (size(lowered), depth(lowered)) == (2, 2)


@pytest.mark.parametrize(
    "gates, lowered_depth",
    [([cz(0, 1), cz(0, 2), cz(0, 3)], 1), ([cz(0, 1), cz(1, 2), cz(0, 2)], 2)],
    ids=["star", "triangle"],
)
def test_lower_targets_the_least_shared_wire_of_a_basis_reflection(gates, lowered_depth):
    # a Toffoli target must be free in its layer: the star's gates each have
    # one, and in the triangle every wire is shared, so one gate moves
    c = circuit(4, [gates])
    assert validate(c) == []
    lowered = lower(c)
    assert_lowered(c, lowered)
    assert (size(lowered), depth(lowered)) == (3, lowered_depth)
