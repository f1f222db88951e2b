from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qackit import (
    Circuit,
    LocalState,
    OneQubit,
    Or,
    RTensor,
    Toffoli,
    circuit,
    cnot,
    depth,
    deserialize,
    h_gate,
    rtensor,
    size,
    topology,
    validate,
    x_gate,
)
from qackit.ir import KET0, KET1, MAX_WIRES, MINUS, PLUS, is_multi_qubit, reflections, support
from qackit.nekomata import build_depth2_nekomata, build_depthd_nekomata, solve_bias
from qackit.transforms import fanout_tree, parity_from_nekomata, permute_qubits

from conftest import random_qac_circuit
from qackit.rng import substream


def fig_parity4():
    return circuit(4, [[cnot(1, 0)], [cnot(2, 0)], [cnot(3, 0)]])


def test_size_parity_circuit():
    assert size(fig_parity4()) == 3


def test_size_one_qubit_only():
    c = circuit(3, [[h_gate(0), h_gate(1)], [x_gate(2)]])
    assert size(c) == 0
    assert depth(c) == 0


def test_size_counts_built_nekomata_gates():
    from qackit import build_depth2_nekomata, solve_bias

    c = build_depth2_nekomata(2, 3, solve_bias(2, 3))
    # 3 column reflections plus 2 row ORs
    assert size(c) == 5


def test_depth_parity_and_empty():
    assert depth(fig_parity4()) == 3
    assert depth(circuit(2, [])) == 0


def test_topology_single_cnot():
    c = circuit(2, [[cnot(0, 1)]])
    assert topology(c) == frozenset({(frozenset({0, 1}), 0)})


def test_topology_two_disjoint_cnots_share_layer():
    c = circuit(4, [[cnot(0, 1), cnot(2, 3)]])
    entries = topology(c)
    assert {k for _, k in entries} == {0}
    assert len(entries) == 2


def test_topology_parity_circuit():
    assert topology(fig_parity4()) == frozenset(
        {(frozenset({0, 1}), 0), (frozenset({0, 2}), 1), (frozenset({0, 3}), 2)}
    )


def test_validate_clean_circuit():
    assert validate(fig_parity4()) == []


def test_validate_overlapping_supports():
    lay = [Toffoli((0, 1), 3), Toffoli((2,), 3)]  # both target qubit 3
    c = circuit(4, [lay])
    assert any("overlapping supports" in p for p in validate(c))


def test_validate_allows_shared_controls():
    c = circuit(3, [[cnot(0, 1), cnot(0, 2)]])
    assert validate(c) == []


def test_validate_control_target_overlap_rejected():
    c = circuit(3, [[cnot(0, 1), cnot(1, 2)]])  # qubit 1 is a target and a control
    assert any("overlapping supports" in p for p in validate(c))


def test_validate_unnormalized_local_state():
    c = circuit(2, [[RTensor(((0, LocalState(1.0, 1.0)),))]])
    assert any("non-normalized local state" in p for p in validate(c))


def test_validate_names_every_factor_of_a_shared_unnormalized_state():
    # the norm is checked once per state object, and every factor holding it is reported
    bad = LocalState(1.0, 1.0)
    c = circuit(4, [[RTensor(((0, bad), (1, KET1))), RTensor(((2, bad), (3, bad)))], [RTensor(((1, bad),))]])
    assert validate(c) == [
        "layer 0, gate 0: non-normalized local state on qubit 0",
        "layer 0, gate 1: non-normalized local state on qubit 2",
        "layer 0, gate 1: non-normalized local state on qubit 3",
        "layer 1, gate 0: non-normalized local state on qubit 1",
    ]


def test_validate_non_unitary_matrix():
    c = circuit(1, [[OneQubit(0, np.array([[1, 1], [0, 1]]))]])
    assert any("non-unitary" in p for p in validate(c))


# 1e200 is finite, but its square overflows a float
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
def test_validate_rejects_nonfinite_amplitudes_and_matrices(bad):
    state = circuit(1, [[RTensor(((0, LocalState(bad, 0.0)),))]])
    assert any("non-normalized local state" in p for p in validate(state))
    # two gates on wire 1: validate asks whether the bad state is |0> there
    shared = LocalState(bad, 0.0)
    pair = circuit(3, [[RTensor(((0, KET1), (1, shared))), RTensor(((1, shared), (2, KET1)))]])
    assert "layer 0, gate 1: non-normalized local state on qubit 1" in validate(pair)
    matrix = circuit(1, [[OneQubit(0, np.array([[bad, 0], [0, 1]]))]])
    assert any("non-unitary" in p for p in validate(matrix))


def test_validate_out_of_range():
    c = circuit(2, [[cnot(0, 1)], [x_gate(5)]])
    assert any("out of range" in p for p in validate(c))


def test_gate_constructor_rejections():
    with pytest.raises(ValueError):
        Toffoli((0, 0), 1)
    with pytest.raises(ValueError):
        Toffoli((1,), 1)
    with pytest.raises(ValueError):
        Or((), 1)
    with pytest.raises(ValueError):
        RTensor(())
    with pytest.raises(ValueError):
        rtensor({})


def test_rtensor_factors_sorted():
    g = rtensor([(2, PLUS), (0, PLUS)])
    assert g.qubits == (0, 2)


def test_rtensor_numpy_wire_ids_become_ints_and_repeated_wires_are_refused():
    g = RTensor(((np.int64(2), PLUS), (np.int32(0), MINUS), (1, KET1)))
    assert g.factors == ((0, MINUS), (1, KET1), (2, PLUS))
    assert [type(q) for q in g.qubits] == [int, int, int]
    for factors in (((1, PLUS), (1, MINUS)), ((np.int64(1), PLUS), (1, MINUS))):
        with pytest.raises(ValueError, match="^RTensor factor qubits must be distinct$"):
            RTensor(factors)


def test_support_and_multiqubit():
    assert support(Toffoli((2, 0), 1)) == (0, 1, 2)
    assert not is_multi_qubit(x_gate(0))
    assert not is_multi_qubit(RTensor(((3, PLUS),)))
    assert is_multi_qubit(cnot(0, 1))


def test_size_depth_invariants_random():
    rng = substream(11)
    for _ in range(40):
        c = random_qac_circuit(rng)
        assert size(c) >= 0
        assert depth(c) <= size(c)
        entries = topology(c)
        # topology re-derives depth and the multi-qubit gate count
        assert len(entries) == size(c)
        assert (max((k for _, k in entries), default=-1) + 1) == depth(c)


def test_targets_validation():
    c = circuit(3, [[cnot(0, 1)]], targets=(0, 0))
    assert any("duplicate target" in p for p in validate(c))
    c2 = circuit(3, [[cnot(0, 1)]], targets=(7,))
    assert any("target qubit 7 out of range" in p for p in validate(c2))


# RTensor factor states of the crowded layers: the first three are |0> or |1>
# up to phase, the rest are not (the last is |1> with its norm off by 8e-13)
BASIS_FACTORS = (KET0, KET1, LocalState(0.0, np.exp(0.3j)))
OTHER_FACTORS = (PLUS, LocalState(1.0, 1.0), LocalState(0.0, 1.0 + 4e-13))


def _held_at_basis(g) -> set[int]:
    """Wires that ``g`` holds at |0> or |1>: Toffoli/Or controls and the
    crowded layers' basis factors."""
    if isinstance(g, (Toffoli, Or)):
        return set(g.controls)
    if isinstance(g, RTensor):
        return {q for q, s in g.factors if s in BASIS_FACTORS}
    return set()


def _pairwise_validate(c):
    """All-pairs reference for ``validate``: per-gate problems of a layer, then
    one line per gate pair whose shared wires are not all held at a basis
    state by both."""
    problems = []
    for k, lay in enumerate(c.layers):
        for j, g in enumerate(lay.gates):
            for q in support(g):
                if not 0 <= q < c.num_qubits:
                    problems.append(f"layer {k}, gate {j}: qubit {q} out of range")
            if isinstance(g, OneQubit) and np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(2))) > 1e-12:
                problems.append(f"layer {k}, gate {j}: non-unitary matrix")
            if isinstance(g, RTensor):
                for q, s in g.factors:
                    if s.norm_error > 1e-12:
                        problems.append(f"layer {k}, gate {j}: non-normalized local state on qubit {q}")
        for j1, g1 in enumerate(lay.gates):
            for g2 in lay.gates[j1 + 1:]:
                shared = set(support(g1)) & set(support(g2))
                if shared and not shared <= _held_at_basis(g1) & _held_at_basis(g2):
                    problems.append(f"layer {k}: overlapping supports on qubits {sorted(shared)}")
    if c.targets is not None:
        if len(set(c.targets)) != len(c.targets):
            problems.append("duplicate target qubits")
        problems += [f"target qubit {q} out of range" for q in c.targets if not 0 <= q < c.num_qubits]
    return problems


def _random_crowded_layer(rng, m: int):
    """Gates on random, mostly overlapping wires: shared controls, RTensors
    with and without basis factors, partial overlaps, and wires past ``m``
    or negative."""
    gates = []
    for _ in range(int(rng.integers(1, 9))):
        k = int(rng.integers(1, 5))
        wires = [int(q) for q in rng.choice(np.arange(-1, m + 2), size=k, replace=False)]
        kind = rng.integers(4)
        if kind == 0 or k == 1:
            gates.append(OneQubit(wires[0], np.eye(2) if rng.random() < 0.8 else np.ones((2, 2))))
        elif kind == 1:
            gates.append(Toffoli(tuple(wires[:-1]), wires[-1]))
        elif kind == 2:
            gates.append(Or(tuple(wires[:-1]), wires[-1]))
        else:
            states = BASIS_FACTORS + OTHER_FACTORS
            gates.append(RTensor(tuple((q, states[rng.integers(len(states))]) for q in wires)))
    if rng.random() < 0.5:  # a restricted-fanout stage: one control shared by many gates
        c0 = int(rng.integers(m))
        gates += [cnot(c0, t) for t in range(m) if t != c0 and rng.random() < 0.5]
    return gates


def test_validate_matches_pairwise_reference():
    from qackit.ir import Layer, Circuit

    rng = substream(12)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        layers = [Layer(tuple(_random_crowded_layer(rng, m))) for _ in range(int(rng.integers(1, 4)))]
        targets = tuple(int(q) for q in rng.integers(-1, m + 1, size=int(rng.integers(0, 4))))
        c = Circuit(m, tuple(layers), targets if rng.random() < 0.7 else None)
        assert validate(c) == _pairwise_validate(c)


def test_validate_calls_support_once_per_gate(monkeypatch):
    from qackit import build_depth2_nekomata, ir, solve_bias

    c = build_depth2_nekomata(3, 20, solve_bias(3, 20))
    calls = []

    def counted(g):
        calls.append(g)
        return support(g)

    monkeypatch.setattr(ir, "support", counted)
    assert validate(c) == []
    assert len(calls) == sum(len(lay.gates) for lay in c.layers)


def test_validate_lets_rtensors_share_wires_held_at_basis_states():
    one = LocalState(0.0, np.exp(0.7j))  # e^{i phi}|1>
    shared_one = [rtensor({0: one, 1: PLUS}), rtensor({0: KET1, 2: PLUS})]
    shared_zero = [rtensor({0: KET0, 1: PLUS}), cnot(0, 2)]  # held at 1 by the CNOT
    assert validate(circuit(3, [shared_one])) == []
    assert validate(circuit(3, [shared_zero])) == []
    assert validate(circuit(4, [[rtensor({0: KET0, 1: PLUS}), Or((0, 2), 3)]])) == []


@pytest.mark.parametrize(
    "other",
    [
        rtensor({0: PLUS, 2: KET1}),  # |+> on the shared wire
        Toffoli((2,), 0),  # the shared wire is a Toffoli target
        Or((2,), 0),  # the shared wire is an Or target
        h_gate(0),  # a one-qubit gate holds no wire
    ],
)
def test_validate_rejects_a_shared_wire_not_held_at_a_basis_state(other):
    c = circuit(3, [[rtensor({0: KET1, 1: PLUS}), other]])
    assert validate(c) == ["layer 0: overlapping supports on qubits [0]"]


def test_basis_value_up_to_phase_and_its_near_misses():
    assert KET0.basis_value == 0
    assert KET1.basis_value == 1
    assert LocalState(np.exp(2.1j), 0.0).basis_value == 0
    assert LocalState(0.0, -1j).basis_value == 1
    assert PLUS.basis_value is None and MINUS.basis_value is None
    # |-> with a 1e-6 relative phase, and |1> whose norm is off by 8e-13
    assert LocalState(2**-0.5, -np.exp(1e-6j) * 2**-0.5).basis_value is None
    assert LocalState(0.0, 1.0 + 4e-13).basis_value is None


def test_reflections_multiply_to_the_gate():
    from qackit.statevec import unitary

    def dense(m, factors):
        # I - 2|chi><chi| on m wires, identity off the factor wires
        by_wire = dict(factors)
        proj = np.ones((1, 1), dtype=complex)
        for q in range(m):
            v = by_wire[q].vec() if q in by_wire else None
            proj = np.kron(proj, np.outer(v, v.conj()) if v is not None else np.eye(2))
        return np.eye(1 << m) - 2 * proj

    assert reflections(Toffoli((2, 0), 1)) == (((2, KET1), (0, KET1), (1, MINUS)),)
    assert reflections(Or((0, 2), 1)) == (((1, MINUS),), ((0, KET0), (2, KET0), (1, MINUS)))
    r = rtensor({1: PLUS, 0: KET1})
    assert reflections(r) == (r.factors,)
    for g in (Toffoli((2, 0), 1), Or((0, 2), 1), Or((1,), 0), r):
        product = np.eye(8)
        for factors in reflections(g):
            product = dense(3, factors) @ product
        assert np.max(np.abs(product - unitary(circuit(3, [[g]])))) < 1e-12
    with pytest.raises(TypeError, match="OneQubit is not a product of reflections"):
        reflections(x_gate(0))


def test_toffoli_and_or_stay_apart():
    t, o = Toffoli((0, 1), 2), Or((0, 1), 2)
    assert t != o and o != t
    assert t == Toffoli([0, 1], 2) and hash(t) == hash(Toffoli((0, 1), 2))
    assert len({t, o, Toffoli((0, 1), 2), Or((0, 1), 2)}) == 2
    assert repr(o) == "Or(controls=(0, 1), target=2)"
    for cls in (Toffoli, Or):
        with pytest.raises(ValueError, match=f"{cls.__name__} needs at least one control"):
            cls((), 1)
        with pytest.raises(ValueError, match=f"{cls.__name__} target must not be a control"):
            cls((1,), 1)



def _file(num_qubits: int, gate: str) -> str:
    return '{"num_qubits": %d, "targets": null, "states": [], "layers": [[%s]]}' % (num_qubits, gate)


_TOFFOLI = '{"kind": "toffoli", "controls": [0, 1], "target": 2}'

# each entry where a width first appears, and the width it names;
# choose_columns(6, 0.25) asks for 251,006,232 wires
_OVER_CAP = {
    "Circuit": (lambda: Circuit(MAX_WIRES + 1, ()), MAX_WIRES + 1),
    "permute_qubits": (lambda: permute_qubits(circuit(3, []), {}, num_qubits=MAX_WIRES + 1), MAX_WIRES + 1),
    "fanout_tree": (lambda: fanout_tree(MAX_WIRES + 1, 2), MAX_WIRES + 1),
    "parity_from_nekomata": (lambda: parity_from_nekomata(Circuit(MAX_WIRES, ()), 1), MAX_WIRES + 2),
    "build_depth2_nekomata": (lambda: build_depth2_nekomata(2, 1 << 19, solve_bias(2, 1 << 19)), MAX_WIRES + 2),
    "build_depthd_nekomata": (lambda: build_depthd_nekomata(6, 2, 0.25), 251_006_232),
    "deserialize": (lambda: deserialize(_file(MAX_WIRES + 1, _TOFFOLI)), MAX_WIRES + 1),
    # the width is reported, not the malformed gate after it
    "deserialize-bad-gate": (lambda: deserialize(_file(MAX_WIRES + 1, '{"kind": "nand"}')), MAX_WIRES + 1),
}


@pytest.mark.parametrize("call, wires", _OVER_CAP.values(), ids=_OVER_CAP.keys())
def test_every_entry_refuses_a_width_over_the_wire_cap_before_allocating(call, wires):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^circuit has {wires} wires, over the 1048576-wire cap$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_circuit_at_the_wire_cap_constructs_and_loads():
    assert Circuit(MAX_WIRES, ()).num_qubits == MAX_WIRES
    loaded = deserialize(_file(MAX_WIRES, _TOFFOLI))
    assert loaded.num_qubits == MAX_WIRES and list(loaded.gates()) == [Toffoli((0, 1), 2)]
