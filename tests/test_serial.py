from __future__ import annotations

import cmath
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qackit import (
    CircuitFormatError,
    LocalState,
    circuit,
    cnot,
    deserialize,
    h_gate,
    rtensor,
    serialize,
)
from qackit.ir import Circuit, Layer, OneQubit, Or, RTensor, Toffoli, validate
from qackit import serial
from qackit.serial import state_from_json, state_to_json

from conftest import haar_local, haar_unitary, random_qac_circuit
from qackit.rng import substream


def test_round_trip_parity_circuit():
    c = circuit(4, [[cnot(1, 0)], [cnot(2, 0)], [cnot(3, 0)]], targets=(0,))
    assert deserialize(serialize(c)) == c


def test_round_trip_random_circuits():
    rng = substream(5)
    for _ in range(25):
        c = random_qac_circuit(rng)
        assert deserialize(serialize(c)) == c


_angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _local_states(draw) -> LocalState:
    theta, alpha, beta = draw(_angles), draw(_angles), draw(_angles)
    return LocalState(math.cos(theta) * cmath.exp(1j * alpha), math.sin(theta) * cmath.exp(1j * beta))


@st.composite
def _unitaries(draw) -> np.ndarray:
    col, phase = draw(_local_states()), cmath.exp(1j * draw(_angles))
    a, b = complex(col.amp0), complex(col.amp1)
    return np.array([[a, -b.conjugate() * phase], [b, a.conjugate() * phase]])


@st.composite
def _valid_circuits(draw) -> Circuit:
    """Circuits over the whole gate set with disjoint supports in every layer."""
    n = draw(st.integers(1, 8))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        wires = draw(st.permutations(range(n)))
        gates = []
        while wires and draw(st.booleans()):
            kinds = ["u1", "rtensor"] + (["toffoli", "or"] if len(wires) >= 2 else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "u1":
                gates.append(OneQubit(wires[0], draw(_unitaries())))
                wires = wires[1:]
                continue
            k = draw(st.integers(1 if kind == "rtensor" else 2, len(wires)))
            held, wires = wires[:k], wires[k:]
            if kind == "rtensor":
                gates.append(RTensor(tuple((q, draw(_local_states())) for q in held)))
            else:
                gates.append((Toffoli if kind == "toffoli" else Or)(tuple(held[1:]), held[0]))
        layers.append(Layer(tuple(gates)))
    targets = draw(st.none() | st.permutations(range(n)).flatmap(lambda p: st.integers(0, n).map(lambda m: p[:m])))
    return Circuit(n, tuple(layers), targets)


@settings(deadline=None)
@given(_valid_circuits())
def test_round_trip_generated_circuits(c):
    assert validate(c) == []
    text = serialize(c)
    again = deserialize(text)
    assert again == c
    assert serialize(again) == text


def test_serialized_layout_is_one_layer_per_line():
    c = circuit(
        3,
        [
            [h_gate(0), rtensor({1: LocalState(0.6, 0.8j), 2: LocalState(1.0, 0.0)})],
            [Toffoli((0, 1), 2)],
            [Or((0, 2), 1)],
        ],
        targets=(2, 0),
    )
    assert serialize(c) == (
        '{\n'
        '  "num_qubits": 3,\n'
        '  "targets": [2, 0],\n'
        '  "states": [[[0.6, 0.0], [0.0, 0.8]], [[1.0, 0.0], [0.0, 0.0]]],\n'
        '  "layers": [\n'
        '    [{"kind": "u1", "qubit": 0, "matrix": [[0.7071067811865475, 0.0], [0.7071067811865475, 0.0], '
        '[0.7071067811865475, 0.0], [-0.7071067811865475, 0.0]]}, {"kind": "rtensor", "qubits": [1, 2], '
        '"states": [0, 1]}],\n'
        '    [{"kind": "toffoli", "controls": [0, 1], "target": 2}],\n'
        '    [{"kind": "or", "controls": [0, 2], "target": 1}]\n'
        '  ]\n'
        '}\n'
    )
    assert serialize(circuit(2, [])) == (
        '{\n  "num_qubits": 2,\n  "targets": null,\n  "states": [],\n  "layers": [\n  ]\n}\n'
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_amplitudes_are_not_serialized(bad):
    with pytest.raises(ValueError):
        serialize(circuit(1, [[rtensor({0: LocalState(bad, 0.0)})]]))
    with pytest.raises(ValueError):
        serialize(circuit(1, [[OneQubit(0, np.array([[1.0, 0.0], [0.0, complex(0.0, bad)]]))]]))
    with pytest.raises(ValueError):
        state_to_json(1, np.array([bad, 0.0]))


@pytest.mark.parametrize("int_type", [np.int64, np.int32])
def test_numpy_integer_wire_ids_serialize_as_plain_ints(int_type):
    def build(w):
        return Circuit(
            3,
            (Layer((Toffoli((w(0), w(1)), w(2)),)), Layer((OneQubit(w(1), np.eye(2)),))),
            (w(2), w(0)),
        )

    plain = build(int)
    text = serialize(build(int_type))
    assert text == serialize(plain)
    assert deserialize(text) == plain


def test_unknown_gate_kind_is_parse_error():
    text = '{"num_qubits": 1, "targets": null, "states": [], "layers": [[{"kind": "blorp"}]]}'
    with pytest.raises(CircuitFormatError, match="unknown gate kind"):
        deserialize(text)


def test_malformed_json_reports_position():
    with pytest.raises(CircuitFormatError, match="line 2"):
        deserialize('{"num_qubits": 1,\n "targets": }')


def test_seventeen_digit_amplitudes():
    c = circuit(1, [[rtensor({0: LocalState(2**-0.5, 2**-0.5)})]])
    text = serialize(c)
    # the shortest repr of the stored double for 2**-0.5; it parses back to
    # the identical float, as do the 17-digit forms earlier files carry
    assert "0.7071067811865476" in text
    assert float("0.7071067811865476") == 2**-0.5
    assert float("0.70710678118654757") == 2**-0.5
    assert float("0.70710678118654752") == 2**-0.5
    # a file written with 17 significant digits loads to the identical circuit
    old = (
        '{\n  "num_qubits": 1,\n  "targets": null,\n  "states": [[[0.70710678118654757, 0.0], '
        '[0.70710678118654757, 0.0]]],\n  "layers": [\n    [{"kind": "rtensor", "qubits": [0], "states": [0]}]\n'
        '  ]\n}\n'
    )
    assert deserialize(old) == deserialize(text) == c


def test_seventeen_digits_round_trip_exactly():
    rng = substream(6)
    for _ in range(10):
        c = circuit(2, [[rtensor({0: haar_local(rng), 1: haar_local(rng)})]])
        again = deserialize(serialize(c))
        g0 = c.layers[0].gates[0]
        g1 = again.layers[0].gates[0]
        for (qa, sa), (qb, sb) in zip(g0.factors, g1.factors):
            assert qa == qb and sa.amp0 == sb.amp0 and sa.amp1 == sb.amp1


def test_matrix_round_trip_exact():
    rng = substream(7)
    from qackit import OneQubit

    c = circuit(1, [[OneQubit(0, haar_unitary(rng))]])
    again = deserialize(serialize(c))
    assert np.array_equal(again.layers[0].gates[0].matrix, c.layers[0].gates[0].matrix)


def test_state_json_round_trip():
    rng = substream(8)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    n, amps = state_from_json(state_to_json(3, v))
    assert n == 3
    assert np.array_equal(amps, v)


def test_missing_fields():
    with pytest.raises(CircuitFormatError, match="missing field"):
        deserialize('{"num_qubits": 2, "layers": []}')
    with pytest.raises(CircuitFormatError, match="num_qubits"):
        deserialize('{"num_qubits": 0, "targets": null, "layers": []}')


_X = [[0, 0], [1, 0], [1, 0], [0, 0]]


@pytest.mark.parametrize("bad", [0.9, 1.0, True, False, "1", None])
@pytest.mark.parametrize(
    "field, gate, targets",
    [
        ("qubit", lambda w: {"kind": "u1", "qubit": w, "matrix": _X}, None),
        ("controls", lambda w: {"kind": "toffoli", "controls": [0, w], "target": 2}, None),
        ("target", lambda w: {"kind": "toffoli", "controls": [0], "target": w}, None),
        ("controls", lambda w: {"kind": "or", "controls": [w], "target": 2}, None),
        ("target", lambda w: {"kind": "or", "controls": [0, 2], "target": w}, None),
        ("qubit", lambda w: {"kind": "rtensor", "qubits": [w], "states": [0]}, None),
        ("targets", lambda w: {"kind": "u1", "qubit": 0, "matrix": _X}, lambda w: [0, w]),
    ],
)
def test_wire_ids_must_be_integers(field, gate, targets, bad):
    import json

    table = [[[1.0, 0.0], [0.0, 0.0]]]
    doc = {"num_qubits": 3, "targets": targets(bad) if targets else None, "states": table, "layers": [[gate(bad)]]}
    with pytest.raises(CircuitFormatError, match=f"{field}: expected an integer wire id, got {bad!r}"):
        deserialize(json.dumps(doc))
    ok = {"num_qubits": 3, "targets": targets(1) if targets else None, "states": table, "layers": [[gate(1)]]}
    deserialize(json.dumps(ok))


@pytest.mark.parametrize("bad", ["true", "2.0"])
def test_num_qubits_must_be_an_integer(bad):
    with pytest.raises(CircuitFormatError, match="num_qubits"):
        deserialize('{"num_qubits": %s, "targets": null, "layers": []}' % bad)


# ---------------------------------------------------------------------------
# state files: num_qubits is checked before 2**num_qubits is computed


def test_state_num_qubits_rejects_a_boolean():
    with pytest.raises(CircuitFormatError, match="num_qubits must be a positive integer, got True"):
        state_from_json('{"num_qubits": true, "amplitudes": [[1, 0], [0, 0]]}')


def test_state_num_qubits_rejects_a_string():
    with pytest.raises(CircuitFormatError, match="num_qubits must be a positive integer, got '3'"):
        state_from_json('{"num_qubits": "3", "amplitudes": []}')


def test_state_num_qubits_rejects_a_negative_count():
    with pytest.raises(CircuitFormatError, match="num_qubits must be a positive integer, got -1"):
        state_from_json('{"num_qubits": -1, "amplitudes": []}')


def test_state_top_level_must_be_an_object():
    with pytest.raises(CircuitFormatError, match="top level: expected an object"):
        state_from_json("[3, []]")


@pytest.mark.parametrize("extra", [1, 10**12])
def test_state_num_qubits_is_bounded_before_the_shift(extra):
    # 1 << 10**12 would build a 125 GB integer; the bound is checked first
    from qackit.statevec import MAX_QUBITS

    with pytest.raises(CircuitFormatError, match=f"num_qubits must be at most {MAX_QUBITS}"):
        state_from_json('{"num_qubits": %d, "amplitudes": []}' % (MAX_QUBITS + extra))


@pytest.mark.parametrize("load", [deserialize, state_from_json])
def test_oversized_integers_and_deep_nesting_are_format_errors(load):
    big = "1" + "0" * 400
    text = '{"num_qubits": 1, "targets": null, "amplitudes": [[%s, 0], [0, 0]], "states": [], ' \
        '"layers": [[{"kind": "u1", "qubit": 0, "matrix": [[%s, 0], [0, 0], [0, 0], [1, 0]]}]]}' % (big, big)
    with pytest.raises(CircuitFormatError, match="too large"):
        load(text)
    with pytest.raises(CircuitFormatError, match="nested too deeply"):
        load("[" * 100_000 + "]" * 100_000)


_KEYS = ("num_qubits", "targets", "states", "layers", "amplitudes", "kind", "qubit", "qubits", "matrix", "controls",
         "target")
_numbers = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400)])  # json reads 10**400
_json_leaves = st.none() | st.booleans() | _numbers | st.sampled_from(["u1", "toffoli", "or", "rtensor"])
_json_values = st.recursive(
    _json_leaves | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=16,
)
# the top level is valid and each field deeper down is near-valid or
# arbitrary, so the checks inside gates and amplitudes are reached too
_wires = st.integers(0, 2) | _json_leaves
_indices = st.integers(-2, 2) | _json_leaves
_pairs = st.lists(_numbers, min_size=2, max_size=2) | _json_values
_gates = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["u1", "toffoli", "or", "rtensor"]) | _json_values,
        "qubit": _wires,
        "matrix": st.lists(_pairs, min_size=4, max_size=4) | _json_values,
        "controls": st.lists(_wires, max_size=3) | _json_values,
        "target": _wires,
        "qubits": st.lists(_wires, max_size=2) | _json_values,
        "states": st.lists(_indices, max_size=2) | _json_values,
    }
)
# well-formed tables and rtensor gates as well, so that the index checks are reached
_tables = st.lists(st.lists(st.lists(st.integers() | st.floats(), min_size=2, max_size=2), min_size=2, max_size=2),
                   max_size=2)
_rtensors = st.fixed_dictionaries(
    {"kind": st.just("rtensor"), "qubits": st.lists(_wires, max_size=2), "states": st.lists(_indices, max_size=2)}
)
_malformed_docs = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {
            "num_qubits": st.integers(1, 3),
            "targets": st.none() | st.lists(_wires, max_size=3),
            "states": _tables | st.lists(st.lists(_pairs, min_size=2, max_size=2) | _json_values, max_size=2)
            | _json_values,
            "layers": st.lists(st.lists(_gates | _rtensors, max_size=3), max_size=2),
        }
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {"num_qubits": st.just(n), "amplitudes": st.lists(_pairs, min_size=1 << n, max_size=1 << n)}
        )
    ),
)


@settings(deadline=None)
@given(_malformed_docs)
def test_malformed_documents_raise_only_format_errors(doc):
    import json

    text = json.dumps(doc)
    for load in (deserialize, state_from_json):
        try:
            load(text)
        except CircuitFormatError:
            pass


# ---------------------------------------------------------------------------
# booleans are JSON values of their own, never amplitudes


def test_boolean_u1_matrix_entry_is_rejected():
    text = '{"num_qubits": 1, "targets": null, "states": [], "layers": [[{"kind": "u1", "qubit": 0, ' \
        '"matrix": [[false, false], [true, false], [1, 0], [0, 0]]}]]}'
    with pytest.raises(CircuitFormatError, match=r"^layer 0, gate 0: expected \[re, im\] pair"):
        deserialize(text)


def test_boolean_rtensor_amplitude_is_rejected():
    text = _rtensor_doc([[[True, 0], [0.0, 0.0]]], ([0], [0]))
    with pytest.raises(CircuitFormatError, match=r"^state 0: expected \[re, im\] pair"):
        deserialize(text)


def test_boolean_state_amplitude_is_rejected():
    with pytest.raises(CircuitFormatError, match=r"^amplitude 1: expected \[re, im\] pair"):
        state_from_json('{"num_qubits": 1, "amplitudes": [[1.0, 0.0], [0, false]]}')


# ---------------------------------------------------------------------------
# the state table: each distinct state written once, shared after loading

_KET0 = [[1.0, 0.0], [0.0, 0.0]]
_MISSING = object()


def _rtensor_doc(table, *gates) -> str:
    """A one-layer file on 6 wires with state table ``table`` (left out if
    ``_MISSING``) and one rtensor gate per ``(qubits, states)`` pair."""
    import json

    doc = {"num_qubits": 6, "targets": None, "states": table,
           "layers": [[{"kind": "rtensor", "qubits": q, "states": s} for q, s in gates]]}
    if table is _MISSING:
        del doc["states"]
    return json.dumps(doc)


def test_equal_factor_pairs_share_one_local_state():
    import json

    h = 2**-0.5
    c = circuit(6, [[rtensor({0: LocalState(h, h), 1: LocalState(1, 0)}),
                     rtensor({2: LocalState(h, h), 3: LocalState(1.0, 0.0)}),
                     rtensor({4: LocalState(h, -h)})]])
    text = serialize(c)
    assert json.loads(text)["states"] == [[[h, 0.0], [h, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[h, 0.0], [-h, 0.0]]]
    (s0, s1), (s2, s3), (s4,) = (g.states for g in deserialize(text).layers[0].gates)
    assert s0 is s2  # the same pair in two gates
    assert s1 is s3  # 1 and 1.0 are the same complex numbers
    assert s0 is not s1 and s4 is not s0 and s4 != s0


def test_signed_zero_factors_round_trip_byte_for_byte():
    zeros = [complex(-0.0, 0.0), complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    one = LocalState(0.0, 1.0)
    c = circuit(8, [[rtensor({2 * i: LocalState(z, 1.0), 2 * i + 1: one}) for i, z in enumerate(zeros)]])
    text = serialize(c)
    assert "[-0.0, 0.0]" in text and "[0.0, -0.0]" in text
    back = deserialize(text)
    assert serialize(back) == text
    amp0s = [g.states[0].amp0 for g in back.layers[0].gates]
    assert [(math.copysign(1, z.real), math.copysign(1, z.imag)) for z in amp0s] == [
        (-1, 1), (1, 1), (1, -1), (-1, -1)
    ]
    assert len({id(g.states[1]) for g in back.layers[0].gates}) == 1


def test_grid_file_holds_one_state_that_every_factor_shares():
    import json

    from qackit.nekomata import build_depthd_nekomata, solve_bias

    c = build_depthd_nekomata(6, 2, 0.25, columns=2000, bias=solve_bias(6, 2000))
    text = serialize(c)
    assert len(json.loads(text)["states"]) == 1
    back = deserialize(text)
    states = [s for lay in back.layers for g in lay.gates if isinstance(g, RTensor) for s in g.states]
    assert len(states) == 12_000 and len({id(s) for s in states}) == 1
    assert serialize(back) == text


def test_boolean_amplitude_is_rejected_after_an_equal_number_pair():
    text = _rtensor_doc([[[1, 0], [0, 0]], [[True, 0], [0, 0]]], ([0], [0]), ([1], [1]))
    with pytest.raises(CircuitFormatError, match=r"^state 1: expected \[re, im\] pair$"):
        deserialize(text)


def test_oversized_integer_factor_amplitude_is_a_format_error():
    big = 10**400
    text = _rtensor_doc([[[1, 0], [0, 0]], [[0, big], [0, 0]]], ([0, 1], [0, 1]))
    with pytest.raises(CircuitFormatError, match=r"^state 1: int too large"):
        deserialize(text)


@pytest.mark.parametrize("qubit, index, message", [
    (3.0, 0, "qubit: expected an integer wire id, got 3.0"),
    (3, 1, "state: expected an index in [0, 1), got 1"),
], ids=["qubit", "state"])
def test_bad_factor_names_layer_gate_and_factor(qubit, index, message):
    import json

    good = {"kind": "rtensor", "qubits": [0, 1, 2], "states": [0, 0, 0]}
    bad = {"kind": "rtensor", "qubits": [0, 1, 2, qubit], "states": [0, 0, 0, index]}
    cnot_obj = {"kind": "toffoli", "controls": [0], "target": 1}
    doc = {"num_qubits": 4, "targets": None, "states": [_KET0], "layers": [[good], [cnot_obj, cnot_obj, bad]]}
    with pytest.raises(CircuitFormatError) as info:
        deserialize(json.dumps(doc))
    assert str(info.value) == f"layer 1, gate 2, factor 3: {message}"


@pytest.mark.parametrize("table, gate, message", [
    (_MISSING, ([0], [0]), "top level: missing field 'states'"),
    ({}, ([0], [0]), "top level: states must be an array"),
    (None, ([0], [0]), "top level: states must be an array"),
    ([[[1.0, 0.0]]], ([0], [0]), "state 0: expected a pair of [re, im] pairs"),
    ([_KET0, [*_KET0, [0.0, 0.0]]], ([0], [0]), "state 1: expected a pair of [re, im] pairs"),
    ([_KET0, {"amp0": [1, 0], "amp1": [0, 0]}], ([0], [0]), "state 1: expected a pair of [re, im] pairs"),
    ([[1.0, 0.0]], ([0], [0]), "state 0: expected [re, im] pair"),
    ([[[1.0, 0.0], [0, False]]], ([0], [0]), "state 0: expected [re, im] pair"),
    ([_KET0, _KET0], ([0, 1], [0, -1]), "layer 0, gate 0, factor 1: state: expected an index in [0, 2), got -1"),
    ([_KET0, _KET0], ([0], [2]), "layer 0, gate 0, factor 0: state: expected an index in [0, 2), got 2"),
    ([], ([0], [0]), "layer 0, gate 0, factor 0: state: expected an index in [0, 0), got 0"),
    ([_KET0, _KET0], ([0], [True]), "layer 0, gate 0, factor 0: state: expected an index in [0, 2), got True"),
    ([_KET0, _KET0], ([0], [False]), "layer 0, gate 0, factor 0: state: expected an index in [0, 2), got False"),
    ([_KET0], ([0], [0.0]), "layer 0, gate 0, factor 0: state: expected an index in [0, 1), got 0.0"),
    ([_KET0], ([0, 1], [0]), "layer 0, gate 0: qubits and states differ in length (2 and 1)"),
    ([_KET0], ([0], [0, 0]), "layer 0, gate 0: qubits and states differ in length (1 and 2)"),
    ([_KET0], (0, [0]), "layer 0, gate 0: qubits and states must be arrays"),
    ([_KET0], ([0], {}), "layer 0, gate 0: qubits and states must be arrays"),
    ([_KET0], ([], []), "layer 0, gate 0: RTensor needs at least one factor"),
])
def test_malformed_state_table_or_rtensor_gate_is_located(table, gate, message):
    # a negative index must not wrap to the end of the table, and no index
    # may reach the table unchecked: each case raises the located message
    with pytest.raises(CircuitFormatError) as info:
        deserialize(_rtensor_doc(table, gate))
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["qubits", "states"])
def test_missing_rtensor_field_is_located(field):
    import json

    gate = {"kind": "rtensor", "qubits": [0], "states": [0]}
    del gate[field]
    doc = {"num_qubits": 1, "targets": None, "states": [_KET0], "layers": [[gate]]}
    with pytest.raises(CircuitFormatError) as info:
        deserialize(json.dumps(doc))
    assert str(info.value) == f"layer 0, gate 0: missing field {field!r}"


@pytest.mark.parametrize("enabled", [True, False])
def test_deserialize_pauses_the_collector_and_restores_its_state(monkeypatch, enabled):
    seen = []
    build = serial._circuit
    monkeypatch.setattr(serial, "_circuit", lambda doc: seen.append(gc.isenabled()) or build(doc))
    c = circuit(3, [[h_gate(0)], [cnot(0, 1), rtensor({2: LocalState(0.6, 0.8j)})]])
    (gc.enable if enabled else gc.disable)()
    try:
        assert deserialize(serialize(c)) == c
        assert gc.isenabled() is enabled
        with pytest.raises(CircuitFormatError):
            deserialize('{"num_qubits": 3, "targets": null, "layers": [[{"kind": "swap"}]]}')
        assert gc.isenabled() is enabled
        with pytest.raises(CircuitFormatError):
            deserialize("{")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
