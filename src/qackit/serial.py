"""JSON serialization for circuits and state vectors.

Circuit files are JSON objects with fields ``num_qubits``, ``targets``
(array or null), ``states`` (the table of local states) and ``layers``
(array of arrays of gate objects).  Gate objects carry ``kind`` in
{"u1", "toffoli", "or", "rtensor"} plus kind-specific fields; complex
numbers are [re, im] pairs.  Floats are printed as Python's shortest
round-trip repr, so round-trips are bit-exact.  For example::

    {
      "num_qubits": 3,
      "targets": [2],
      "states": [[[0.6, 0.0], [0.0, 0.8]], [[1.0, 0.0], [0.0, 0.0]]],
      "layers": [
        [{"kind": "rtensor", "qubits": [0, 1], "states": [0, 1]}],
        [{"kind": "or", "controls": [0, 1], "target": 2}]
      ]
    }

Each distinct ``[amp0, amp1]`` state is written once in ``states``, in order
of first use, and an rtensor gate lists its wires in ``qubits`` and, at the
same positions, the indices of their states in that table.  States are
distinct by value, and the sign of a zero part counts, so ``-0.0`` stays
``-0.0``.  Files from before the table existed, whose rtensor gates spell
out each factor, no longer load and must be rebuilt.

``deserialize`` builds one ``LocalState`` per table entry, so every factor
of a state shares it (a grid repeats one state on every column factor).  A
state computes its own facts once, and the samplers cache each distinct
tuple of states.  Fields are checked by exact type, and error locations
are formatted only when a check fails.  The cyclic garbage collector is
paused while ``deserialize`` runs.
"""
from __future__ import annotations

import gc
import json
import operator
import struct
from typing import Any, Callable

import numpy as np

from .ir import Circuit, Gate, Layer, LocalState, OneQubit, Or, RTensor, Toffoli, check_wire_cap
from .statevec import MAX_QUBITS


class CircuitFormatError(ValueError):
    """Malformed circuit/state JSON; message carries location information."""


# NaN and infinities raise ValueError; numpy integer wire ids are written as
# ints, and any other non-JSON object raises TypeError
_encode = json.JSONEncoder(allow_nan=False, default=operator.index).encode


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _gate_obj(g: Gate, state_index: Callable[[LocalState], int]) -> dict:
    if isinstance(g, OneQubit):
        return {"kind": "u1", "qubit": g.qubit, "matrix": [_pair(z) for z in g.matrix.reshape(4)]}
    if isinstance(g, Toffoli):
        return {"kind": "toffoli", "controls": list(g.controls), "target": g.target}
    if isinstance(g, Or):
        return {"kind": "or", "controls": list(g.controls), "target": g.target}
    if isinstance(g, RTensor):
        return {"kind": "rtensor", "qubits": list(g.qubits), "states": [state_index(s) for s in g.states]}
    raise TypeError(f"unknown gate {type(g)!r}")


# a state's four parts as their bit patterns, so -0.0 and 0.0 differ
_state_key = struct.Struct("4d").pack


def serialize(c: Circuit) -> str:
    """``c`` as JSON text: ``num_qubits``, ``targets``, the ``states`` table,
    then one layer per line."""
    table: list[list[list[float]]] = []
    by_key: dict[bytes, int] = {}
    by_id: dict[int, int] = {}  # c holds every state, so no id is reused

    def state_index(s: LocalState) -> int:
        i = by_id.get(id(s))
        if i is None:
            entry = [_pair(s.amp0), _pair(s.amp1)]
            i = by_id[id(s)] = by_key.setdefault(_state_key(*entry[0], *entry[1]), len(table))
            if i == len(table):
                table.append(entry)
        return i

    targets = list(c.targets) if c.targets is not None else None
    layers = ",".join("\n    " + _encode([_gate_obj(g, state_index) for g in lay.gates]) for lay in c.layers)
    return '{\n  "num_qubits": %s,\n  "targets": %s,\n  "states": %s,\n  "layers": [%s\n  ]\n}\n' % (
        _encode(c.num_qubits), _encode(targets), _encode(table), layers
    )


def _where(at: str | tuple) -> str:
    """Error-location text.  A tuple alternates names and numbers, so
    ``("layer", 0, "gate", 2)`` reads 'layer 0, gate 2'; it is formatted
    only when a check fails."""
    if type(at) is str:
        return at
    return ", ".join(f"{at[m]} {at[m + 1]}" for m in range(0, len(at), 2))


# json.loads returns only dict, list, str, int, float, bool and None, so the
# checks below test exact types: ``type(v) is int`` rejects bool as
# ``isinstance`` with a bool exclusion would.
_REAL = (int, float)


def _want(obj: Any, key: str, at: str | tuple) -> Any:
    if type(obj) is not dict or key not in obj:
        raise CircuitFormatError(f"{_where(at)}: missing field {key!r}")
    return obj[key]


def _as_complex(val: Any, at: str | tuple) -> complex:
    if type(val) is not list or len(val) != 2 or type(val[0]) not in _REAL or type(val[1]) not in _REAL:
        raise CircuitFormatError(f"{_where(at)}: expected [re, im] pair")
    try:
        return complex(val[0], val[1])
    except OverflowError as exc:  # json reads integers of any size
        raise CircuitFormatError(f"{_where(at)}: {exc}") from exc


def _wire(val: Any, field: str, at: str | tuple) -> int:
    """``val`` as a wire id; floats and booleans are rejected, not coerced."""
    if type(val) is not int:
        raise CircuitFormatError(f"{_where(at)}: {field}: expected an integer wire id, got {val!r}")
    return val


def _state_table(doc: dict) -> list[LocalState]:
    """``doc["states"]``, one ``LocalState`` per entry."""
    entries = _want(doc, "states", "top level")
    if type(entries) is not list:
        raise CircuitFormatError("top level: states must be an array")
    table = []
    for i, e in enumerate(entries):
        if type(e) is not list or len(e) != 2:
            raise CircuitFormatError(f"state {i}: expected a pair of [re, im] pairs")
        table.append(LocalState(_as_complex(e[0], ("state", i)), _as_complex(e[1], ("state", i))))
    return table


def _factors(qubits: list, states: list, table: list[LocalState], at: tuple) -> tuple[tuple[int, LocalState], ...]:
    """An rtensor gate's ``(qubit, table[s])`` pairs from arrays of equal
    length.  An index that is a bool, a float or out of range is refused, so
    a negative one never wraps."""
    n = len(table)
    for i, (q, s) in enumerate(zip(qubits, states)):
        if type(q) is not int or type(s) is not int or not 0 <= s < n:
            at += ("factor", i)
            _wire(q, "qubit", at)
            raise CircuitFormatError(f"{_where(at)}: state: expected an index in [0, {n}), got {s!r}")
    return tuple(zip(qubits, [table[s] for s in states]))


def _parse_gate(obj: Any, at: tuple, table: list[LocalState]) -> Gate:
    if type(obj) is not dict:
        raise CircuitFormatError(f"{_where(at)}: gate must be an object")
    kind = _want(obj, "kind", at)
    if kind == "u1":
        mat = _want(obj, "matrix", at)
        if type(mat) is not list or len(mat) != 4:
            raise CircuitFormatError(f"{_where(at)}: u1 matrix must have 4 entries")
        entries = [_as_complex(e, at) for e in mat]
        qubit = _wire(_want(obj, "qubit", at), "qubit", at)
        return OneQubit(qubit, np.array(entries).reshape(2, 2))
    if kind in ("toffoli", "or"):
        controls = _want(obj, "controls", at)
        if type(controls) is not list:
            raise CircuitFormatError(f"{_where(at)}: controls must be an array")
        cls = Toffoli if kind == "toffoli" else Or
        wires = tuple(_wire(q, "controls", at) for q in controls)
        target = _wire(_want(obj, "target", at), "target", at)
        try:
            return cls(wires, target)
        except ValueError as exc:
            raise CircuitFormatError(f"{_where(at)}: {exc}") from exc
    if kind == "rtensor":
        qubits = _want(obj, "qubits", at)
        states = _want(obj, "states", at)
        if type(qubits) is not list or type(states) is not list:
            raise CircuitFormatError(f"{_where(at)}: qubits and states must be arrays")
        if len(qubits) != len(states):
            raise CircuitFormatError(
                f"{_where(at)}: qubits and states differ in length ({len(qubits)} and {len(states)})"
            )
        factors = _factors(qubits, states, table, at)
        try:
            return RTensor(factors)
        except ValueError as exc:
            raise CircuitFormatError(f"{_where(at)}: {exc}") from exc
    raise CircuitFormatError(f"{_where(at)}: unknown gate kind {kind!r}")


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CircuitFormatError("parse error: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top level: expected an object")
    return doc


def _num_qubits(doc: dict, cap: int | None = None) -> int:
    """``doc["num_qubits"]`` as an int in [1, cap]; booleans are rejected."""
    n = _want(doc, "num_qubits", "top level")
    if type(n) is not int or n <= 0:
        raise CircuitFormatError(f"top level: num_qubits must be a positive integer, got {n!r}")
    if cap is not None and n > cap:
        raise CircuitFormatError(f"top level: num_qubits must be at most {cap}, got {n}")
    return n


def deserialize(text: str) -> Circuit:
    # else the cyclic collector walks the containers json.loads has built,
    # again each time the load allocates enough new ones
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _circuit(_load_object(text))
    finally:
        if was_enabled:
            gc.enable()


def _circuit(doc: dict) -> Circuit:
    num_qubits = _num_qubits(doc)
    check_wire_cap(num_qubits)  # before anything is parsed per wire or gate
    targets = _want(doc, "targets", "top level")
    if targets is not None:
        if type(targets) is not list:
            raise CircuitFormatError("top level: targets must be an array or null")
        targets = tuple(_wire(q, "targets", "top level") for q in targets)
    table = _state_table(doc)
    layers_doc = _want(doc, "layers", "top level")
    if type(layers_doc) is not list:
        raise CircuitFormatError("top level: layers must be an array")
    layers = []
    for k, lay in enumerate(layers_doc):
        if type(lay) is not list:
            raise CircuitFormatError(f"layer {k}: expected an array of gates")
        layers.append(Layer(tuple(_parse_gate(g, ("layer", k, "gate", j), table) for j, g in enumerate(lay))))
    return Circuit(num_qubits, tuple(layers), targets)


def state_to_json(num_qubits: int, amplitudes: np.ndarray) -> str:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.shape[0] != 1 << num_qubits:
        raise ValueError("amplitude count must be 2**num_qubits")
    # adding 0.0 writes every zero part as 0.0, so the bytes do not depend on
    # which wires the oracle's buffer held when a reflection negated a zero
    return _encode({"num_qubits": num_qubits, "amplitudes": [_pair(z) for z in amps + 0.0]})


def state_from_json(text: str) -> tuple[int, np.ndarray]:
    doc = _load_object(text)
    num_qubits = _num_qubits(doc, MAX_QUBITS)
    pairs = _want(doc, "amplitudes", "top level")
    if type(pairs) is not list or len(pairs) != 1 << num_qubits:
        raise CircuitFormatError("top level: amplitudes must have 2**num_qubits entries")
    amps = np.array([_as_complex(p, ("amplitude", i)) for i, p in enumerate(pairs)])
    return num_qubits, amps
