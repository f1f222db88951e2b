"""JSON serialization for circuits and state vectors.

Circuit files are JSON objects with fields ``num_qubits``, ``targets``
(array or null), and ``layers`` (array of arrays of gate objects).  Gate
objects carry ``kind`` in {"u1", "toffoli", "or", "rtensor"} plus
kind-specific fields; complex numbers are [re, im] pairs.  Floats are printed
as Python's shortest round-trip repr, so round-trips are bit-exact.

``deserialize`` gives rtensor factors with equal ``amp0``/``amp1`` pairs one
shared ``LocalState`` (a grid repeats one state on every column factor), so
``validate`` and the samplers, which cache by state identity, read each
distinct state once.  Fields are checked by exact type, and error locations
are formatted only when a check fails.  The cyclic garbage collector is
paused while ``deserialize`` runs.
"""
from __future__ import annotations

import gc
import json
import operator
from math import copysign
from typing import Any

import numpy as np

from .ir import Circuit, Gate, Layer, LocalState, OneQubit, Or, RTensor, Toffoli
from .statevec import MAX_QUBITS


class CircuitFormatError(ValueError):
    """Malformed circuit/state JSON; message carries location information."""


# NaN and infinities raise ValueError; numpy integer wire ids are written as
# ints, and any other non-JSON object raises TypeError
_encode = json.JSONEncoder(allow_nan=False, default=operator.index).encode


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _gate_obj(g: Gate) -> dict:
    if isinstance(g, OneQubit):
        return {"kind": "u1", "qubit": g.qubit, "matrix": [_pair(z) for z in g.matrix.reshape(4)]}
    if isinstance(g, Toffoli):
        return {"kind": "toffoli", "controls": list(g.controls), "target": g.target}
    if isinstance(g, Or):
        return {"kind": "or", "controls": list(g.controls), "target": g.target}
    if isinstance(g, RTensor):
        return {
            "kind": "rtensor",
            "factors": [
                {"qubit": q, "amp0": _pair(s.amp0), "amp1": _pair(s.amp1)} for q, s in g.factors
            ],
        }
    raise TypeError(f"unknown gate {type(g)!r}")


def serialize(c: Circuit) -> str:
    """``c`` as JSON text: ``num_qubits``, then ``targets``, then one layer per line."""
    targets = list(c.targets) if c.targets is not None else None
    layers = ",".join("\n    " + _encode([_gate_obj(g) for g in lay.gates]) for lay in c.layers)
    return '{\n  "num_qubits": %s,\n  "targets": %s,\n  "layers": [%s\n  ]\n}\n' % (
        _encode(c.num_qubits), _encode(targets), layers
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


def _factor(f: Any, at: tuple, states: dict[tuple, LocalState]) -> tuple[int, LocalState]:
    """One rtensor factor as ``(qubit, state)``.  Equal ``amp0``/``amp1``
    pairs get the one ``LocalState`` kept in ``states``, looked up only after
    the type checks.  The key holds the sign of each part, so -0.0 never
    shares with 0.0, and a NaN part equals no key, so it is never shared."""
    q = _wire(_want(f, "qubit", at), "qubit", at)
    a0 = _as_complex(_want(f, "amp0", at), at)
    a1 = _as_complex(_want(f, "amp1", at), at)
    key = (a0, a1, copysign(1.0, a0.real), copysign(1.0, a0.imag), copysign(1.0, a1.real), copysign(1.0, a1.imag))
    s = states.get(key)
    if s is None:
        s = states[key] = LocalState(a0, a1)
    return q, s


def _parse_gate(obj: Any, at: tuple, states: dict[tuple, LocalState]) -> Gate:
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
        factors = _want(obj, "factors", at)
        if type(factors) is not list:
            raise CircuitFormatError(f"{_where(at)}: factors must be an array")
        pairs = tuple(_factor(f, at + ("factor", i), states) for i, f in enumerate(factors))
        try:
            return RTensor(pairs)
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
    targets = _want(doc, "targets", "top level")
    if targets is not None:
        if type(targets) is not list:
            raise CircuitFormatError("top level: targets must be an array or null")
        targets = tuple(_wire(q, "targets", "top level") for q in targets)
    layers_doc = _want(doc, "layers", "top level")
    if type(layers_doc) is not list:
        raise CircuitFormatError("top level: layers must be an array")
    layers = []
    states: dict[tuple, LocalState] = {}
    for k, lay in enumerate(layers_doc):
        if type(lay) is not list:
            raise CircuitFormatError(f"layer {k}: expected an array of gates")
        layers.append(Layer(tuple(_parse_gate(g, ("layer", k, "gate", j), states) for j, g in enumerate(lay))))
    return Circuit(num_qubits, tuple(layers), targets)


def state_to_json(num_qubits: int, amplitudes: np.ndarray) -> str:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.shape[0] != 1 << num_qubits:
        raise ValueError("amplitude count must be 2**num_qubits")
    return _encode({"num_qubits": num_qubits, "amplitudes": [_pair(z) for z in amps]})


def state_from_json(text: str) -> tuple[int, np.ndarray]:
    doc = _load_object(text)
    num_qubits = _num_qubits(doc, MAX_QUBITS)
    pairs = _want(doc, "amplitudes", "top level")
    if type(pairs) is not list or len(pairs) != 1 << num_qubits:
        raise CircuitFormatError("top level: amplitudes must have 2**num_qubits entries")
    amps = np.array([_as_complex(p, ("amplitude", i)) for i, p in enumerate(pairs)])
    return num_qubits, amps
