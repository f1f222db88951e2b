"""JSON serialization for circuits and state vectors.

Circuit files are JSON objects with fields ``num_qubits``, ``targets``
(array or null), and ``layers`` (array of arrays of gate objects).  Gate
objects carry ``kind`` in {"u1", "toffoli", "or", "rtensor"} plus
kind-specific fields; complex numbers are [re, im] pairs.  Floats are printed
as Python's shortest round-trip repr, so round-trips are bit-exact.
"""
from __future__ import annotations

import json
import operator
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


def _want(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise CircuitFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _as_complex(val: Any, where: str) -> complex:
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in val)
    ):
        raise CircuitFormatError(f"{where}: expected [re, im] pair")
    try:
        return complex(val[0], val[1])
    except OverflowError as exc:  # json reads integers of any size
        raise CircuitFormatError(f"{where}: {exc}") from exc


def _wire(val: Any, field: str, where: str) -> int:
    """``val`` as a wire id; floats and booleans are rejected, not coerced."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise CircuitFormatError(f"{where}: {field}: expected an integer wire id, got {val!r}")
    return val


def _parse_gate(obj: Any, where: str) -> Gate:
    if not isinstance(obj, dict):
        raise CircuitFormatError(f"{where}: gate must be an object")
    kind = _want(obj, "kind", where)
    if kind == "u1":
        mat = _want(obj, "matrix", where)
        if not isinstance(mat, list) or len(mat) != 4:
            raise CircuitFormatError(f"{where}: u1 matrix must have 4 entries")
        entries = [_as_complex(e, where) for e in mat]
        qubit = _wire(_want(obj, "qubit", where), "qubit", where)
        return OneQubit(qubit, np.array(entries).reshape(2, 2))
    if kind in ("toffoli", "or"):
        controls = _want(obj, "controls", where)
        if not isinstance(controls, list):
            raise CircuitFormatError(f"{where}: controls must be an array")
        cls = Toffoli if kind == "toffoli" else Or
        wires = tuple(_wire(q, "controls", where) for q in controls)
        target = _wire(_want(obj, "target", where), "target", where)
        try:
            return cls(wires, target)
        except ValueError as exc:
            raise CircuitFormatError(f"{where}: {exc}") from exc
    if kind == "rtensor":
        factors = _want(obj, "factors", where)
        if not isinstance(factors, list):
            raise CircuitFormatError(f"{where}: factors must be an array")
        pairs = []
        for i, f in enumerate(factors):
            fw = f"{where}, factor {i}"
            pairs.append(
                (
                    _wire(_want(f, "qubit", fw), "qubit", fw),
                    LocalState(_as_complex(_want(f, "amp0", fw), fw), _as_complex(_want(f, "amp1", fw), fw)),
                )
            )
        try:
            return RTensor(tuple(pairs))
        except ValueError as exc:
            raise CircuitFormatError(f"{where}: {exc}") from exc
    raise CircuitFormatError(f"{where}: unknown gate kind {kind!r}")


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
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise CircuitFormatError(f"top level: num_qubits must be a positive integer, got {n!r}")
    if cap is not None and n > cap:
        raise CircuitFormatError(f"top level: num_qubits must be at most {cap}, got {n}")
    return n


def deserialize(text: str) -> Circuit:
    doc = _load_object(text)
    num_qubits = _num_qubits(doc)
    targets = _want(doc, "targets", "top level")
    if targets is not None:
        if not isinstance(targets, list):
            raise CircuitFormatError("top level: targets must be an array or null")
        targets = tuple(_wire(q, "targets", "top level") for q in targets)
    layers_doc = _want(doc, "layers", "top level")
    if not isinstance(layers_doc, list):
        raise CircuitFormatError("top level: layers must be an array")
    layers = []
    for k, lay in enumerate(layers_doc):
        if not isinstance(lay, list):
            raise CircuitFormatError(f"layer {k}: expected an array of gates")
        layers.append(Layer(tuple(_parse_gate(g, f"layer {k}, gate {j}") for j, g in enumerate(lay))))
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
    if not isinstance(pairs, list) or len(pairs) != 1 << num_qubits:
        raise CircuitFormatError("top level: amplitudes must have 2**num_qubits entries")
    amps = np.array([_as_complex(p, f"amplitude {i}") for i, p in enumerate(pairs)])
    return num_qubits, amps
