"""Shared randomized-test helpers: Haar samples, random circuits, TV distance."""
from __future__ import annotations

import numpy as np
import pytest

from qackit import Circuit, LocalState, OneQubit, Or, RTensor, Toffoli, circuit
from qackit.rng import substream


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_local(rng: np.random.Generator) -> LocalState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return LocalState(v[0], v[1])


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def reference_classical(c: Circuit, x: str) -> str:
    """Bit-by-bit evaluation of a Toffoli/Or/X circuit in Python, independent
    of the packed evaluator that the samplers use."""
    bits = [ch == "1" for ch in x]
    for lay in c.layers:
        for g in lay.gates:
            if isinstance(g, Toffoli):
                bits[g.target] ^= all(bits[q] for q in g.controls)
            elif isinstance(g, Or):
                bits[g.target] ^= any(bits[q] for q in g.controls)
            else:
                assert isinstance(g, OneQubit) and np.allclose(g.matrix, [[0, 1], [1, 0]]), g
                bits[g.qubit] = not bits[g.qubit]
    return "".join("1" if b else "0" for b in bits)


def random_multi_gate(wires: list[int], rng: np.random.Generator):
    kind = rng.choice(["toffoli", "or", "rtensor"])
    if kind == "toffoli":
        return Toffoli(tuple(wires[:-1]), wires[-1])
    if kind == "or":
        return Or(tuple(wires[:-1]), wires[-1])
    return RTensor(tuple((q, haar_local(rng)) for q in wires))


def random_qac_circuit(
    rng: np.random.Generator,
    max_qubits: int = 8,
    max_depth: int = 4,
    with_one_qubit_layers: bool = True,
) -> Circuit:
    """Random circuit with disjoint-support layers over the full gate set."""
    m = int(rng.integers(2, max_qubits + 1))
    d = int(rng.integers(1, max_depth + 1))
    layers = []
    for _ in range(d):
        if with_one_qubit_layers and rng.random() < 0.5:
            qs = [q for q in range(m) if rng.random() < 0.4]
            if qs:
                layers.append([OneQubit(q, haar_unitary(rng)) for q in qs])
        wires = list(rng.permutation(m))
        gates = []
        while len(wires) >= 2:
            k = int(rng.integers(2, min(4, len(wires)) + 1))
            chosen, wires = wires[:k], wires[k:]
            gates.append(random_multi_gate([int(q) for q in chosen], rng))
            if rng.random() < 0.3:
                break
        if gates:
            layers.append(gates)
    if not layers:
        layers.append([random_multi_gate([0, 1], rng)])
    return circuit(m, layers)


def random_mostly_classical_circuit(
    rng: np.random.Generator, max_qubits: int = 12, max_targets: int = 6
) -> Circuit:
    """Random reflections-plus-one-qubit first layer, classical layers after."""
    m = int(rng.integers(3, max_qubits + 1))
    first = []
    wires = list(rng.permutation(m))
    while wires:
        k = int(rng.integers(1, min(3, len(wires)) + 1))
        chosen, wires = wires[:k], wires[k:]
        if k == 1 and rng.random() < 0.5:
            first.append(OneQubit(int(chosen[0]), haar_unitary(rng)))
        else:
            first.append(RTensor(tuple((int(q), haar_local(rng)) for q in chosen)))
    layers = [first]
    for _ in range(int(rng.integers(0, 3))):
        wires = list(rng.permutation(m))
        gates = []
        while len(wires) >= 2 and rng.random() < 0.8:
            k = int(rng.integers(2, min(4, len(wires)) + 1))
            chosen, wires = wires[:k], wires[k:]
            if rng.random() < 0.5:
                gates.append(Toffoli(tuple(int(q) for q in chosen[:-1]), int(chosen[-1])))
            else:
                gates.append(Or(tuple(int(q) for q in chosen[:-1]), int(chosen[-1])))
        if gates:
            layers.append(gates)
    n_targets = int(rng.integers(1, min(max_targets, m) + 1))
    targets = tuple(int(q) for q in rng.choice(m, size=n_targets, replace=False))
    return circuit(m, layers, targets)


def tv_distance(counts: dict[str, int], exact: dict[str, float], total: int) -> float:
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / total - exact.get(k, 0.0)) for k in keys)


def counts_from_rows(rows: np.ndarray) -> dict[str, int]:
    """Bit string -> number of rows, for a (trials, n) 0/1 matrix with n >= 1."""
    rows = np.asarray(rows, dtype=np.uint8)
    keys, counts = np.unique((rows + ord("0")).view(f"S{rows.shape[1]}"), return_counts=True)
    return {k.decode(): int(c) for k, c in zip(keys, counts)}


def densify(draw: tuple[np.ndarray, np.ndarray], rows: int) -> np.ndarray:
    """(rows, k) 0/1 matrix of a per-gate law's sparse draw: the hit row
    indices and their (hits, k) bits; every other row is all-zeros."""
    hits, bits = draw
    out = np.zeros((rows, bits.shape[1]), dtype=np.uint8)
    out[hits] = bits
    return out


@pytest.fixture
def rng():
    return substream(20240817)
