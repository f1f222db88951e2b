"""Shared test helpers: Haar samples, random circuits, TV distance, and the
references the product is checked against: the enumerated law of a
reflection on |0..0>, the parity and fanout maps, and the OR-CZ collapse."""
from __future__ import annotations

import numpy as np
import pytest

from qackit import (
    KET1,
    Circuit,
    LocalState,
    OneQubit,
    Or,
    RTensor,
    Toffoli,
    circuit,
    cz,
    gate_law,
    rtensor,
    x_gate,
)
from qackit.rng import substream
from qackit.statevec import unitary


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


def exact_gate_law(g: RTensor) -> dict[str, float]:
    """The standard-basis law of ``g`` applied to all-zeros, as bit string ->
    probability over ``g``'s wires: the law both samplers draw from,
    enumerated over the factors that ``gate_law`` keeps."""
    kept, law = gate_law(g)
    probs: dict[str, float] = {}
    for pattern in range(1 << len(kept)):
        bits = ["0"] * len(g.factors)
        pr = 4.0 * law.prod_q
        for j, pos in enumerate(kept):
            one = (pattern >> (len(kept) - 1 - j)) & 1
            bits[pos] = "01"[one]
            pr *= law.p[j] if one else 1.0 - law.p[j]
        if pattern == 0:
            pr = law.all_zeros
        if pr > 0.0:
            probs["".join(bits)] = float(pr)
    return probs


def reference_unitary(kind: str, n: int) -> np.ndarray:
    """The ideal ``parity`` map ``|b, x> -> |b ^ parity(x), x>`` or ``fanout``
    map ``|b, x> -> |b, x_1 ^ b, .., x_{n-1} ^ b>``, with b on wire 0, built
    one basis state at a time with Python integers."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    top = n - 1
    for i in range(dim):
        b = (i >> top) & 1
        rest = i & ~(1 << top)
        if kind == "parity":
            par = bin(rest).count("1") & 1
            j = ((b ^ par) << top) | rest
        else:
            j = (b << top) | (rest ^ (((1 << top) - 1) if b else 0))
        mat[j, i] = 1.0
    return mat


def or_cz_collapses(k: int, atol: float = 1e-10) -> bool:
    """Whether OR of k open wires into a fresh ancilla, X, CZ against a control
    wire, X, OR again acts as the reflection about |1, 0..0> on the control
    and the open wires, on every input with the ancilla at |0>.  Wire 0 is
    the control, wire 1 the ancilla, wires 2.. the open ones."""
    total = k + 2
    open_wires = tuple(range(2, total))
    left = circuit(total, [[Or(open_wires, 1)], [x_gate(1)], [cz(0, 1)], [x_gate(1)], [Or(open_wires, 1)]])
    right = circuit(total, [[rtensor({0: KET1, **{q: LocalState(1.0, 0.0) for q in open_wires}})]])
    # a column's index splits into (control, ancilla, open wires): keep ancilla 0
    ul, ur = (unitary(c).reshape(-1, 2, 2, 1 << k)[:, :, 0] for c in (left, right))
    return bool(np.max(np.abs(ul - ur)) <= atol)


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
