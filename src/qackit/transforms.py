"""Circuit rewrite passes and the constructions connecting parity, fanout,
cat states, and nekomata constructors.

Every pass preserves the computed unitary exactly (up to float error) and
preserves topology: one-qubit layers inserted or absorbed by a pass never
count toward depth or the (support, layer) topology entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import (
    Circuit,
    Gate,
    KET1,
    Layer,
    LocalState,
    MINUS,
    OneQubit,
    Or,
    RTensor,
    Toffoli,
    circuit,
    cz,
    h_gate,
    is_multi_qubit,
    rtensor,
    support,
    x_gate,
)
from . import statevec


@dataclass(frozen=True)
class ReferenceUnitary:
    """Exact parity / fanout unitaries; dense matrices available up to 12 qubits.

    Both act on wires (b, x_1, .., x_{n-1}) with b on wire 0:
    parity maps ``|b, x> -> |b ^ parity(x), x>`` and fanout maps
    ``|b, x> -> |b, x_1 ^ b, ..>``.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("parity", "fanout"):
            raise ValueError("kind must be 'parity' or 'fanout'")
        if self.n < 1:
            raise ValueError("n must be positive")

    def matrix(self) -> np.ndarray:
        if self.n > 12:
            raise ValueError("dense reference unitary capped at 12 qubits")
        dim = 1 << self.n
        mat = np.zeros((dim, dim), dtype=np.complex128)
        top = self.n - 1
        for i in range(dim):
            b = (i >> top) & 1
            rest = i & ~(1 << top)
            if self.kind == "parity":
                par = bin(rest).count("1") & 1
                j = ((b ^ par) << top) | rest
            else:
                j = (b << top) | (rest ^ (((1 << top) - 1) if b else 0))
            mat[j, i] = 1.0
        return mat


def parity_unitary(n: int) -> np.ndarray:
    return ReferenceUnitary("parity", n).matrix()


def fanout_unitary(n: int) -> np.ndarray:
    return ReferenceUnitary("fanout", n).matrix()


def dagger(c: Circuit) -> Circuit:
    """Inverse circuit: layers reversed, one-qubit gates conjugate-transposed.
    Toffoli, Or, and RTensor gates are involutions."""
    out = []
    for lay in reversed(c.layers):
        out.append(
            Layer(
                tuple(
                    OneQubit(g.qubit, g.matrix.conj().T) if isinstance(g, OneQubit) else g
                    for g in reversed(lay.gates)
                )
            )
        )
    return Circuit(c.num_qubits, tuple(out), c.targets)


def _remap_gate(g: Gate, pos: dict[int, int]) -> Gate:
    if isinstance(g, OneQubit):
        return OneQubit(pos[g.qubit], g.matrix)
    if isinstance(g, Toffoli):
        return Toffoli(tuple(pos[q] for q in g.controls), pos[g.target])
    if isinstance(g, Or):
        return Or(tuple(pos[q] for q in g.controls), pos[g.target])
    return RTensor(tuple((pos[q], s) for q, s in g.factors))


def permute_qubits(c: Circuit, perm: dict[int, int], num_qubits: int | None = None) -> Circuit:
    """Relabel wires via ``perm`` (old -> new); wires not mentioned stay fixed."""
    pos = {q: perm.get(q, q) for q in range(c.num_qubits)}
    if len(set(pos.values())) != c.num_qubits:
        raise ValueError("permutation must be injective")
    n = num_qubits if num_qubits is not None else c.num_qubits
    if any(not 0 <= v < n for v in pos.values()):
        raise ValueError("permutation target out of range")
    layers = tuple(Layer(tuple(_remap_gate(g, pos) for g in lay.gates)) for lay in c.layers)
    targets = tuple(pos[q] for q in c.targets) if c.targets is not None else None
    return Circuit(n, layers, targets)


def expand_or(c: Circuit) -> Circuit:
    """Replace every OR gate by X-conjugated controls around a Toffoli plus an
    X on the target.  The X layers are one-qubit-only, so topology and depth
    are unchanged."""
    out_layers: list[Layer] = []
    for lay in c.layers:
        ors = [g for g in lay.gates if isinstance(g, Or)]
        if not ors:
            out_layers.append(lay)
            continue
        pre = sorted({q for g in ors for q in g.controls})
        post = sorted(set(pre) | {g.target for g in ors})
        touched = set(pre) | {g.target for g in ors}
        for g in lay.gates:
            if not isinstance(g, Or) and touched & set(support(g)):
                raise ValueError("expand_or: OR gate shares wires with a non-OR gate in its layer")
        out_layers.append(Layer(tuple(x_gate(q) for q in pre)))
        out_layers.append(
            Layer(
                tuple(Toffoli(g.controls, g.target) if isinstance(g, Or) else g for g in lay.gates)
            )
        )
        out_layers.append(Layer(tuple(x_gate(q) for q in post)))
    return Circuit(c.num_qubits, tuple(out_layers), c.targets)


def _canonical_map_to(target: LocalState, source: LocalState) -> np.ndarray:
    """One-qubit unitary sending ``source`` to ``target``, phase-normalized so
    the first nonzero entry of the first column is real nonnegative."""
    tv = target.vec()
    comp = target.complement().vec()
    sv = source.vec()
    scomp = np.array([-sv[1].conjugate(), sv[0].conjugate()])
    u = np.outer(tv, sv.conj()) + np.outer(comp, scomp.conj())
    anchor = u[0, 0] if abs(u[0, 0]) > 1e-12 else u[1, 0]
    if abs(anchor) > 1e-12:
        u = u * (abs(anchor) / anchor)
    return u


def synthesize_rtensor(factors) -> tuple[list[OneQubit], Gate]:
    """Write a reflection about a product state as ``L . T . L^dagger``.

    ``L`` maps ``|1..1,->`` to the product of the factors, and ``T`` is the
    Toffoli targeting the last factor wire.  As a circuit the operator reads
    right to left: apply ``L^dagger``, then ``T``, then ``L``.  A single
    factor degenerates to the zero-control case: ``T`` is a plain X, the
    reflection about ``|->``.
    """
    if isinstance(factors, RTensor):
        pairs = factors.factors
    elif isinstance(factors, dict):
        pairs = tuple(sorted(factors.items()))
    else:
        pairs = tuple(factors)
    if not pairs:
        raise ValueError("need at least one factor")
    lay: list[OneQubit] = []
    for q, st in pairs[:-1]:
        lay.append(OneQubit(q, _canonical_map_to(st, KET1)))
    q_last, st_last = pairs[-1]
    lay.append(OneQubit(q_last, _canonical_map_to(st_last, MINUS)))
    if len(pairs) == 1:
        return lay, x_gate(q_last)
    middle = Toffoli(tuple(q for q, _ in pairs[:-1]), q_last)
    return lay, middle


def to_rtensor_normal_form(c: Circuit) -> Circuit:
    """Rewrite to one initial layer of one-qubit gates followed by multi-qubit
    reflections only, preserving the unitary and the topology.

    Scanning layers from last to first, pending one-qubit gates are commuted
    toward the input; each multi-qubit gate ``G`` with local pending layer
    ``L`` is replaced by the reflection ``L G L^dagger`` about ``L``'s image
    of the gate's fixed product state.
    """
    c = expand_or(c)
    pending: list[np.ndarray] = [np.eye(2, dtype=np.complex128) for _ in range(c.num_qubits)]
    reversed_layers: list[Layer] = []
    for lay in reversed(c.layers):
        multis: list[Gate] = []
        for g in lay.gates:
            if isinstance(g, OneQubit):
                pending[g.qubit] = pending[g.qubit] @ g.matrix
            elif is_multi_qubit(g):
                multis.append(g)
            else:
                # single-wire Toffoli/RTensor degenerate cases fold into pending
                mat = _degenerate_matrix(g)
                q = support(g)[0]
                pending[q] = pending[q] @ mat
        if multis:
            new_gates = tuple(_conjugated_reflection(g, pending) for g in multis)
            reversed_layers.append(Layer(new_gates))
    first = tuple(
        OneQubit(q, pending[q])
        for q in range(c.num_qubits)
        if np.max(np.abs(pending[q] - np.eye(2))) > 1e-15
    )
    layers: list[Layer] = []
    if first:
        layers.append(Layer(first))
    layers.extend(reversed(reversed_layers))
    return Circuit(c.num_qubits, tuple(layers), c.targets)


def _degenerate_matrix(g: Gate) -> np.ndarray:
    if isinstance(g, RTensor) and len(g.factors) == 1:
        v = g.states[0].vec()
        return np.eye(2, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())
    raise TypeError(f"unexpected single-wire gate {type(g)!r}")


def _conjugated_reflection(g: Gate, pending: list[np.ndarray]) -> RTensor:
    if isinstance(g, Toffoli):
        pairs = [(q, KET1) for q in g.controls] + [(g.target, MINUS)]
    elif isinstance(g, RTensor):
        pairs = list(g.factors)
    else:
        raise TypeError(f"cannot put {type(g)!r} into reflection form")
    out = []
    for q, st in pairs:
        v = pending[q] @ st.vec()
        out.append((q, LocalState(v[0], v[1])))
    return RTensor(tuple(out))


def conjugate_by_hadamards(c: Circuit, n: int) -> Circuit:
    """Sandwich the circuit between H layers on the first n wires; swaps the
    parity and fanout behaviours while keeping the topology."""
    if c.num_qubits < n:
        raise ValueError("circuit acts on fewer wires than requested")
    h_layer = Layer(tuple(h_gate(q) for q in range(n)))
    return Circuit(c.num_qubits, (h_layer,) + c.layers + (h_layer,), c.targets)


def _ceil_log(n: int, m: int) -> int:
    d = 0
    reach = 1
    while reach < n:
        reach *= m
        d += 1
    return d


def fanout_stage_layers(wires: list[int], m: int) -> list[list[Gate]]:
    """Restricted-fanout tree over explicit wires; innermost layers first.

    Each stage spreads every live wire over a group of at most m wires using
    CNOTs that share the live wire as control, which all sit in one layer.
    """
    if len(wires) <= 1:
        return []
    d = _ceil_log(len(wires), m)
    k = m ** (d - 1)
    base, rem = divmod(len(wires), k)
    groups = []
    start = 0
    for i in range(k):
        size_i = base + (1 if i < rem else 0)
        groups.append(wires[start : start + size_i])
        start += size_i
    heads = [g[0] for g in groups]
    layers = fanout_stage_layers(heads, m)
    stage = [Toffoli((g[0],), t) for g in groups for t in g[1:]]
    layers.append(stage)
    return layers


def fanout_tree(n: int, m: int) -> Circuit:
    """Restricted fanout |b, 0^{n-1}> -> |b^n> from fanout stages of arity at
    most m: depth ceil(log_m n), size at most n-1, no ancillae."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    stages = fanout_stage_layers(list(range(n)), m)
    return circuit(max(n, 1), [Layer(tuple(st)) for st in stages])


def cat_from_restricted_fanout(c: Circuit, n: int) -> Circuit:
    """Prefix an H on wire 0: a restricted-fanout circuit becomes a cat-state
    preparation circuit."""
    if c.num_qubits < n:
        raise ValueError("circuit acts on fewer wires than requested")
    return Circuit(c.num_qubits, (Layer((h_gate(0),)),) + c.layers, c.targets)


def parity_from_nekomata(constructor: Circuit, n: int) -> Circuit:
    """Parity circuit driven by a nekomata constructor.

    ``constructor`` acts on ``a`` wires and is assumed to place the nekomata
    targets on its first ``n`` wires.  The output acts on n + a + 1 wires:
    inputs 0..n-1, constructor wires n..n+a-1, parity wire n+a.  The gate
    sequence is C, CZ pairing input i with target i, C^dagger, one OR from all
    constructor wires into the parity wire, then C, CZ, C^dagger again.
    With an exact constructor the circuit flips the parity wire by the parity
    of the inputs and restores the constructor wires to all zeros.
    """
    a = constructor.num_qubits
    if a < n:
        raise ValueError("constructor must act on at least n wires")
    shifted = permute_qubits(constructor, {q: q + n for q in range(a)}, num_qubits=n + a + 1)
    shifted = Circuit(shifted.num_qubits, shifted.layers, None)
    cz_layer = Layer(tuple(cz(i, n + i) for i in range(n)))
    or_layer = Layer((Or(tuple(range(n, n + a)), n + a),))
    inv = dagger(shifted)
    layers = (
        shifted.layers
        + (cz_layer,)
        + inv.layers
        + (or_layer,)
        + shifted.layers
        + (cz_layer,)
        + inv.layers
    )
    return Circuit(n + a + 1, layers, None)


def or_cz_collapse_check(k: int, atol: float = 1e-10) -> bool:
    """Check that OR into a fresh ancilla, X, CZ against a control wire, X,
    OR again acts like a single reflection about |1, 0..0> on the control plus
    k open wires, for every basis input with the ancilla at |0>."""
    if k < 1:
        raise ValueError("need k >= 1 open wires")
    total = k + 2  # wire 0 control, wire 1 ancilla, wires 2.. open
    open_wires = tuple(range(2, k + 2))
    left = circuit(
        total,
        [
            [Or(open_wires, 1)],
            [x_gate(1)],
            [cz(0, 1)],
            [x_gate(1)],
            [Or(open_wires, 1)],
        ],
    )
    right = circuit(
        total,
        [[rtensor({0: KET1, **{q: LocalState(1.0, 0.0) for q in open_wires}})]],
    )
    for bits in range(1 << (k + 1)):
        control = (bits >> k) & 1
        index = control << (total - 1)
        for j, q in enumerate(open_wires):
            if (bits >> (k - 1 - j)) & 1:
                index |= 1 << (total - 1 - q)
        start = statevec.basis_state(total, index)
        out_l = statevec.run(left, start)
        out_r = statevec.run(right, start)
        if np.max(np.abs(out_l.amplitudes - out_r.amplitudes)) > atol:
            return False
    return True
