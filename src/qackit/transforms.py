"""Circuit rewrite passes and the constructions connecting parity, fanout,
cat states, and nekomata constructors.

Every pass preserves the computed unitary exactly (up to float error) and
preserves topology: one-qubit layers inserted or absorbed by a pass never
count toward depth or the (support, layer) topology entries.
"""
from __future__ import annotations

from collections import Counter

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
    X_MATRIX,
    check_wire_cap,
    circuit,
    cz,
    h_gate,
    reflections,
)


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
    if isinstance(g, (Toffoli, Or)):
        return type(g)(tuple(pos[q] for q in g.controls), pos[g.target])
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


def _canonical_map_to(target: LocalState, source: LocalState) -> np.ndarray:
    """One-qubit unitary sending ``source`` to ``target``, phase-normalized so
    the first nonzero entry of the first column is real nonnegative."""
    u = np.outer(target.vec(), source.vec().conj())
    u += np.outer(target.complement().vec(), source.complement().vec().conj())
    anchor = u[0, 0] if abs(u[0, 0]) > 1e-12 else u[1, 0]
    if abs(anchor) > 1e-12:
        u = u * (abs(anchor) / anchor)
    return u


def _reflection_matrix(st: LocalState) -> np.ndarray:
    """``I - 2|v><v|/<v|v>``; dividing by <v|v> makes the reflection about
    |-> exactly X."""
    v = st.vec()
    return np.eye(2) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v)


_EYE = np.eye(2, dtype=np.complex128)


def _is_identity(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - np.eye(2))) <= 1e-15)


def _append_one_qubit(out: list[Layer], gates: dict[int, np.ndarray]) -> None:
    """Append a layer of one-qubit gates to ``out``, multiplied into its last
    layer when that one holds one-qubit gates too; identities are dropped."""
    if out and isinstance(out[-1].gates[0], OneQubit):
        merged = {g.qubit: g.matrix for g in out.pop().gates}
        for q, m in gates.items():
            merged[q] = m @ merged[q] if q in merged else m
        gates = merged
    kept = tuple(OneQubit(q, m) for q, m in gates.items() if not _is_identity(m))
    if kept:
        out.append(Layer(kept))


def lower(c: Circuit) -> Circuit:
    """Rewrite a valid circuit into the paper's gate set, one-qubit gates and
    Toffolis, preserving the unitary.

    Each gate is read as its ``ir.reflections``.  A one-wire reflection
    becomes a one-qubit gate in a layer after its layer.  Every other
    reflection ``R`` becomes ``L T L^dagger``: ``T`` is a Toffoli whose
    target is ``R``'s last wire not at |0> or |1>, or, when it has none, the
    wire of ``R`` that the fewest reflections of the layer hold; ``L`` maps
    |-> to the target factor and |1> to each control factor, and is I or X
    on a control at |1> or |0>.  Reflections that hold a shared wire at
    different basis values need different ``L`` there, so first-fit places
    them in extra multi-qubit layers; every other layer keeps its size and
    multi-qubit depth.  Adjacent layers of one-qubit gates are multiplied
    into one, and gates that come out as the identity are dropped."""
    out: list[Layer] = []
    for lay in c.layers:
        after: dict[int, np.ndarray] = {}
        multi = []
        for g in lay.gates:
            if isinstance(g, OneQubit):
                after[g.qubit] = g.matrix
                continue
            for factors in reflections(g):
                if len(factors) > 1:
                    multi.append(factors)
                    continue
                ((q, st),) = factors
                after[q] = _reflection_matrix(st) @ after.get(q, np.eye(2))
        holders = Counter(q for factors in multi for q, _ in factors)
        # per sub-layer: each wire's basis value, None where one reflection
        # holds it alone; the Toffolis; and the L of each wire
        subs: list[tuple[dict[int, int | None], list[Toffoli], dict[int, np.ndarray]]] = []
        for factors in multi:
            values = {q: st.basis_value for q, st in factors}
            moved = [q for q, v in values.items() if v is None]
            target = moved[-1] if moved else min(values, key=holders.__getitem__)
            values[target] = None
            for held, toffolis, maps in subs:
                if all(q not in held or (v is not None and held[q] == v) for q, v in values.items()):
                    break
            else:
                held, toffolis, maps = {}, [], {}
                subs.append((held, toffolis, maps))
            held.update(values)
            toffolis.append(Toffoli(tuple(q for q, _ in factors if q != target), target))
            for q, st in factors:
                if values[q] is not None:
                    maps[q] = X_MATRIX if values[q] == 0 else np.eye(2)
                else:
                    maps[q] = _canonical_map_to(st, MINUS if q == target else KET1)
        for _, toffolis, maps in subs:
            _append_one_qubit(out, {q: m.conj().T for q, m in maps.items()})
            out.append(Layer(tuple(toffolis)))
            _append_one_qubit(out, maps)
        _append_one_qubit(out, after)
    return Circuit(c.num_qubits, tuple(out), c.targets)


def to_rtensor_normal_form(c: Circuit) -> Circuit:
    """Rewrite to one initial layer of one-qubit gates followed by multi-qubit
    reflections only, preserving the unitary and the topology.

    Scanning layers from last to first, pending one-qubit gates are commuted
    toward the input.  Of each gate's ``ir.reflections``, one on a single
    wire is folded into that wire's pending gate ``L``, and any other ``R``
    becomes ``L R L^dagger``, the reflection about ``L``'s image of its state.

    Some circuits have no valid layering in this form: a wire that gates of
    one layer share must stay at |0> or |1> in all of them, and a later
    one-qubit gate on it, such as an H, rotates it away.  ``ir.validate``
    rejects such a result."""
    # the pending gates of the wires a one-qubit gate or reflection touched
    pending: dict[int, np.ndarray] = {}
    reversed_layers: list[Layer] = []
    for lay in reversed(c.layers):
        new_gates: list[RTensor] = []
        for g in lay.gates:
            if isinstance(g, OneQubit):
                pending[g.qubit] = pending.get(g.qubit, _EYE) @ g.matrix
                continue
            for factors in reflections(g):
                if len(factors) > 1:
                    images = [(q, pending.get(q, _EYE) @ st.vec()) for q, st in factors]
                    new_gates.append(RTensor(tuple((q, LocalState(*v)) for q, v in images)))
                    continue
                ((q, st),) = factors
                pending[q] = pending.get(q, _EYE) @ _reflection_matrix(st)
        if new_gates:
            reversed_layers.append(Layer(tuple(new_gates)))
    first = tuple(OneQubit(q, pending[q]) for q in sorted(pending) if not _is_identity(pending[q]))
    layers = ([Layer(first)] if first else []) + reversed_layers[::-1]
    return Circuit(c.num_qubits, tuple(layers), c.targets)


def conjugate_by_hadamards(c: Circuit, n: int) -> Circuit:
    """Sandwich the circuit between H layers on the first n wires; swaps the
    parity and fanout behaviours while keeping the topology."""
    if n < 1:
        raise ValueError("hadamard conjugation needs n >= 1")
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
    check_wire_cap(n)
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

    ``constructor`` acts on ``a`` wires, and input i is paired with its i-th
    declared target (with wire i when ``targets`` is None).  The output acts
    on n + a + 1 wires: inputs 0..n-1, constructor wires n..n+a-1, parity
    wire n+a.  The gate sequence is C, CZ pairing input i with target i,
    C^dagger, one OR from all constructor wires into the parity wire, then
    C, CZ, C^dagger again.  With an exact constructor the circuit flips the
    parity wire by the parity of the inputs and restores the constructor
    wires to all zeros.
    """
    a = constructor.num_qubits
    check_wire_cap(n + a + 1)
    targets = constructor.targets if constructor.targets is not None else range(a)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > len(targets):
        raise ValueError(f"{n} inputs need {n} constructor targets, the constructor has {len(targets)}")
    shifted = permute_qubits(constructor, {q: q + n for q in range(a)}, num_qubits=n + a + 1)
    shifted = Circuit(shifted.num_qubits, shifted.layers, None)
    cz_layer = Layer(tuple(cz(i, n + targets[i]) for i in range(n)))
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
