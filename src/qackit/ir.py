"""Gate-level intermediate representation for QAC circuits.

A circuit is an ordered list of layers over ``num_qubits`` wires, with an
optional tuple of designated target wires.  The gate set is:

* ``OneQubit``  -- arbitrary 2x2 unitary on one wire,
* ``Toffoli``   -- generalized Toffoli: ``|x, b> -> |x, b ^ AND(x)>``,
* ``Or``        -- ``|x, b> -> |x, b ^ OR(x)>``,
* ``RTensor``   -- reflection ``I - 2|chi><chi|`` about a mono-product state.

Size, depth, and topology count multi-qubit gates only; one-qubit gates may
be interleaved freely and never contribute to the metrics.

Gate supports within a layer must be pairwise disjoint, with one deliberate
exception: gates may share a wire that each holds at |0> or |1> (up to phase)
in every one of its ``reflections`` on that wire.  Such gates commute.  For
Toffoli and Or these are exactly the controls, so a restricted-fanout stage
(one control copied onto k-1 fresh wires) fits in a single layer.
``validate`` enforces exactly this rule.

A circuit has at most ``MAX_WIRES`` wires: ``check_wire_cap`` refuses a wider
one wherever a width first appears, before anything is allocated per wire.

Circuits and gates are immutable after construction; every function here is
pure and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence, Union

import numpy as np

ATOL = 1e-12

# widest circuit qackit holds.  At the cap, build plus serialize peaks at 319
# MiB RSS for the n=6 grid (1,048,572 wires, a 28 MB file) and at 501 MiB
# for `cat` (a 72 MB file; ru_maxrss, 2-core Xeon, Python 3.11)
MAX_WIRES = 1 << 20

QubitId = int

Topology = frozenset[tuple[frozenset[int], int]]


def check_wire_cap(num_qubits: int) -> None:
    """Refuse a width over ``MAX_WIRES``: every pass allocates per wire."""
    if num_qubits > MAX_WIRES:
        raise ValueError(f"circuit has {num_qubits} wires, over the {MAX_WIRES}-wire cap")


def _abs2(z: complex) -> float:
    """``|z|**2`` as a product, which gives inf where a float power raises
    OverflowError (past about 1.34e154)."""
    r = abs(z)
    return r * r


@dataclass(frozen=True)
class LocalState:
    """One-qubit state ``amp0|0> + amp1|1>``; must be unit norm within 1e-12.

    ``norm_error`` and ``basis_value`` are computed once per state, on first
    read; equal factors loaded from a file share one state."""

    amp0: complex
    amp1: complex

    def vec(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=np.complex128)

    @cached_property
    def norm_error(self) -> float:
        return abs(_abs2(self.amp0) + _abs2(self.amp1) - 1.0)

    @cached_property
    def basis_value(self) -> int | None:
        """0 or 1 when the state is |0> or |1> up to phase, else None: one
        amplitude exactly 0, the other of modulus 1 up to rounding (1e-14 on
        its square)."""
        a0, a1 = complex(self.amp0), complex(self.amp1)
        if a1 == 0 and abs(_abs2(a0) - 1.0) <= 1e-14:
            return 0
        if a0 == 0 and abs(_abs2(a1) - 1.0) <= 1e-14:
            return 1
        return None

    def complement(self) -> "LocalState":
        """The orthogonal state, with phase fixed as (-conj(amp1), conj(amp0))."""
        a0 = complex(self.amp0)
        a1 = complex(self.amp1)
        return LocalState(-a1.conjugate(), a0.conjugate())

    def one_probability(self) -> float:
        return float(abs(self.amp1) ** 2)


KET0 = LocalState(1.0, 0.0)
KET1 = LocalState(0.0, 1.0)
PLUS = LocalState(2 ** -0.5, 2 ** -0.5)
MINUS = LocalState(2 ** -0.5, -(2 ** -0.5))


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128).reshape(2, 2).copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class OneQubit:
    qubit: QubitId
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OneQubit)
            and self.qubit == other.qubit
            and bool(np.array_equal(self.matrix, other.matrix))
        )


@dataclass(frozen=True)
class _Classical:
    """Toffoli and Or; the generated equality tells the two classes apart."""

    controls: tuple[QubitId, ...]
    target: QubitId

    def __post_init__(self):
        name = type(self).__name__
        controls = tuple(self.controls)
        if not controls:
            raise ValueError(f"{name} needs at least one control")
        if len(set(controls)) != len(controls):
            raise ValueError(f"{name} controls must be distinct")
        if self.target in controls:
            raise ValueError(f"{name} target must not be a control")
        object.__setattr__(self, "controls", controls)


class Toffoli(_Classical):
    """``|x, b> -> |x, b ^ AND(x)>``; with no controls, use an X gate."""


class Or(_Classical):
    """``|x, b> -> |x, b ^ OR(x)>``."""


@dataclass(frozen=True)
class RTensor:
    """Reflection about the product of per-wire states; factors sorted by wire."""

    factors: tuple[tuple[QubitId, LocalState], ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("RTensor needs at least one factor")
        if not all(type(q) is int for q, _ in factors):  # numpy wire ids
            factors = tuple((int(q), s) for q, s in factors)
        if len({q for q, _ in factors}) != len(factors):
            raise ValueError("RTensor factor qubits must be distinct")
        object.__setattr__(self, "factors", tuple(sorted(factors, key=itemgetter(0))))

    @property
    def qubits(self) -> tuple[QubitId, ...]:
        return tuple(q for q, _ in self.factors)

    @property
    def states(self) -> tuple[LocalState, ...]:
        return tuple(s for _, s in self.factors)


Gate = Union[OneQubit, Toffoli, Or, RTensor]

X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def x_gate(q: QubitId) -> OneQubit:
    return OneQubit(q, X_MATRIX)


def h_gate(q: QubitId) -> OneQubit:
    return OneQubit(q, H_MATRIX)


def cnot(control: QubitId, target: QubitId) -> Toffoli:
    return Toffoli((control,), target)


def rtensor(factors: dict[QubitId, LocalState] | Iterable[tuple[QubitId, LocalState]]) -> RTensor:
    if isinstance(factors, dict):
        factors = factors.items()
    return RTensor(tuple(factors))


def cz(a: QubitId, b: QubitId) -> RTensor:
    """Controlled Z as the reflection about |11>."""
    return rtensor({a: KET1, b: KET1})


def support(g: Gate) -> tuple[QubitId, ...]:
    if isinstance(g, OneQubit):
        return (g.qubit,)
    if isinstance(g, _Classical):
        return tuple(sorted(g.controls + (g.target,)))
    return g.qubits


def reflections(g: Gate) -> tuple[tuple[tuple[QubitId, LocalState], ...], ...]:
    """The ``(wire, LocalState)`` factor tuples whose commuting reflections
    ``I - 2|chi><chi|`` multiply to ``g``.  A Toffoli is the reflection about
    ``|1..1>|->``.  An Or is X on its target (the reflection about ``|->``),
    undone where every control is 0 (the one about ``|0..0>|->``).  An
    RTensor is its own factors; a one-qubit gate raises TypeError."""
    if isinstance(g, Toffoli):
        return ((*[(q, KET1) for q in g.controls], (g.target, MINUS)),)
    if isinstance(g, Or):
        return (((g.target, MINUS),), (*[(q, KET0) for q in g.controls], (g.target, MINUS)))
    if isinstance(g, RTensor):
        return (g.factors,)
    raise TypeError(f"{type(g).__name__} is not a product of reflections")


def is_multi_qubit(g: Gate) -> bool:
    return len(support(g)) >= 2


@dataclass(frozen=True)
class Layer:
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    layers: tuple[Layer, ...]
    targets: tuple[QubitId, ...] | None = None

    def __post_init__(self):
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        check_wire_cap(self.num_qubits)
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(self.targets))

    def gates(self) -> Iterable[Gate]:
        for lay in self.layers:
            yield from lay.gates


def circuit(
    num_qubits: int,
    layers: Iterable[Iterable[Gate] | Layer],
    targets: Sequence[QubitId] | None = None,
) -> Circuit:
    built = tuple(lay if isinstance(lay, Layer) else Layer(tuple(lay)) for lay in layers)
    return Circuit(num_qubits, built, tuple(targets) if targets is not None else None)


def size(c: Circuit) -> int:
    """Number of multi-qubit gates."""
    return sum(1 for g in c.gates() if is_multi_qubit(g))


def depth(c: Circuit) -> int:
    """Number of layers containing at least one multi-qubit gate."""
    return sum(1 for lay in c.layers if any(is_multi_qubit(g) for g in lay.gates))


def topology(c: Circuit) -> Topology:
    """Set of (support, k) pairs, k indexing only multi-qubit layers."""
    entries = set()
    k = -1
    for lay in c.layers:
        multis = [g for g in lay.gates if is_multi_qubit(g)]
        if not multis:
            continue
        k += 1
        for g in multis:
            entries.add((frozenset(support(g)), k))
    return frozenset(entries)


def _unitarity_error(m: np.ndarray) -> float:
    # non-finite entries give NaN and huge ones inf, which validate rejects
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def is_classical_gate(g: Gate) -> bool:
    """Toffoli, Or, or a one-qubit gate equal to X within ``ATOL``."""
    if isinstance(g, _Classical):
        return True
    return isinstance(g, OneQubit) and bool(np.max(np.abs(g.matrix - X_MATRIX)) <= ATOL)


def moved_wires(g: Gate) -> set[int]:
    """Wires that a reflection of ``g`` does not hold at |0> or |1>; a
    one-qubit gate moves its wire."""
    if isinstance(g, OneQubit):
        return {g.qubit}
    return {q for factors in reflections(g) for q, s in factors if s.basis_value is None}


def _overlaps(gates: Sequence[Gate], holders: dict[int, list[int]]) -> list[tuple[int, int]]:
    """Sorted gate-index pairs of one layer that share a wire which one of
    the two moves.  ``holders`` maps each wire to the gates on it; only the
    gates on a wire held twice or more are read, each once."""
    moved: dict[int, set[int]] = {}
    pairs = set()
    for q, owners in holders.items():
        if len(owners) < 2:
            continue
        for j1 in owners:
            if j1 not in moved:
                moved[j1] = moved_wires(gates[j1])
            if q in moved[j1]:
                pairs.update((min(j1, j2), max(j1, j2)) for j2 in owners if j2 != j1)
    return sorted(pairs)


def validate(c: Circuit) -> list[str]:
    """Return all invariant violations; an empty list means the circuit is valid.

    Runs in time linear in the total support size plus the size of the
    overlaps it reports."""
    problems: list[str] = []
    for k, lay in enumerate(c.layers):
        supports = [support(g) for g in lay.gates]
        holders: dict[int, list[int]] = {}
        for j, (g, sup) in enumerate(zip(lay.gates, supports)):
            for q in sup:
                holders.setdefault(q, []).append(j)
                if not 0 <= q < c.num_qubits:
                    problems.append(f"layer {k}, gate {j}: qubit {q} out of range")
            # written as not (err <= ATOL) so that NaN errors fail too
            if isinstance(g, OneQubit) and not _unitarity_error(g.matrix) <= ATOL:
                problems.append(f"layer {k}, gate {j}: non-unitary matrix")
            if isinstance(g, RTensor):
                for q, s in g.factors:
                    if not s.norm_error <= ATOL:
                        problems.append(f"layer {k}, gate {j}: non-normalized local state on qubit {q}")
        for j1, j2 in _overlaps(lay.gates, holders):
            # every shared wire is listed, shared basis wires included
            shared = set(supports[j1]) & set(supports[j2])
            problems.append(f"layer {k}: overlapping supports on qubits {sorted(shared)}")
    if c.targets is not None:
        if len(set(c.targets)) != len(c.targets):
            problems.append("duplicate target qubits")
        for q in c.targets:
            if not 0 <= q < c.num_qubits:
                problems.append(f"target qubit {q} out of range")
    return problems

