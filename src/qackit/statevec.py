"""Dense state-vector oracle.

Amplitude indexing puts qubit 0 at the most significant bit of the basis
index, so ``|q0 q1 q2>`` has index ``4*q0 + 2*q1 + q2``.  Equivalently, a
buffer of ``2**m`` amplitudes reshaped to ``(2,) * m`` has one axis per wire,
in wire order.  The engine works in place on such views: a one-qubit gate
updates the two slices along its wire's axis, Toffoli and Or swap the two
target slices where the controls hold given values, and a reflection
``I - 2|chi><chi|`` contracts ``chi`` against its wires' axes.  Any trailing
axes of the buffer form a batch axis that every gate acts on alike, so
``unitary`` is ``run`` applied to column blocks of the identity matrix, each
written into the one result matrix, and ``max_unitary_difference`` runs two
circuits on the same block and keeps only the largest entry of the
difference, so it stores neither matrix.  Public functions
never modify their arguments: ``run`` and ``apply_gate`` copy the input
amplitudes once, apply gates in place, and hand that buffer to the result
read-only, without a second copy.  The practical cap is 24 qubits
(2^24 complex doubles), checked before any allocation.

Up to two threads: when the process may run on two or more CPUs, a gate on
a buffer of at least ``_SPLIT_AMPS`` amplitudes that leaves some wire free
is applied to the two halves of the buffer along the first such wire at
once, one half on the caller's thread and the other on one helper thread,
started by the first such gate and kept for the life of the process.  The
halves are disjoint views, and the same kernel runs on each.  numpy
releases the interpreter lock inside these kernels, but BLAS runs one
caller at a time, so the reflection's overlap ``<chi|psi>`` is computed by
``np.einsum``'s own loop (``optimize=False``), never by ``tensordot``.
``taskset -c 0`` keeps the oracle on one thread.
"""
from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, LocalState, OneQubit, Or, RTensor, Toffoli, support

MAX_QUBITS = 24
# ``max_unitary_difference`` holds two column blocks, not two matrices
MAX_COMPARE_QUBITS = 13
NORM_ATOL = 1e-10
# amplitudes per column block of ``unitary`` (4 MiB of complex128)
_BLOCK_AMPS = 1 << 18
# gates on buffers of at least this many amplitudes run on two threads
_SPLIT_AMPS = 1 << 16


@dataclass(frozen=True, eq=False)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.num_qubits)
        self._freeze(np.array(self.amplitudes, dtype=np.complex128).reshape(-1))

    def _freeze(self, amps: np.ndarray) -> None:
        """Check ``amps``, a buffer no caller holds, and keep it read-only."""
        if amps.shape[0] != 1 << self.num_qubits:
            raise ValueError("amplitude count must be 2**num_qubits")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
            raise ValueError("state vector must be unit norm")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray) -> "StateVector":
        """State over ``amps``, a fresh buffer of this module, without the
        defensive copy the constructor makes."""
        _check_width(num_qubits)
        state = cls.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        state._freeze(amps.reshape(-1))
        return state


def _check_width(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")


def zero_state(num_qubits: int) -> StateVector:
    return basis_state(num_qubits, 0)


def basis_state(num_qubits: int, bits: str | int) -> StateVector:
    _check_width(num_qubits)
    if isinstance(bits, str):
        if len(bits) != num_qubits:
            raise ValueError("bit string length must equal num_qubits")
        index = int(bits, 2)
    else:
        index = int(bits)
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector._adopt(num_qubits, amps)


def product_state(factors: list[LocalState]) -> StateVector:
    amps = np.array([1.0], dtype=np.complex128)
    for f in factors:
        amps = np.kron(amps, f.vec())
    return StateVector._adopt(len(factors), amps)


def _halves(psi: np.ndarray, m: int, axis: int, fixed=()):
    """Views of ``psi`` with wire ``axis`` at 0 and at 1 and each ``(wire,
    value)`` pair of ``fixed`` holding.  The trailing ``...`` keeps the result
    a view even when every wire is fixed."""
    idx: list = [slice(None)] * m
    for q, v in fixed:
        idx[q] = v
    idx[axis] = 0
    lo = psi[(*idx, ...)]
    idx[axis] = 1
    return lo, psi[(*idx, ...)]


def _controlled_x(psi: np.ndarray, m: int, controls, value: int, target: int) -> None:
    """X on ``target`` wherever every control wire holds ``value``."""
    lo, hi = _halves(psi, m, target, [(c, value) for c in controls])
    tmp = lo.copy()
    lo[...] = hi
    hi[...] = tmp


def _slab_kernel(g: Gate, m: int):
    """``g``'s in-place action on a slab: a view of the buffer with one axis
    per wire, in wire order, then the batch axes.  A wire outside ``g`` may
    have length 1 in the slab.  The kernel calls no public function, so it
    may run on the helper thread."""
    if isinstance(g, OneQubit):
        u = g.matrix

        def kernel(psi):
            lo, hi = _halves(psi, m, g.qubit)
            lo[...], hi[...] = u[0, 0] * lo + u[0, 1] * hi, u[1, 0] * lo + u[1, 1] * hi

    elif isinstance(g, Toffoli):

        def kernel(psi):
            _controlled_x(psi, m, g.controls, 1, g.target)

    elif isinstance(g, Or):

        def kernel(psi):
            # b ^ OR(x) = NOT b, undone where every control is 0
            _controlled_x(psi, m, (), 1, g.target)
            _controlled_x(psi, m, g.controls, 0, g.target)

    elif isinstance(g, RTensor):
        wires = list(g.qubits)
        chi = functools.reduce(np.multiply.outer, [s.vec() for s in g.states])
        chi_bra, two_chi = chi.conj(), 2.0 * chi

        def kernel(psi):
            # <chi| psi> by einsum's own loop: BLAS serializes concurrent callers
            axes = list(range(psi.ndim))
            rest = [a for a in axes if a not in wires]
            overlap = np.einsum(chi_bra, wires, psi, axes, rest, optimize=False)
            np.moveaxis(psi, wires, range(len(wires)))[...] -= np.multiply.outer(two_chi, overlap)

    else:
        raise TypeError(f"unknown gate {type(g)!r}")
    return kernel


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_helper = None
_helper_lock = threading.Lock()


def _helper_thread():
    """The one helper thread, started by the first gate that splits."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, thread_name_prefix="qackit-statevec")
        return _helper


def _forget_helper() -> None:
    # a forked child has no copy of the parent's thread
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def _apply_gate_in_place(buf: np.ndarray, m: int, g: Gate) -> None:
    """Apply ``g`` to every column of ``buf``, whose first axis holds 2**m amplitudes.

    A large buffer is cut in two at the first wire ``g`` leaves free, and the
    helper thread works on one half while the caller works on the other."""
    wires = support(g)
    for q in wires:
        if not 0 <= q < m:
            raise ValueError(f"gate support {wires} out of range for {m} qubits")
    kernel = _slab_kernel(g, m)
    psi = buf.reshape((2,) * m + buf.shape[1:])
    free = next((q for q in range(m) if q not in wires), None)
    if free is None or buf.size < _SPLIT_AMPS or _usable_cpus() < 2:
        kernel(psi)
        return
    idx: list = [slice(None)] * psi.ndim
    idx[free] = slice(1, 2)
    other_half = _helper_thread().submit(kernel, psi[tuple(idx)])
    idx[free] = slice(0, 1)
    try:
        kernel(psi[tuple(idx)])
    finally:
        other_half.result()


def _run_in_place(buf: np.ndarray, c: Circuit) -> None:
    for lay in c.layers:
        for g in lay.gates:
            _apply_gate_in_place(buf, c.num_qubits, g)


def apply_gate(state: StateVector, g: Gate) -> StateVector:
    amps = state.amplitudes.copy()
    _apply_gate_in_place(amps, state.num_qubits, g)
    return StateVector._adopt(state.num_qubits, amps)


def run(c: Circuit, state: StateVector) -> StateVector:
    if c.num_qubits != state.num_qubits:
        raise ValueError("circuit and state qubit counts differ")
    amps = state.amplitudes.copy()
    _run_in_place(amps, c)
    return StateVector._adopt(c.num_qubits, amps)


def _column_blocks(c: Circuit):
    """``(j, block)`` pairs: columns ``j, j+1, ...`` of the circuit's unitary,
    in blocks of about ``_BLOCK_AMPS`` amplitudes, so the kernels'
    temporaries are block-sized, not matrix-sized."""
    dim = 1 << c.num_qubits
    cols = min(dim, max(1, _BLOCK_AMPS >> c.num_qubits))
    for j in range(0, dim, cols):
        block = np.eye(dim, cols, -j, dtype=np.complex128)
        _run_in_place(block, c)
        yield j, block


def unitary(c: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Dense matrix of the circuit; column j is the image of basis state j."""
    if c.num_qubits > max_qubits:
        raise ValueError(f"dense unitary capped at {max_qubits} qubits")
    dim = 1 << c.num_qubits
    mat = np.empty((dim, dim), dtype=np.complex128)
    for j, block in _column_blocks(c):
        mat[:, j : j + block.shape[1]] = block
    return mat


def max_unitary_difference(a: Circuit, b: Circuit) -> float:
    """``max |U_a - U_b|`` over the entries of the two circuits' unitaries.

    Both circuits run on the same column block at a time and only the running
    maximum is kept, so neither matrix is stored."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("compared circuits differ in qubit count")
    if a.num_qubits > MAX_COMPARE_QUBITS:
        raise ValueError(f"dense comparison capped at {MAX_COMPARE_QUBITS} qubits")
    dev = 0.0
    for (_, ua), (_, ub) in zip(_column_blocks(a), _column_blocks(b)):
        ua -= ub
        dev = max(dev, float(np.max(np.abs(ua))))
    return dev


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def phase_dependent_fidelity(a: StateVector, b: StateVector) -> float:
    """1 - ||a - b||^2.  Never exceeds fidelity, and is phase sensitive."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    return float(1.0 - np.linalg.norm(a.amplitudes - b.amplitudes) ** 2)


@dataclass(frozen=True)
class MeasurementDistribution:
    qubits: tuple[int, ...]
    probs: dict[str, float]

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def prob(self, bits: str) -> float:
        return self.probs.get(bits, 0.0)


def measurement_distribution(state: StateVector, qubits) -> MeasurementDistribution:
    qubits = tuple(qubits)
    m = state.num_qubits
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    for q in qubits:
        if not 0 <= q < m:
            raise ValueError(f"qubit {q} out of range")
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * m)
    drop = tuple(ax for ax in range(m) if ax not in qubits)
    if drop:
        probs = probs.sum(axis=drop)
    kept = [q for q in range(m) if q in qubits]
    probs = np.transpose(probs, [kept.index(q) for q in qubits]).reshape(-1)
    k = len(qubits)
    nonzero = np.flatnonzero(probs > 0.0)
    table = {format(i, f"0{k}b"): p for i, p in zip(nonzero.tolist(), probs[nonzero].tolist())}
    return MeasurementDistribution(qubits, table)


def measure_in_basis(
    state: StateVector, qubit: int, basis_state_: LocalState
) -> list[tuple[float, StateVector | None]]:
    """Project onto ``basis_state_`` and its canonical orthogonal complement.

    Returns the two branches as (probability, collapsed state); a branch of
    probability ~0 carries ``None`` instead of a state.
    """
    m = state.num_qubits
    if not 0 <= qubit < m:
        raise ValueError(f"qubit {qubit} out of range")
    branches: list[tuple[float, StateVector | None]] = []
    lo, hi = _halves(state.amplitudes.reshape((2,) * m), m, qubit)
    for vec in (basis_state_, basis_state_.complement()):
        v = vec.vec()
        coeff = v[0].conjugate() * lo + v[1].conjugate() * hi
        p = float(np.linalg.norm(coeff) ** 2)
        if p < 1e-15:
            branches.append((0.0, None))
            continue
        out = np.zeros((2,) * m, dtype=np.complex128)
        out_lo, out_hi = _halves(out, m, qubit)
        scale = 1.0 / np.sqrt(p)
        out_lo[...] = v[0] * coeff * scale
        out_hi[...] = v[1] * coeff * scale
        branches.append((p, StateVector._adopt(m, out)))
    return branches


@dataclass(frozen=True)
class NekomataReport:
    """All-zeros/all-ones target probabilities and the best nekomata fidelity."""

    all_zeros_prob: float
    all_ones_prob: float
    fidelity: float


def best_nekomata_fidelity(state: StateVector, targets) -> NekomataReport:
    """Exact maximum fidelity of ``state`` with any nekomata on ``targets``.

    The optimum over states of the form ``(|0..0, a> + |1..1, b>)/sqrt(2)``
    equals ``((sqrt(p) + sqrt(q))/sqrt(2))^2`` where p and q are the all-zeros
    and all-ones probabilities of the target wires.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("need at least one target")
    m = state.num_qubits
    amps = state.amplitudes.reshape([2] * m)
    sel0 = tuple(0 if q in targets else slice(None) for q in range(m))
    sel1 = tuple(1 if q in targets else slice(None) for q in range(m))
    p = float(np.linalg.norm(amps[sel0]) ** 2)
    q = float(np.linalg.norm(amps[sel1]) ** 2)
    fid = 0.5 * (np.sqrt(p) + np.sqrt(q)) ** 2
    return NekomataReport(p, q, float(fid))
