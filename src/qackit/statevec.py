"""Dense state-vector oracle.

Amplitude indexing puts qubit 0 at the most significant bit of the basis
index, so ``|q0 q1 q2>`` has index ``4*q0 + 2*q1 + q2``.  Equivalently, a
buffer of ``2**m`` amplitudes reshaped to ``(2,) * m`` has one axis per wire,
in wire order.  The engine works in place on such views.  A one-qubit gate
updates the two slices along its wire's axis.  Every other gate is a
product of reflections ``I - 2|chi><chi|`` about product states, as
``ir.reflections`` lists them, and each reflection is one kernel.  A factor
of ``chi`` equal to ``|0>`` or ``|1>`` up to phase
(``LocalState.basis_value``) only selects the slice of the buffer where its
wire holds that value, or, on a wire the buffer does not hold, tests that
wire's bit: if any test fails, the reflection is the identity.  On that slice, no factor left means
-1, a lone ``|->`` up to phase is X on its wire (a swap of two halves), and
any other factors are contracted against their wires' axes.
So a circuit in reflection normal form runs at the cost of the classical
gates it was written from.  A one-qubit gate with a zero diagonal, such as
X, is a swap of the two slices and a phase on each.

One executor runs every circuit.  Its buffer holds some wires, then any
batch axes, which every gate acts on alike; every other wire is at a fixed
basis value.  A wire joins the buffer at its value just before the first
gate that moves it (``ir.moved_wires``): a one-qubit gate on it, or a
reflection with a factor on it that is not ``|0>`` or ``|1>`` up to phase.
A wire that gates only read at ``|0>`` or ``|1>``, such as a control, stays
out at its bit, so the parity circuit's inputs never double the buffer.
Every other wire joins at the end.  Callers differ only in which wires
start held.  ``run`` on a basis state up to phase starts with none, so the
grid's first layer and a fanout tree's early gates run on a fraction of the
state; ``run`` on any other input starts with all of them, on one copy of
the input.  A column block of ``unitary`` is the identity on the last few
wires, with the others at the bits of its first column, so it starts with
those few.  It spans as many of the last wires as keep the buffer it comes
to hold, over those wires and every wire the circuit moves, not over all m
wires, within about 4 MiB; so wires the circuit only reads widen the block.
``max_unitary_difference`` sizes one block by the wires either circuit
moves, runs both circuits on it and compares the two results on the wires
either holds, where every other row is 0 in both; it keeps only the
largest entry of the difference, so it stores neither matrix.  Each gate's
kernels are built once for all the blocks; only the tests read the bits.

Public functions never modify their arguments.  ``run`` hands its buffer to
the result read-only, without a second copy.  The practical cap is 24
qubits (2^24 complex doubles), checked before any allocation.

Up to two threads: when the process may run on two or more CPUs, a gate on
a buffer of at least ``_SPLIT_AMPS`` amplitudes that leaves some axis of the
buffer free is applied to the two halves of the buffer along the first such
axis at once, one half on the caller's thread and the other on one helper
thread, started by the first such gate and kept for the life of the
process.  The halves are disjoint views, and the same kernel runs on each.
numpy releases the interpreter lock inside these kernels, but BLAS runs one
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

from .ir import Circuit, Gate, LocalState, OneQubit, moved_wires, reflections, support

MAX_QUBITS = 24
MAX_UNITARY_QUBITS = 12
# ``max_unitary_difference`` holds two column blocks, not two matrices
MAX_COMPARE_QUBITS = 13
NORM_ATOL = 1e-10
# most amplitudes a column block of ``unitary`` holds, over the wires its
# buffer holds (4 MiB of complex128); a power of two, so that a block's
# columns span the last wires
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
        if set(bits) - {"0", "1"}:
            raise ValueError(f"bit string {bits!r} may hold only the characters 0 and 1")
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


def _select(psi: np.ndarray, m: int, fixed) -> np.ndarray:
    """View of ``psi`` where each ``(wire, value)`` pair of ``fixed`` holds,
    without those wires' axes.  The trailing ``...`` keeps the result a view
    even when every wire is fixed."""
    idx: list = [slice(None)] * m
    for q, v in fixed:
        idx[q] = v
    return psi[(*idx, ...)]


def _halves(psi: np.ndarray, m: int, axis: int, fixed=()):
    """Views of ``psi`` with wire ``axis`` at 0 and at 1 and each ``(wire,
    value)`` pair of ``fixed`` holding."""
    return _select(psi, m, (*fixed, (axis, 0))), _select(psi, m, (*fixed, (axis, 1)))


def _controlled_x(psi: np.ndarray, m: int, fixed, target: int) -> None:
    """X on ``target`` wherever each ``(wire, value)`` pair of ``fixed`` holds."""
    lo, hi = _halves(psi, m, target, fixed)
    tmp = lo.copy()
    lo[...] = hi
    hi[...] = tmp


def _is_minus(v: np.ndarray) -> bool:
    """``v`` is |-> up to phase and rounding."""
    return v[1] == -v[0] and abs(abs(2**0.5 * v[0]) ** 2 - 1.0) <= 1e-14


def _reflection_kernel(factors, axis_of: dict):
    """``(tests, kernel)`` for ``I - 2|chi><chi|``, ``chi`` the product of the
    ``(wire, LocalState)`` pairs of ``factors``, on a slab whose axes for the
    wires it holds are ``axis_of`` (wire to axis): the in-place kernel, to run
    only where each ``(wire, value)`` test holds on the bit of a wire the slab
    does not hold.

    A factor equal to |0> or |1> up to phase picks the slice the reflection
    acts on if the slab holds its wire, and is a test of the wire's bit if
    not.  On that slice, no factor left is -1, a lone |-> up to phase is X,
    and otherwise the factors left are contracted."""
    m = len(axis_of)
    tests, fixed, rest = [], [], []
    for q, s in factors:
        value = s.basis_value
        if value is None:
            rest.append((axis_of[q], s.vec()))
        elif q in axis_of:
            fixed.append((axis_of[q], value))
        else:
            tests.append((q, value))

    if not rest:

        def kernel(psi):
            part = _select(psi, m, fixed)
            np.negative(part, out=part)

    elif len(rest) == 1 and _is_minus(rest[0][1]):
        target = rest[0][0]

        def kernel(psi):
            _controlled_x(psi, m, fixed, target)

    else:
        # the slice has no axes for the fixed wires
        wires = [q - sum(f < q for f, _ in fixed) for q, _ in rest]
        chi = functools.reduce(np.multiply.outer, [v for _, v in rest])
        chi_bra, two_chi = chi.conj(), 2.0 * chi

        def kernel(psi):
            part = _select(psi, m, fixed)
            # <chi| part> by einsum's own loop: BLAS serializes concurrent callers
            axes = list(range(part.ndim))
            others = [a for a in axes if a not in wires]
            overlap = np.einsum(chi_bra, wires, part, axes, others, optimize=False)
            np.moveaxis(part, wires, range(len(wires)))[...] -= np.multiply.outer(two_chi, overlap)

    return tests, kernel


def _slab_kernel(g: Gate, wires):
    """``g``'s in-place action on a slab, a view of a buffer with one axis per
    wire of ``wires``, in that order, then the batch axes: ``(tests, kernel)``
    parts that run in order, each where its tests hold.  ``wires`` holds every
    wire ``g`` moves, and an axis outside ``g`` may have length 1 in the slab.
    The kernels call no public function, so they may run on the helper
    thread."""
    m, axis_of = len(wires), {q: a for a, q in enumerate(wires)}
    if isinstance(g, OneQubit):
        q, u = axis_of[g.qubit], g.matrix
        if u[0, 0] == 0 and u[1, 1] == 0:
            # |0> takes u01 times the old |1> slice, and |1> takes u10 times the old |0>
            phases = [((q, v), z) for v, z in ((0, u[0, 1]), (1, u[1, 0])) if z != 1]

            def kernel(psi):
                _controlled_x(psi, m, (), q)
                for fixed, z in phases:
                    part = _select(psi, m, (fixed,))
                    part *= z

            return [((), kernel)]

        def kernel(psi):
            lo, hi = _halves(psi, m, q)
            lo[...], hi[...] = u[0, 0] * lo + u[0, 1] * hi, u[1, 0] * lo + u[1, 1] * hi

        return [((), kernel)]
    return [_reflection_kernel(factors, axis_of) for factors in reflections(g)]


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


def _gate_step(g: Gate, m: int, wires):
    """``g``'s slab parts on a buffer with one axis per wire of ``wires``,
    and the first of those axes that ``g`` leaves free (None if none), after
    checking ``g``'s support against the circuit's ``m`` wires."""
    touched = support(g)
    for q in touched:
        if not 0 <= q < m:
            raise ValueError(f"gate support {touched} out of range for {m} qubits")
    return _slab_kernel(g, wires), next((a for a, q in enumerate(wires) if q not in touched), None)


def _plan(c: Circuit, held):
    """``(wires, step)`` for each gate of ``c`` in order: the sorted wires a
    buffer that starts over the sorted wires ``held`` holds when the gate
    runs, and the gate's step on them.  A wire joins when a gate moves it
    (``ir.moved_wires``); a wire a gate only reads at |0> or |1> stays out.
    Each step is built when it is reached, so that a run holds one gate's
    ``chi`` at a time."""
    m = c.num_qubits
    for lay in c.layers:
        for g in lay.gates:
            held = sorted({*held, *moved_wires(g)})
            yield held, _gate_step(g, m, held)


def _apply_in_place(buf: np.ndarray, m: int, step, bits: list) -> None:
    """Apply a gate step to every column of ``buf``, whose first axis holds
    2**m amplitudes; each wire it does not hold is at its value in ``bits``.

    Only the parts whose tests hold on ``bits`` run.  A large buffer is cut
    in two at the first axis the gate leaves free, and the helper thread
    works on one half while the caller works on the other."""
    parts, free = step
    kernels = [kernel for tests, kernel in parts if all(bits[q] == v for q, v in tests)]
    if not kernels:
        return

    def run_parts(psi):
        for kernel in kernels:
            kernel(psi)

    psi = buf.reshape((2,) * m + buf.shape[1:])
    if free is None or buf.size < _SPLIT_AMPS or _usable_cpus() < 2:
        run_parts(psi)
        return
    idx: list = [slice(None)] * psi.ndim
    idx[free] = slice(1, 2)
    other_half = _helper_thread().submit(run_parts, psi[tuple(idx)])
    idx[free] = slice(0, 1)
    try:
        run_parts(psi[tuple(idx)])
    finally:
        other_half.result()


def _widen(buf: np.ndarray, held: list, wires, bits: list) -> np.ndarray:
    """``buf``, a buffer over the sorted wires ``held`` and then its batch
    axes, as a buffer over the sorted wires ``wires``, which include them;
    each wire new to it holds its value in ``bits``."""
    if len(wires) == len(held):
        return buf
    k, batch = len(wires), buf.shape[1:]
    out = np.zeros((1 << k, *batch), dtype=np.complex128)
    fixed = [(a, bits[q]) for a, q in enumerate(wires) if q not in held]
    _select(out.reshape((2,) * k + batch), k, fixed)[...] = buf.reshape((2,) * len(held) + batch)
    return out


def _evolve(buf: np.ndarray, held: list, plan, bits: list):
    """Run ``plan``, made for a buffer over the sorted wires ``held``, on
    ``buf``, widening it before each step; every wire ``buf`` does not hold
    is at its value in ``bits``.  Returns the buffer and the sorted wires it
    holds."""
    for wires, step in plan:
        buf, held = _widen(buf, held, wires, bits), wires
        _apply_in_place(buf, len(held), step, bits)
    return buf, held


def _bits(index: int, m: int) -> list:
    return [(index >> (m - 1 - q)) & 1 for q in range(m)]


def run(c: Circuit, state: StateVector) -> StateVector:
    if c.num_qubits != state.num_qubits:
        raise ValueError("circuit and state qubit counts differ")
    m, amps = c.num_qubits, state.amplitudes
    # counted first, so that a dense input allocates no index array
    if np.count_nonzero(amps) == 1:
        index = int(np.flatnonzero(amps)[0])
        buf, held = amps[index : index + 1].copy(), []
    else:
        index, buf, held = 0, amps.copy(), list(range(m))
    bits = _bits(index, m)
    buf, held = _evolve(buf, held, _plan(c, held), bits)
    return StateVector._adopt(m, _widen(buf, held, range(m), bits))


def _block_wires(circuits, m: int) -> list:
    """The last ``k`` of the ``m`` wires, for the largest ``k`` at which a
    column block of ``2**k`` columns, over those wires and every wire one of
    ``circuits`` moves (``ir.moved_wires``), holds at most ``_BLOCK_AMPS``
    amplitudes; a wire the circuits only read at |0> or |1> stays out of it.
    When every wire is moved, that is ``_BLOCK_AMPS >> m`` columns, and at
    least one."""
    moved = {q for c in circuits for lay in c.layers for g in lay.gates for q in moved_wires(g)}
    k = 0
    while k < m and 1 << (len(moved.union(range(m - k - 1, m))) + k + 1) <= _BLOCK_AMPS:
        k += 1
    return list(range(m - k, m))


def _column_blocks(c: Circuit, low: list):
    """``(j, block, held)`` triples: columns ``j, j+1, ...`` of the circuit's
    unitary, on the sorted wires ``held``, in blocks of ``2**len(low)``
    columns, so the kernels' temporaries are block-sized, not matrix-sized.
    A block is the identity on the sorted last wires ``low``, with every
    other wire at its bit of ``j``, so it starts over those wires.  In the
    columns of the unitary, every row where a wire the block does not hold
    differs from that bit is 0.  The plan is built once and run on every
    block."""
    m, cols = c.num_qubits, 1 << len(low)
    plan = list(_plan(c, low))
    for j in range(0, 1 << m, cols):
        yield (j, *_evolve(np.eye(cols, dtype=np.complex128), low, plan, _bits(j, m)))


def unitary(c: Circuit) -> np.ndarray:
    """Dense matrix of the circuit; column j is the image of basis state j."""
    if c.num_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(f"dense unitary capped at {MAX_UNITARY_QUBITS} qubits")
    m = c.num_qubits
    mat = np.zeros((2,) * m + (1 << m,), dtype=np.complex128)
    for j, block, held in _column_blocks(c, _block_wires((c,), m)):
        fixed = [(q, bit) for q, bit in enumerate(_bits(j, m)) if q not in held]
        _select(mat[..., j : j + block.shape[1]], m, fixed)[...] = block.reshape((2,) * len(held) + block.shape[1:])
    return mat.reshape(1 << m, 1 << m)


def max_unitary_difference(a: Circuit, b: Circuit) -> float:
    """``max |U_a - U_b|`` over the entries of the two circuits' unitaries.

    Both circuits run on the same column block at a time and only the running
    maximum is kept, so neither matrix is stored.  The two blocks are compared
    on the wires either holds: every other row is 0 in both."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("compared circuits differ in qubit count")
    if a.num_qubits > MAX_COMPARE_QUBITS:
        raise ValueError(f"dense comparison capped at {MAX_COMPARE_QUBITS} qubits")
    m = a.num_qubits
    low = _block_wires((a, b), m)
    dev = 0.0
    for (j, ua, held_a), (_, ub, held_b) in zip(_column_blocks(a, low), _column_blocks(b, low)):
        bits, wires = _bits(j, m), sorted({*held_a, *held_b})
        ua = _widen(ua, held_a, wires, bits)
        ua -= _widen(ub, held_b, wires, bits)
        dev = max(dev, float(np.max(np.abs(ua))))
    return dev


@dataclass(frozen=True)
class MeasurementDistribution:
    qubits: tuple[int, ...]
    probs: dict[str, float]


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
    if not all(0 <= t < m for t in targets):
        raise ValueError(f"targets {targets} out of range for {m} qubits")
    amps = state.amplitudes.reshape([2] * m)
    sel0, sel1 = (_select(amps, m, [(t, v) for t in targets]) for v in (0, 1))
    p = float(np.linalg.norm(sel0) ** 2)
    q = float(np.linalg.norm(sel1) ** 2)
    fid = 0.5 * (np.sqrt(p) + np.sqrt(q)) ** 2
    return NekomataReport(p, q, float(fid))
