"""Builders for depth-2 and depth-d approximate-nekomata circuits, their
parameter equations, and the purely/mostly-classical/nice classification.

The depth-2 construction is a grid of n rows by (columns + 1) columns, all
wires |0>.  Layer 1 reflects each ancilla column about the product state
``(sqrt(bias)|0> + sqrt(1-bias)|1>)^n``; layer 2 ORs each row into the target
column.  The bias solves ``(1 - 2 bias^n)^(2 columns) = 1/2``, which makes
the target wires measure to all-zeros with probability exactly one half.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, Layer, LocalState, Or, RTensor, circuit, is_classical_gate, rtensor
from .transforms import fanout_stage_layers


def choose_columns(n: int, epsilon: float) -> int:
    """Ancilla-column count guaranteeing nekomata fidelity >= 1 - epsilon.

    Evaluates ``ceil((ln 2 / 4) * (ln(2) n / eps')^n)`` with ``eps' = (2/3) epsilon``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    eps_prime = (2.0 / 3.0) * epsilon
    ln2 = math.log(2.0)
    log_value = math.log(ln2 / 4.0) + n * math.log(ln2 * n / eps_prime)
    if log_value > 48.0 * ln2:
        raise ValueError(f"column count would exceed 2**48 (n={n}, epsilon={epsilon})")
    return max(1, math.ceil((ln2 / 4.0) * (ln2 * n / eps_prime) ** n))


def _zeros_prob(bias: float, n: int, columns: int) -> float:
    # (1 - 2 bias^n)^(2 columns), in log space for large column counts
    inner = 1.0 - 2.0 * bias**n
    if inner <= 0.0:
        return 0.0
    return math.exp(2.0 * columns * math.log1p(-2.0 * bias**n))


def solve_bias(n: int, columns: int) -> float:
    """Unique root of ``(1 - 2 b^n)^(2 columns) = 1/2`` in ``(0, (1/2)^(1/n))``.

    The left side decreases monotonically from 1 to 0 on the interval, so
    bisection converges unconditionally; iteration continues until the float
    interval is exhausted, leaving residuals near machine precision.
    """
    if n < 1 or columns < 1:
        raise ValueError("need n >= 1 and columns >= 1")
    lo = 0.0
    hi = 0.5 ** (1.0 / n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _zeros_prob(mid, n, columns) > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) if lo < 0.5 * (lo + hi) < hi else lo


@dataclass(frozen=True)
class GridParams:
    """Parameters of the depth-2 grid; bias must solve the half equation."""

    n: int
    columns: int
    bias: float
    epsilon: float | None = None

    def residual(self) -> float:
        return abs(_zeros_prob(self.bias, self.n, self.columns) - 0.5)

    def check(self) -> None:
        if self.n < 1 or self.columns < 1:
            raise ValueError("need n >= 1 and columns >= 1")
        if not 0.0 < self.bias < 0.5 ** (1.0 / self.n):
            raise ValueError("bias out of range (0, (1/2)^(1/n))")
        if self.residual() > 1e-12:
            raise ValueError("bias does not solve (1 - 2 b^n)^(2 columns) = 1/2")

    @classmethod
    def for_error(cls, n: int, epsilon: float) -> "GridParams":
        columns = choose_columns(n, epsilon)
        return cls(n, columns, solve_bias(n, columns), epsilon)


@dataclass(frozen=True)
class ImpurityBound:
    """Union bound on some ancilla column measuring to neither all-zeros nor
    all-ones, plus its simpler relaxation."""

    union_bound: float
    relaxed_bound: float
    per_column: float


def impurity_bound(n: int, columns: int, bias: float) -> ImpurityBound:
    base = 4.0 * bias**n * (1.0 - bias**n - (1.0 - bias) ** n)
    return ImpurityBound(columns * base, 4.0 * columns * n * bias ** (n + 1), base)


def build_depth2_nekomata(n: int, columns: int, bias: float, max_qubits: int | None = None) -> Circuit:
    """Depth-2 grid circuit on ``n * (columns + 1)`` wires.

    Wire layout is column-major with the target column last: column c, row r
    sits on wire ``c * n + r``.  Targets are the last column.
    """
    GridParams(n, columns, bias).check()
    total = n * (columns + 1)
    if max_qubits is not None and total > max_qubits:
        raise ValueError(f"grid needs {total} wires, over the {max_qubits}-wire cap")
    amp = LocalState(math.sqrt(bias), math.sqrt(1.0 - bias))
    column_gates = [
        rtensor({c * n + r: amp for r in range(n)}) for c in range(columns)
    ]
    row_gates = [
        Or(tuple(c * n + r for c in range(columns)), columns * n + r) for r in range(n)
    ]
    targets = tuple(columns * n + r for r in range(n))
    return circuit(total, [column_gates, row_gates], targets)


def build_depthd_nekomata(
    n: int,
    d: int,
    epsilon: float,
    columns: int | None = None,
    bias: float | None = None,
    max_qubits: int | None = None,
) -> Circuit:
    """Depth-d builder: a depth-2 core on ``m = ceil(n / 2^(d-2))`` targets,
    then binary fanout stages spreading each core target over a contiguous
    block of at most ``2^(d-2)`` final targets."""
    if d < 2:
        raise ValueError("depth must be at least 2")
    span = 1 << (d - 2)
    m = max(1, math.ceil(n / span))
    if columns is None:
        columns = choose_columns(m, epsilon)
    if bias is None:
        bias = solve_bias(m, columns)
    core = build_depth2_nekomata(m, columns, bias, max_qubits=max_qubits)
    if m == n:
        return core
    total = core.num_qubits + (n - m)
    if max_qubits is not None and total > max_qubits:
        raise ValueError(f"construction needs {total} wires, over the {max_qubits}-wire cap")
    base, rem = divmod(n, m)
    extra_next = core.num_qubits
    blocks: list[list[int]] = []
    core_targets = list(core.targets)
    for i in range(m):
        block_size = base + (1 if i < rem else 0)
        block = [core_targets[i]]
        for _ in range(block_size - 1):
            block.append(extra_next)
            extra_next += 1
        blocks.append(block)
    per_block = [fanout_stage_layers(block, 2) for block in blocks]
    tree_depth = max((len(ls) for ls in per_block), default=0)
    merged: list[list] = [[] for _ in range(tree_depth)]
    for ls in per_block:
        # align stages at the end so every block finishes on the last layer
        pad = tree_depth - len(ls)
        for j, st in enumerate(ls):
            merged[pad + j].extend(st)
    layers = list(core.layers) + [Layer(tuple(st)) for st in merged if st]
    targets = tuple(q for block in blocks for q in block)
    return Circuit(total, tuple(layers), targets)


@dataclass(frozen=True)
class ClassificationResult:
    purely_classical: bool
    mostly_classical: bool
    nice: bool
    witness_first_layer: Layer | None = None
    witness_classical: Circuit | None = None


def classify(c: Circuit) -> ClassificationResult:
    """Purely classical: Toffoli/X/OR gates only.  Mostly classical: purely
    classical after the first layer.  Nice: mostly classical with every
    multi-qubit first-layer reflection satisfying ``prod |<0|chi_j>|^2 <= 1/4``."""
    purely = all(is_classical_gate(g) for g in c.gates())
    rest_classical = all(
        is_classical_gate(g) for lay in c.layers[1:] for g in lay.gates
    )
    mostly = purely or rest_classical
    nice = False
    witness_first = None
    witness_rest = None
    if mostly:
        nice = True
        if c.layers and not purely:
            for g in c.layers[0].gates:
                if isinstance(g, RTensor) and len(g.factors) >= 2:
                    zero_weight = 1.0
                    for _, st in g.factors:
                        zero_weight *= abs(st.amp0) ** 2
                    if zero_weight > 0.25 + 1e-12:
                        nice = False
        witness_first = c.layers[0] if c.layers else Layer(())
        witness_rest = Circuit(c.num_qubits, c.layers[1:] if c.layers else (), c.targets)
    return ClassificationResult(purely, mostly, nice, witness_first, witness_rest)
