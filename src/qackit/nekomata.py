"""Builders for depth-2 and depth-d approximate-nekomata circuits, their
parameter equations, and the exact laws of the depth-2 grid.

The depth-2 construction is a grid of n rows by (columns + 1) columns, all
wires |0>.  Layer 1 reflects each ancilla column about the product state
``(sqrt(bias)|0> + sqrt(1-bias)|1>)^n``; layer 2 ORs each row into the target
column.  The bias solves ``(1 - 2 bias^n)^(2 columns) = 1/2``, which makes
the target wires measure to all-zeros with probability exactly one half.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, Layer, LocalState, Or, check_wire_cap, circuit, rtensor
from .transforms import fanout_stage_layers


def choose_columns(n: int, epsilon: float) -> int:
    """Ancilla-column count guaranteeing nekomata fidelity >= 1 - epsilon.

    Evaluates ``ceil((ln 2 / 4) * (ln(2) n / eps')^n)`` with ``eps' = (2/3) epsilon``.
    So epsilon bounds ``1 - fidelity`` of the grid's targets, not the error
    of a parity circuit built on it: ``parity_error`` is 10 to 15 times
    ``1 - fidelity`` at these column counts.
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


def _inside_rows(n: int, b) -> list:
    """``F(s)`` for s = 0..n, the probability that a grid column's ones lie
    inside a given set of s rows, for the bias ``b`` as a ``decimal.Decimal``
    and in the caller's ``decimal`` context."""
    bn = b**n
    return [(1 - 2 * bn) ** 2 + 4 * bn * (b ** (n - s) - bn) for s in range(n + 1)]


def grid_law(n: int, columns: int, bias: float) -> tuple[float, float, float]:
    """Exact target law of the depth-2 grid: ``(p, q, fidelity)``.

    ``p`` and ``q`` are the probabilities that the n targets read all-zeros
    and all-ones, and ``fidelity = ((sqrt p + sqrt q) / sqrt 2)^2``.  The
    targets are the OR of ``columns`` i.i.d. column outputs, and a column's
    ones lie inside a row set of size s with probability
    ``F(s) = (1 - 2 b^n)^2 + 4 b^n (b^(n-s) - b^n)``, so ``p = F(0)^M`` and
    inclusion-exclusion gives ``q = sum_s (-1)^(n-s) C(n, s) F(s)^M``.  The
    alternating sum cancels badly, so it runs in ``decimal`` at 120 digits."""
    import decimal  # imported here: the CLI loads this module for every command

    if n < 1 or columns < 1:
        raise ValueError("need n >= 1 and columns >= 1")
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        F = _inside_rows(n, decimal.Decimal(bias))
        p = F[0] ** columns
        q = sum((-1) ** (n - s) * math.comb(n, s) * F[s] ** columns for s in range(n + 1))
        fidelity = (p.sqrt() + q.sqrt()) ** 2 / 2
    return float(p), float(q), float(fidelity)


def parity_error(n: int, columns: int, bias: float) -> tuple[float, float]:
    """Exact error of ``parity_from_nekomata`` on the depth-2 grid with
    clean ancillae: ``(basis_worst, worst)``, the largest ``||(U - P) psi||^2``
    over basis inputs and over all inputs.  This squared norm is not the
    ``1 - fidelity`` that ``choose_columns``' epsilon bounds: at its column
    counts ``worst`` is 10 to 15 times ``1 - fidelity``.

    For input x of weight w the circuit acts on the parity wire through
    ``alpha_w = E_T[(-1)^(x.T)] = sum_u C(w, u) 2^u (-1)^(w-u) F(n-u)^M``,
    T the grid's target string and F as in ``grid_law``.  ``P^dagger U``
    splits into one 2x2 block per x, with eigenvalue 1 on the parity wire's
    |+> and ``(-1)^w (2 alpha_w^2 - 1)`` on its |->, so
    ``worst = 4 max(max_{w even} (1 - alpha_w^2), max_{w odd} alpha_w^2)``,
    and a basis input, half |+> and half |->, sees half of it.  The sum
    cancels badly, so it runs in ``decimal`` at 120 digits.

    It is also the exact error of the depth-d builder's parity circuit:
    ``parity_error(core_targets(n, d), M, bias)`` is that of
    ``parity_from_nekomata(build_depthd_nekomata(n, d, eps, columns=M,
    bias=bias), n)``.  The fanout stages copy each core target over its
    block, so ``x.T`` is ``x'.T_core`` with x' the block parities of x, and
    ``|x|`` and ``|x'|`` have the same parity."""
    import decimal  # imported here: the CLI loads this module for every command

    if n < 1 or columns < 1:
        raise ValueError("need n >= 1 and columns >= 1")
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        F = _inside_rows(n, decimal.Decimal(bias))
        worst = decimal.Decimal(0)
        for w in range(n + 1):
            alpha = sum((-1) ** (w - u) * math.comb(w, u) * 2**u * F[n - u] ** columns for u in range(w + 1))
            worst = max(worst, 4 * (alpha**2 if w % 2 else 1 - alpha**2))
    return float(worst / 2), float(worst)


def core_targets(n: int, d: int) -> int:
    """Targets of the depth-2 core of the depth-d builder: ``ceil(n / 2^(d-2))``."""
    if d < 2:
        raise ValueError("depth must be at least 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return -((-n) >> (d - 2))


@dataclass(frozen=True)
class GridParams:
    """Parameters of the depth-2 grid; bias must solve the half equation."""

    n: int
    columns: int
    bias: float

    def residual(self) -> float:
        return abs(_zeros_prob(self.bias, self.n, self.columns) - 0.5)

    def check(self) -> None:
        if self.n < 1 or self.columns < 1:
            raise ValueError("need n >= 1 and columns >= 1")
        if not 0.0 < self.bias < 0.5 ** (1.0 / self.n):
            raise ValueError("bias out of range (0, (1/2)^(1/n))")
        if self.residual() > 1e-12:
            raise ValueError("bias does not solve (1 - 2 b^n)^(2 columns) = 1/2")


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


def build_depth2_nekomata(n: int, columns: int, bias: float) -> Circuit:
    """Depth-2 grid circuit on ``n * (columns + 1)`` wires.

    Wire layout is column-major with the target column last: column c, row r
    sits on wire ``c * n + r``.  Targets are the last column.
    """
    GridParams(n, columns, bias).check()
    total = n * (columns + 1)
    check_wire_cap(total)
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
) -> Circuit:
    """Depth-d builder: a depth-2 core on ``m = ceil(n / 2^(d-2))`` targets,
    then binary fanout stages spreading each core target over a contiguous
    block of at most ``2^(d-2)`` final targets."""
    m = core_targets(n, d)
    if columns is None:
        columns = choose_columns(m, epsilon)
    if bias is None:
        bias = solve_bias(m, columns)
    core = build_depth2_nekomata(m, columns, bias)
    if m == n:
        return core
    total = core.num_qubits + (n - m)
    check_wire_cap(total)
    base, rem = divmod(n, m)
    extra_next = core.num_qubits
    blocks: list[list[int]] = []
    core_wires = list(core.targets)
    for i in range(m):
        block_size = base + (1 if i < rem else 0)
        block = [core_wires[i]]
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

