from __future__ import annotations

import math
import time
import tracemalloc
from decimal import ROUND_CEILING, Decimal, getcontext

import numpy as np
import pytest

from qackit import (
    GridParams,
    Or,
    RTensor,
    Toffoli,
    best_nekomata_fidelity,
    build_depth2_nekomata,
    build_depthd_nekomata,
    choose_columns,
    core_targets,
    grid_law,
    depth,
    h_gate,
    impurity_bound,
    measurement_distribution,
    parity_error,
    parity_from_nekomata,
    run,
    size,
    solve_bias,
    unitary,
    validate,
    x_gate,
    zero_state,
)


def decimal_column_count(n: int, epsilon: str) -> int:
    """Independent high-precision evaluation of the column-count formula."""
    getcontext().prec = 60
    ln2 = Decimal(2).ln()
    eps_prime = Decimal(2) / Decimal(3) * Decimal(epsilon)
    value = (ln2 / 4) * (ln2 * n / eps_prime) ** n
    return int(value.to_integral_value(rounding=ROUND_CEILING))


def test_choose_columns_reference_values():
    assert choose_columns(2, 0.15) == 34
    assert choose_columns(1, 0.6) == 1


def test_choose_columns_against_decimal():
    for n, eps in [(1, "0.6"), (1, "0.2"), (2, "0.15"), (2, "0.3"), (3, "0.15"), (4, "0.15")]:
        assert choose_columns(n, float(eps)) == decimal_column_count(n, eps)


def test_choose_columns_growth_and_guard():
    assert choose_columns(4, 0.15) > 10_000
    with pytest.raises(ValueError, match="2\\*\\*48"):
        choose_columns(12, 0.15)
    with pytest.raises(ValueError):
        choose_columns(0, 0.5)
    with pytest.raises(ValueError):
        choose_columns(2, 0.0)


def test_solve_bias_closed_forms():
    assert solve_bias(1, 1) == pytest.approx((1 - 2**-0.5) / 2, abs=1e-14)
    assert solve_bias(2, 1) == pytest.approx(math.sqrt((1 - 2**-0.5) / 2), abs=1e-14)


def test_solve_bias_residuals():
    for n in range(1, 9):
        for columns in (1, 2, 3, 10, 100, 1000, 10**4, 10**5, 10**6):
            params = GridParams(n, columns, solve_bias(n, columns))
            assert params.residual() <= 1e-10, (n, columns, params.residual())


def test_solve_bias_deterministic():
    assert solve_bias(3, 17) == solve_bias(3, 17)
    assert choose_columns(3, 0.21) == choose_columns(3, 0.21)


def test_solve_bias_residual_against_decimal():
    # high-precision evaluation of (1 - 2 b^n)^(2M) at the solved bias
    getcontext().prec = 60
    for n, columns in [(1, 1), (2, 3), (4, 100), (8, 10**6)]:
        b = Decimal(solve_bias(n, columns))
        value = (1 - 2 * b**n) ** (2 * columns)
        assert abs(value - Decimal("0.5")) <= Decimal("1e-10"), (n, columns, value)


def test_grid_params_validation():
    with pytest.raises(ValueError, match="does not solve"):
        GridParams(2, 3, 0.2).check()
    with pytest.raises(ValueError, match="out of range"):
        GridParams(2, 3, 0.9).check()
    GridParams(2, 3, solve_bias(2, 3)).check()


def test_build_depth2_layout_and_metrics():
    bias = solve_bias(2, 3)
    c = build_depth2_nekomata(2, 3, bias)
    assert c.num_qubits == 8
    assert validate(c) == []
    assert depth(c) == 2
    assert size(c) == 5  # 3 column reflections + 2 row ORs
    assert c.targets == (6, 7)
    first = c.layers[0].gates
    assert all(isinstance(g, RTensor) and len(g.factors) == 2 for g in first)
    second = c.layers[1].gates
    assert all(isinstance(g, Or) and len(g.controls) == 3 for g in second)


def test_build_depth2_half_probability():
    bias = solve_bias(2, 3)
    c = build_depth2_nekomata(2, 3, bias)
    state = run(c, zero_state(8))
    rep = best_nekomata_fidelity(state, c.targets)
    assert rep.all_zeros_prob == pytest.approx(0.5, abs=1e-10)


def test_build_depth2_single_row():
    bias = solve_bias(1, 1)
    c = build_depth2_nekomata(1, 1, bias)
    assert c.num_qubits == 2
    state = run(c, zero_state(2))
    dist = measurement_distribution(state, c.targets)
    assert dist.probs["0"] == pytest.approx(0.5, abs=1e-10)


def test_build_depth2_rejects_bad_bias():
    with pytest.raises(ValueError):
        build_depth2_nekomata(2, 3, 0.3)


def test_build_depth2_qubit_cap():
    # 2 rows by 2^19 + 1 columns: two wires over the cap
    bias = solve_bias(2, 1 << 19)
    with pytest.raises(ValueError, match="circuit has 1048578 wires, over the 1048576-wire cap"):
        build_depth2_nekomata(2, 1 << 19, bias)


def test_builders_are_capped_by_default():
    # choose_columns(6, 0.25) asks for about 251 million wires
    from qackit.ir import MAX_WIRES

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"over the {MAX_WIRES}-wire cap"):
            build_depthd_nekomata(6, 2, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_eg_eps_nek_chain():
    # fidelity >= 1 - (3/2)(1/2 - q) whenever the all-zeros probability is 1/2
    for n, columns in [(1, 1), (2, 3), (2, 1), (3, 2)]:
        bias = solve_bias(n, columns)
        c = build_depth2_nekomata(n, columns, bias)
        state = run(c, zero_state(c.num_qubits))
        rep = best_nekomata_fidelity(state, c.targets)
        assert rep.fidelity >= 1 - 1.5 * (0.5 - rep.all_ones_prob) - 1e-12


def test_impurity_bound_edges():
    b = impurity_bound(2, 3, 0.0)
    assert b.union_bound == 0.0 and b.relaxed_bound == 0.0
    b1 = impurity_bound(1, 5, 0.3)
    assert b1.union_bound == pytest.approx(0.0, abs=1e-15)


def test_impurity_bound_dominates_exact_column():
    n, columns = 2, 3
    bias = solve_bias(n, columns)
    c = build_depth2_nekomata(n, columns, bias)
    state = run(c, zero_state(c.num_qubits))
    column0 = tuple(range(n))
    dist = measurement_distribution(state, column0)
    impure = 1.0 - dist.probs.get("0" * n, 0.0) - dist.probs.get("1" * n, 0.0)
    bound = impurity_bound(n, columns, bias)
    assert bound.per_column == pytest.approx(impure, abs=1e-10)
    assert bound.union_bound >= impure
    assert bound.relaxed_bound >= bound.union_bound - 1e-15


def test_depthd_equals_depth2_when_d_is_2():
    bias = solve_bias(3, 2)
    a = build_depthd_nekomata(3, 2, 0.4, columns=2, bias=bias)
    b = build_depth2_nekomata(3, 2, bias)
    assert a == b


def test_depthd_structure_and_fidelity():
    c = build_depthd_nekomata(4, 3, 0.3, columns=3)
    assert depth(c) <= 3
    assert validate(c) == []
    assert len(c.targets) == 4
    state = run(c, zero_state(c.num_qubits))
    rep = best_nekomata_fidelity(state, c.targets)
    # frozen from the exact core law: p = 1/2 and q = P(every row covered)
    assert rep.all_zeros_prob == pytest.approx(0.5, abs=1e-10)
    assert rep.fidelity == pytest.approx(0.8378043972474801, abs=1e-9)
    assert rep.fidelity >= 1 - 0.3


def test_depthd_depth_bound_n8():
    c = build_depthd_nekomata(8, 3, 0.3, columns=2)
    assert depth(c) <= 3
    assert len(c.targets) == 8


def test_depthd_rejects_bad_depth():
    with pytest.raises(ValueError):
        build_depthd_nekomata(4, 1, 0.3)


def test_core_targets_is_the_core_size_of_the_depthd_builder():
    from qackit import core_targets

    assert [core_targets(n, 2) for n in (1, 5, 8)] == [1, 5, 8]
    assert [core_targets(n, 4) for n in (1, 4, 5, 8, 9)] == [1, 1, 2, 2, 3]
    # a shift, not a 2^(d-2) divisor, so a huge depth allocates nothing
    assert core_targets(5, 10**12) == 1
    # core of 3 targets on 2 columns (9 wires) plus 9 - 3 fanout wires
    assert build_depthd_nekomata(9, 4, 0.3, columns=2).num_qubits == 15


def test_build_nekomata_at_a_huge_depth_writes_the_core_quickly(tmp_path):
    from qackit import deserialize
    from qackit.cli import main

    out = tmp_path / "nek.json"
    started = time.monotonic()
    assert main(["build", "nekomata", "--n", "2", "--depth", str(10**12), "--out", str(out)]) == 0
    assert time.monotonic() - started < 5.0
    assert deserialize(out.read_text()).num_qubits == 3


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, -2])
def test_depthd_rejects_nonpositive_n(n, d):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build_depthd_nekomata(n, d, 0.3)


def test_grid_law_matches_the_oracle_at_n2_m3():
    bias = solve_bias(2, 3)
    c = build_depth2_nekomata(2, 3, bias)
    rep = best_nekomata_fidelity(run(c, zero_state(8)), c.targets)
    p, q, fidelity = grid_law(2, 3, bias)
    assert p == pytest.approx(rep.all_zeros_prob, abs=1e-12)
    assert q == pytest.approx(rep.all_ones_prob, abs=1e-12)
    assert fidelity == pytest.approx(rep.fidelity, abs=1e-12)
    assert q == pytest.approx(0.34497568297591, abs=1e-13)
    assert fidelity == pytest.approx(0.8378043972474801, abs=1e-13)


@pytest.mark.parametrize("n, epsilon", [(2, 0.15), (3, 0.2), (4, 0.25), (6, 0.25), (8, 0.3)])
def test_grid_law_meets_the_fidelity_guarantee_at_choose_columns(n, epsilon):
    columns = choose_columns(n, epsilon)
    p, q, fidelity = grid_law(n, columns, solve_bias(n, columns))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < q < 0.5
    assert fidelity >= 1.0 - epsilon


def test_grid_law_rejects_empty_grids():
    for n, columns in ((0, 3), (2, 0)):
        with pytest.raises(ValueError, match="n >= 1"):
            grid_law(n, columns, 0.5)


def oracle_parity_error(constructor, n: int) -> tuple[float, float]:
    """``(basis_worst, worst)`` of ``parity_from_nekomata(constructor, n)``
    from the clean-ancilla block of its dense unitary."""
    # A = P^dagger U on the clean columns |x, 0, b>: the rows are the ideal
    # images |x, 0, b ^ parity(x)>, wire 0 the most significant bit
    a = constructor.num_qubits
    x = np.repeat(np.arange(1 << n), 2)
    b = np.tile([0, 1], 1 << n)
    odd = np.array([bin(v).count("1") & 1 for v in x])
    clean = (x << (a + 1)) | b
    A = unitary(parity_from_nekomata(constructor, n))[np.ix_(clean ^ odd, clean)]
    worst = 2.0 - 2.0 * np.linalg.eigvalsh((A + A.conj().T) / 2)[0]
    return np.max(2.0 - 2.0 * A.diagonal().real), worst


@pytest.mark.parametrize("n, columns", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_parity_error_matches_the_oracle(n, columns):
    bias = solve_bias(n, columns)
    grid = build_depthd_nekomata(n, 2, 0.25, columns=columns, bias=bias)
    assert parity_error(n, columns, bias) == pytest.approx(oracle_parity_error(grid, n), abs=1e-12)


@pytest.mark.parametrize("n, d, columns", [(3, 3, 1), (3, 3, 2), (4, 3, 1)])
def test_depthd_parity_error_is_its_cores(n, d, columns):
    # 9 to 11 wires; (3, 3) has uneven fanout blocks
    core = core_targets(n, d)
    bias = solve_bias(core, columns)
    builder = build_depthd_nekomata(n, d, 0.25, columns=columns, bias=bias)
    assert parity_error(core, columns, bias) == pytest.approx(oracle_parity_error(builder, n), abs=1e-12)


def test_parity_error_is_twice_the_basis_error_at_n2_m3():
    basis_worst, worst = parity_error(2, 3, solve_bias(2, 3))
    assert basis_worst == pytest.approx(1.0479342252424368, abs=1e-13)
    assert worst == 2 * basis_worst


@pytest.mark.parametrize(
    "n, epsilon, columns, ratio",
    [(2, 0.15, 34, 7.52), (3, 0.2, 658, 5.02), (4, 0.25, 13_272, 6.66), (6, 0.25, 41_834_371, 6.62)],
)
def test_parity_error_curve_at_choose_columns(n, epsilon, columns, ratio):
    # at the paper's column counts the basis-input parity error is 5 to 7.5
    # times the constructor's 1 - fidelity, and the worst over all inputs twice that
    assert choose_columns(n, epsilon) == columns
    bias = solve_bias(n, columns)
    basis_worst, worst = parity_error(n, columns, bias)
    assert basis_worst / (1.0 - grid_law(n, columns, bias)[2]) == pytest.approx(ratio, abs=0.01)
    assert worst == 2 * basis_worst


def test_parity_error_rejects_empty_grids():
    for n, columns in ((0, 3), (2, 0)):
        with pytest.raises(ValueError, match="n >= 1"):
            parity_error(n, columns, 0.5)
