from __future__ import annotations

import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qackit import (
    GateLaw,
    KET0,
    KET1,
    MINUS,
    PLUS,
    Or,
    RTensor,
    Toffoli,
    build_depth2_nekomata,
    circuit,
    classical_read_bound,
    cnot,
    direct_sample_batch,
    factorized_sample_batch,
    fanout_tree,
    gate_law,
    grid_law,
    h_gate,
    hamming_stats_of_samples,
    measurement_distribution,
    run,
    rtensor,
    sample_mostly_classical_batch,
    solve_bias,
    x_gate,
    zero_state,
)
from qackit.ir import Circuit, LocalState, is_classical_gate, reflections, support
from qackit.rng import substream

from conftest import (
    counts_from_rows,
    densify,
    exact_gate_law,
    haar_local,
    random_mostly_classical_circuit,
    reference_classical,
    tv_distance,
)


# ---------------------------------------------------------------------------
# exact per-gate law


def test_exact_distribution_z_and_cz():
    assert exact_gate_law(rtensor({0: KET1})) == {"0": 1.0}
    assert exact_gate_law(rtensor({0: KET1, 1: KET1})) == {"00": 1.0}


def test_exact_distribution_plus_plus():
    probs = exact_gate_law(rtensor({0: PLUS, 1: PLUS}))
    for key in ("00", "01", "10", "11"):
        assert probs[key] == pytest.approx(0.25)


def test_exact_distribution_matches_oracle():
    rng = substream(31)
    for _ in range(60):
        k = int(rng.integers(1, 7))
        g = rtensor({q: haar_local(rng) for q in range(k)})
        probs = exact_gate_law(g)
        oracle = measurement_distribution(run(circuit(k, [[g]]), zero_state(k)), range(k))
        keys = set(probs) | set(oracle.probs)
        for y in keys:
            assert probs.get(y, 0.0) == pytest.approx(oracle.probs.get(y, 0.0), abs=1e-10)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_distribution_elides_zero_factors():
    g = rtensor({0: LocalState(1.0, 0.0), 1: PLUS})
    assert gate_law(g)[0] == (1,)
    probs = exact_gate_law(g)
    assert all(y[0] == "0" for y in probs)
    oracle = measurement_distribution(run(circuit(2, [[g]]), zero_state(2)), (0, 1))
    for y, p in oracle.probs.items():
        assert probs.get(y, 0.0) == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------------------
# direct gate sampler


def test_sample_rtensor_cz_always_zero():
    rng = substream(32)
    g = rtensor({0: KET1, 1: KET1})
    rows = densify(direct_sample_batch(gate_law(g)[1], 50, rng), 50)
    assert rows.shape == (50, 2) and not rows.any()


def test_sample_rtensor_plus_plus_tv():
    rng = substream(33)
    g = rtensor({0: PLUS, 1: PLUS})
    trials = 20000
    counts = counts_from_rows(densify(direct_sample_batch(gate_law(g)[1], trials, rng), trials))
    assert tv_distance(counts, exact_gate_law(g), trials) < 0.02


def test_sample_rtensor_rejection_branch():
    # prod(1 - p) > 1/4 exercises the inverse-transform path
    weak = LocalState(np.sqrt(0.8), np.sqrt(0.2))
    g = rtensor({0: weak, 1: weak})
    rng = substream(34)
    trials = 30000
    counts = counts_from_rows(densify(direct_sample_batch(gate_law(g)[1], trials, rng), trials))
    assert tv_distance(counts, exact_gate_law(g), trials) < 0.02


def test_sample_rtensor_nice_boundary():
    # prod(1 - p) = 1/4 exactly: convex-combination path
    p = 0.5
    g = rtensor({0: LocalState(np.sqrt(1 - p), np.sqrt(p)), 1: LocalState(np.sqrt(1 - p), np.sqrt(p))})
    rng = substream(35)
    trials = 30000
    counts = counts_from_rows(densify(direct_sample_batch(gate_law(g)[1], trials, rng), trials))
    exact = exact_gate_law(g)
    zeros_freq = counts.get("00", 0) / trials
    sigma = np.sqrt(exact["00"] * (1 - exact["00"]) / trials)
    assert abs(zeros_freq - exact["00"]) <= 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# mostly-classical circuit sampling


def test_sample_deterministic_circuit():
    c = circuit(2, [[rtensor({0: KET1, 1: KET1})], [cnot(0, 1)]], targets=(0, 1))
    rows = sample_mostly_classical_batch(c, 20, substream(36))
    assert rows.shape == (20, 2) and not rows.any()


def test_sample_grid_zeros_frequency():
    bias = solve_bias(2, 3)
    c = build_depth2_nekomata(2, 3, bias)
    rng = substream(37)
    trials = 100_000
    rows = sample_mostly_classical_batch(c, trials, rng)
    zeros = float(np.mean(~rows.any(axis=1)))
    sigma = np.sqrt(0.25 / trials)
    assert abs(zeros - 0.5) <= 3 * sigma


def test_sample_cat_distribution():
    c = circuit(4, [[h_gate(0)]] + [list(lay.gates) for lay in fanout_tree(4, 2).layers], targets=(0, 1, 2, 3))
    rng = substream(38)
    trials = 50_000
    rows = sample_mostly_classical_batch(c, trials, rng)
    counts = counts_from_rows(rows)
    assert set(counts) == {"0000", "1111"}
    assert abs(counts["0000"] / trials - 0.5) <= 3 * np.sqrt(0.25 / trials)


def test_sample_matches_oracle_random_circuits():
    rng = substream(39)
    for _ in range(8):
        c = random_mostly_classical_circuit(rng, max_qubits=8, max_targets=4)
        trials = 40_000
        rows = sample_mostly_classical_batch(c, trials, substream(40, _))
        exact = measurement_distribution(run(c, zero_state(c.num_qubits)), c.targets)
        assert tv_distance(counts_from_rows(rows), exact.probs, trials) < 0.02


def test_sample_rejects_non_classical():
    c = circuit(2, [[cnot(0, 1)], [h_gate(0)]])
    with pytest.raises(ValueError, match="mostly classical"):
        sample_mostly_classical_batch(c, 1, substream(41))


# ---------------------------------------------------------------------------
# factorized sampler


def test_factorized_single_qubit_reduces_to_bernoulli():
    # P(1) = 4 p (1 - p) = 1 at p = 1/2: every row reads 1
    rows = densify(factorized_sample_batch(gate_law(rtensor({0: PLUS}))[1], 5000, substream(43)), 5000)
    assert rows.all()


def test_factorized_all_ones_factors_output_zero():
    # p = (1, 1): all_zeros = (1 - 2 * 0)^2 = 1, so coin B never fires
    hits, bits = factorized_sample_batch(gate_law(rtensor({0: KET1, 1: KET1}))[1], 5000, substream(44))
    assert hits.size == 0 and bits.shape == (0, 2)


def test_factorized_rejects_arity_over_the_cap():
    with pytest.raises(ValueError, match="factorized sampler cap"):
        factorized_sample_batch(GateLaw((0.5,) * 13), 8, substream(45))


def test_factorized_matches_exact_law():
    rng = substream(46)
    g = rtensor({0: PLUS, 1: PLUS})
    trials = 50_000
    rows = densify(factorized_sample_batch(gate_law(g)[1], trials, rng), trials)
    assert tv_distance(counts_from_rows(rows), exact_gate_law(g), trials) < 0.02


# ---------------------------------------------------------------------------
# hamming statistics


def test_hamming_stats_deterministic_circuit():
    c = circuit(2, [[x_gate(0)], [cnot(0, 1)]], targets=(0, 1))
    samples = sample_mostly_classical_batch(c, 2000, substream(50))
    stats = hamming_stats_of_samples(samples, classical_read_bound(c))
    assert stats.variance == 0.0
    assert stats.mean == 2.0


def test_hamming_read_bound():
    c = circuit(4, [[h_gate(q) for q in range(4)]], targets=(0, 1, 2, 3))
    assert classical_read_bound(c) == 1
    coin = circuit(
        4,
        [[h_gate(0)]] + [list(lay.gates) for lay in fanout_tree(4, 2).layers],
        targets=(0, 1, 2, 3),
    )
    assert classical_read_bound(coin) == 4


def test_read_bound_counts_every_target_a_first_layer_gate_reaches():
    # every column of the n=3 grid feeds all 3 targets through the row ORs
    assert classical_read_bound(build_depth2_nekomata(3, 4, solve_bias(3, 4))) == 3
    # one reflection whose own wires are the targets
    assert classical_read_bound(circuit(4, [[rtensor({q: PLUS for q in range(4)})]], targets=(0, 1, 2, 3))) == 4
    # the arity-3 fanout stages share their live control within a layer
    tree = fanout_tree(9, 3)
    coin = circuit(9, [[h_gate(0)]] + [list(lay.gates) for lay in tree.layers], targets=tuple(range(9)))
    assert classical_read_bound(coin) == 9


def test_read_bound_rejects_bad_circuits_before_allocating():
    with pytest.raises(ValueError, match="mostly classical"):
        classical_read_bound(circuit(3, [[cnot(0, 1)], [rtensor({0: PLUS, 2: PLUS})]]))
    # 2^16 wires, each a target: masks of up to 2^32 bits
    wide = circuit(1 << 16, [[h_gate(0)]])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bit cap"):
            classical_read_bound(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hamming_tails_independent_bits():
    n = 100
    c = circuit(n, [[h_gate(q) for q in range(n)]], targets=tuple(range(n)))
    samples = sample_mostly_classical_batch(c, 20_000, substream(51))
    stats = hamming_stats_of_samples(samples, classical_read_bound(c))
    assert stats.read_r == 1
    for entry in stats.tails:
        slack = 3 * np.sqrt(max(entry.bound * (1 - entry.bound), 1e-12) / stats.trials)
        assert entry.upper_tail <= entry.bound + slack
        assert entry.lower_tail <= entry.bound + slack


def test_first_layer_classical_gates_give_zeros():
    # Toffoli/OR in the first layer act on all-zeros input and stay zero
    c = circuit(3, [[Toffoli((0,), 1)], [cnot(1, 2)]], targets=(0, 1, 2))
    rows = sample_mostly_classical_batch(c, 10, substream(52))
    assert rows.shape == (10, 3) and not rows.any()


def _bisect_cdf(anti_rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Reference inversion: 60 bisection steps on F(t) = sum_i anti_rows[:, i] t^(i+1),
    one row of antiderivative coefficients per target."""
    powers = np.arange(1, anti_rows.shape[1] + 1)
    lo, hi = np.zeros_like(target), np.ones_like(target)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = (anti_rows * mid[:, None] ** powers).sum(axis=1) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _random_factor_probs(rng: np.random.Generator, k: int) -> np.ndarray:
    # uniform probabilities with some factors pinned at 1 and at 1e-9
    p = rng.random(k)
    pick = rng.random(k)
    p[pick < 0.25] = 1.0
    p[(pick >= 0.25) & (pick < 0.4)] = 1e-9
    return p


def test_newton_inversion_matches_bisection():
    from qackit.sampling import FACTORIZED_ARITY_CAP, _invert_cdf

    rng = substream(67)
    worst = 0.0
    for trial in range(150):
        k = 2 + trial % (FACTORIZED_ARITY_CAP - 1)
        coeffs, anti, weights = GateLaw(tuple(_random_factor_probs(rng, k))).min_rank
        u = np.r_[0.0, 0.5, 0.999, 0.999 * rng.random(20)]
        j_star = np.repeat(np.arange(k), u.size)
        target = np.tile(u, k) * weights[j_star]
        m = _invert_cdf(anti.T[:, j_star], coeffs.T[:, j_star], target)
        worst = max(worst, float(np.max(np.abs(m - _bisect_cdf(anti[j_star], target)))))
    assert worst <= 1e-10


def test_newton_inversion_stays_in_unit_interval_and_terminates():
    # u = 1 - 2^-53 with every other factor at p = 1 is the slowest case:
    # F' vanishes to high order at t = 1 and Newton converges only linearly
    from qackit.sampling import FACTORIZED_ARITY_CAP, _invert_cdf

    rng = substream(68)
    cases = [np.array([0.5, 1.0] * (FACTORIZED_ARITY_CAP // 2)), np.ones(FACTORIZED_ARITY_CAP)]
    cases += [_random_factor_probs(rng, k) for k in range(2, FACTORIZED_ARITY_CAP + 1) for _ in range(5)]
    for p in cases:
        coeffs, anti, weights = GateLaw(tuple(p)).min_rank
        # every factor j against u = 0 and u = 1 - 2^-53, in one call per law
        j_star = np.repeat(np.arange(len(p)), 2)
        u = np.tile([0.0, 1.0 - 2.0**-53], len(p))
        # raises ValueError if the iteration cap is reached
        m = _invert_cdf(anti.T[:, j_star], coeffs.T[:, j_star], u * weights[j_star])
        assert np.all((0.0 <= m) & (m <= 1.0))
        assert np.array_equal(m == 0.0, u == 0.0)


def test_hamming_stats_read_override():
    c = circuit(4, [[h_gate(q) for q in range(4)]], targets=(0, 1, 2, 3))
    samples = sample_mostly_classical_batch(c, 1000, substream(59))
    stats = hamming_stats_of_samples(samples, 4)
    assert stats.read_r == 4


# ---------------------------------------------------------------------------
# packed classical evaluator


def _random_classical_circuit(rng, m: int):
    """X, Toffoli and Or gates on disjoint wires, a few layers deep."""
    layers = []
    for _ in range(int(rng.integers(1, 5))):
        wires = [int(q) for q in rng.permutation(m)]
        gates = []
        while wires:
            k = int(rng.integers(1, min(4, len(wires)) + 1))
            chosen, wires = wires[:k], wires[k:]
            if k == 1:
                gates.append(x_gate(chosen[0]))
            elif rng.random() < 0.5:
                gates.append(Toffoli(tuple(chosen[:-1]), chosen[-1]))
            else:
                gates.append(Or(tuple(chosen[:-1]), chosen[-1]))
        layers.append(gates)
    return circuit(m, layers)


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 1001])
def test_packed_evaluator_matches_reference_classical(trials):
    from qackit.sampling import _eval_classical

    rng = substream(60, trials)
    for _ in range(4):
        m = int(rng.integers(2, 10))
        c = _random_classical_circuit(rng, m)
        inputs = rng.integers(0, 2, size=(trials, m), dtype=np.uint8)
        packed = np.packbits(inputs.T, axis=1)
        assert packed.shape == (m, -(-trials // 8))
        out = _eval_classical(c.layers, packed)
        rows = np.unpackbits(out, axis=1, count=trials).T
        for x_row, y_row in zip(inputs, rows):
            x = "".join(map(str, x_row))
            y = "".join(map(str, y_row))
            assert y == reference_classical(c, x)


def test_packed_evaluator_padding_stays_out_of_results():
    # X flips the padding bits of the last byte; they must not reach the rows
    from qackit.sampling import _eval_classical

    c = circuit(3, [[x_gate(0), x_gate(1)], [Or((0, 1), 2)]])
    out = _eval_classical(c.layers, np.zeros((3, 2), dtype=np.uint8))
    assert out[2, 1] == 0xFF  # garbage past trial 9 is really there
    rows = np.unpackbits(out, axis=1, count=9).T
    assert rows.shape == (9, 3) and np.all(rows == 1)
    rows = sample_mostly_classical_batch(
        circuit(3, [[x_gate(0)], [x_gate(1)], [Or((0, 1), 2)]], targets=(1, 2)), 9, substream(61)
    )
    assert rows.shape == (9, 2) and np.all(rows == [1, 1])


def _exact_read(c) -> int:
    """Most targets that change when one first-layer gate's bits change, by
    brute force over every assignment of the first-layer wires (the other
    wires start at 0) with ``reference_classical``.  Two assignments that
    differ only on a gate's wires differ on a target only if one of them
    differs there from the assignment with those wires at 0."""
    gates = [g for g in c.layers[0].gates if not is_classical_gate(g)]
    wires = sorted({q for g in gates for q in support(g)})
    rest = Circuit(c.num_qubits, c.layers[1:], None)
    targets = c.targets if c.targets is not None else range(c.num_qubits)
    outs = {}
    for a in range(1 << len(wires)):
        x = ["0"] * c.num_qubits
        for i, q in enumerate(wires):
            x[q] = "01"[(a >> i) & 1]
        y = reference_classical(rest, "".join(x))
        outs[a] = [y[t] for t in targets]
    read = 0
    for g in gates:
        clear = ~sum(1 << wires.index(q) for q in support(g))
        changed = set()
        for a, y in outs.items():
            changed |= {i for i, (u, v) in enumerate(zip(y, outs[a & clear])) if u != v}
        read = max(read, len(changed))
    return read


def _random_first_layer(rng, m: int) -> list:
    """Reflections about Haar product states and H gates on disjoint wires."""
    wires = [int(q) for q in rng.permutation(m)]
    gates = []
    while wires and rng.random() < 0.85:
        k = int(rng.integers(1, min(3, len(wires)) + 1))
        chosen, wires = wires[:k], wires[k:]
        if k == 1 and rng.random() < 0.5:
            gates.append(h_gate(chosen[0]))
        else:
            gates.append(rtensor({q: haar_local(rng) for q in chosen}))
    return gates


def test_read_bound_is_at_least_the_exact_read():
    rng = substream(62)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        first = _random_first_layer(rng, m)
        rest = [list(lay.gates) for lay in _random_classical_circuit(rng, m).layers]
        targets = None
        if rng.random() < 0.5:
            size = int(rng.integers(1, m + 1))
            targets = tuple(int(q) for q in rng.choice(m, size=size, replace=False))
        c = circuit(m, [first] + rest, targets)
        assert classical_read_bound(c) >= _exact_read(c)
    # reachability is the exact read on the grid and on fanout trees
    grids = [build_depth2_nekomata(n, cols, solve_bias(n, cols)) for n, cols in ((2, 3), (3, 4))]
    trees = [
        circuit(n, [[h_gate(0)]] + [list(lay.gates) for lay in fanout_tree(n, m).layers], tuple(range(n)))
        for n, m in ((8, 2), (9, 3))
    ]
    for c in grids + trees:
        assert classical_read_bound(c) == _exact_read(c)


def test_pipeline_takes_the_gate_law_as_a_parameter():
    # the factorized law through the same pipeline agrees with the oracle
    rng = substream(63)
    c = random_mostly_classical_circuit(rng, max_qubits=6, max_targets=3)
    trials = 40_000
    seen = []

    def law(gl, n, r):
        seen.append(gl)
        return factorized_sample_batch(gl, n, r)

    rows = sample_mostly_classical_batch(c, trials, substream(64), law)
    exact = measurement_distribution(run(c, zero_state(c.num_qubits)), c.targets)
    assert tv_distance(counts_from_rows(rows), exact.probs, trials) < 0.02
    assert seen and all(isinstance(gl, GateLaw) and min(gl.p) > 0.0 for gl in seen)


def test_pipeline_drops_zero_probability_factors_before_the_law():
    c = circuit(3, [[rtensor({0: LocalState(1.0, 0.0), 1: PLUS, 2: PLUS})]], targets=(0, 1, 2))
    seen = []

    def law(gl, n, r):
        seen.append(len(gl.p))
        return factorized_sample_batch(gl, n, r)

    rows = sample_mostly_classical_batch(c, 100, substream(65), law)
    assert seen == [2] and not rows[:, 0].any() and rows[:, 1:].any()


def test_sample_rejects_bad_trials_and_oversized_buffers_before_allocating():
    from qackit import sampling

    c = build_depth2_nekomata(2, 3, solve_bias(2, 3))
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            sample_mostly_classical_batch(c, trials, substream(66))
    trials = 8 * (sampling.MAX_SAMPLE_BYTES // c.num_qubits + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            sample_mostly_classical_batch(c, trials, substream(66))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_checks_size_before_building_the_target_list():
    # a header-only circuit with 2^20 wires is rejected before any list of
    # its wires (tens of MB) is built
    from qackit import Circuit

    c = Circuit(1 << 20, ())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            sample_mostly_classical_batch(c, 4096, substream(70))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# sparse first-layer draws

# chi-square quantiles at upper tail 1e-4, fixed before any run
_CHI2_9DF = 33.72
_CHI2_19DF = 50.80


def test_active_trials_count_is_binomial():
    from qackit.sampling import _active_trials

    rng = substream(71)
    trials, r, reps = 200, 0.02, 4000
    sizes = np.array([_active_trials(trials, r, rng).size for _ in range(reps)])
    # counts 0..8 and 9 or more against the Binomial(200, 0.02) pmf
    pmf = [math.comb(trials, c) * r**c * (1.0 - r) ** (trials - c) for c in range(9)]
    expected = reps * np.array(pmf + [1.0 - math.fsum(pmf)])
    observed = np.bincount(np.minimum(sizes, 9), minlength=10)
    assert ((observed - expected) ** 2 / expected).sum() < _CHI2_9DF


@pytest.mark.parametrize("trials, r, reps", [(200, 0.02, 4000), (20_000, 0.1, 40)])
def test_active_trials_positions_are_uniform_and_distinct(trials, r, reps):
    # the two sizes reach numpy's two subset algorithms (small pool, large pool and subset)
    from qackit.sampling import _active_trials

    rng = substream(72, trials)
    hits = np.zeros(trials, dtype=np.int64)
    for _ in range(reps):
        idx = _active_trials(trials, r, rng)
        assert np.unique(idx).size == idx.size
        assert idx.size == 0 or (idx.min() >= 0 and idx.max() < trials)
        hits += np.bincount(idx, minlength=trials)
    observed = hits.reshape(20, -1).sum(axis=1)
    expected = observed.sum() / 20
    assert ((observed - expected) ** 2 / expected).sum() < _CHI2_19DF


def test_active_trials_at_the_ends_of_the_unit_interval():
    from qackit.sampling import _active_trials

    rng = substream(73)
    for trials in (1, 100, 20_000):
        for r in (0.0, -1e-17):
            assert _active_trials(trials, r, rng).size == 0
        for r in (1.0, 1.0 + 2e-16):
            assert np.array_equal(np.sort(_active_trials(trials, r, rng)), np.arange(trials))


def _philox_counter(rng: np.random.Generator) -> int:
    words = rng.bit_generator.state["state"]["counter"]
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


@pytest.mark.parametrize("law", [direct_sample_batch, factorized_sample_batch])
def test_random_numbers_scale_with_active_trials(law):
    # a column gate of the 12,006-wire grid (n=6, 2000 columns) is active on
    # about 4 b^6 = 3.5e-4 of the trials; one double per trial would advance
    # the Philox counter (four 64-bit words per step) by 10^6 / 4
    bias = solve_bias(6, 2000)
    g = rtensor({q: LocalState(np.sqrt(bias), np.sqrt(1.0 - bias)) for q in range(6)})
    rng = substream(74)
    trials = 10**6
    before = _philox_counter(rng)
    rows = densify(law(gate_law(g)[1], trials, rng), trials)
    assert rows.shape == (trials, 6) and 0 < np.count_nonzero(rows.any(axis=1)) < trials // 100
    assert _philox_counter(rng) - before < trials // 100


@pytest.mark.parametrize("stream, law", [(0, direct_sample_batch), (1, factorized_sample_batch)])
def test_samplers_match_the_exact_grid_law_on_twelve_thousand_wires(stream, law):
    n, columns, trials = 6, 2000, 20_000
    bias = solve_bias(n, columns)
    c = build_depth2_nekomata(n, columns, bias)
    assert c.num_qubits == 12_006
    rows = sample_mostly_classical_batch(c, trials, substream(75, stream), law)
    for freq, law_p in (
        (np.mean(~rows.any(axis=1)), 0.5),
        (np.mean(rows.all(axis=1)), grid_law(n, columns, bias)[1]),
    ):
        assert abs(freq - law_p) <= 5.0 * np.sqrt(law_p * (1.0 - law_p) / trials)


def test_min_rank_polynomials_are_shared_and_read_only():
    law = GateLaw((0.3, 0.9, 0.5))
    first = law.min_rank
    again = law.min_rank
    assert all(a is b for a, b in zip(first, again))
    # the weights integrate each density over [0, 1): P(some rank < 1) = 1 - prod(1 - p)
    assert first[2].sum() == pytest.approx(1.0 - np.prod(1.0 - np.array(law.p)), abs=1e-12)
    for arr in first:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# one law per distinct first-layer reflection


def test_grid_column_gates_share_one_gate_law():
    n, columns, trials = 6, 2000, 64
    c = build_depth2_nekomata(n, columns, solve_bias(n, columns))
    seen = []

    def law(gl, rows, r):
        seen.append((gl, rows))
        return direct_sample_batch(gl, rows, r)

    sample_mostly_classical_batch(c, trials, substream(76), law)
    assert len({id(gl) for gl, _ in seen}) == 1
    assert sum(rows for _, rows in seen) == columns * trials


def _count_state_facts(monkeypatch) -> dict[str, Counter]:
    """Per-state counts of ``LocalState.norm_error`` and ``basis_value``
    computations: each cached property keeps its cache and runs a counting
    wrapper of its function.  The shared constants' cached facts are dropped
    so that they count too."""
    counts = {"norm_error": Counter(), "basis_value": Counter()}
    for name, seen in counts.items():
        prop = LocalState.__dict__[name]
        assert isinstance(prop, functools.cached_property)

        def counted(self, fact=prop.func, seen=seen):
            seen[id(self)] += 1
            return fact(self)

        monkeypatch.setattr(prop, "func", counted)
        for s in (KET0, KET1, MINUS, PLUS):
            monkeypatch.delitem(s.__dict__, name, raising=False)
    return counts


def test_loaded_grid_reads_each_distinct_state_once(monkeypatch):
    # the file repeats one pair on all 12,000 column factors, and the loader
    # shares it, so validate and the first-layer grouping each read it once
    from qackit import deserialize, lower, serialize, sampling, validate

    n, columns = 6, 2000
    c = deserialize(serialize(build_depth2_nekomata(n, columns, solve_bias(n, columns))))
    assert c.num_qubits == 12_006
    states = {id(s) for g in c.layers[0].gates for s in g.states}
    tuples = {tuple(map(id, g.states)) for g in c.layers[0].gates}
    assert len(states) == len(tuples) == 1
    counts = _count_state_facts(monkeypatch)
    calls = {"gate_law": 0}
    law = sampling.gate_law

    def counted_gate_law(g):
        calls["gate_law"] += 1
        return law(g)

    monkeypatch.setattr(sampling, "gate_law", counted_gate_law)
    assert validate(c) == []
    sample_mostly_classical_batch(c, 64, substream(78), direct_sample_batch)
    assert calls == {"gate_law": len(tuples)}
    assert dict(counts["norm_error"]) == dict.fromkeys(states, 1)
    assert set(counts["basis_value"].values()) <= {1}

    # the 21-wire grid of `build nekomata --n 3 --columns 6`: validate, the
    # oracle and lower compute each state's facts once between them
    c = deserialize(serialize(build_depth2_nekomata(3, 6, solve_bias(3, 6))))
    assert c.num_qubits == 21
    for seen in counts.values():
        seen.clear()
    file_states = {id(s) for g in c.gates() if isinstance(g, RTensor) for s in g.states}
    factor_states = {id(s) for g in c.gates() for factors in reflections(g) for _, s in factors}
    assert len(file_states) == 1 and len(factor_states) == 3
    assert validate(c) == []
    run(c, zero_state(c.num_qubits))
    lower(c)
    assert dict(counts["norm_error"]) == dict.fromkeys(file_states, 1)
    assert dict(counts["basis_value"]) == dict.fromkeys(factor_states, 1)


@pytest.mark.parametrize("bad", [0.0, 1.0 + 1e-12, float("nan")])
def test_gate_law_rejects_probabilities_outside_the_half_open_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        GateLaw((0.5, bad))


def test_gate_law_reads_one_probabilities_rounded_above_one_as_one():
    # a local state normalized only within ir.ATOL can have |amp1|^2 > 1
    g = rtensor({0: LocalState(0.0, 1.0 + 1e-13), 1: LocalState(1.0, 0.0), 2: PLUS})
    kept, law = gate_law(g)
    assert kept == (0, 2) and law.p[0] == 1.0 and law == GateLaw((1.0, PLUS.one_probability()))


def test_nonzero_rate_matches_its_other_spellings():
    rng = substream(77)
    for p in np.r_[rng.random(200), 1e-9, 0.5, 1.0]:
        law = GateLaw((float(p),))
        q = law.prod_q
        assert abs((1.0 - law.all_zeros) - 4.0 * p * (1.0 - p)) <= 1e-15
        assert abs((1.0 - law.all_zeros) - (4.0 * q - 4.0 * q**2)) <= 1e-15
    for k in range(2, 7):
        law = GateLaw(tuple(float(x) for x in rng.random(k)))
        q = law.prod_q
        assert abs((1.0 - law.all_zeros) - (4.0 * q - 4.0 * q**2)) <= 1e-15


# ---------------------------------------------------------------------------
# grouped, sparse and trial-chunked first layer


def test_active_trials_at_rate_one_half():
    # at a large rate the count is Binomial(40, 1/2) and the positions are
    # distinct and uniform
    from qackit.sampling import _active_trials

    rng = substream(78)
    trials, r, reps = 40, 0.5, 4000
    sizes = np.zeros(reps, dtype=np.int64)
    hits = np.zeros(trials, dtype=np.int64)
    for i in range(reps):
        idx = _active_trials(trials, r, rng)
        assert np.unique(idx).size == idx.size
        sizes[i] = idx.size
        hits += np.bincount(idx, minlength=trials)
    # counts <= 15, 16 .. 23 one by one, and >= 24
    pmf = [math.comb(trials, c) * 0.5**trials for c in range(trials + 1)]
    probs = [math.fsum(pmf[:16])] + pmf[16:24] + [math.fsum(pmf[24:])]
    observed = np.bincount(np.clip(sizes, 15, 24) - 15, minlength=10)
    expected = reps * np.array(probs)
    assert ((observed - expected) ** 2 / expected).sum() < _CHI2_9DF
    observed = hits.reshape(20, -1).sum(axis=1)
    expected = observed.sum() / 20
    assert ((observed - expected) ** 2 / expected).sum() < _CHI2_19DF


def test_hadamard_first_layer_memory_is_bounded_by_the_buffers():
    # 2000 H gates are one law of 2 * 10^7 rows at rate 1/2; drawn in slices,
    # the peak stays within the packed buffer, the result and its unpacked
    # transpose, plus 16 MiB for one slice's coins and indices
    wires, trials = 2000, 10_000
    c = circuit(wires, [[h_gate(q) for q in range(wires)]])
    packed = wires * -(-trials // 8)
    result = trials * wires
    bound = packed + 2 * result + (16 << 20)
    tracemalloc.start()
    try:
        rows = sample_mostly_classical_batch(c, trials, substream(79))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    sigma = np.sqrt(0.25 / rows.size)
    assert abs(rows.mean() - 0.5) <= 5 * sigma


@pytest.mark.parametrize("stream, law", [(0, direct_sample_batch), (1, factorized_sample_batch)])
def test_chunked_samplers_match_the_exact_grid_law(monkeypatch, stream, law):
    # chunks of 500 bytes per wire split 20,001 trials into chunks of 4000
    # trials and a last chunk of one
    from qackit import sampling

    n, columns, trials = 6, 2000, 20_001
    bias = solve_bias(n, columns)
    c = build_depth2_nekomata(n, columns, bias)
    monkeypatch.setattr(sampling, "_CHUNK_BYTES", 500 * c.num_qubits)
    chunks = []
    evaluate = sampling._eval_classical

    def counting_eval(layers, bits):
        chunks.append(bits.shape)
        return evaluate(layers, bits)

    monkeypatch.setattr(sampling, "_eval_classical", counting_eval)
    rows = sample_mostly_classical_batch(c, trials, substream(80, stream), law)
    assert rows.shape == (trials, n) and len(chunks) >= 4
    p, q, _ = grid_law(n, columns, bias)
    for freq, law_p in ((np.mean(~rows.any(axis=1)), p), (np.mean(rows.all(axis=1)), q)):
        assert abs(freq - law_p) <= 5.0 * np.sqrt(law_p * (1.0 - law_p) / trials)


@pytest.mark.parametrize("law", [direct_sample_batch, factorized_sample_batch])
def test_chunk_boundaries_keep_every_trial_bit(monkeypatch, law):
    # a one-factor reflection about |+> maps |0> to -|1>, and X maps it to
    # |1>: every first-layer wire reads 1 in every trial, so the Toffoli of
    # all 64 reads 1 in every trial, across chunks of 96 trials and a ragged
    # end
    from qackit import sampling

    first = [rtensor({q: PLUS}) for q in range(32)] + [x_gate(q) for q in range(32, 64)]
    c = circuit(65, [first, [Toffoli(tuple(range(64)), 64)]], targets=(64,))
    monkeypatch.setattr(sampling, "_CHUNK_BYTES", 12 * c.num_qubits)
    widths = []
    evaluate = sampling._eval_classical

    def counting_eval(layers, bits):
        widths.append(bits.shape[1])
        return evaluate(layers, bits)

    monkeypatch.setattr(sampling, "_eval_classical", counting_eval)
    trials = 389
    rows = sample_mostly_classical_batch(c, trials, substream(81), law)
    assert widths == [12, 12, 12, 12, 1]
    assert rows.shape == (trials, 1) and rows.all()
