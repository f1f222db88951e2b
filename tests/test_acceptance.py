"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qackit import (
    Depth2Construction,
    Graph,
    ProjectionChain,
    angular_triangle_check,
    best_nekomata_fidelity,
    build_depth2_nekomata,
    chain_product_value,
    check_cos_exp_inequality,
    check_projection_chain_bound,
    circuit,
    classical_read_bound,
    cnot,
    depth,
    factorized_sample_batch,
    fanout_tree,
    gate_law,
    h_gate,
    hamming_stats_of_samples,
    impurity_bound,
    is_independent,
    measurement_distribution,
    optimal_interpolation,
    parity_from_nekomata,
    permutation_independent_set,
    rtensor,
    run,
    sample_mostly_classical_batch,
    size,
    solve_bias,
    choose_columns,
    to_rtensor_normal_form,
    topology,
    validate,
    zero_state,
)
from qackit.statevec import StateVector, unitary
from qackit.rng import substream

from conftest import (
    counts_from_rows,
    densify,
    exact_gate_law,
    haar_local,
    haar_state,
    or_cz_collapses,
    random_mostly_classical_circuit,
    random_qac_circuit,
    reference_classical,
    reference_unitary,
    tv_distance,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_normal_form_correctness():
    started = time.monotonic()
    rng = substream(101)
    worst = 0.0
    for _ in range(200):
        c = random_qac_circuit(rng, max_qubits=8, max_depth=4)
        nf = to_rtensor_normal_form(c)
        assert topology(nf) == topology(c)
        dev = float(np.max(np.abs(unitary(nf) - unitary(c))))
        worst = max(worst, dev)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed <= 120.0
    report("1 normal-form", ok, f"worst unitary deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_parity_construction_exactness():
    started = time.monotonic()
    cat2 = circuit(2, [[h_gate(0)], [cnot(0, 1)]])
    par = parity_from_nekomata(cat2, 2)
    assert depth(par) == 4 * depth(cat2) + 3 == 7
    u = unitary(par)
    expected = np.kron(reference_unitary("parity", 3), np.eye(4))
    # wire order of the construction: inputs 0,1; constructor wires 2,3;
    # parity wire 4.  The reference acts on (b, x1, x2) x ancillae, so
    # compare through the permutation (4,0,1,2,3) -> (0,1,2,3,4).
    perm = (4, 0, 1, 2, 3)
    m = 5
    reindex = np.zeros(32, dtype=int)
    for i in range(32):
        j = 0
        for axis, wire in enumerate(perm):
            bit = (i >> (m - 1 - wire)) & 1
            j |= bit << (m - 1 - axis)
        reindex[i] = j
    expected_local = expected[np.ix_(reindex, reindex)]
    # exactness holds on the clean-ancilla input block (constructor wires and
    # parity wire start at |0>): all 32 amplitudes of each of those 8 columns
    clean_cols = [(x << 3) | b for x in range(4) for b in range(2)]
    worst = float(np.max(np.abs(u[:, clean_cols] - expected_local[:, clean_cols])))
    # structural shape on a second, deeper constructor
    deep = circuit(3, [[h_gate(0)], [cnot(0, 1)], [cnot(1, 2)]])
    par2 = parity_from_nekomata(deep, 2)
    shape_ok = depth(par2) == 4 * depth(deep) + 3 and size(par2) == 4 * size(deep) + 2 * 2 + 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and shape_ok and elapsed <= 60.0
    report("2 parity-from-nekomata", ok, f"max deviation {worst:.2e}, depth 7, {elapsed:.1f}s")


def test_criterion_3_fanout_tree_bounds():
    started = time.monotonic()
    ok = True
    for m in (2, 3, 4, 8):
        for n in range(1, 65):
            c = fanout_tree(n, m)
            want_depth = 0
            reach = 1
            while reach < n:
                reach *= m
                want_depth += 1
            ok &= depth(c) == want_depth
            ok &= size(c) <= max(n - 1, 0)
            ok &= validate(c) == []
            ok &= reference_classical(c, "1" + "0" * (n - 1)) == "1" * n
            ok &= reference_classical(c, "0" * n) == "0" * n
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 60.0
    report("3 fanout-tree", ok, f"n<=64, m in (2,3,4,8), {elapsed:.1f}s")


def test_criterion_4_depth2_grid_desk_scale():
    started = time.monotonic()
    n, columns = 2, 3
    bias = solve_bias(n, columns)
    c = build_depth2_nekomata(n, columns, bias)
    state = run(c, zero_state(c.num_qubits))
    rep = best_nekomata_fidelity(state, c.targets)
    zeros_ok = abs(rep.all_zeros_prob - 0.5) <= 1e-9
    fid_ok = rep.fidelity >= 1 - 1.5 * (0.5 - rep.all_ones_prob) - 1e-12
    column_dist = measurement_distribution(state, tuple(range(n)))
    impure = 1.0 - column_dist.probs.get("0" * n, 0.0) - column_dist.probs.get("1" * n, 0.0)
    bound = impurity_bound(n, columns, bias)
    bound_ok = bound.union_bound >= impure - 1e-12
    elapsed = time.monotonic() - started
    ok = zeros_ok and fid_ok and bound_ok and elapsed <= 60.0
    report(
        "4 depth-2 grid",
        ok,
        f"p={rep.all_zeros_prob:.12f}, fid={rep.fidelity:.6f}, impurity {impure:.4f} <= {bound.union_bound:.4f}",
    )


def test_criterion_5_parameter_arithmetic():
    started = time.monotonic()
    rng = substream(105)
    worst = 0.0
    grid = [1, 2, 3, 4, 5, 7, 10, 33, 100, 317, 1000, 3163, 10**4, 10**5, 316228, 10**6]
    pairs = [(n, columns) for n in range(1, 9) for columns in grid]
    pairs += [(int(rng.integers(1, 9)), int(rng.integers(1, 10**6 + 1))) for _ in range(50)]
    for n, columns in pairs:
        bias = solve_bias(n, columns)
        residual = abs(math.exp(2.0 * columns * math.log1p(-2.0 * bias**n)) - 0.5)
        worst = max(worst, residual)
    from decimal import ROUND_CEILING, Decimal, getcontext

    getcontext().prec = 60
    ln2 = Decimal(2).ln()
    reference = int(
        ((ln2 / 4) * (ln2 * 2 / (Decimal(2) / 3 * Decimal("0.15"))) ** 2).to_integral_value(
            rounding=ROUND_CEILING
        )
    )
    columns_ok = choose_columns(2, 0.15) == 34 == reference
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and columns_ok and elapsed <= 60.0
    report("5 parameter arithmetic", ok, f"worst residual {worst:.2e}, columns(2,0.15)=34")


def test_criterion_6_sampler_oracle_agreement():
    started = time.monotonic()
    trials = 100_000
    worst_circuit_tv = 0.0
    for i in range(50):
        rng = substream(106, i)
        c = random_mostly_classical_circuit(rng, max_qubits=12, max_targets=6)
        rows = sample_mostly_classical_batch(c, trials, substream(206, i))
        exact = measurement_distribution(run(c, zero_state(c.num_qubits)), c.targets)
        tv = tv_distance(counts_from_rows(rows), exact.probs, trials)
        worst_circuit_tv = max(worst_circuit_tv, tv)
    worst_gate_tv = 0.0
    for i in range(50):
        rng = substream(107, i)
        k = int(rng.integers(1, 7))
        g = rtensor({q: haar_local(rng) for q in range(k)})
        if any(s.one_probability() == 0.0 for s in g.states):
            g = rtensor({q: haar_local(rng) for q in range(k)})
        rows = densify(factorized_sample_batch(gate_law(g)[1], trials, substream(207, i)), trials)
        tv = tv_distance(counts_from_rows(rows), exact_gate_law(g), trials)
        worst_gate_tv = max(worst_gate_tv, tv)
    elapsed = time.monotonic() - started
    ok = worst_circuit_tv <= 0.02 and worst_gate_tv <= 0.02 and elapsed <= 300.0
    report(
        "6 sampler agreement",
        ok,
        f"circuit TV {worst_circuit_tv:.4f}, gate TV {worst_gate_tv:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_quantitative_bounds():
    started = time.monotonic()
    rng = substream(108)
    # exact reflection law vs oracle
    law_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        g = rtensor({q: haar_local(rng) for q in range(k)})
        probs = exact_gate_law(g)
        oracle = measurement_distribution(run(circuit(k, [[g]]), zero_state(k)), range(k))
        keys = set(probs) | set(oracle.probs)
        law_ok &= all(abs(probs.get(y, 0.0) - oracle.probs.get(y, 0.0)) <= 1e-10 for y in keys)
    # projection chains
    chain_ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        d = int(rng.integers(1, 7))
        projections = []
        for _ in range(d):
            rank = int(rng.integers(1, dim))
            q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0][
                :, :rank
            ]
            projections.append(q @ q.conj().T)
        chain = ProjectionChain(dim, tuple(projections), haar_state(dim, rng))
        chain_ok &= check_projection_chain_bound(chain).holds
    # optimal interpolation maximality
    interp_ok = True
    for _ in range(10):
        sigma = haar_state(8, rng)
        tau = haar_state(8, rng)
        d = int(rng.integers(2, 6))
        res = optimal_interpolation(sigma, tau, d)
        closed = math.cos(math.acos(abs(np.vdot(sigma, tau))) / d) ** d
        interp_ok &= abs(res.product_value - closed) <= 1e-10
        for _ in range(1000):
            middles = [haar_state(8, rng) for _ in range(d - 1)]
            interp_ok &= chain_product_value(sigma, middles, tau) <= res.product_value + 1e-10
    triangle_ok = angular_triangle_check(10_000, 8, rng)
    cos_ok = check_cos_exp_inequality(1_000_000)
    # best-nekomata dominance
    nek_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        state = StateVector(m, haar_state(1 << m, rng))
        n_t = int(rng.integers(1, m + 1))
        targets = tuple(int(q) for q in rng.choice(m, size=n_t, replace=False))
        rep = best_nekomata_fidelity(state, targets)
        nek_ok &= rep.fidelity <= 0.5 + math.sqrt(min(rep.all_zeros_prob, rep.all_ones_prob)) + 1e-12
    # random-permutation independent sets
    turan_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 51))
        density = float(rng.random() * 0.4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph(n, tuple(edges))
        res = permutation_independent_set(g, rng, trials=1000)
        turan_ok &= is_independent(g, res.best)
        sigma = res.std_size / math.sqrt(res.trials) + 1e-9
        turan_ok &= abs(res.mean_size - res.degree_sum_bound) <= 3 * sigma
        turan_ok &= res.degree_sum_bound >= res.turan_bound - 1e-12
    elapsed = time.monotonic() - started
    ok = all([law_ok, chain_ok, interp_ok, triangle_ok, cos_ok, nek_ok, turan_ok])
    ok = ok and elapsed <= 300.0
    report(
        "7 quantitative bounds",
        ok,
        f"law {law_ok}, chains {chain_ok}, interpolation {interp_ok}, triangle {triangle_ok}, "
        f"cos {cos_ok}, nekomata bound {nek_ok}, independent sets {turan_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_or_cz_collapse():
    started = time.monotonic()
    results = {k: or_cz_collapses(k, atol=1e-10) for k in range(2, 7)}
    elapsed = time.monotonic() - started
    ok = all(results.values()) and elapsed <= 60.0
    report("8 or-cz collapse", ok, f"k in 2..6 -> {results}")


def test_criterion_9_concentration_sanity():
    started = time.monotonic()
    trials = 100_000
    n = 400
    # read-1 family: independent Hadamard coins
    read1 = circuit(n, [[h_gate(q) for q in range(n)]], targets=tuple(range(n)))
    stats1 = hamming_stats_of_samples(
        sample_mostly_classical_batch(read1, trials, substream(109, 0)), classical_read_bound(read1)
    )
    ok = stats1.read_r == 1
    for entry in stats1.tails:
        slack = 3 * math.sqrt(max(entry.bound * (1 - entry.bound), 0.0) / trials) + 1.0 / trials
        ok &= entry.upper_tail <= entry.bound + slack
        ok &= entry.lower_tail <= entry.bound + slack
    # full-duplication family: one coin fanned out to all n targets
    coin = circuit(
        n,
        [[h_gate(0)]] + [list(lay.gates) for lay in fanout_tree(n, 2).layers],
        targets=tuple(range(n)),
    )
    stats2 = hamming_stats_of_samples(
        sample_mostly_classical_batch(coin, trials, substream(109, 1)), classical_read_bound(coin)
    )
    ok &= stats2.read_r >= n
    for entry in stats2.tails:
        slack = 3 * math.sqrt(max(entry.bound * (1 - entry.bound), 0.0) / trials) + 1.0 / trials
        ok &= entry.upper_tail <= entry.bound + slack
        ok &= entry.lower_tail <= entry.bound + slack
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 300.0
    report(
        "9 concentration",
        ok,
        f"read-1 tails {[f'{t.upper_tail:.2e}' for t in stats1.tails]} vs bounds "
        f"{[f'{t.bound:.2e}' for t in stats1.tails]}, read-{stats2.read_r} family ok, {elapsed:.1f}s",
    )
