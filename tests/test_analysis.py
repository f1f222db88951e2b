from __future__ import annotations

import math

import numpy as np
import pytest

from qackit import (
    Depth2Construction,
    Graph,
    ProjectionChain,
    angular_distance,
    angular_triangle_check,
    chain_product_value,
    check_cos_exp_inequality,
    check_projection_chain_bound,
    construction_success,
    generalized_markov_threshold,
    is_independent,
    optimal_interpolation,
    permutation_independent_set,
    reduce_depth2_construction,
    rtensor,
)
from qackit.ir import RTensor
from qackit.statevec import StateVector
from qackit.rng import substream

from conftest import haar_local, haar_state


def random_projection(dim: int, rank: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(z)[0][:, :rank]
    return q @ q.conj().T


# ---------------------------------------------------------------------------
# angular metric


def test_angular_distance_examples():
    psi = haar_state(4, substream(60))
    assert angular_distance(psi, psi) == pytest.approx(0.0, abs=1e-7)
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert angular_distance(e0, e1) == pytest.approx(np.pi / 2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert angular_distance(e0, plus) == pytest.approx(np.pi / 4)
    assert isinstance(angular_distance(e0, plus), float)
    # stacks of states: one distance per pair along the leading axes
    stacked = angular_distance(np.stack([e0, e0, e1]), np.stack([e1, plus, e1 * 1j]))
    assert stacked.shape == (3,)
    assert stacked == pytest.approx([np.pi / 2, np.pi / 4, 0.0], abs=1e-7)
    rng = substream(63)
    left = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
    right = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
    grid = angular_distance(left, right)
    assert grid.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert grid[i, j] == pytest.approx(angular_distance(left[i, j], right[i, j]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        angular_distance(left, right[0])


def test_triangle_degenerate_cases():
    rng = substream(61)
    a = haar_state(8, rng)
    c = haar_state(8, rng)
    assert angular_distance(a, c) <= angular_distance(a, a) + angular_distance(a, c) + 1e-9


def test_triangle_random_sweep():
    assert angular_triangle_check(10_000, 8, substream(62))


def reference_triangle_check(trials: int, dim: int, rng, atol: float = 1e-9) -> bool:
    """The triangle check one trial at a time, as it was before it drew all
    trials in one call."""
    for _ in range(trials):
        a, b, c = (haar_state(dim, rng) for _ in range(3))
        if angular_distance(a, c) > angular_distance(a, b) + angular_distance(b, c) + atol:
            return False
    return True


@pytest.mark.parametrize("atol", [1e-9, -0.05, -0.2])
def test_triangle_check_matches_the_per_trial_loop(atol):
    # a negative atol makes the check fail on some trial
    got = angular_triangle_check(500, 4, substream(68), atol)
    assert got == reference_triangle_check(500, 4, substream(68), atol)
    assert got == (atol > -0.1)


def test_triangle_check_draws_what_the_per_trial_loop_draws():
    rng, ref = substream(69), substream(69)
    assert angular_triangle_check(500, 4, rng) and reference_triangle_check(500, 4, ref)
    assert rng.normal() == ref.normal()


# ---------------------------------------------------------------------------
# projection chains


def test_chain_bound_plus_state():
    q = np.array([[1, 0], [0, 0]], dtype=complex)
    iota = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rep = check_projection_chain_bound(ProjectionChain(2, (q,), iota))
    assert rep.lhs == pytest.approx(2**-0.5)
    assert rep.rhs == pytest.approx(math.exp(-0.25))
    assert rep.holds


def test_chain_bound_fixed_point():
    rng = substream(63)
    q = random_projection(6, 3, rng)
    iota = q @ haar_state(6, rng)
    iota /= np.linalg.norm(iota)
    rep = check_projection_chain_bound(ProjectionChain(6, (random_projection(6, 4, rng), q), iota))
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.holds


def test_chain_bound_random_sweep():
    rng = substream(64)
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        d = int(rng.integers(1, 7))
        projections = tuple(
            random_projection(dim, int(rng.integers(1, dim)), rng) for _ in range(d)
        )
        rep = check_projection_chain_bound(ProjectionChain(dim, projections, haar_state(dim, rng)))
        assert rep.holds


def test_projection_chain_validation():
    with pytest.raises(ValueError, match="projection"):
        ProjectionChain(2, (np.array([[1, 1], [0, 0]]),), np.array([1, 0]))
    with pytest.raises(ValueError, match="unit norm"):
        ProjectionChain(2, (np.eye(2),), np.array([1, 1]))


# ---------------------------------------------------------------------------
# optimal interpolation


def test_interpolation_orthogonal_pair():
    sigma = np.array([1, 0], dtype=complex)
    tau = np.array([0, 1], dtype=complex)
    res = optimal_interpolation(sigma, tau, 2)
    assert res.product_value == pytest.approx(0.5)
    assert np.allclose(res.states[0], np.array([1, 1]) / np.sqrt(2))


def test_interpolation_d1_gives_overlap():
    rng = substream(65)
    sigma = haar_state(8, rng)
    tau = haar_state(8, rng)
    res = optimal_interpolation(sigma, tau, 1)
    assert res.product_value == pytest.approx(abs(np.vdot(sigma, tau)))
    assert res.states == ()


def test_interpolation_same_state():
    sigma = haar_state(4, substream(66))
    res = optimal_interpolation(sigma, sigma * np.exp(0.3j), 3)
    assert res.product_value == pytest.approx(1.0)


def test_interpolation_dominates_random_chains():
    rng = substream(67)
    sigma = haar_state(8, rng)
    tau = haar_state(8, rng)
    d = 5
    res = optimal_interpolation(sigma, tau, d)
    closed = math.cos(math.acos(abs(np.vdot(sigma, tau))) / d) ** d
    assert res.product_value == pytest.approx(closed, abs=1e-10)
    for _ in range(1000):
        middles = [haar_state(8, rng) for _ in range(d - 1)]
        assert chain_product_value(sigma, middles, tau) <= res.product_value + 1e-10


def test_chain_product_value_of_a_stack_matches_each_chain():
    rng = substream(70)
    sigma, tau = haar_state(8, rng), haar_state(8, rng)
    stack = np.array([[haar_state(8, rng) for _ in range(4)] for _ in range(50)])
    values = chain_product_value(sigma, stack, tau)
    assert values.shape == (50,)
    for middles, value in zip(stack, values):
        states = [sigma, *middles, tau]
        expected = math.prod(abs(np.vdot(a, b)) for a, b in zip(states, states[1:]))
        assert abs(value - expected) < 1e-14
        assert abs(chain_product_value(sigma, list(middles), tau) - expected) < 1e-14
    assert abs(chain_product_value(sigma, [], tau) - abs(np.vdot(sigma, tau))) < 1e-14


# ---------------------------------------------------------------------------
# scalar inequality, markov, turan


def test_cos_exp_endpoints():
    assert math.cos(0.0) == 1.0
    assert math.cos(1.0) <= math.exp(-0.5)


def test_cos_exp_grid():
    assert check_cos_exp_inequality(1_000_000)


def test_markov_constant_law():
    assert generalized_markov_threshold([(1.0, 1.0)], 2.0, 1.0) == 2.0


def test_markov_uniform_law():
    law = [(float(v), 0.1) for v in range(10)]
    t = generalized_markov_threshold(law, 1.0, 1.0)
    assert t == 1.0  # P(X >= 1) = 0.9 <= E[X]/1 = 4.5


def test_markov_exponential_like_law():
    law = [(2.0**k, 2.0**-(k + 1)) for k in range(10)]
    law.append((0.0, 2.0**-10))
    mean = sum(v * p for v, p in law)
    t = generalized_markov_threshold(law, mean, 0.5)
    assert mean <= t <= mean * math.e * (1 + 1e-12)
    tail = sum(p for v, p in law if v >= t)
    assert tail <= 0.5 * mean / t + 1e-12


def test_markov_random_sweep():
    rng = substream(68)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        values = np.abs(rng.normal(size=k)) * 5
        probs = rng.random(k)
        probs /= probs.sum()
        law = list(zip(values.tolist(), probs.tolist()))
        a = float(rng.random() * 3 + 0.01)
        delta = float(rng.random() * 0.95 + 0.05)
        t = generalized_markov_threshold(law, a, delta)
        assert a <= t <= a * math.exp(1.0 / delta - 1.0) * (1 + 1e-12)


def test_turan_empty_graph():
    g = Graph(5, ())
    res = permutation_independent_set(g, substream(69), trials=10)
    assert res.best == frozenset(range(5))
    assert res.mean_size == 5.0


def test_turan_triangle():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    res = permutation_independent_set(g, substream(70), trials=100)
    assert res.mean_size == 1.0
    assert len(res.best) == 1


def test_turan_path_expected_size():
    g = Graph(3, ((0, 1), (1, 2)))
    # exhaustive oracle over all 6 permutations of the path a-b-c
    from itertools import permutations

    adj = g.neighbors()
    total = 0
    for perm in permutations(range(3)):
        ranks = {v: i for i, v in enumerate(perm)}
        total += sum(1 for u in range(3) if all(ranks[u] < ranks[v] for v in adj[u]))
    assert total / 6 == pytest.approx(4.0 / 3.0)
    res = permutation_independent_set(g, substream(71), trials=20_000)
    assert res.degree_sum_bound == pytest.approx(4.0 / 3.0)
    assert res.turan_bound == pytest.approx(9.0 / 7.0)
    assert res.mean_size == pytest.approx(4.0 / 3.0, abs=0.02)
    assert is_independent(g, res.best)


def test_turan_random_graphs():
    rng = substream(72)
    for _ in range(30):
        n = int(rng.integers(2, 51))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        g = Graph(n, tuple(edges))
        res = permutation_independent_set(g, rng, trials=1000)
        assert is_independent(g, res.best)
        sigma = math.sqrt(res.degree_sum_bound / res.trials) + 1e-9
        assert res.mean_size >= res.degree_sum_bound - 4 * sigma
        assert res.degree_sum_bound >= res.turan_bound - 1e-12


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))


# ---------------------------------------------------------------------------
# depth-2 construction reduction


def make_construction(rng, n, first_specs, second_specs, targets=(0, 1)):
    first = tuple(RTensor(tuple((q, haar_local(rng)) for q in spec)) for spec in first_specs)
    second = tuple(RTensor(tuple((q, haar_local(rng)) for q in spec)) for spec in second_specs)
    inputs = tuple(haar_local(rng) for _ in range(n))
    return Depth2Construction(n, first, second, inputs, targets)


def random_goal(rng, n_targets=2):
    return StateVector(n_targets, haar_state(1 << n_targets, rng))


def test_reduction_noop_when_already_reduced():
    rng = substream(74)
    cons = make_construction(rng, 3, [(0, 2), (1,)], [(0, 1, 2)])
    goal = random_goal(rng)
    res = reduce_depth2_construction(cons, goal)
    assert res.steps == ()
    assert res.construction is cons


def test_reduction_drops_untouched_ancilla():
    rng = substream(75)
    cons = make_construction(rng, 4, [(0, 1)], [(0, 1)])  # wires 2, 3 untouched
    goal = random_goal(rng)
    res = reduce_depth2_construction(cons, goal)
    assert res.construction.num_qubits == 2
    assert any("untouched" in s for s in res.steps)
    assert res.success_probability >= construction_success(cons, goal) - 1e-9


def test_reduction_measures_first_layer_only_ancilla():
    rng = substream(76)
    cons = make_construction(rng, 4, [(0, 3)], [(0, 1, 2)])  # wire 3 only in layer 1
    goal = random_goal(rng)
    before = construction_success(cons, goal)
    res = reduce_depth2_construction(cons, goal)
    assert res.success_probability >= before - 1e-9
    assert 3 not in range(res.construction.num_qubits) or res.construction.num_qubits == 3


def test_reduction_invariants_random():
    rng = substream(77)
    for trial in range(15):
        n = int(rng.integers(3, 6))
        wires = list(range(n))

        def specs():
            rng.shuffle(wires)
            out, i = [], 0
            while i < len(wires):
                k = int(rng.integers(1, min(3, len(wires) - i) + 1))
                if rng.random() < 0.7:
                    out.append(tuple(wires[i : i + k]))
                i += k
            return out

        cons = make_construction(rng, n, specs(), specs())
        goal = random_goal(rng)
        before = construction_success(cons, goal)
        res = reduce_depth2_construction(cons, goal)
        assert res.success_probability >= before - 1e-9
        red = res.construction
        anc = set(red.ancillae())
        acted1 = {q for g in red.first_layer for q in g.qubits}
        acted2 = {q for g in red.second_layer for q in g.qubits}
        assert anc <= acted1 and anc <= acted2
        tset = set(red.targets)
        assert all(set(g.qubits) & tset for g in red.first_layer)
        assert all(set(g.qubits) & tset for g in red.second_layer)


def test_reduction_branch_average_identity():
    # sanity for the measurement bookkeeping: branch probabilities weight
    # branch successes back to the unmeasured success
    from qackit.analysis import _measurement_branches, _gate_on

    rng = substream(78)
    cons = make_construction(rng, 4, [(0, 1)], [(0, 1, 3)])  # ancilla 3 in layer 2 only
    goal = random_goal(rng)
    branches = list(_measurement_branches(cons, {3: _gate_on(cons.second_layer, 3)}, goal))
    total_p = sum(p for p, _, _ in branches)
    avg = sum(p * s for p, s, _ in branches)
    assert total_p == pytest.approx(1.0, abs=1e-10)
    assert avg == pytest.approx(construction_success(cons, goal), abs=1e-10)


def test_reduction_branch_average_identity_first_layer_case():
    # ancilla acted only by the first layer: measuring in that gate's factor
    # basis must preserve the averaged success probability
    from qackit.analysis import _measurement_branches, _gate_on

    rng = substream(79)
    cons = make_construction(rng, 4, [(0, 1, 3)], [(0, 1, 2)])  # wire 3 layer-1 only
    goal = random_goal(rng)
    branches = list(_measurement_branches(cons, {3: _gate_on(cons.first_layer, 3)}, goal))
    assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=1e-10)
    avg = sum(p * s for p, s, _ in branches)
    assert avg == pytest.approx(construction_success(cons, goal), abs=1e-10)


def test_reduction_branch_average_identity_target_free_gate_case():
    # first-layer gate on ancillae only: all its wires are measured at once
    # in the second-layer factors' bases
    from qackit.analysis import _measurement_branches, _gate_on

    rng = substream(80)
    cons = make_construction(rng, 5, [(0, 1), (2, 3)], [(0, 2), (1, 3, 4)], targets=(0, 1))
    goal = random_goal(rng)
    gate = cons.first_layer[1]  # acts on wires 2, 3: both ancillae
    assert not set(gate.qubits) & set(cons.targets)
    owners = {q: _gate_on(cons.second_layer, q) for q in gate.qubits}
    branches = list(_measurement_branches(cons, owners, goal))
    assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=1e-10)
    avg = sum(p * s for p, s, _ in branches)
    assert avg == pytest.approx(construction_success(cons, goal), abs=1e-10)


def test_reduction_branch_average_identity_one_owner_on_two_measured_wires():
    # both wires of the target-free first-layer gate sit in one second-layer
    # gate, which keeps its target factor only when both outcomes matched
    from qackit.analysis import _measurement_branches, _gate_on

    rng = substream(81)
    cons = make_construction(rng, 4, [(0, 1), (2, 3)], [(0, 2, 3), (1,)], targets=(0, 1))
    goal = random_goal(rng)
    owners = {q: _gate_on(cons.second_layer, q) for q in (2, 3)}
    branches = list(_measurement_branches(cons, owners, goal))
    assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=1e-10)
    avg = sum(p * s for p, s, _ in branches)
    assert avg == pytest.approx(construction_success(cons, goal), abs=1e-10)
    kept = [len(reduced.second_layer) for _, _, reduced in branches]
    assert kept == [2, 1, 1, 1]

# The depth2-reduce suite's 20 instances at seed 0: the reduction's steps and
# final success probability.  Step codes: R removes a target-free
# second-layer gate, Dq drops untouched ancilla q, Fq / Sq measure ancilla q
# in its first- / second-layer basis, Tk measures the k wires of a target-free
# first-layer gate.
_SEED0_REDUCTIONS = [
    ("R F4 F4 S2 S2", 0.5059796373031572),
    ("R F2 F2 T1", 0.3201788042895699),
    ("R F2 F2 S2", 0.8854237800624639),
    ("F2 D2 F2", 0.30083030594844695),
    ("S2 S3", 0.33317593480916424),
    ("D4 S2 S2 S2", 0.3183955596904919),
    ("F2 F2 F2", 0.21370989583796826),
    ("", 0.2154826146273929),
    ("F2", 0.2602841259494201),
    ("F2 F2", 0.47206255400827923),
    ("D2 D2 D3 F2", 0.1417587540773177),
    ("R F2 F3", 0.45806995448105986),
    ("", 0.24092437889464352),
    ("R F3 F3", 0.17958483536908285),
    ("D3", 0.1740754060937272),
    ("F3", 0.264403990978748),
    ("S2 S2 S2", 0.271599033933718),
    ("R F2 F2 T1", 0.6593292628619075),
    ("S2 S3 T2", 0.6053949011785343),
    ("S2 S2 S2", 0.6733373413917288),
]


def _step_text(code: str) -> str:
    kind, arg = code[0], code[1:]
    return {
        "R": "removed a second-layer gate without targets",
        "D": f"dropped untouched ancilla {arg}",
        "F": f"measured ancilla {arg} in its first-layer basis",
        "S": f"measured ancilla {arg} in its second-layer basis",
        "T": f"measured the {arg} wires of a target-free first-layer gate",
    }[kind]


def test_reduction_steps_on_the_seed0_suite_instances():
    from qackit import verify

    rng = substream(0, 14)
    for codes, success in _SEED0_REDUCTIONS:
        cons, goal = verify._random_construction(rng)
        result = reduce_depth2_construction(cons, goal)
        assert result.steps == tuple(_step_text(c) for c in codes.split())
        assert result.success_probability == pytest.approx(success, abs=1e-12)
