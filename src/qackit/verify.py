"""Randomized checks of the quantitative facts behind the constructions.

Each suite draws its instances from its own substream of the seed and yields
``(instance, ok)`` for every instance it checks.  ``SUITES`` maps each
suite's name to a ``(seed) -> report`` callable; every report has the one
shape ``_report`` builds.
"""
from __future__ import annotations

import functools

import numpy as np

from . import analysis, statevec
from .ir import LocalState, RTensor
from .rng import substream


def _projections(seed: int):
    rng = substream(seed, 10)
    for trial in range(500):
        dim = int(rng.integers(2, 17))
        d = int(rng.integers(1, 7))
        projections = []
        for _ in range(d):
            rank = int(rng.integers(1, dim))
            basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            v = basis[:, :rank]
            projections.append(v @ v.conj().T)
        iota = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        iota /= np.linalg.norm(iota)
        chain = analysis.ProjectionChain(dim, tuple(projections), iota)
        yield trial, analysis.check_projection_chain_bound(chain).holds


def _metric(seed: int):
    rng = substream(seed, 11)
    yield "triangle", analysis.angular_triangle_check(10_000, 8, rng)
    yield "cos_exp_grid", analysis.check_cos_exp_inequality()
    for pair in range(5):
        sigma = rng.normal(size=8) + 1j * rng.normal(size=8)
        sigma /= np.linalg.norm(sigma)
        tau = rng.normal(size=8) + 1j * rng.normal(size=8)
        tau /= np.linalg.norm(tau)
        result = analysis.optimal_interpolation(sigma, tau, 5)
        # 1000 chains of 4 middle states; each state draws its real parts, then its imaginary parts
        parts = rng.normal(size=(1000, 4, 2, 8))
        middles = parts[..., 0, :] + 1j * parts[..., 1, :]
        middles /= np.linalg.norm(middles, axis=-1, keepdims=True)
        maximal = not np.any(analysis.chain_product_value(sigma, middles, tau) > result.product_value + 1e-10)
        yield f"interpolation pair {pair}", maximal


def _markov(seed: int):
    rng = substream(seed, 12)
    for instance in range(200):
        support_size = int(rng.integers(1, 8))
        values = np.round(rng.random(support_size) * 10, 3)
        probs = rng.random(support_size)
        probs /= probs.sum()
        law = list(zip(values.tolist(), probs.tolist()))
        mean = sum(v * p for v, p in law)
        if mean <= 0:
            continue
        a = float(rng.random() * 2 + 0.05)
        delta = float(rng.random() * 0.9 + 0.1)
        t = analysis.generalized_markov_threshold(law, a, delta)
        tail = sum(p for v, p in law if v >= t)
        yield instance, a <= t <= a * np.exp(1.0 / delta - 1.0) * (1 + 1e-12) and not tail * t > delta * mean + 1e-12


def _turan(seed: int):
    rng = substream(seed, 13)
    for graph in range(100):
        n = int(rng.integers(2, 51))
        density = rng.random() * 0.5
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = analysis.Graph(n, tuple(edges))
        result = analysis.permutation_independent_set(g, rng, trials=1000)
        sigma = max(np.sqrt(result.degree_sum_bound / result.trials), 1e-6)
        yield graph, analysis.is_independent(g, result.best) and not (
            result.mean_size < result.degree_sum_bound - 4 * sigma
        )


def _depth2_reduce(seed: int):
    rng = substream(seed, 14)
    for trial in range(20):
        cons, goal = _random_construction(rng)
        before = analysis.construction_success(cons, goal)
        result = analysis.reduce_depth2_construction(cons, goal)
        reduced = result.construction
        anc = set(reduced.ancillae())
        acted1 = {q for g in reduced.first_layer for q in g.qubits}
        acted2 = {q for g in reduced.second_layer for q in g.qubits}
        yield trial, not result.success_probability < before - 1e-9 and anc <= acted1 and anc <= acted2


def _random_construction(rng):
    def haar_local() -> LocalState:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return LocalState(v[0], v[1])

    n = int(rng.integers(4, 7))
    targets = tuple(range(2))

    def random_layer():
        wires = list(rng.permutation(n))
        gates = []
        while len(wires) >= 2 and rng.random() < 0.85:
            k = int(rng.integers(2, min(3, len(wires)) + 1))
            chosen, wires = wires[:k], wires[k:]
            gates.append(RTensor(tuple((int(q), haar_local()) for q in chosen)))
        return tuple(gates)

    cons = analysis.Depth2Construction(
        n, random_layer(), random_layer(), tuple(haar_local() for _ in range(n)), targets
    )
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    goal = statevec.StateVector(2, v)
    return cons, goal


def _report(suite, seed: int) -> dict:
    """Pass or fail, the number of instances checked, and the first failing
    instance with the seed that reproduces it."""
    outcomes = list(suite(seed))
    failing = [instance for instance, ok in outcomes if not ok]
    return {
        "passed": not failing,
        "instances": len(outcomes),
        "failures": len(failing),
        "seed": seed,
        "first_failing_instance": failing[0] if failing else None,
    }


SUITES = {
    name: functools.partial(_report, suite)
    for name, suite in (
        ("projections", _projections),
        ("metric", _metric),
        ("markov", _markov),
        ("turan", _turan),
        ("depth2-reduce", _depth2_reduce),
    )
}
