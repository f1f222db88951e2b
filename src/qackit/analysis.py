"""Numerical verification of the quantitative facts the circuit bounds rest
on: the angular metric and its triangle inequality, projection-chain decay
with its optimal interpolating chains, a generalized Markov threshold
witness, random-permutation independent sets, and the depth-2 construction
reduction that measures out redundant ancillae without losing fidelity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Layer, LocalState, RTensor
from .statevec import StateVector, product_state, run

PROJ_ATOL = 1e-10


def angular_distance(a: StateVector | np.ndarray, b: StateVector | np.ndarray) -> float | np.ndarray:
    """arccos |<a|b>|, a metric on states up to phase; values in [0, pi/2].

    The inner product runs over the last axis: two states give a float, and
    two stacks of states of one shape give an array with one value per pair."""
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b)
    if va.shape != vb.shape:
        raise ValueError("dimension mismatch")
    value = np.arccos(np.clip(np.abs(np.sum(va.conj() * vb, axis=-1)), 0.0, 1.0))
    return value if va.ndim > 1 else float(value)


@dataclass(frozen=True)
class ProjectionChain:
    dimension: int
    projections: tuple[np.ndarray, ...]
    iota: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "projections", tuple(np.asarray(q, dtype=np.complex128) for q in self.projections)
        )
        object.__setattr__(self, "iota", np.asarray(self.iota, dtype=np.complex128).reshape(-1))
        if self.iota.shape[0] != self.dimension:
            raise ValueError("input state dimension mismatch")
        if abs(np.linalg.norm(self.iota) - 1.0) > 1e-10:
            raise ValueError("input state must be unit norm")
        for q in self.projections:
            if q.shape != (self.dimension, self.dimension):
                raise ValueError("projection dimension mismatch")
            if np.max(np.abs(q - q.conj().T)) > PROJ_ATOL or np.max(np.abs(q @ q - q)) > PROJ_ATOL:
                raise ValueError("matrix is not an orthogonal projection")


@dataclass(frozen=True)
class ChainBoundReport:
    lhs: float
    rhs: float
    holds: bool


def check_projection_chain_bound(chain: ProjectionChain) -> ChainBoundReport:
    """Check ``||Q_d .. Q_1 iota|| <= exp(-<iota|(I - Q_d)|iota>/(2d))``."""
    vec = chain.iota.copy()
    for q in chain.projections:
        vec = q @ vec
    lhs = float(np.linalg.norm(vec))
    qd = chain.projections[-1]
    d = len(chain.projections)
    overlap = float(np.real(np.vdot(chain.iota, chain.iota - qd @ chain.iota)))
    rhs = float(np.exp(-overlap / (2.0 * d)))
    return ChainBoundReport(lhs, rhs, lhs <= rhs + 1e-10)


@dataclass(frozen=True)
class InterpolationResult:
    states: tuple[np.ndarray, ...]
    product_value: float


def optimal_interpolation(sigma: np.ndarray, tau: np.ndarray, d: int) -> InterpolationResult:
    """States ``chi_1 .. chi_{d-1}`` maximizing ``|prod <chi_{j-1}|chi_j>|``
    between ``sigma`` and ``tau``: equal angular steps along the geodesic, with
    product value ``cos(arccos|<sigma|tau>| / d)^d``."""
    if d < 1:
        raise ValueError("d must be >= 1")
    sigma = np.asarray(sigma, dtype=np.complex128).reshape(-1)
    tau = np.asarray(tau, dtype=np.complex128).reshape(-1)
    ip = np.vdot(sigma, tau)
    if abs(ip) > 0:
        tau = tau * (abs(ip) / ip)  # phase so that <sigma|tau> >= 0
    overlap = min(1.0, float(np.real(np.vdot(sigma, tau))))
    eta = math.acos(max(-1.0, overlap)) / d
    residual = tau - sigma * np.vdot(sigma, tau)
    res_norm = np.linalg.norm(residual)
    if res_norm < 1e-14:
        # tau equals sigma up to phase: eta = 0 and the chain is constant
        return InterpolationResult(tuple(sigma.copy() for _ in range(d - 1)), 1.0)
    perp = residual / res_norm
    states = tuple(math.cos(j * eta) * sigma + math.sin(j * eta) * perp for j in range(1, d))
    value = float(math.cos(eta) ** d)
    closed = float(math.cos(math.acos(min(1.0, abs(np.vdot(sigma, tau)))) / d) ** d)
    if abs(value - closed) > 1e-10:
        raise ValueError("interpolation product deviates from the closed form")
    return InterpolationResult(states, value)


def chain_product_value(sigma: np.ndarray, middles, tau: np.ndarray) -> float | np.ndarray:
    """|<sigma|m_1><m_1|m_2> .. <m_{d-1}|tau>| for an explicit chain.

    ``middles`` holds the d-1 middle states as rows; with shape
    ``(..., d-1, dim)`` it is a stack of chains, and the result is an array
    with one value per chain."""
    sigma = np.asarray(sigma, dtype=np.complex128).reshape(-1)
    tau = np.asarray(tau, dtype=np.complex128).reshape(-1)
    middles = np.asarray(middles, dtype=np.complex128)
    if middles.size == 0:  # d = 1
        middles = middles.reshape(0, sigma.size)
    batch = middles.shape[:-2]
    chain = np.concatenate(
        [np.broadcast_to(sigma, (*batch, 1, sigma.size)), middles, np.broadcast_to(tau, (*batch, 1, tau.size))],
        axis=-2,
    )
    value = np.prod(np.abs(np.sum(chain[..., :-1, :].conj() * chain[..., 1:, :], axis=-1)), axis=-1)
    return value if batch else float(value)


def check_cos_exp_inequality(resolution: int = 1_000_000, slack: float = 1e-12) -> bool:
    """cos r <= exp(-r^2/2) on [0, 1], checked on a uniform grid."""
    r = np.linspace(0.0, 1.0, resolution + 1)
    return bool(np.all(np.cos(r) <= np.exp(-0.5 * r * r) + slack))


def angular_triangle_check(trials: int, dim: int, rng: np.random.Generator, atol: float = 1e-9) -> bool:
    """Triangle inequality for the angular metric on random state triples.

    Each state is drawn as ``dim`` normal real parts, then ``dim`` imaginary
    parts, one triple after another, all in one call to ``rng``."""
    parts = rng.normal(size=(trials, 3, 2, dim))
    states = parts[..., 0, :] + 1j * parts[..., 1, :]
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    a, b, c = np.moveaxis(states, 1, 0)
    return bool(np.all(angular_distance(a, c) <= angular_distance(a, b) + angular_distance(b, c) + atol))


def generalized_markov_threshold(law: list[tuple[float, float]], a: float, delta: float) -> float:
    """Witness ``t`` in ``[a, a e^{1/delta - 1}]`` with ``P(X >= t) <= delta E[X] / t``.

    The law is a finite list of (value, probability) pairs with nonnegative
    values.  Candidates are the interval endpoints, the support points inside
    the interval, and points just above them; existence is guaranteed, so the
    scan always returns.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    if a <= 0.0:
        raise ValueError("a must be positive")
    values = np.array([v for v, _ in law], dtype=float)
    probs = np.array([p for _, p in law], dtype=float)
    if np.any(values < 0) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("law must be a probability distribution on nonnegative values")
    mean = float(values @ probs)
    b = a * math.exp(1.0 / delta - 1.0)
    candidates = {a, b}
    for v in values:
        if a <= v <= b:
            candidates.add(float(v))
            candidates.add(float(np.nextafter(v, np.inf)))
    for t in sorted(candidates):
        if not a <= t <= b:
            continue
        tail = float(probs[values >= t].sum())
        if tail * t <= delta * mean + 1e-12:
            return float(t)
    raise ValueError("no threshold found; the witness scan should always succeed")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError("duplicate edge")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class IndependentSetResult:
    best: frozenset[int]
    mean_size: float
    std_size: float
    trials: int
    degree_sum_bound: float  # sum_u 1/(deg(u)+1)
    turan_bound: float  # n / (avg_degree + 1)


def permutation_independent_set(
    g: Graph, rng: np.random.Generator, trials: int = 1000
) -> IndependentSetResult:
    """Independent sets from random permutations: keep every vertex ranked
    below all its neighbors.  The expected size is ``sum_u 1/(deg(u)+1)``,
    which is at least ``n/(avg_degree+1)``."""
    adj = g.neighbors()
    ranks = np.argsort(rng.random((trials, g.n)), axis=1).argsort(axis=1)
    chosen = np.ones((trials, g.n), dtype=bool)
    for u in range(g.n):
        if adj[u]:
            chosen[:, u] = ranks[:, u] < ranks[:, sorted(adj[u])].min(axis=1)
    sizes = chosen.sum(axis=1)
    best_row = int(np.argmax(sizes))
    best = frozenset(int(u) for u in np.flatnonzero(chosen[best_row]))
    deg = g.degrees()
    degree_sum = float(np.sum(1.0 / (deg + 1.0)))
    avg = float(deg.mean()) if g.n else 0.0
    return IndependentSetResult(
        best, float(sizes.mean()), float(sizes.std()), trials, degree_sum, g.n / (avg + 1.0)
    )


def is_independent(g: Graph, vertices) -> bool:
    vs = set(vertices)
    return not any(u in vs and v in vs for u, v in g.edges)


# ---------------------------------------------------------------------------
# depth-2 construction reduction


@dataclass(frozen=True)
class Depth2Construction:
    """Two layers of reflections applied to a mono-product input, with
    designated target wires; everything else is an ancilla."""

    num_qubits: int
    first_layer: tuple[RTensor, ...]
    second_layer: tuple[RTensor, ...]
    input_factors: tuple[LocalState, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.input_factors) != self.num_qubits:
            raise ValueError("need one input factor per wire")
        if not set(self.targets) <= set(range(self.num_qubits)):
            raise ValueError("targets out of range")
        for gates in (self.first_layer, self.second_layer):
            seen: set[int] = set()
            for g in gates:
                if seen & set(g.qubits):
                    raise ValueError("layer gates must act on disjoint wires")
                seen |= set(g.qubits)

    def ancillae(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.num_qubits) if q not in self.targets)

    def circuit(self) -> Circuit:
        return Circuit(
            self.num_qubits,
            (Layer(self.first_layer), Layer(self.second_layer)),
            self.targets,
        )

    def state(self) -> StateVector:
        return run(self.circuit(), product_state(list(self.input_factors)))


def construction_success(cons: Depth2Construction, goal: StateVector) -> float:
    """Probability that the targets measure to ``goal``."""
    return _target_projection_mass(cons.state(), cons.targets, goal.amplitudes)


def _target_projection_mass(state: StateVector, targets: tuple[int, ...], goal: np.ndarray) -> float:
    m = state.num_qubits
    amps = state.amplitudes.reshape([2] * m)
    perm = list(targets) + [q for q in range(m) if q not in targets]
    amps = np.transpose(amps, perm).reshape(1 << len(targets), -1)
    proj = goal.conj() @ amps
    return float(np.linalg.norm(proj) ** 2)


@dataclass(frozen=True)
class ReductionResult:
    construction: Depth2Construction
    success_probability: float
    steps: tuple[str, ...]


def _gate_on(gates: tuple[RTensor, ...], q: int) -> RTensor | None:
    return next((g for g in gates if q in g.qubits), None)


def _relabel(cons: Depth2Construction, removed: set[int]) -> Depth2Construction:
    alive = [q for q in range(cons.num_qubits) if q not in removed]
    pos = {q: i for i, q in enumerate(alive)}

    def remap(gates):
        return tuple(RTensor(tuple((pos[q], s) for q, s in g.factors)) for g in gates)

    return Depth2Construction(
        len(alive),
        remap(cons.first_layer),
        remap(cons.second_layer),
        tuple(cons.input_factors[q] for q in alive),
        tuple(pos[q] for q in cons.targets),
    )


def _measurement_branches(cons: Depth2Construction, owners: dict[int, RTensor], goal: StateVector):
    """Measure each wire of ``owners`` in the basis of its owner's factor on
    it, one outcome combination at a time.  Yields (prob, success,
    construction) for each outcome with probability at least 1e-15.

    Every gate of either layer follows one rule: a gate that the measured
    wires cover drops in every branch; any other gate they touch keeps its
    unmeasured factors when each of its measured wires matched, and drops
    otherwise.  Outcomes run in lexicographic order, all matches first.
    """
    def measure(gates, match):
        kept = []
        for g in gates:
            touched = [q for q in g.qubits if q in match]
            rest = tuple((q, s) for q, s in g.factors if q not in match)
            if not touched:
                kept.append(g)
            elif rest and all(match[q] for q in touched):
                kept.append(RTensor(rest))
        return tuple(kept)

    state = cons.state()
    wires = tuple(sorted(owners))
    bases = {q: dict(owners[q].factors)[q] for q in wires}
    for combo in range(1 << len(wires)):
        match = {q: (combo >> (len(wires) - 1 - i)) & 1 == 0 for i, q in enumerate(wires)}
        outcome = product_state([bases[q] if match[q] else bases[q].complement() for q in wires])
        prob = _target_projection_mass(state, wires, outcome.amplitudes)
        if prob < 1e-15:
            continue
        first, second = measure(cons.first_layer, match), measure(cons.second_layer, match)
        reduced = _relabel(
            Depth2Construction(cons.num_qubits, first, second, cons.input_factors, cons.targets), set(wires)
        )
        yield prob, construction_success(reduced, goal), reduced


def reduce_depth2_construction(cons: Depth2Construction, goal: StateVector) -> ReductionResult:
    """Measure out ancillae until every ancilla is acted on by both layers and
    every gate acts on a target, never decreasing the probability that the
    targets measure to ``goal``.

    Each step either deletes an untouched ancilla, deletes a second-layer
    gate without targets, or measures wires by the rule of
    ``_measurement_branches`` and keeps the best branch.  The measured wires
    are an ancilla held only by the first layer, in that gate's basis; an
    ancilla held only by the second layer, in that gate's basis; or, once no
    such ancilla is left, the wires of a target-free first-layer gate, in the
    bases of the second-layer gates on them.  Averaging over branches
    reproduces the pre-measurement probability, so the best branch can not
    be worse.  Branch ties break toward the lexicographically first outcome.
    """
    if goal.num_qubits != len(cons.targets):
        raise ValueError("goal must live on the target wires")
    if cons.num_qubits > 14:
        raise ValueError("reduction is desk-scale: at most 14 wires")
    steps: list[str] = []
    current = cons
    baseline = construction_success(current, goal)
    while True:
        targets = set(current.targets)
        anc = current.ancillae()
        acted_first = {q for g in current.first_layer for q in g.qubits}
        acted_second = {q for g in current.second_layer for q in g.qubits}
        untouched = [q for q in anc if q not in acted_first and q not in acted_second]
        only_first = [q for q in anc if q in acted_first and q not in acted_second]
        only_second = [q for q in anc if q in acted_second and q not in acted_first]
        idle_second = [g for g in current.second_layer if not set(g.qubits) & targets]
        idle_first = [g for g in current.first_layer if not set(g.qubits) & targets]
        if untouched:
            current = _relabel(current, {untouched[0]})
            steps.append(f"dropped untouched ancilla {untouched[0]}")
            continue
        if only_first:
            q = only_first[0]
            owners = {q: _gate_on(current.first_layer, q)}
            step = f"measured ancilla {q} in its first-layer basis"
        elif only_second:
            q = only_second[0]
            owners = {q: _gate_on(current.second_layer, q)}
            step = f"measured ancilla {q} in its second-layer basis"
        elif idle_second:
            current = Depth2Construction(
                current.num_qubits,
                current.first_layer,
                tuple(g for g in current.second_layer if g is not idle_second[0]),
                current.input_factors,
                current.targets,
            )
            steps.append("removed a second-layer gate without targets")
            continue
        elif idle_first:
            owners = {q: _gate_on(current.second_layer, q) for q in idle_first[0].qubits}
            step = f"measured the {len(owners)} wires of a target-free first-layer gate"
        else:
            break
        best = None
        for _, success, reduced in _measurement_branches(current, owners, goal):
            if best is None or success > best[0] + 1e-12:
                best = (success, reduced)
        current = best[1]
        steps.append(step)
    final = construction_success(current, goal)
    if final < baseline - 1e-9:
        raise ValueError("reduction decreased the construction's success probability")
    return ReductionResult(current, final, tuple(steps))

