"""Efficient classical sampling of standard-basis measurements of
mostly-classical circuits.

The key fact: measuring ``R_chi |0..0>`` for a product state ``chi`` with
one-wire probabilities ``p_j = |<1|chi_j>|^2`` yields all-zeros with
probability ``(1 - 2 prod_j (1 - p_j))^2`` and any other string ``y`` with
probability ``4 prod_j (1 - p_j) * prod_j p_j^{y_j} (1-p_j)^{1-y_j}``.
Standard-basis measurements commute with classical gates, so a
mostly-classical circuit is sampled by drawing each first-layer gate's output
bits and pushing them through the classical part.

``gate_law`` is the one place that reads a reflection's probabilities: it
drops the factors with ``p_j = 0`` and returns the others' positions and
``GateLaw`` (``p``, ``prod_q``, ``all_zeros`` and the min-rank polynomials).

``sample_mostly_classical_batch`` is the one sampling pipeline.  It keeps the
trials wire-major and bit-packed: a ``(num_qubits, ceil(trials/8))`` uint8
buffer holds one row per wire, trial ``t`` at bit ``7 - t % 8`` of byte
``t // 8``.  The first-layer gates are grouped once per call by their law:
reflections by their ``GateLaw`` (so the polynomials of equal gates are built
once), one-qubit gates by their one-rate ``|U_10|^2``.  Gate i of a group is
rows ``i*trials .. (i+1)*trials - 1`` of that law, and each slice of whole
gates is drawn in one call.  The per-gate law is a parameter with the
signature ``(law, rows, rng) -> (hit row indices, (hits, k) bits)``, and
every row not hit reads all-zeros: ``direct_sample_batch`` (the default)
draws from the closed form above, ``factorized_sample_batch`` through the
factorization below.  Only the set bits are written into the buffer, by
``np.bitwise_or.at`` (two trials can share a byte); ``_eval_classical`` then
applies the classical layers to whole rows (AND- or OR-reduce the control
rows into the target, flip the row for X), and only the target rows are
unpacked.  The trials run in chunks of whole bytes whose packed buffer holds
at most 32 MiB (one byte per wire at least); the (trials, targets) result and
one chunk are checked against ``MAX_SAMPLE_BYTES`` before anything is
allocated.

``factorized_sample_batch`` draws the same per-gate law through a
factorization.  A Bernoulli coin B is 1 with probability ``1 - all_zeros``;
a row with B = 0 reads all-zeros.  Otherwise J, the factor of minimal rank,
is drawn from the min-rank weights (``GateLaw.min_rank``), and M, the
minimum given J, by Newton's method on its conditional CDF
(``_invert_cdf``).  Factor J reads 1, and every other factor i draws a
survival threshold S_i and reads 1 when ``S_i <= p_i (1 - M) / (1 - p_i M)``.
Both samplers thus draw from the one closed-form law above.

Every per-row coin of the batch laws (the direct law's active or nonzero
rows, the factorized law's coin B, a first-layer one-qubit gate's output) is
drawn by ``_active_trials``: a Binomial(rows, r) count, then a uniform
subset of ``range(rows)`` of that size.  Given its size, a uniform subset has
the law of one independent Bernoulli(r) coin per row, so the laws are
unchanged, but random numbers are drawn only for the rows whose output can be
nonzero: a row with B = 0 draws nothing, whatever its J, M and S would have
been.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ir import Circuit, Layer, OneQubit, Or, RTensor, Toffoli, is_classical_gate, support

FACTORIZED_ARITY_CAP = 12
# Newton on the min-rank CDF: steps at or below NEWTON_TOL end the iteration
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 100
# cap on the (trials, targets) result
MAX_SAMPLE_BYTES = 1 << 28
# packed bytes of one trial chunk (whole bytes per wire, at least one):
# sampling 10^6 trials of the 90,372-wire grid on a 2-core Xeon, 32 MiB chunks
# peak at 186 MiB against 420 MiB for chunks of 256 MiB, and take 10.0 s
# against 11.3 s
_CHUNK_BYTES = 1 << 25
# rows of a first-layer law drawn per sampler call (whole gates, at least one)
_SLICE_ROWS = 1 << 18
# deviations eps of the Hamming-weight tails that ``hamming_stats_of_samples`` reports
_TAIL_EPSILONS = (0.05, 0.1, 0.2)


# ---------------------------------------------------------------------------
# exact per-gate law


@dataclass(frozen=True)
class GateLaw:
    """Measurement law of ``R_chi |0..0>`` over the factors that can read 1.

    ``p`` holds their one-probabilities, each in (0, 1]; ``prod_q`` is
    ``prod_j (1 - p_j)`` and ``all_zeros = (1 - 2 prod_q)^2``.  Laws with
    equal ``p`` are equal and hash alike."""

    p: tuple[float, ...]

    def __post_init__(self):
        # written as not (0 < x <= 1) so that NaN fails too
        if not all(0.0 < x <= 1.0 for x in self.p):
            raise ValueError(f"one-probabilities must lie in (0, 1], got {self.p}")

    @functools.cached_property
    def prod_q(self) -> float:
        return float(np.prod(1.0 - np.array(self.p)))

    @functools.cached_property
    def all_zeros(self) -> float:
        return (1.0 - 2.0 * self.prod_q) ** 2

    @functools.cached_property
    def min_rank(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-factor densities for the minimum of the rank variables.

        Factor j has rank 1 with probability 1-p_j and uniform on [0,1) with
        probability p_j.  The density of {rank_j is the strict minimum, value
        t} is ``p_j * prod_{i != j} (1 - p_i t)``, a polynomial in t whose
        coefficients are row j of ``coeffs``; the exact antiderivative
        ``anti`` gives both the selection ``weights`` (its value at 1) and the
        conditional CDF.  The arrays are read-only."""
        p = self.p
        k = len(p)
        coeffs = np.zeros((k, k))
        for j in range(k):
            poly = np.array([p[j]])
            for i in range(k):
                if i != j:
                    poly = np.convolve(poly, np.array([1.0, -p[i]]))
            coeffs[j, : len(poly)] = poly
        anti = coeffs / np.arange(1, k + 1)  # antiderivative coefficients for t^1..t^k
        weights = anti.sum(axis=1)  # integral over [0, 1)
        for arr in (coeffs, anti, weights):
            arr.flags.writeable = False
        return coeffs, anti, weights


# per-gate law: (law of a first-layer reflection, rows, rng) -> (hit row indices, (hits, k) bits)
GateSampler = Callable[[GateLaw, int, np.random.Generator], tuple[np.ndarray, np.ndarray]]


def gate_law(g: RTensor) -> tuple[tuple[int, ...], GateLaw]:
    """Positions of the factors of ``g`` that can read 1, and their law.

    A one-probability above 1 by rounding (a local state normalized only to
    within ``ir.ATOL``) is read as 1."""
    p = [min(st.one_probability(), 1.0) for st in g.states]
    kept = tuple(j for j, x in enumerate(p) if x > 0.0)
    return kept, GateLaw(tuple(p[j] for j in kept))


def _active_trials(rows: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of an i.i.d. Bernoulli(r) subset of ``range(rows)``.

    A Binomial(rows, r) count, then a uniform subset of that size, in no
    particular order: callers give every index the same i.i.d. draws.  ``r``
    is clipped to [0, 1] against rounding."""
    count = int(rng.binomial(rows, min(max(r, 0.0), 1.0)))
    return rng.choice(rows, size=count, replace=False, shuffle=False)


def direct_sample_batch(law: GateLaw, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` i.i.d. draws from the exact measurement law of ``R_chi |0..0>``,
    as the indices of the rows that may be nonzero and their (hits, k) bits."""
    k = len(law.p)
    if law.prod_q <= 0.25:
        # convex combination: all-zeros with prob 1 - 4 prod_q, else independent draws
        active = _active_trials(rows, 4.0 * law.prod_q, rng)
        return active, rng.random((active.size, k)) < law.p
    # inverse transform on the exact law, rejecting all-zero conditional draws
    pending = _active_trials(rows, 1.0 - law.all_zeros, rng)
    hits, bits = [pending[:0]], [np.zeros((0, k), dtype=bool)]
    while pending.size:
        draws = rng.random((pending.size, k)) < law.p
        hit = draws.any(axis=1)
        hits.append(pending[hit])
        bits.append(draws[hit])
        pending = pending[~hit]
    return np.concatenate(hits), np.concatenate(bits)


# ---------------------------------------------------------------------------
# classical evaluation on packed rows


def _eval_classical(layers, bits: np.ndarray) -> np.ndarray:
    """Apply classical layers in place to ``bits``, one packed row per wire.

    Toffoli XORs the AND of its control rows into the target row, Or the OR,
    and X flips every byte of its row, so the padding bits past the last trial
    carry garbage that unpacking with ``count`` drops."""
    for lay in layers:
        for g in lay.gates:
            if isinstance(g, Toffoli):
                bits[g.target] ^= np.bitwise_and.reduce(bits[list(g.controls)], axis=0)
            elif isinstance(g, Or):
                bits[g.target] ^= np.bitwise_or.reduce(bits[list(g.controls)], axis=0)
            elif is_classical_gate(g):
                bits[g.qubit] ^= 0xFF
            else:
                raise ValueError(f"non-classical gate {type(g).__name__} in classical evaluation")
    return bits


def _require_mostly_classical(c: Circuit) -> None:
    """Raise unless every gate after the first layer is classical: qackit's
    one statement of the paper's mostly-classical rule."""
    if not all(is_classical_gate(g) for lay in c.layers[1:] for g in lay.gates):
        raise ValueError("circuit is not mostly classical")


def _first_layer_groups(lay: Layer) -> dict[GateLaw | float, np.ndarray]:
    """The first-layer gates that can output a 1, grouped by law: each
    reflection's ``GateLaw``, or a one-qubit gate's one-rate, maps to the
    (gates, k) wires its gates' draws are written to, in layer order, as
    int32 (the wire cap keeps every wire below 2^20)."""
    groups: dict[GateLaw | float, list[int]] = {}
    # gate_law runs once per distinct tuple of states, keyed by identity: a
    # loaded or built grid shares one LocalState per distinct state
    laws: dict[tuple[int, ...], tuple[tuple[int, ...], GateLaw]] = {}
    for g in lay.gates:
        if isinstance(g, RTensor):
            key = tuple(map(id, g.states))
            if key not in laws:
                laws[key] = gate_law(g)
            kept, law = laws[key]
            if kept:
                groups.setdefault(law, []).extend(g.factors[j][0] for j in kept)
        elif isinstance(g, OneQubit):
            groups.setdefault(float(abs(g.matrix[1, 0]) ** 2), []).append(g.qubit)
        elif not isinstance(g, (Toffoli, Or)):  # a classical gate on all-zeros input leaves zeros
            raise ValueError(f"unsupported first-layer gate {type(g).__name__}")
    return {
        law: np.array(wires, dtype=np.int32).reshape(-1, len(law.p) if isinstance(law, GateLaw) else 1)
        for law, wires in groups.items()
    }


def _sample_first_layer(
    groups: dict[GateLaw | float, np.ndarray],
    bits: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    gate_sampler: GateSampler,
) -> None:
    """Set the packed bits of the first layer's draws on all-zeros input.

    Gate i of a group is rows ``i*trials .. (i+1)*trials - 1`` of its law,
    drawn in one call per slice of whole gates of about ``_SLICE_ROWS``
    rows.  Only set bits are written, with ``bitwise_or.at`` because two
    trials can share a byte."""
    per_call = max(1, _SLICE_ROWS // trials)
    for law, wires in groups.items():
        for lo in range(0, len(wires), per_call):
            w = wires[lo : lo + per_call]
            if isinstance(law, GateLaw):
                hits, draws = gate_sampler(law, len(w) * trials, rng)
                row, j = np.nonzero(draws)
                hits = hits[row]
            else:
                hits, j = _active_trials(len(w) * trials, law, rng), 0
            t = hits % trials
            np.bitwise_or.at(bits, (w[hits // trials, j], t >> 3), (0x80 >> (t & 7)).astype(np.uint8))


def sample_mostly_classical_batch(
    c: Circuit, trials: int, rng: np.random.Generator, gate_sampler: GateSampler = direct_sample_batch
) -> np.ndarray:
    """(trials, n_targets) samples of the target measurement of C|0..0>.

    ``gate_sampler(law, rows, rng)`` draws ``rows`` i.i.d. outputs of a
    first-layer reflection's ``GateLaw`` (see ``gate_law``) as the indices of
    the rows that may be nonzero and their bits.  Trials run in chunks of
    whole bytes whose packed buffer holds at most ``_CHUNK_BYTES`` (one byte
    per wire at least)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n_targets = len(c.targets) if c.targets is not None else c.num_qubits
    need = trials * n_targets
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{trials} trials on {c.num_qubits} wires need {need} bytes, over the {MAX_SAMPLE_BYTES}-byte cap"
        )
    _require_mostly_classical(c)
    targets = list(c.targets) if c.targets is not None else list(range(c.num_qubits))
    groups = _first_layer_groups(c.layers[0]) if c.layers else {}
    per_wire = max(1, _CHUNK_BYTES // c.num_qubits)
    chunk = 8 * min(-(-trials // 8), per_wire)
    out = np.empty((trials, n_targets), dtype=np.uint8)
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        bits = np.zeros((c.num_qubits, -(-n // 8)), dtype=np.uint8)
        _sample_first_layer(groups, bits, n, rng, gate_sampler)
        _eval_classical(c.layers[1:], bits)
        out[start : start + n] = np.unpackbits(bits[targets], axis=1, count=n).T
    return out


# ---------------------------------------------------------------------------
# factorized gate sampler


def _invert_cdf(anti, density, target):
    """Newton's method for the ``m`` in [0, 1] with ``F(m) = target``, one per
    entry of the array ``target``.

    ``F(t) = sum_i anti[i] t^(i+1)`` and ``F'(t) = sum_i density[i] t^i`` are
    evaluated by Horner on coefficient columns: ``anti[i]`` and ``density[i]``
    hold coefficient i for every target.  ``F' = p_J prod_{i != J} (1 - p_i t)``
    is positive and decreasing on [0, 1), so F is increasing and concave, every
    tangent lies above it, and Newton from 0 rises to the root without
    overshooting.  Against rounding, steps are clipped to [0, 1 - t] and a
    non-positive F' (only near t = 1) counts as F' + 1.  A trial is done after
    its first step at or below ``NEWTON_TOL`` and stays frozen while its batch
    finishes."""
    t = 0.0 * target
    live = t + 1.0
    for _ in range(NEWTON_MAX_STEPS):
        f, d = anti[-1], density[-1]
        for a, c in zip(anti[-2::-1], density[-2::-1]):
            f = f * t + a
            d = d * t + c
        step = (target - f * t) / (d + (d <= 0.0))
        room = 1.0 - t
        step = step * (step > 0.0) * (step <= room) + room * (step > room)
        t = t + step * live
        live = live * (step > NEWTON_TOL)
        if not live.any():
            return t
    raise ValueError(f"min-rank CDF inversion did not converge in {NEWTON_MAX_STEPS} Newton steps")


def factorized_sample_batch(law: GateLaw, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` i.i.d. draws from the same law as ``direct_sample_batch``,
    through the factorization B, J, M, S of the module docstring, returned in
    the same sparse form.  Raises ``ValueError`` above ``FACTORIZED_ARITY_CAP``
    factors."""
    k = len(law.p)
    if k > FACTORIZED_ARITY_CAP:
        raise ValueError(f"arity {k} over the factorized sampler cap")
    # a row with B = 0 outputs all-zeros whatever J, M and S are, so they are
    # drawn only for the rows whose B is 1
    on = _active_trials(rows, 1.0 - law.all_zeros, rng)
    if k == 1:
        return on, np.ones((on.size, 1), dtype=bool)
    coeffs, anti, weights = law.min_rank
    cum = np.cumsum(weights)
    j_on = np.searchsorted(cum / cum[-1], rng.random(on.size), side="right").clip(0, k - 1)
    u = rng.random(on.size)
    s = rng.random((on.size, k))
    m_val = _invert_cdf(anti.T[:, j_on], coeffs.T[:, j_on], u * weights[j_on])
    p = np.array(law.p)
    surv = p[None, :] * (1.0 - m_val[:, None]) / (1.0 - p[None, :] * m_val[:, None])
    return on, (s <= surv) | (np.arange(k)[None, :] == j_on[:, None])


# ---------------------------------------------------------------------------
# concentration statistics


@dataclass(frozen=True)
class TailEntry:
    epsilon: float
    upper_tail: float
    lower_tail: float
    bound: float


@dataclass(frozen=True)
class HammingStats:
    trials: int
    num_targets: int
    read_r: int
    mean: float
    variance: float
    tails: tuple[TailEntry, ...]


def classical_read_bound(c: Circuit) -> int:
    """Structural read of the target bits as functions of the first-layer
    outputs: the most targets that one first-layer gate which is not
    classical can reach through ``c.layers[1:]``, and at least 1.

    One backward pass maps each wire to a bitmask of the targets it can reach
    (every wire is a target when ``c.targets`` is None): a Toffoli or Or ORs
    its target's mask into each control's.  A gate reaches the OR of its
    wires' masks.  A gate's bits can change only targets it reaches, so the
    bound is never below the true read.  The masks hold at most
    ``num_qubits * targets`` bits, which is checked against
    ``8 * MAX_SAMPLE_BYTES`` first."""
    _require_mostly_classical(c)
    targets = c.targets if c.targets is not None else range(c.num_qubits)
    bits = c.num_qubits * len(targets)
    if bits > 8 * MAX_SAMPLE_BYTES:
        raise ValueError(f"the read bound's masks need up to {bits} bits, over the {8 * MAX_SAMPLE_BYTES}-bit cap")
    reach = [0] * c.num_qubits
    for i, t in enumerate(targets):
        reach[t] |= 1 << i
    for lay in reversed(c.layers[1:]):
        for g in lay.gates:
            if isinstance(g, (Toffoli, Or)):
                for q in g.controls:
                    reach[q] |= reach[g.target]
    read = 1
    for g in c.layers[0].gates if c.layers else ():
        if not is_classical_gate(g):
            mask = 0
            for q in support(g):
                mask |= reach[q]
            read = max(read, mask.bit_count())
    return read


def hamming_stats_of_samples(samples: np.ndarray, read_r: int) -> HammingStats:
    """Hamming-weight statistics of a ``(trials, targets)`` 0/1 sample matrix,
    with tails at each eps of ``_TAIL_EPSILONS`` compared against
    ``exp(-2 eps^2 n / read_r)``."""
    trials, n = samples.shape
    weights = samples.sum(axis=1)
    mean = float(weights.mean())
    variance = float(weights.var())
    tails = []
    for eps in _TAIL_EPSILONS:
        bound = math.exp(-2.0 * eps * eps * n / read_r)
        upper = float(np.mean(weights >= mean + eps * n))
        lower = float(np.mean(weights <= mean - eps * n))
        tails.append(TailEntry(eps, upper, lower, bound))
    return HammingStats(trials, n, read_r, mean, variance, tuple(tails))
