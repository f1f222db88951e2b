"""Spans around qackit's public calls, for the benchmark's traced run.

``instrument`` swaps every reference to a traced function in the loaded
``qackit`` modules for a wrapper that records a span, so calls between
modules (``cli`` into ``sampling``, ``sampling`` into ``nekomata``,
``analysis`` into ``statevec``) nest.  Spans live in memory and are written
out when the run ends.  A module's self time is the time inside its spans
minus the time inside their child spans.

Spanned are the public functions of ``serial``, ``nekomata``, ``transforms``,
``statevec``, ``sampling`` and ``analysis``, the four ``ir`` entry points
(``validate``, ``size``, ``depth``, ``topology``), the verify suites of
``cli``, and ``sampling._eval_classical``, which ``cli`` calls directly.  The
``ir`` constructors and ``support`` run per gate inside other modules and are
not spanned; their time counts toward the caller.

``statevec.run`` is replayed one circuit layer at a time through the real
``statevec.run``, one span per layer named after its gate kind; a layer that
mixes kinds is split into consecutive single-kind runs, which applies the
gates in the same order.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import groupby

TRACED_MODULES = ("serial", "nekomata", "transforms", "statevec", "sampling", "analysis")
IR_ENTRY_POINTS = ("validate", "size", "depth", "topology")
MODULES = ("ir", "serial", "nekomata", "transforms", "statevec", "sampling", "analysis", "cli")
GATE_KINDS = ("one_qubit", "toffoli", "or", "rtensor")
BYTES_PER_AMPLITUDE = 32  # one complex128 read and one written per amplitude per gate

# per-layer metric -> span names whose outermost inclusive time it sums
TIMED = {
    **{f"statevec.{k}_s": (f"statevec.layer.{k}",) for k in GATE_KINDS},
    "statevec.run_s": ("statevec.run",),
    "statevec.unitary_s": ("statevec.unitary",),
    "statevec.measure_s": ("statevec.measurement_distribution", "statevec.best_nekomata_fidelity"),
    "ir.validate_s": ("ir.validate",),
    "serial.serialize_s": ("serial.serialize",),
    "serial.deserialize_s": ("serial.deserialize",),
    "nekomata.build_s": ("nekomata.build_depthd_nekomata", "nekomata.build_depth2_nekomata"),
    "nekomata.classify_s": ("nekomata.classify",),
    "transforms.construct_s": (
        "transforms.fanout_tree",
        "transforms.cat_from_restricted_fanout",
        "transforms.parity_from_nekomata",
    ),
    "transforms.normal_form_s": ("transforms.to_rtensor_normal_form",),
    "sampling.direct_s": ("sampling.sample_mostly_classical_batch",),
    "sampling.factorized_s": ("sampling.factorized_sample_batch",),
    "sampling.hamming_stats_s": ("sampling.hamming_stats",),
    **{
        f"cli.verify.{s.replace('-', '_')}_s": (f"cli.verify.{s}",)
        for s in ("projections", "metric", "markov", "turan", "depth2-reduce")
    },
}
COUNTED = (
    *(f"statevec.gates.{k}" for k in GATE_KINDS),
    "statevec.gate_amps",
    "statevec.bytes_computed",
    "ir.validate_gates",
    "serial.json_bytes",
    "sampling.trials",
    "sampling.factorized_draws",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    detail: str | None = None


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, detail: str | None = None):
        rec = Span(len(self.spans), name, 0.0, 0.0, self._open[-1] if self._open else None, self.pass_id, detail)
        self.spans.append(rec)
        self._open.append(rec.id)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# instrumentation


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


_KIND_OF_CLASS = {"OneQubit": "one_qubit", "Toffoli": "toffoli", "Or": "or", "RTensor": "rtensor"}


def _gate_kind(g) -> str:
    return _KIND_OF_CLASS[type(g).__name__]


def _count_gates(counts: Counter, circ, amps_per_gate: int) -> None:
    gates = [g for lay in circ.layers for g in lay.gates]
    for g in gates:
        counts[f"statevec.gates.{_gate_kind(g)}"] += 1
    counts["statevec.gate_amps"] += amps_per_gate * len(gates)


def _count_validate(counts, args, kwargs, result):
    counts["ir.validate_gates"] += sum(len(lay.gates) for lay in _arg(args, kwargs, 0, "c").layers)


def _count_serialize(counts, args, kwargs, result):
    counts["serial.json_bytes"] += len(result.encode())


def _count_deserialize(counts, args, kwargs, result):
    counts["serial.json_bytes"] += len(_arg(args, kwargs, 0, "text").encode())


def _count_unitary(counts, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c")
    _count_gates(counts, c, 1 << (2 * c.num_qubits))


def _count_apply_gate(counts, args, kwargs, result):
    counts[f"statevec.gates.{_gate_kind(_arg(args, kwargs, 1, 'g'))}"] += 1
    counts["statevec.gate_amps"] += 1 << result.num_qubits


def _count_direct(counts, args, kwargs, result):
    counts["sampling.trials"] += _arg(args, kwargs, 1, "trials")


def _count_factorized(counts, args, kwargs, result):
    counts["sampling.factorized_draws"] += _arg(args, kwargs, 1, "trials")


# span name -> function adding the call's exact counts
COUNTERS = {
    "ir.validate": _count_validate,
    "serial.serialize": _count_serialize,
    "serial.deserialize": _count_deserialize,
    "statevec.unitary": _count_unitary,
    "statevec.apply_gate": _count_apply_gate,
    "sampling.sample_mostly_classical_batch": _count_direct,
    "sampling.factorized_sample_batch": _count_factorized,
}


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return traced


def _replay_run(tracer: Tracer, run):
    """``statevec.run`` replayed one single-kind layer at a time."""
    from qackit.ir import Circuit, Layer

    @functools.wraps(run)
    def traced(c, state):
        with tracer.span("statevec.run"):
            _count_gates(tracer.counts, c, 1 << c.num_qubits)
            if not c.layers:
                return run(c, state)
            for k, lay in enumerate(c.layers):
                for kind, gates in groupby(lay.gates, key=_gate_kind):
                    gates = tuple(gates)
                    with tracer.span(f"statevec.layer.{kind}", f"layer {k}, {len(gates)} gates"):
                        state = run(Circuit(c.num_qubits, (Layer(gates),), c.targets), state)
            return state

    return traced


def _traced_functions() -> dict[str, object]:
    """Span name -> the original function it wraps."""
    import qackit  # noqa: F401  (loads every module)

    found = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"qackit.{short}"]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                found[f"{short}.{attr}"] = fn
    ir = sys.modules["qackit.ir"]
    found.update({f"ir.{attr}": getattr(ir, attr) for attr in IR_ENTRY_POINTS})
    found["sampling.eval_classical"] = sys.modules["qackit.sampling"]._eval_classical
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Route every qackit call of interest through ``tracer`` while active."""
    from qackit import cli

    wrappers = {}
    for name, fn in _traced_functions().items():
        if name == "statevec.run":
            wrappers[id(fn)] = (fn, _replay_run(tracer, fn))
        else:
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, COUNTERS.get(name)))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "qackit" and not modname.startswith("qackit."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))
    suites = dict(cli.SUITES)
    cli.SUITES.update({s: _wrap(tracer, f"cli.verify.{s}", fn) for s, fn in suites.items()})
    try:
        yield tracer
    finally:
        cli.SUITES.update(suites)
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# per-layer numbers of one traced pass


def _outermost(spans: list[Span], names: tuple[str, ...]) -> float:
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer number of one traced pass; commands are the root spans."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {name: _outermost(spans, names) for name, names in TIMED.items()}
    for m in MODULES:
        out[f"{m}.self_s"] = sum((t for s, t in zip(spans, own) if module_of(s.name) == m), 0.0)
    out["cli.overhead_s"] = sum((t for s, t in zip(spans, own) if s.parent is None), 0.0)
    counts = dict(tracer.counts)
    counts["statevec.bytes_computed"] = BYTES_PER_AMPLITUDE * counts.get("statevec.gate_amps", 0)
    out.update({name: counts.get(name, 0) for name in COUNTED})
    out["trace.spans"] = len(spans)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric in ("statevec.bytes_computed", "serial.json_bytes") else "count"


def command_accounts(tracer: Tracer) -> list[tuple[str, float, dict[str, float]]]:
    """(command, traced time, module -> self time inside it) per root span."""
    spans = tracer.spans
    own = self_times(spans)
    root = [0] * len(spans)
    for s in spans:  # parents precede children
        root[s.id] = s.id if s.parent is None else root[s.parent]
    accounts = []
    for s in spans:
        if s.parent is None:
            by_module: Counter = Counter()
            for t, r in zip(spans, root):
                if r == s.id:
                    by_module[module_of(t.name)] += own[t.id]
            accounts.append((s.name, s.end - s.start, dict(by_module)))
    return accounts
