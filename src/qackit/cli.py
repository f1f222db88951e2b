"""Command-line front end.

Subcommands: ``build {nekomata|fanout-tree|parity-from-nekomata|cat}``,
``transform {normal-form|expand-or|hadamard-conjugate}``, ``simulate``,
``sample``, ``verify``, ``info``.  Exit codes: 0 success, 1 validation or
runtime error, 2 usage error.  Every run that writes files also writes a
``<out>.manifest.json`` recording the command line, seed, version, input and
output digests, and wall-clock time.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import analysis, nekomata, sampling, serial, statevec, transforms
from .ir import Circuit, LocalState, RTensor, depth, size, topology, validate
from .rng import substream

__version__ = "0.1.0"


class CliError(Exception):
    pass


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


class Manifest:
    def __init__(self, argv: list[str], seed: int | None):
        self.argv = argv
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.started = time.monotonic()

    def read_input(self, path: str) -> str:
        with open(path) as f:
            text = f.read()
        self.inputs[path] = _sha256(path)
        return text

    def write_output(self, path: str, text: str) -> None:
        _atomic_write(path, text)
        self.outputs[path] = _sha256(path)

    def finalize(self) -> None:
        if not self.outputs:
            return
        doc = {
            "command": self.argv,
            "seed": self.seed,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_clock_seconds": round(time.monotonic() - self.started, 6),
        }
        first_out = next(iter(self.outputs))
        _atomic_write(first_out + ".manifest.json", json.dumps(doc, indent=2) + "\n")


def _load_circuit(manifest: Manifest, path: str) -> Circuit:
    c = serial.deserialize(manifest.read_input(path))
    problems = validate(c)
    if problems:
        raise CliError("invalid circuit:\n  " + "\n  ".join(problems))
    return c


def _cmd_build(args, manifest: Manifest) -> int:
    if args.what == "nekomata":
        n = args.n
        core_n = n if args.depth == 2 else max(1, -(-n // (1 << (args.depth - 2))))
        columns = args.columns if args.columns is not None else nekomata.choose_columns(
            core_n, args.epsilon
        )
        bias = args.bias if args.bias is not None else nekomata.solve_bias(core_n, columns)
        circ = nekomata.build_depthd_nekomata(
            n, args.depth, args.epsilon, columns=columns, bias=bias
        )
        manifest.write_output(args.out, serial.serialize(circ))
        if args.report:
            params = nekomata.GridParams(core_n, columns, bias, args.epsilon)
            bound = nekomata.impurity_bound(core_n, columns, bias)
            report = {
                "n": n,
                "depth": args.depth,
                "epsilon": args.epsilon,
                "core_targets": core_n,
                "columns": columns,
                "bias": bias,
                "residual": params.residual(),
                "impurity_union_bound": bound.union_bound,
                "impurity_relaxed_bound": bound.relaxed_bound,
            }
            manifest.write_output(args.report, json.dumps(report, indent=2) + "\n")
    elif args.what == "fanout-tree":
        circ = transforms.fanout_tree(args.n, args.m)
        manifest.write_output(args.out, serial.serialize(circ))
    elif args.what == "cat":
        circ = transforms.cat_from_restricted_fanout(transforms.fanout_tree(args.n, args.m), args.n)
        circ = Circuit(circ.num_qubits, circ.layers, tuple(range(args.n)))
        manifest.write_output(args.out, serial.serialize(circ))
    elif args.what == "parity-from-nekomata":
        constructor = _load_circuit(manifest, args.constructor)
        circ = transforms.parity_from_nekomata(constructor, args.n)
        manifest.write_output(args.out, serial.serialize(circ))
    print(f"wrote {args.out}")
    return 0


def _cmd_transform(args, manifest: Manifest) -> int:
    circ = _load_circuit(manifest, args.circuit)
    if args.what == "normal-form":
        out = transforms.to_rtensor_normal_form(circ)
    elif args.what == "expand-or":
        out = transforms.expand_or(circ)
    else:
        out = transforms.conjugate_by_hadamards(circ, args.n if args.n else circ.num_qubits)
    manifest.write_output(args.out, serial.serialize(out))
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args, manifest: Manifest) -> int:
    circ = _load_circuit(manifest, args.circuit)
    if args.compare:
        dev = statevec.max_unitary_difference(circ, _load_circuit(manifest, args.compare))
        print(f"max basis-input amplitude difference: {dev:.3e}")
        return 0
    if args.input:
        state = statevec.basis_state(circ.num_qubits, args.input)
    else:
        state = statevec.zero_state(circ.num_qubits)
    final = statevec.run(circ, state)
    if args.state_out:
        manifest.write_output(
            args.state_out, serial.state_to_json(final.num_qubits, final.amplitudes)
        )
    targets = circ.targets if circ.targets is not None else tuple(range(circ.num_qubits))
    dist = statevec.measurement_distribution(final, targets)
    print(f"target wires: {list(targets)}")
    for bits in sorted(dist.probs):
        print(f"  {bits}: {dist.probs[bits]:.12g}")
    if circ.targets is not None:
        report = statevec.best_nekomata_fidelity(final, circ.targets)
        print(
            f"all-zeros p={report.all_zeros_prob:.12g} all-ones q={report.all_ones_prob:.12g} "
            f"best nekomata fidelity={report.fidelity:.12g}"
        )
    return 0


def _samples_csv(samples: np.ndarray) -> str:
    """``trial,bitstring,hamming_weight`` rows of a (trials, n) 0/1 matrix,
    byte for byte what ``csv.writer`` writes, built without a per-row loop."""
    trials, n = samples.shape
    if n:
        bits = np.ascontiguousarray(samples + ord("0"), dtype=np.uint8).view(f"S{n}")[:, 0]
    else:
        bits = np.zeros(trials, dtype="S1")
    fields = (np.arange(trials).astype("S"), b",", bits, b",", samples.sum(axis=1).astype("S"), b"\r\n")
    rows = functools.reduce(np.char.add, fields)
    return "trial,bitstring,hamming_weight\r\n" + b"".join(rows.tolist()).decode()


def _cmd_sample(args, manifest: Manifest) -> int:
    circ = _load_circuit(manifest, args.circuit)
    gate_sampler = {
        "direct": sampling.direct_sample_batch,
        "factorized": sampling.factorized_sample_batch,
    }[args.sampler]
    samples = sampling.sample_mostly_classical_batch(circ, args.trials, substream(args.seed, 0), gate_sampler)
    manifest.write_output(args.out, _samples_csv(samples))
    if args.summary:
        stats = sampling.hamming_stats_of_samples(samples, sampling.classical_read_bound(circ))
        doc = {
            "seed": args.seed,
            "sampler": args.sampler,
            "trials": args.trials,
            "mean": stats.mean,
            "variance": stats.variance,
            "read_r": stats.read_r,
            "tails": [
                {
                    "epsilon": t.epsilon,
                    "upper_tail": t.upper_tail,
                    "lower_tail": t.lower_tail,
                    "bound": t.bound,
                }
                for t in stats.tails
            ],
        }
        manifest.write_output(args.summary, json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def _suite_report(seed: int, size_key: str, size: int, failures: list) -> dict:
    """Pass or fail, the suite's size, and the first failing instance with
    the seed that reproduces it."""
    return {
        "passed": not failures,
        size_key: size,
        "failures": len(failures),
        "seed": seed,
        "first_failing_instance": failures[0] if failures else None,
    }


def _suite_projections(seed: int) -> dict:
    rng = substream(seed, 10)
    failures = []
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
        if not analysis.check_projection_chain_bound(chain).holds:
            failures.append(trial)
    return _suite_report(seed, "trials", 500, failures)


def _suite_metric(seed: int) -> dict:
    rng = substream(seed, 11)
    triangle = analysis.angular_triangle_check(10_000, 8, rng)
    cos_exp = analysis.check_cos_exp_inequality()
    failures = [name for name, ok in (("triangle", triangle), ("cos_exp_grid", cos_exp)) if not ok]
    interp_ok = True
    for pair in range(5):
        sigma = rng.normal(size=8) + 1j * rng.normal(size=8)
        sigma /= np.linalg.norm(sigma)
        tau = rng.normal(size=8) + 1j * rng.normal(size=8)
        tau /= np.linalg.norm(tau)
        result = analysis.optimal_interpolation(sigma, tau, 5)
        maximal = True
        for _ in range(1000):
            middles = [
                (lambda v: v / np.linalg.norm(v))(rng.normal(size=8) + 1j * rng.normal(size=8))
                for _ in range(4)
            ]
            if analysis.chain_product_value(sigma, middles, tau) > result.product_value + 1e-10:
                maximal = False
        if not maximal:
            failures.append(f"interpolation pair {pair}")
        interp_ok &= maximal
    return {
        **_suite_report(seed, "interpolation_pairs", 5, failures),
        "triangle": triangle,
        "cos_exp_grid": cos_exp,
        "interpolation_maximal": interp_ok,
    }


def _suite_markov(seed: int) -> dict:
    rng = substream(seed, 12)
    checked = 0
    violations = 0
    first_failing = None
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
        if not a <= t <= a * np.exp(1.0 / delta - 1.0) * (1 + 1e-12):
            violations += 1
            if first_failing is None:
                first_failing = instance
        checked += 1
    return {
        "passed": violations == 0,
        "instances": checked,
        "violations": violations,
        "seed": seed,
        "first_failing_instance": first_failing,
    }


def _suite_turan(seed: int) -> dict:
    rng = substream(seed, 13)
    failures = []
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
        if not analysis.is_independent(g, result.best) or (
            result.mean_size < result.degree_sum_bound - 4 * sigma
        ):
            failures.append(graph)
    return _suite_report(seed, "graphs", 100, failures)


def _suite_depth2_reduce(seed: int) -> dict:
    rng = substream(seed, 14)
    failures = []
    for trial in range(20):
        cons, goal = _random_construction(rng)
        before = analysis.construction_success(cons, goal)
        result = analysis.reduce_depth2_construction(cons, goal)
        reduced = result.construction
        anc = set(reduced.ancillae())
        acted1 = {q for g in reduced.first_layer for q in g.qubits}
        acted2 = {q for g in reduced.second_layer for q in g.qubits}
        if result.success_probability < before - 1e-9 or not (anc <= acted1 and anc <= acted2):
            failures.append(trial)
    return _suite_report(seed, "instances", 20, failures)


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


SUITES = {
    "projections": _suite_projections,
    "metric": _suite_metric,
    "markov": _suite_markov,
    "turan": _suite_turan,
    "depth2-reduce": _suite_depth2_reduce,
}


def _cmd_verify(args, manifest: Manifest) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"seed": args.seed, "suites": {}}
    all_passed = True
    for name in names:
        result = SUITES[name](args.seed)
        report["suites"][name] = result
        all_passed &= bool(result["passed"])
        print(f"{name}: {'pass' if result['passed'] else 'FAIL'}")
        if result.get("first_failing_instance") is not None:
            print(f"  first failing instance {result['first_failing_instance']} (seed {args.seed})")
    if args.report:
        manifest.write_output(args.report, json.dumps(report, indent=2) + "\n")
    return 0 if all_passed else 1


def _cmd_info(args, manifest: Manifest) -> int:
    circ = _load_circuit(manifest, args.circuit)
    print(f"num_qubits={circ.num_qubits}")
    print(f"size={size(circ)}")
    print(f"depth={depth(circ)}")
    print(f"targets={list(circ.targets) if circ.targets is not None else None}")
    entries = sorted((k, sorted(s)) for s, k in topology(circ))
    print("topology:")
    for k, s in entries:
        print(f"  layer {k}: support {s}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qackit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit circuits")
    sb = p_build.add_subparsers(dest="what", required=True)
    b_nek = sb.add_parser("nekomata")
    b_nek.add_argument("--n", type=int, required=True)
    b_nek.add_argument("--depth", type=int, default=2)
    b_nek.add_argument("--epsilon", type=float, default=0.25)
    b_nek.add_argument("--columns", type=int, default=None)
    b_nek.add_argument("--bias", type=float, default=None)
    b_nek.add_argument("--out", required=True)
    b_nek.add_argument("--report", default=None)
    b_fan = sb.add_parser("fanout-tree")
    b_fan.add_argument("--n", type=int, required=True)
    b_fan.add_argument("--m", type=int, default=2)
    b_fan.add_argument("--out", required=True)
    b_cat = sb.add_parser("cat")
    b_cat.add_argument("--n", type=int, required=True)
    b_cat.add_argument("--m", type=int, default=2)
    b_cat.add_argument("--out", required=True)
    b_par = sb.add_parser(
        "parity-from-nekomata",
        help="parity circuit driven by a nekomata constructor",
        description=(
            "Parity circuit on n + a + 1 wires driven by a nekomata constructor on a "
            "wires. Input i is paired with constructor wire i; the constructor's "
            "declared targets are ignored. `build nekomata` puts its targets last "
            "(wires 6 and 7 at --n 2 --columns 3), so on its output the inputs pair "
            "with non-target wires; move the targets first with the Python API's "
            "permute_qubits."
        ),
    )
    b_par.add_argument("--constructor", required=True)
    b_par.add_argument("--n", type=int, required=True)
    b_par.add_argument("--out", required=True)

    p_tr = sub.add_parser("transform", help="rewrite circuits")
    st = p_tr.add_subparsers(dest="what", required=True)
    for name in ("normal-form", "expand-or", "hadamard-conjugate"):
        t = st.add_parser(name)
        t.add_argument("--circuit", required=True)
        t.add_argument("--out", required=True)
        if name == "hadamard-conjugate":
            t.add_argument("--n", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="exact state-vector simulation")
    p_sim.add_argument("--circuit", required=True)
    p_sim.add_argument("--input", default=None, help="basis input bits; default all zeros")
    p_sim.add_argument("--state-out", default=None)
    p_sim.add_argument("--compare", default=None, help="other circuit: print max unitary deviation")

    p_sam = sub.add_parser("sample", help="classical sampling of mostly-classical circuits")
    p_sam.add_argument("--circuit", required=True)
    p_sam.add_argument("--trials", type=int, required=True)
    p_sam.add_argument("--seed", type=int, required=True)
    p_sam.add_argument("--sampler", choices=("direct", "factorized"), default="direct")
    p_sam.add_argument("--out", required=True)
    p_sam.add_argument("--summary", default=None)

    p_ver = sub.add_parser("verify", help="randomized verification suites")
    p_ver.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--report", default=None)

    p_info = sub.add_parser("info", help="print structural metrics")
    p_info.add_argument("--circuit", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    manifest = Manifest(["qackit"] + argv, getattr(args, "seed", None))
    handlers = {
        "build": _cmd_build,
        "transform": _cmd_transform,
        "simulate": _cmd_simulate,
        "sample": _cmd_sample,
        "verify": _cmd_verify,
        "info": _cmd_info,
    }
    try:
        code = handlers[args.command](args, manifest)
    except (CliError, ValueError, serial.CircuitFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest.finalize()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
