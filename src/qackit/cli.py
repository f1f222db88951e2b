"""Command-line front end.

Subcommands: ``build {nekomata|fanout-tree|parity-from-nekomata|cat}``,
``transform {normal-form|lower|hadamard-conjugate}``, ``simulate``,
``sample``, ``verify``, ``info``.  Exit codes: 0 success, 1 validation or
runtime error, 2 usage error.  Every run that writes files also writes a
``<out>.manifest.json`` recording the command line, seed, version, input and
output digests, and wall-clock time.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

import qackit

from . import nekomata, sampling, serial, statevec, transforms
from .ir import Circuit, depth, size, topology, validate
from .rng import substream
from .verify import SUITES


class CliError(Exception):
    pass


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then move it there.
    A failure removes the temporary file and names ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from None


class Manifest:
    def __init__(self, argv: list[str], seed: int | None):
        self.argv = argv
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.started = time.monotonic()

    def read_input(self, path: str) -> str:
        with open(path, "rb") as f:
            data = f.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return data.decode()

    def write_output(self, path: str, text: str) -> None:
        data = text.encode()
        _atomic_write(path, data)
        self.outputs[path] = hashlib.sha256(data).hexdigest()

    def finalize(self) -> None:
        if not self.outputs:
            return
        doc = {
            "command": self.argv,
            "seed": self.seed,
            "version": qackit.__version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_clock_seconds": round(time.monotonic() - self.started, 6),
        }
        first_out = next(iter(self.outputs))
        _atomic_write(first_out + ".manifest.json", (json.dumps(doc, indent=2) + "\n").encode())


def _load_circuit(manifest: Manifest, path: str) -> Circuit:
    c = serial.deserialize(manifest.read_input(path))
    problems = validate(c)
    if problems:
        raise CliError("invalid circuit:\n  " + "\n  ".join(problems))
    return c


def _cmd_build(args, manifest: Manifest) -> int:
    if args.what == "nekomata":
        n = args.n
        core_n = nekomata.core_targets(n, args.depth)
        columns = args.columns if args.columns is not None else nekomata.choose_columns(
            core_n, args.epsilon
        )
        bias = args.bias if args.bias is not None else nekomata.solve_bias(core_n, columns)
        circ = nekomata.build_depthd_nekomata(n, args.depth, args.epsilon, columns=columns, bias=bias)
        manifest.write_output(args.out, serial.serialize(circ))
        if args.report:
            params = nekomata.GridParams(core_n, columns, bias)
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
    elif args.what in ("fanout-tree", "cat"):
        circ = transforms.fanout_tree(args.n, args.m)
        if args.what == "cat":
            circ = transforms.cat_from_restricted_fanout(circ, args.n)
            circ = Circuit(circ.num_qubits, circ.layers, tuple(range(args.n)))
        manifest.write_output(args.out, serial.serialize(circ))
    elif args.what == "parity-from-nekomata":
        circ = transforms.parity_from_nekomata(_load_circuit(manifest, args.constructor), args.n)
        manifest.write_output(args.out, serial.serialize(circ))
    print(f"wrote {args.out}")
    return 0


def _cmd_transform(args, manifest: Manifest) -> int:
    circ = _load_circuit(manifest, args.circuit)
    if args.what == "normal-form":
        out = transforms.to_rtensor_normal_form(circ)
    elif args.what == "lower":
        out = transforms.lower(circ)
    else:
        out = transforms.conjugate_by_hadamards(circ, args.n if args.n is not None else circ.num_qubits)
    problems = validate(out)
    if problems:
        raise CliError(f"{args.what} gives an invalid circuit:\n  " + "\n  ".join(problems))
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
    # the read bound is checked against its cap before anything is sampled or written
    read_r = sampling.classical_read_bound(circ) if args.summary else None
    samples = sampling.sample_mostly_classical_batch(circ, args.trials, substream(args.seed, 0), gate_sampler)
    manifest.write_output(args.out, _samples_csv(samples))
    if args.summary:
        stats = sampling.hamming_stats_of_samples(samples, read_r)
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


def _cmd_verify(args, manifest: Manifest) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"seed": args.seed, "suites": {}}
    all_passed = True
    for name in names:
        result = SUITES[name](args.seed)
        report["suites"][name] = result
        all_passed &= bool(result["passed"])
        print(f"{name}: {'pass' if result['passed'] else 'FAIL'}")
        if result["first_failing_instance"] is not None:
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


def _seed(text: str) -> int:
    """A ``--seed`` value; numpy's generators take only non-negative seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="qackit", description=__doc__)
    parser.add_argument("--version", action="version", version=qackit.__version__)
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
            "wires. Input i is paired with the constructor's i-th declared target "
            "(with wire i when it declares none)."
        ),
    )
    b_par.add_argument("--constructor", required=True)
    b_par.add_argument("--n", type=int, required=True)
    b_par.add_argument("--out", required=True)

    p_tr = sub.add_parser("transform", help="rewrite circuits")
    st = p_tr.add_subparsers(dest="what", required=True)
    for name in ("normal-form", "lower", "hadamard-conjugate"):
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
    p_sam.add_argument("--seed", type=_seed, required=True)
    p_sam.add_argument("--sampler", choices=("direct", "factorized"), default="direct")
    p_sam.add_argument("--out", required=True)
    p_sam.add_argument("--summary", default=None)

    p_ver = sub.add_parser("verify", help="randomized verification suites")
    p_ver.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p_ver.add_argument("--seed", type=_seed, default=0)
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
