"""Command-line front door.

Every subcommand writes one deterministic pretty-printed JSON report
(stdout by default, or the file named by its output flag) carrying
``"blochx_schema": 1`` and a ``generated_at`` timestamp, the one field
excluded from golden comparisons.  Exit codes: 0 success, 1 usage error,
2 numerical validation failure.  ``generators --n``, the spin flags and
composites refuse Hilbert space dimensions above 64 (the generators report
holds N^4 entries, and the eigenstate simplex N (N^2 - 1) vertex floats) as
usage errors before anything is built; ``bloch --state`` files set no such
limit.  ``verify`` refuses more than 1,000,000 ``--trials``, and ``measure``
more than 1,000 ``--trajectory-steps``, the same way.  A ``--state`` file
holds a ``matrix`` of shape (N, N, 2) or an integer ``n`` with ``coords``,
numbers only; anything else is a usage error.  The
generators report is written one member at a time as it is formatted, from
the index arithmetic of the generator set, so its memory stays O(N^2)
however large the report; every other report is formatted whole, then
written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import serialize
from .bloch import (BlochVector, DensityState, _projectors, bloch_to_operator,
                    is_state, purity, state_to_bloch)
from .composite import build_composite, coupled_basis, product_basis
from .correspondence import (direction_scale_composite, direction_scale_single,
                             eigenstate_projections, isomorphism_sweep,
                             space_vector_composite, space_vector_single,
                             v_overlap_with_extremal)
from .generators import GeneratorSet, build_generators
from .linalg import ValidationError
from .measurement import approach_trajectory, run_measurement, simplex_from_observable
from .spin import X1, X2, X3, Direction3, build_spin_system, check_spin, spin_along

SCHEMA_VERSION = 1
SEED_ENV_VAR = "BLOCHX_SEED"
DEFAULT_ISO_TOLERANCE = 1e-9
SPACING_TOLERANCE = 1e-10
AGREEMENT_TOLERANCE = 1e-10
MAX_DIM = 64
MAX_TRIALS = 1_000_000  # verify keeps about 56 B per trial, so this bounds its run time
MAX_TRAJECTORY_STEPS = 1_000  # a row holds N^2 numbers: about 95 MB of CSV at N=64


class UsageError(Exception):
    """Bad flags or malformed inputs; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _spin_dim(s: float) -> int:
    return int(round(2 * s)) + 1


def _refuse_above_limit(dim: int, subject: str, error: type[Exception]) -> None:
    """Raise ``error`` for a Hilbert space dimension above MAX_DIM."""
    if dim > MAX_DIM:
        raise error(f"{subject} dimension {dim}, above the limit of {MAX_DIM}")


def _parse_spin_flag(text: str) -> float:
    try:
        s = check_spin(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid spin: {text!r}")
    _refuse_above_limit(_spin_dim(s), f"spin {text} has", argparse.ArgumentTypeError)
    return s


def _parse_direction_flag(text: str) -> Direction3:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated reals, got {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three comma-separated reals, got {text!r}")
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"components must be finite, got {text!r}")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise argparse.ArgumentTypeError("direction must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: normalizing direction {text} (norm {norm:.6g})", file=sys.stderr)
    return Direction3.normalized(vec)


def _parse_seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r}")
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _trials_flag(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"{value} trials is above the limit of {MAX_TRIALS}")
    return value


def _dimension_flag(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"dimension must be at least 2, got {value}")
    if value > MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension {value} is above the limit of {MAX_DIM}")
    return value


def _steps_flag(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 steps, got {value}")
    if value > MAX_TRAJECTORY_STEPS:
        raise argparse.ArgumentTypeError(f"{value} steps is above the limit of {MAX_TRAJECTORY_STEPS}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="blochx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators", help="emit the ordered generator basis for N")
    p.add_argument("--n", type=_dimension_flag, required=True,
                   help=f"Hilbert space dimension (2 to {MAX_DIM})")
    p.add_argument("--json", dest="output", default=None, help="output path (default stdout)")

    p = sub.add_parser("bloch", help="convert between operator-states and coordinate vectors")
    p.add_argument("--state", required=True, help="input state file (matrix or vector JSON)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--to-vector", action="store_true", help="force matrix -> vector")
    mode.add_argument("--to-matrix", action="store_true", help="force vector -> matrix")
    p.set_defaults(output=None)

    p = sub.add_parser("spin", help="emit a directional spin observable")
    p.add_argument("--s", type=_parse_spin_flag, required=True, help="spin magnitude (half-integer)")
    p.add_argument("--direction", type=_parse_direction_flag, required=True,
                   help="spatial direction as three comma-separated reals")
    p.add_argument("--emit", dest="output", default=None, help="output path (default stdout)")

    p = sub.add_parser("measure", help="simulate repeated measurements of a state")
    p.add_argument("--s", type=_parse_spin_flag, required=True)
    p.add_argument("--direction", type=_parse_direction_flag, required=True)
    p.add_argument("--state", required=True, help="pre-measurement state file (matrix JSON)")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_parse_seed_flag, default=None)
    p.add_argument("--trajectory-steps", type=_steps_flag, default=None,
                   help=f"also write the approach path as CSV, 2 to {MAX_TRAJECTORY_STEPS:,} "
                   "points (needs --out)")
    p.add_argument("--out", dest="output", default=None)

    p = sub.add_parser("compose", help="emit a two-spin eigenbasis")
    p.add_argument("--s1", type=_parse_spin_flag, required=True)
    p.add_argument("--s2", type=_parse_spin_flag, required=True)
    p.add_argument("--direction", type=_parse_direction_flag, required=True)
    p.add_argument("--basis", choices=("coupled", "product"), required=True)
    p.add_argument("--out", dest="output", default=None)

    p = sub.add_parser("verify", help="check the direction-correspondence properties")
    p.add_argument("--prop", choices=("1", "2", "2bis"), required=True,
                   help="1: single spin; 2: composite, coupled basis; 2bis: composite, product basis")
    p.add_argument("--s", type=_parse_spin_flag, default=None)
    p.add_argument("--s1", type=_parse_spin_flag, default=None)
    p.add_argument("--s2", type=_parse_spin_flag, default=None)
    p.add_argument("--trials", type=_trials_flag, default=100,
                   help=f"random direction pairs (1 to {MAX_TRIALS:,}; default 100)")
    p.add_argument("--seed", type=_parse_seed_flag, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_ISO_TOLERANCE,
                   help="override the isomorphism deviation tolerance")
    p.add_argument("--out", dest="output", default=None)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Validate an argument vector into its flags, with ``seed`` resolved.

    The seed falls back to the BLOCHX_SEED environment variable and then
    to 0 when the subcommand takes one and none was given.
    """
    args = build_parser().parse_args(argv)
    if args.command in ("measure", "verify") and args.seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            args.seed = 0 if env is None else _parse_seed_flag(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{SEED_ENV_VAR}: {exc}")
    if args.command == "verify":
        if not math.isfinite(args.tolerance):
            raise UsageError(f"--tolerance must be finite, got {args.tolerance}")
        if args.prop == "1" and args.s is None:
            raise UsageError("--prop 1 requires --s")
        if args.prop in ("2", "2bis") and (args.s1 is None or args.s2 is None):
            raise UsageError(f"--prop {args.prop} requires --s1 and --s2")
    if args.command == "compose" or (args.command == "verify" and args.prop != "1"):
        _refuse_above_limit(_spin_dim(args.s1) * _spin_dim(args.s2),
                            f"--s1 {args.s1} and --s2 {args.s2} have composite", UsageError)
    if args.command == "measure" and args.trajectory_steps is not None and args.output is None:
        raise UsageError("--trajectory-steps requires --out for the CSV path")
    return args


def _write_file(path: Path, send, what: str) -> None:
    """Open ``path`` for writing and hand it to ``send``; a file that fails
    part way is removed, and one that cannot be written is a usage error."""
    try:
        with path.open("w") as fp:
            try:
                send(fp)
            except BaseException:
                fp.close()
                if path.is_file():
                    path.unlink()
                raise
    except OSError as exc:
        raise UsageError(f"cannot write {what}: {exc}")


def emit_report(report: dict, args: argparse.Namespace) -> None:
    """Write the report as deterministic JSON to the configured path or
    stdout; the generated_at timestamp is the only run-varying field.

    A report holding a GeneratorSet is streamed member by member, so its
    N^4 entries are never held; every other report is small and is
    formatted whole first, so one that fails to format writes nothing.  A
    file that fails part way is removed."""
    body = {"blochx_schema": SCHEMA_VERSION,
            "generated_at": datetime.now(timezone.utc).isoformat()}
    body.update(report)
    streamed = any(isinstance(value, GeneratorSet) for value in report.values())
    text = None if streamed else serialize.dumps(body)

    def send(fp):
        if streamed:
            serialize.write(body, fp)
        else:
            fp.write(text)
        fp.write("\n")

    if args.output is None:
        send(sys.stdout)
    else:
        _write_file(Path(args.output), send, f"output file {args.output}")


def _load_state_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"unreadable state file for --state: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in --state file {path}: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"--state file {path} must hold a JSON object")
    return obj


def _load_density_state(path: str) -> DensityState:
    obj = _load_state_json(path)
    if "matrix" not in obj:
        raise UsageError(f"--state file {path} has no 'matrix' field")
    try:
        return DensityState(serialize.matrix_from_json(obj["matrix"]))
    except ValueError as exc:
        raise UsageError(f"--state file {path}: {exc}")


def _cmd_generators(args: argparse.Namespace) -> int:
    g = build_generators(args.n)
    emit_report({
        "command": "generators",
        "n": args.n,
        "c": g.c,
        "count": len(g),
        "generators": g,
    }, args)
    return 0


def _cmd_bloch(args: argparse.Namespace) -> int:
    obj = _load_state_json(args.state)
    has_matrix = "matrix" in obj
    has_coords = "coords" in obj
    if args.to_vector and not has_matrix:
        raise UsageError(f"--to-vector needs a 'matrix' field in {args.state}")
    if args.to_matrix and not has_coords:
        raise UsageError(f"--to-matrix needs 'coords' and 'n' fields in {args.state}")
    if not has_matrix and not has_coords:
        raise UsageError(f"--state file {args.state} has neither 'matrix' nor 'coords'")

    if has_matrix and not args.to_matrix:
        state = _load_density_state(args.state)
        g = build_generators(state.dim)
        r = state_to_bloch(state, g)
        emit_report({
            "command": "bloch",
            "kind": "bloch_vector",
            "n": state.dim,
            "coords": list(r.coords),
            "norm": r.norm,
            "purity": purity(r),
        }, args)
        return 0

    n = obj.get("n")
    if type(n) is not int:  # bool is a subclass of int, and 2.7 would pass int()
        raise UsageError(f"--state file {args.state}: 'n' must be an integer, got {n!r}")
    try:
        r = BlochVector(n, serialize._floats(obj["coords"], "coords", 1))
    except ValueError as exc:
        raise UsageError(f"--state file {args.state}: {exc}")
    g = build_generators(n)
    operator = bloch_to_operator(r, g)
    ok, smallest = is_state(r, g)
    emit_report({
        "command": "bloch",
        "kind": "state",
        "n": n,
        "matrix": operator,
        "is_state": ok,
        "min_eigenvalue": smallest,
    }, args)
    return 0


def _cmd_spin(args: argparse.Namespace) -> int:
    sys_ = build_spin_system(args.s)
    obs = spin_along(sys_, args.direction)
    emit_report({
        "command": "spin",
        "s": sys_.s,
        "n": sys_.dim,
        "direction": list(args.direction.components),
        "matrix": obs.matrix,
        "eigenvalues": list(obs.eigenvalues),
        "eigenstates": _projectors(obs.kets),
    }, args)
    return 0


def _trajectory_csv_path(output_path: str) -> Path:
    out = Path(output_path)
    return out.with_suffix(".trajectory.csv") if out.suffix else out.with_name(out.name + ".trajectory.csv")


def _cmd_measure(args: argparse.Namespace) -> int:
    sys_ = build_spin_system(args.s)
    psi = _load_density_state(args.state)
    if psi.dim != sys_.dim:
        raise UsageError(f"--state dimension {psi.dim} does not match --s {sys_.s} (N={sys_.dim})")
    g = build_generators(sys_.dim)
    obs = spin_along(sys_, args.direction)
    stats = run_measurement(psi, obs, args.samples, args.seed, generators=g)

    trajectory_csv = None
    if args.trajectory_steps is not None:
        path = _trajectory_csv_path(args.output)
        points = approach_trajectory(state_to_bloch(psi, g), stats.simplex,
                                     args.trajectory_steps)

        def send(fp):
            # one row at a time, so the CSV is never held whole
            fp.write("tau," + ",".join(f"coord_{i}" for i in range(sys_.dim ** 2 - 1)) + "\n")
            for tau, point in points:
                row = (tau, *point.coords.tolist())
                fp.write(",".join(format(x, ".17g") for x in row) + "\n")

        _write_file(path, send, f"trajectory CSV {path}")
        trajectory_csv = str(path)

    emit_report({
        "command": "measure",
        "s": sys_.s,
        "n": sys_.dim,
        "direction": list(args.direction.components),
        "samples": stats.samples,
        "seed": stats.seed,
        "outcome_eigenvalues": list(stats.simplex.outcome_eigenvalues),
        "outcome_groups": [list(grp) for grp in stats.simplex.degeneracy_groups],
        "born": list(stats.born),
        "empirical": list(stats.empirical),
        "counts": [int(c) for c in stats.counts],
        "std_errors": list(stats.std_errors),
        "max_dev": stats.max_abs_deviation,
        "records_sample": [{
            "lambda": list(rec.lambda_),
            "outcome_index": rec.outcome_index,
            "post_state": rec.post_state.matrix,
        } for rec in stats.records_sample],
        "trajectory_csv": trajectory_csv,
    }, args)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    comp = build_composite(args.s1, args.s2)
    if args.basis == "coupled":
        b = coupled_basis(comp, args.direction)
        entries = [{"s": float(s), "mu_s": float(mu), "amplitudes": ket}
                   for s, mu, ket in zip(b.s, b.mu, b.kets)]
    else:
        b = product_basis(comp, args.direction)
        entries = [{"mu1": float(mu1), "mu2": float(mu2), "amplitudes": ket}
                   for mu1, mu2, ket in zip(b.mu1, b.mu2, b.kets)]
    emit_report({
        "command": "compose",
        "s1": comp.s1,
        "s2": comp.s2,
        "n1": comp.system1.dim,
        "n2": comp.system2.dim,
        "n": comp.dim,
        "direction": list(args.direction.components),
        "basis": args.basis,
        "entries": entries,
    }, args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report: dict = {"command": "verify", "prop": args.prop, "trials": args.trials,
                    "seed": args.seed, "tolerance": args.tolerance}
    checks: dict = {}

    if args.prop == "1":
        sys_ = build_spin_system(args.s)
        n_dim = sys_.dim
        g = build_generators(n_dim)
        deviations = isomorphism_sweep(lambda d: space_vector_single(sys_, d, g),
                                       args.trials, args.seed)
        # the three canonical-axis vectors form an orthonormal triad spanning
        # the direction sphere's image inside the ball
        triad = [space_vector_single(sys_, d, g) for d in (X1, X2, X3)]
        v = triad[2]
        simplex = simplex_from_observable(spin_along(sys_, X3), g)
        projections = eigenstate_projections(v, simplex)
        expected = np.sqrt(12.0 / (n_dim + 1)) / (n_dim - 1) * simplex.eigenvalues
        spacing_dev = float(np.max(np.abs(projections - expected)))
        overlap = v_overlap_with_extremal(v, simplex, g)
        overlap_formula = (1.0 - np.sqrt(3.0 * (n_dim - 1) ** 2 / (n_dim + 1))) / n_dim
        overlap_dev = float(abs(overlap - overlap_formula))
        report["s"] = sys_.s
        report["n"] = n_dim
        report["scale_constant"] = direction_scale_single(n_dim)
        report["axis_triad"] = [list(t.coords) for t in triad]
        checks["projection_spacing_deviation"] = spacing_dev
        checks["extremal_overlap"] = overlap
        checks["extremal_overlap_deviation"] = overlap_dev
        extra_ok = spacing_dev < SPACING_TOLERANCE and overlap_dev < SPACING_TOLERANCE
    else:
        comp = build_composite(args.s1, args.s2)
        g = build_generators(comp.dim)
        basis = "coupled" if args.prop == "2" else "product"
        deviations = isomorphism_sweep(
            lambda d: space_vector_composite(comp, d, basis, g), args.trials, args.seed)
        v = space_vector_composite(comp, X3, "coupled", g)
        w = space_vector_composite(comp, X3, "product", g)
        agreement = float(np.linalg.norm(v.coords - w.coords))
        report["s1"] = comp.s1
        report["s2"] = comp.s2
        report["n"] = comp.dim
        report["scale_constant"] = direction_scale_composite(comp.system1.dim,
                                                             comp.system2.dim)
        checks["basis_agreement_deviation"] = agreement
        extra_ok = agreement < AGREEMENT_TOLERANCE

    max_dev = float(np.max(deviations))
    report["max_deviation"] = max_dev
    report["mean_deviation"] = float(np.mean(deviations))
    report["checks"] = checks
    passed = bool(max_dev < args.tolerance and extra_ok)
    report["pass"] = passed
    emit_report(report, args)
    return 0 if passed else 2


_HANDLERS = {
    "generators": _cmd_generators,
    "bloch": _cmd_bloch,
    "spin": _cmd_spin,
    "measure": _cmd_measure,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
