"""The three benchmark workloads.

Each builder takes the benchmark seed and returns a :class:`Plan`: one
cycle of operations, each with the check that decides whether it failed.
All inputs (states, directions, library seeds, state files, CLI goldens)
are made here, during set-up; the library receives only those inputs.

- ``collapse_mc``: ``run_measurement`` on prebuilt simplexes, where the
  collapse sampler does nearly all the work.
- ``direction_sweep``: the direction-correspondence checks ``blochx verify``
  runs, called through the library; generators, bloch, linalg, spin and
  composite do the work and the sampler does none.
- ``cli_mix``: ``python -m blochx`` child processes, dominated by start-up
  and serialization; it materializes the generator stack and the inverse
  map, and samples in small batches.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import blochx
from blochx import cli, composite, correspondence, generators, measurement, spin
from blochx.bloch import DensityState

ISO_TOLERANCE = 1e-9
SPACING_TOLERANCE = 1e-10
AGREEMENT_TOLERANCE = 1e-10
COLLAPSE_SIGMAS = 6.0

# (spin, draws per call): N = 2..16, with N x draws roughly constant
COLLAPSE_CASES = ((0.5, 400_000), (1.5, 200_000), (3.5, 100_000), (7.5, 50_000))
DEGENERATE_DRAWS = 200_000
SINGLE_SPINS = (1.5, 3.5, 7.5)
COMPOSITES = ((1.5, 1.0), (2.5, 2.5))
TINY_DIVISOR = 100


def _repetition(rep: int) -> int:
    return rep


@dataclass
class Op:
    """One operation: ``make(rep)`` builds the input of repetition ``rep``
    (not timed), ``call(x)`` is the timed work on that input, and
    ``check(x, out)`` says whether its output is correct."""

    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    samples: int = 0
    make: Callable[[int], Any] = _repetition


@dataclass
class Plan:
    """A workload after set-up.  ``ops`` is one cycle of the untraced run,
    ``traced_ops`` one cycle of a traced pass (in-process), and
    ``pass_cycles`` the cycles of one traced pass."""

    ops: list[Op]
    traced_ops: list[Op]
    pass_cycles: int = 1
    child_rss_kb: list[int] = field(default_factory=list)


def _direction(rng: np.random.Generator) -> spin.Direction3:
    return spin.Direction3.normalized(rng.standard_normal(3))


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    """A full-rank random state G†G / Tr(G†G) from a complex Gaussian G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g.conj().T @ g
    return m / np.trace(m).real


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 62))


def collapse_mc(seed: int, tiny: bool, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    divisor = TINY_DIVISOR if tiny else 1
    ops = []
    for s, draws in COLLAPSE_CASES:
        system = spin.build_spin_system(s)
        g = generators.build_generators(system.dim)
        simplex = measurement.simplex_from_observable(
            spin.spin_along(system, _direction(rng)), g)
        ops.append(_collapse_op(f"collapse s={s}", simplex, g,
                                DensityState(_density(rng, system.dim)),
                                draws // divisor, _seed(rng)))
    pair = composite.build_composite(0.5, 0.5)
    g = generators.build_generators(pair.dim)
    # the triplet and singlet mu=0 states fuse into one outcome
    simplex = measurement.simplex_from_observable(
        composite.coupled_basis(pair, _direction(rng)).eigensystem(), g)
    ops.append(_collapse_op("collapse 1/2x1/2 coupled", simplex, g,
                            DensityState(_density(rng, pair.dim)),
                            DEGENERATE_DRAWS // divisor, _seed(rng)))
    return Plan(ops=ops, traced_ops=ops, pass_cycles=1 if tiny else 4)


def _collapse_op(name, simplex, g, psi, draws, seed) -> Op:
    traces = np.einsum("kij,ji->k", simplex.projectors, psi.matrix).real
    born = np.array([traces[list(grp)].sum() for grp in simplex.degeneracy_groups])
    sigma = np.sqrt(born * (1.0 - born) / draws)

    def call(rep):
        return measurement.run_measurement(psi, simplex, draws, seed + rep, generators=g)

    def check(rep, stats):
        return bool(int(stats.counts.sum()) == draws
                    and np.max(np.abs(stats.born - born)) < 1e-9
                    and np.all(np.abs(stats.empirical - born)
                               <= COLLAPSE_SIGMAS * sigma + 1e-12))

    return Op(name, call, check, samples=draws)


def direction_sweep(seed: int, tiny: bool, work: Path) -> Plan:
    ops = []
    for s in ((0.5, 1.5) if tiny else SINGLE_SPINS):
        system = spin.build_spin_system(s)
        ops.append(_single_op(system, generators.build_generators(system.dim),
                              _pair_maker(seed, len(ops))))
    for s1, s2 in (((0.5, 0.5), (1.5, 1.0)) if tiny else COMPOSITES):
        pair = composite.build_composite(s1, s2)
        g = generators.build_generators(pair.dim)
        for basis in ("coupled", "product"):
            ops.append(_composite_op(pair, basis, g, _pair_maker(seed, len(ops))))
    return Plan(ops=ops, traced_ops=ops)


def _pair_maker(seed: int, case: int):
    """A fresh random direction pair for every repetition, as in ``verify``."""
    def make(rep):
        rng = np.random.default_rng([seed, case, rep])
        return _direction(rng), _direction(rng)
    return make


def _isomorphic(v, w, a, b) -> bool:
    return abs(v.coords @ w.coords - a.components @ b.components) < ISO_TOLERANCE


def _single_op(system, g, make) -> Op:
    n = system.dim
    height = np.sqrt(12.0 / (n + 1)) / (n - 1)
    overlap = (1.0 - np.sqrt(3.0 * (n - 1) ** 2 / (n + 1))) / n

    def call(pair):
        a, b = pair
        v = correspondence.space_vector_single(system, a, g)
        w = correspondence.space_vector_single(system, b, g)
        simplex = measurement.simplex_from_observable(spin.spin_along(system, a), g)
        return (v, w, simplex, correspondence.eigenstate_projections(v, simplex),
                correspondence.v_overlap_with_extremal(v, simplex, g))

    def check(pair, out):
        v, w, simplex, heights, extremal = out
        return bool(_isomorphic(v, w, *pair)
                    and np.max(np.abs(heights - height * simplex.eigenvalues)) < SPACING_TOLERANCE
                    and abs(extremal - overlap) < SPACING_TOLERANCE)

    return Op(f"direction s={system.s}", call, check, samples=2, make=make)


def _composite_op(pair, basis, g, make) -> Op:
    other = "product" if basis == "coupled" else "coupled"

    def call(directions):
        a, b = directions
        return (correspondence.space_vector_composite(pair, a, basis, g),
                correspondence.space_vector_composite(pair, b, basis, g),
                correspondence.space_vector_composite(pair, a, other, g))

    def check(directions, out):
        v, w, u = out
        return bool(_isomorphic(v, w, *directions)
                    and np.linalg.norm(v.coords - u.coords) < AGREEMENT_TOLERANCE)

    return Op(f"direction {pair.s1}x{pair.s2} {basis}", call, check, samples=2, make=make)


@dataclass(frozen=True)
class _Command:
    """A CLI invocation run in ``work``; file arguments are relative to it,
    so reports do not depend on where the checkout lies."""

    name: str
    argv: list[str]
    work: Path
    report: Optional[str]  # None: the report goes to stdout
    csv: Optional[str] = None
    samples: int = 0


def _write_json(work: Path, name: str, obj) -> str:
    (work / name).write_text(json.dumps(obj))
    return name


def _matrix_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m]


def _direction_flag(rng) -> str:
    # one token, so that a leading minus sign is not read as an option
    return "--direction=" + ",".join(repr(float(x)) for x in _direction(rng).components)


def _cli_commands(seed: int, tiny: bool, work: Path) -> list[_Command]:
    rng = np.random.default_rng(seed)
    n_big = 4 if tiny else 16
    few, many = (100, 2_000) if tiny else (1_000, 200_000)
    psi2 = _write_json(work, "psi2.json", {"n": 2, "matrix": _matrix_json(_density(rng, 2))})
    psi4 = _write_json(work, "psi4.json", {"n": 4, "matrix": _matrix_json(_density(rng, 4))})
    rho = _write_json(work, "rho.json", {"n": n_big, "matrix": _matrix_json(_density(rng, n_big))})
    # inside the inscribed ball of radius 1/(N-1), so the vector is a state
    r = rng.standard_normal(n_big * n_big - 1)
    coords = _write_json(work, "coords.json",
                         {"n": n_big, "coords": list(r / np.linalg.norm(r) / (2 * (n_big - 1)))})

    def command(name, argv, report, **kw):
        flag = {"generators": "--json", "spin": "--emit"}.get(argv[0], "--out")
        argv = argv + [flag, report] if report is not None else argv
        return _Command(name, argv, work, report, **kw)

    return [
        command("measure N=2", ["measure", "--s", "0.5", _direction_flag(rng), "--state", psi2,
                                "--samples", str(few), "--seed", str(_seed(rng)),
                                "--trajectory-steps", "16"],
                "measure2.json", csv="measure2.trajectory.csv", samples=few),
        command("measure N=4", ["measure", "--s", "1.5", _direction_flag(rng), "--state", psi4,
                                "--samples", str(many), "--seed", str(_seed(rng))],
                "measure4.json", samples=many),
        command("compose 3/2x1", ["compose", "--s1", "1.5", "--s2", "1", _direction_flag(rng),
                                  "--basis", "coupled"], "compose.json"),
        command("verify 1 s=3/2", ["verify", "--prop", "1", "--s", "1.5", "--trials", "4",
                                   "--seed", str(_seed(rng))], "verify1.json"),
        command("verify 2bis 1/2x1/2", ["verify", "--prop", "2bis", "--s1", "0.5", "--s2", "0.5",
                                        "--trials", "4", "--seed", str(_seed(rng))],
                "verify2bis.json"),
        command(f"generators N={n_big}", ["generators", "--n", str(n_big)], "generators.json"),
        command("bloch to-vector", ["bloch", "--state", rho, "--to-vector"], None),
        command("bloch to-matrix", ["bloch", "--state", coords, "--to-matrix"], None),
        command("spin s=7/2", ["spin", "--s", "3.5", _direction_flag(rng)], "spin.json"),
    ]


def _clear_outputs(cmd: _Command) -> None:
    for name in (cmd.report, cmd.csv):
        if name is not None:
            (cmd.work / name).unlink(missing_ok=True)


def _outputs(cmd: _Command, stdout: str):
    """The command's report without ``generated_at``, and its CSV text."""
    text = (cmd.work / cmd.report).read_text() if cmd.report is not None else stdout
    report = json.loads(text)
    report.pop("generated_at", None)
    return report, (cmd.work / cmd.csv).read_text() if cmd.csv is not None else None


def _run_in_process(cmd: _Command) -> tuple[int, str]:
    _clear_outputs(cmd)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(cmd.work)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cmd.argv))
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def cli_mix(seed: int, tiny: bool, work: Path) -> Plan:
    commands = _cli_commands(seed, tiny, work)
    goldens = []
    for cmd in commands:
        code, stdout = _run_in_process(cmd)
        if code != 0:
            raise RuntimeError(f"golden run of {cmd.name!r} exited {code}")
        goldens.append(_outputs(cmd, stdout))

    # children import blochx from this source tree whatever the caller's PYTHONPATH
    src_root = str(Path(blochx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    plan = Plan(ops=[], traced_ops=[])
    for index, (cmd, golden) in enumerate(zip(commands, goldens)):
        plan.ops.append(_child_op(cmd, golden, env, index, plan.child_rss_kb))
        plan.traced_ops.append(_in_process_op(cmd, golden))
    return plan


def _child_op(cmd, golden, env, index: int, rss_kb: list[int]) -> Op:
    stdout_path = cmd.work / f"child{index}.stdout"

    def call(rep):
        _clear_outputs(cmd)
        with open(stdout_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "blochx", *cmd.argv], cwd=cmd.work,
                                    env=env, stdout=out, stderr=subprocess.DEVNULL)
            # wait4 gives this child's own peak RSS, not the running maximum
            # that RUSAGE_CHILDREN keeps over all children
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_kb.append(usage.ru_maxrss)
        return proc.returncode

    def check(rep, code):
        return code == 0 and _outputs(cmd, stdout_path.read_text()) == golden

    return Op(cmd.name, call, check, samples=cmd.samples)


def _in_process_op(cmd, golden) -> Op:
    def check(rep, out):
        code, stdout = out
        return code == 0 and _outputs(cmd, stdout) == golden

    return Op(cmd.name, lambda rep: _run_in_process(cmd), check, samples=cmd.samples)


BUILDERS = {"collapse_mc": collapse_mc, "direction_sweep": direction_sweep, "cli_mix": cli_mix}
