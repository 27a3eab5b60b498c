"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (visible with pytest -s)."""
import io
import re
from contextlib import redirect_stdout

import numpy as np

from blochx.bloch import (BlochVector, bloch_to_operator,
                          pure_state_from_direction, purity, random_density,
                          random_ket, state_to_bloch)
from blochx.cli import main
from blochx.composite import build_composite, coupled_basis
from blochx.correspondence import (eigenstate_projections, isomorphism_sweep,
                                   space_vector_composite, space_vector_single,
                                   v_overlap_with_extremal)
from blochx.generators import build_generators
from blochx.measurement import (born_probabilities, approach_trajectory,
                                lueders_post_state, run_measurement,
                                simplex_from_observable)
from blochx.serialize import dumps
from blochx.spin import (Direction3, X3, build_spin_system,
                         classical_resultant_range, cone_projection_range,
                         spin_along)
from conftest import (PAULI_1, PAULI_2, PAULI_3, ket_state, matrix_to_json,
                      random_observable_frame)


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} ({label}): {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({label}): {detail}"


def test_criterion_1_generator_algebra():
    worst = 0.0
    for n in range(2, 9):
        g = build_generators(n)
        worst = max(worst, float(np.max(np.abs(np.einsum("kii->k", g.matrices)))))
        gram = np.einsum("aij,bji->ab", g.matrices, g.matrices)
        worst = max(worst, float(np.max(np.abs(gram - 2 * np.eye(n * n - 1)))))
    g2 = build_generators(2)
    pauli_exact = (np.array_equal(g2.matrices[0], PAULI_1)
                   and np.array_equal(g2.matrices[1], PAULI_2)
                   and np.array_equal(g2.matrices[2], PAULI_3))
    report(1, "generator algebra", worst < 1e-12 and pauli_exact,
           f"max residual {worst:.2e}, N=2 Pauli exact: {pauli_exact}")


def test_criterion_2_purity_law():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3, 4):
        g = build_generators(n)
        for _ in range(1000):
            d = random_density(n, rng)
            r = state_to_bloch(d, g)
            matrix_purity = np.trace(d.matrix @ d.matrix).real
            worst = max(worst, abs(purity(r) - matrix_purity))
    report(2, "purity law", worst < 1e-10, f"max |formula - trace| = {worst:.2e}")


def test_criterion_3_non_state_counterexample():
    worst = 0.0
    for n in range(3, 7):
        g = build_generators(n)
        coords = np.zeros(n * n - 1)
        coords[-1] = 1.0
        smallest = np.linalg.eigvalsh(bloch_to_operator(BlochVector(n, coords), g))[0]
        worst = max(worst, abs(smallest - (-(n - 2) / n)))
    report(3, "non-state counterexample", worst < 1e-12, f"max eigenvalue error {worst:.2e}")


def test_criterion_4_simplex_geometry():
    direction = Direction3.from_angles(0.8, -1.3)
    worst = 0.0
    area = None
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        sys_ = build_spin_system(s)
        n = sys_.dim
        g = build_generators(n)
        m = simplex_from_observable(spin_along(sys_, direction), g)
        dots = m.vertices @ m.vertices.T
        expected = -np.ones((n, n)) / (n - 1) + (1 + 1 / (n - 1)) * np.eye(n)
        worst = max(worst, float(np.max(np.abs(dots - expected))))
        if n == 3:
            edges = m.vertices[1:] - m.vertices[0]
            area = float(np.sqrt(np.linalg.det(edges @ edges.T)) / 2)
    area_err = abs(area - 3 * np.sqrt(3) / 4)
    report(4, "simplex geometry", worst < 1e-10 and area_err < 1e-10,
           f"max dot error {worst:.2e}, triangle area error {area_err:.2e}")


def test_criterion_5_born_rule_triple_agreement():
    rng = np.random.default_rng(55)
    worst = 0.0
    for n in (2, 3, 4, 5):
        g = build_generators(n)
        for _ in range(200):
            kets, values = random_observable_frame(n, rng)
            m = simplex_from_observable((kets, values), g)
            psi = random_ket(n, rng).projector()
            r = state_to_bloch(psi, g)
            barycentric = born_probabilities(psi, m, g)
            traces = np.array([np.trace(psi.matrix @ m.projectors[i]).real
                               for i in range(n)])
            cosines = (1 + (n - 1) * (m.vertices @ r.coords)) / n
            worst = max(worst,
                        float(np.max(np.abs(barycentric - traces))),
                        float(np.max(np.abs(barycentric - cosines))))
    report(5, "probability triple agreement", worst < 1e-10, f"max spread {worst:.2e}")


def test_criterion_6_collapse_monte_carlo():
    samples = 200_000
    worst_ratio = 0.0
    # two-level case at polar angle pi/3: probabilities (3/4, 1/4)
    psi2 = pure_state_from_direction(np.pi / 3, 0.0)
    g2 = build_generators(2)
    m2 = simplex_from_observable(spin_along(build_spin_system(0.5), X3), g2)
    stats2 = run_measurement(psi2, m2, samples, seed=1001, generators=g2)
    up_index = int(np.argmax(m2.outcome_eigenvalues))
    angle_ok = (abs(stats2.empirical[up_index] - 0.75) < 0.01
                and abs(stats2.empirical[1 - up_index] - 0.25) < 0.01)

    cases = [(stats2.born, stats2.empirical)]
    rng = np.random.default_rng(66)
    for s, seed in ((1.0, 1002), (1.5, 1003)):
        sys_ = build_spin_system(s)
        g = build_generators(sys_.dim)
        m = simplex_from_observable(spin_along(sys_, Direction3.from_angles(1.1, 0.7)), g)
        psi = random_density(sys_.dim, rng)
        stats = run_measurement(psi, m, samples, seed=seed, generators=g)
        cases.append((stats.born, stats.empirical))

    ok = angle_ok
    for born, empirical in cases:
        for p, f in zip(born, empirical):
            tolerance = max(0.01, 5 * np.sqrt(p * (1 - p) / samples))
            worst_ratio = max(worst_ratio, abs(f - p) / tolerance)
            ok = ok and abs(f - p) < tolerance
    report(6, "collapse Monte Carlo", ok,
           f"worst deviation/tolerance = {worst_ratio:.3f}, pi/3 case ok: {angle_ok}")


def test_criterion_7_degenerate_measurement():
    samples = 200_000
    comp = build_composite(0.5, 0.5)
    g = build_generators(4)
    direction = Direction3.from_angles(0.9, 0.2)
    kets, values = coupled_basis(comp, direction).eigensystem()
    m = simplex_from_observable((kets, values), g)
    fused = [grp for grp in m.degeneracy_groups if len(grp) == 2]
    group_ok = len(fused) == 1 and np.allclose(m.outcome_eigenvalues, [-1, 0, 1])

    rng = np.random.default_rng(77)
    psi = random_ket(4, rng).projector()
    stats = run_measurement(psi, m, samples, seed=2001, generators=g)
    per_vertex = born_probabilities(psi, m, g)
    fused_index = [i for i, grp in enumerate(m.degeneracy_groups) if len(grp) == 2][0]
    fused_born = per_vertex[list(m.degeneracy_groups[fused_index])].sum()
    tolerance = max(0.01, 5 * np.sqrt(fused_born * (1 - fused_born) / samples))
    mc_ok = abs(stats.empirical[fused_index] - fused_born) < tolerance

    post = lueders_post_state(psi, m.kets[list(m.degeneracy_groups[fused_index])])
    pg = sum(m.projectors[i] for i in m.degeneracy_groups[fused_index])
    expected = pg @ psi.matrix @ pg / np.trace(pg @ psi.matrix).real
    lueders_err = float(np.max(np.abs(post.matrix - expected)))
    report(7, "degenerate measurement", group_ok and mc_ok and lueders_err < 1e-10,
           f"fused dev {abs(stats.empirical[fused_index] - fused_born):.4f}, "
           f"post-state error {lueders_err:.2e}")


def test_criterion_8_single_entity_correspondence():
    ok = True
    details = []
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        sys_ = build_spin_system(s)
        n = sys_.dim
        g = build_generators(n)
        devs = isomorphism_sweep(lambda d: space_vector_single(sys_, d, g),
                                 100, seed=int(10 * s))
        iso_ok = devs.max() < 1e-9

        direction = Direction3.from_angles(1.4, -0.9)
        v = space_vector_single(sys_, direction, g)
        m = simplex_from_observable(spin_along(sys_, direction), g)
        projections = eigenstate_projections(v, m)
        expected = np.sqrt(12.0 / (n + 1)) / (n - 1) * m.eigenvalues
        spacing_ok = np.max(np.abs(projections - expected)) < 1e-10

        overlap = v_overlap_with_extremal(v, m, g)
        formula = (1 - np.sqrt(3.0 * (n - 1) ** 2 / (n + 1))) / n
        overlap_ok = abs(overlap - formula) < 1e-10 and (overlap < 0 or n == 2)
        ok = ok and iso_ok and spacing_ok and overlap_ok
        details.append(f"s={s}: iso {devs.max():.1e}")
    report(8, "single-entity direction correspondence", ok, "; ".join(details))


def test_criterion_9_composite_correspondence():
    ok = True
    details = []
    for s1, s2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)):
        comp = build_composite(s1, s2)
        g = build_generators(comp.dim)
        agreement = 0.0
        for d in (X3, Direction3.from_angles(0.8, 1.9), Direction3.from_angles(2.1, -0.4)):
            v = space_vector_composite(comp, d, "coupled", g)
            w = space_vector_composite(comp, d, "product", g)
            agreement = max(agreement, float(np.max(np.abs(v.coords - w.coords))))
        devs_coupled = isomorphism_sweep(
            lambda d: space_vector_composite(comp, d, "coupled", g), 50, seed=91)
        devs_product = isomorphism_sweep(
            lambda d: space_vector_composite(comp, d, "product", g), 50, seed=92)
        pair_ok = (agreement < 1e-10 and devs_coupled.max() < 1e-9
                   and devs_product.max() < 1e-9)
        ok = ok and pair_ok
        details.append(f"({s1},{s2}): w-v {agreement:.1e}, iso {devs_coupled.max():.1e}")

    comp = build_composite(0.5, 0.5)
    g = build_generators(4)
    direction = Direction3.from_angles(1.0, 0.5)
    v = space_vector_composite(comp, direction, "coupled", g)
    cb = coupled_basis(comp, direction)
    vertices = {(s, mu): state_to_bloch(ket_state(ket), g).coords
                for s, mu, ket in zip(cb.s, cb.eigenvalues, cb.kets)}
    closed_form = np.sqrt(3 / 8) * (vertices[(1.0, 1.0)] - vertices[(1.0, -1.0)])
    formula_err = float(np.max(np.abs(v.coords - closed_form)))
    ok = ok and formula_err < 1e-10
    report(9, "composite direction correspondence", ok,
           "; ".join(details) + f"; closed form err {formula_err:.1e}")


def test_criterion_10_decoherence_path():
    theta, phi = 1.2, 0.7
    g = build_generators(2)
    m = simplex_from_observable(spin_along(build_spin_system(0.5), X3), g)
    r = state_to_bloch(pure_state_from_direction(theta, phi), g)
    half = theta / 2
    off = np.sin(half) * np.cos(half) * np.exp(-1j * phi)
    worst = 0.0
    path = list(approach_trajectory(r, m, 50))
    for tau, point in path:
        op = bloch_to_operator(point, g)
        expected = np.array([[np.cos(half) ** 2, (1 - tau) * off],
                             [(1 - tau) * np.conj(off), np.sin(half) ** 2]])
        worst = max(worst, float(np.max(np.abs(op - expected))))
    report(10, "decoherence path", len(path) == 50 and worst < 1e-12,
           f"max entrywise error {worst:.2e}")


def test_criterion_11_cone_no_go_numbers():
    lo, hi = cone_projection_range(0.5, 0.5)
    interval_err = max(abs(lo - (-1 / (2 * np.sqrt(3)))), abs(hi - np.sqrt(3) / 2))

    rlo, rhi = classical_resultant_range()
    analytic_err = max(abs(rlo - 1.0), abs(rhi - np.sqrt(3)))

    rng = np.random.default_rng(111)
    radius = 1 / np.sqrt(2)
    phi1 = rng.uniform(0, 2 * np.pi, 10_000)
    phi2 = rng.uniform(0, 2 * np.pi, 10_000)
    a = np.stack([radius * np.cos(phi1), radius * np.sin(phi1), np.full_like(phi1, 0.5)], axis=1)
    b = np.stack([radius * np.cos(phi2), radius * np.sin(phi2), np.full_like(phi2, 0.5)], axis=1)
    lengths = np.linalg.norm(a + b, axis=1)
    mc_ok = (lengths.min() >= rlo - 1e-9 and lengths.max() <= rhi + 1e-9
             and lengths.min() < rlo + 0.01 and lengths.max() > rhi - 0.01)
    report(11, "cone no-go numbers",
           interval_err < 1e-12 and analytic_err < 1e-9 and mc_ok,
           f"interval err {interval_err:.2e}, resultant err {analytic_err:.2e}")


def _run_cli_text(argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"CLI {argv} exited {code}"
    return buffer.getvalue()


def _strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": null', text)


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("BLOCHX_SEED", raising=False)
    psi = tmp_path / "psi.json"
    matrix = pure_state_from_direction(np.pi / 3, 0.0).matrix
    psi.write_text(dumps({"n": 2, "matrix": matrix_to_json(matrix)}) + "\n")
    rep_a = tmp_path / "rep_a.json"
    rep_b = tmp_path / "rep_b.json"

    stdout_cases = [
        ["generators", "--n", "3"],
        ["bloch", "--state", str(psi)],
        ["spin", "--s", "1", "--direction", "0,0,1"],
        ["compose", "--s1", "0.5", "--s2", "0.5", "--direction", "0,0,1",
         "--basis", "coupled"],
        ["verify", "--prop", "1", "--s", "1", "--trials", "10", "--seed", "7"],
    ]
    ok = True
    for argv in stdout_cases:
        first = _strip_timestamp(_run_cli_text(argv))
        second = _strip_timestamp(_run_cli_text(argv))
        ok = ok and first == second

    measure = ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", str(psi),
               "--samples", "5000", "--seed", "42"]
    _run_cli_text([*measure, "--out", str(rep_a)])
    _run_cli_text([*measure, "--out", str(rep_b)])
    ok = ok and (_strip_timestamp(rep_a.read_text()) == _strip_timestamp(rep_b.read_text()))
    report(12, "CLI determinism", ok, "6 subcommands byte-stable modulo timestamp")
