"""Elastic solver, brute-force minimization, deviation, density checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smalljump import oracle
from smalljump.energy import (
    EnergyParams,
    HookeTensor,
    energy_G,
    energy_G0,
    energy_breakdown,
)
from smalljump.errors import SolverError
from smalljump.generators import rigid_field, two_motion_crack_field
from smalljump.grid import (
    BallRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    centered_box,
    faces_in_region,
)
from smalljump.oracle import (
    CrackConfig,
    ElasticSystem,
    brute_force_minimize,
    density_lower_bound_check,
    deviation_psi0,
    greedy_bits,
    solve_elastic,
    vanishing_jump_harness,
)
from smalljump.strain import CrackContext, affected_cells, cell_strain_ops

HOOKE = HookeTensor(1.0, 1.0)


def two_sided_target(g: GridSpec, offset=(0.5, -0.2)) -> DisplacementField:
    x = g.node_coord_grid()
    base = np.full(g.node_shape + (g.dim,), 0.05)
    other = base + np.asarray(list(offset) + [0.1] * (g.dim - 2))
    vals = np.where(x[..., :1] <= 0, base, other)
    return DisplacementField(g, vals)


def midplane_faces(g: GridSpec) -> list:
    m = g.cells_per_side
    if g.dim == 2:
        return [(0, (m // 2, j)) for j in range(m)]
    return [(0, (m // 2, j, k)) for j in range(m) for k in range(m)]


def test_solver_reproduces_rigid_target():
    g = GridSpec(2, 8, 1.0)
    u_r, _ = rigid_field(g, seed=1)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=1.0, g=u_r)
    u, info = solve_elastic(g, JumpSet(g), params)
    assert float(np.max(np.abs(u.values - u_r.values))) < 1e-10
    assert info["relative_residual"] <= 1e-10
    assert info["energy_consistency"] <= 1e-9


def test_full_plane_crack_decouples():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.5, g=target)
    faces = midplane_faces(g)
    u, info = solve_elastic(g, JumpSet(g, faces), params)
    bd = energy_breakdown(u, JumpSet(g, faces), params)
    assert bd["bulk"] <= 1e-20
    assert bd["fidelity"] <= 1e-20
    assert bd["surface"] == pytest.approx(params.beta * 2.0)
    assert float(np.max(np.abs(u.values - target.values))) < 1e-9

    # same target without the crack: strictly positive bulk, consistent energy
    u0, info0 = solve_elastic(g, JumpSet(g), params)
    bd0 = energy_breakdown(u0, JumpSet(g), params)
    assert bd0["bulk"] > 1e-3
    assert info0["energy_consistency"] <= 1e-9


def test_singular_without_fidelity_or_boundary():
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0)
    with pytest.raises(SolverError):
        solve_elastic(g, JumpSet(g), params)


def test_fixed_boundary_without_fidelity():
    g = GridSpec(2, 8, 1.0)
    u_r, _ = rigid_field(g, seed=2)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0, g=u_r)
    u, info = solve_elastic(g, JumpSet(g), params, boundary="fixed")
    assert float(np.max(np.abs(u.values - u_r.values))) < 1e-9


def test_solver_requires_p2():
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=3.0, kappa=1.0, beta=1.0,
                          g=rigid_field(g, 0)[0])
    with pytest.raises(SolverError):
        solve_elastic(g, JumpSet(g), params)


def test_brute_force_extremes():
    g = GridSpec(2, 6, 1.0)
    target = two_sided_target(g)
    cands = [(0, (3, j)) for j in range(6)]

    big = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=1e6, g=target)
    res = brute_force_minimize(g, cands, big)
    assert res.best_config.active_bits == 0

    small = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=1e-9, g=target)
    res2 = brute_force_minimize(g, cands, small)
    assert res2.best_config.active_bits == 2 ** 6 - 1
    # opening the full plane removes all coupling: energies check out
    js = JumpSet(g, res2.best_config.active_faces())
    direct = energy_G(res2.minimizer_u, js, small)
    assert direct == pytest.approx(res2.min_energy, rel=1e-12, abs=1e-15)


def test_brute_force_tie_breaking_prefers_fewer_faces():
    g = GridSpec(2, 6, 1.0)
    u_r, _ = rigid_field(g, seed=3)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=1e-12, g=u_r)
    # rigid target: bulk stays ~0 for every config; beta breaks the tie
    cands = [(0, (3, 2)), (0, (3, 3))]
    res = brute_force_minimize(g, cands, params)
    assert res.best_config.active_bits == 0


def test_exhaustive_matches_greedy_on_midline_instance():
    g = GridSpec(2, 6, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02, g=target)
    cands = sorted([(0, (3, j)) for j in range(6)]
                   + [(1, (j, 3)) for j in range(2, 5)])
    res = brute_force_minimize(g, cands, params)
    system = ElasticSystem(g, params)
    cache: dict[int, float] = {}

    def energy_of(bits: int) -> float:
        if bits not in cache:
            js = JumpSet(g, CrackConfig(tuple(cands), bits).active_faces())
            u, _ = system.solve(js)
            cache[bits] = energy_breakdown(u, js, params)["total"]
        return cache[bits]

    gb = greedy_bits(len(cands), energy_of)
    assert abs(energy_of(gb) - res.min_energy) <= 1e-9


def test_heuristic_flag_required_above_limit():
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=1.0, beta=1.0,
                          g=rigid_field(g, 0)[0])
    cands = [(0, (4, j)) for j in range(8)] + [(1, (j, 4)) for j in range(8)] \
        + [(0, (2, j)) for j in range(8)] + [(0, (6, j)) for j in range(1)]
    assert len(cands) == 25
    with pytest.raises(ValueError):
        brute_force_minimize(g, cands, params)


def test_psi0_of_minimizer_and_perturbation():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.05, g=target)
    cands = [(0, (4, j)) for j in range(2, 6)]
    res = brute_force_minimize(g, cands, params, homogeneous=True)
    own_jumps = JumpSet(g, res.best_config.active_faces())
    out = deviation_psi0(res.minimizer_u, own_jumps, params,
                         centered_box(1.0, 2), cands)
    assert out["psi0"] >= -1e-9
    assert out["psi0"] <= 1e-9

    # adding a spurious crack face costs at least its surface energy
    # minus the bulk relief
    extra = (0, (4, 6))
    js_pert = JumpSet(g, res.best_config.active_faces() + [extra])
    out2 = deviation_psi0(res.minimizer_u, js_pert, params,
                          centered_box(1.0, 2), cands + [extra])
    assert out2["psi0"] > 0


def test_psi0_empty_candidates_iff_elastic_solution():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.05, g=target)
    # v must match u outside the inner box; u := the crack-free solution
    # of the homogeneous problem is its own best competitor
    u, _ = solve_elastic(g, JumpSet(g), params, homogeneous=True)
    out = deviation_psi0(u, JumpSet(g), params, centered_box(1.0, 2), [])
    assert abs(out["psi0"]) <= 1e-9


def test_density_lower_bound_on_plane_crack():
    g = GridSpec(2, 16, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.5, g=target)
    faces = midplane_faces(g)
    u, _ = solve_elastic(g, JumpSet(g, faces), params)
    h = g.spacing
    out = density_lower_bound_check(u, JumpSet(g, faces), params,
                                    [2 * h, 4 * h])
    assert out["status"] == "ok"
    assert out["theta1"] >= 0.5
    assert out["theta0"] > 0
    # direct geometric count for the smallest radius at an interior center:
    # faces within a disc of radius 2h on the plane through its center
    from smalljump.grid import BallRegion, faces_in_region
    x = g.face_center((0, (8, 8)))
    ball = BallRegion(tuple(x), 2 * h)
    count = faces_in_region(g, JumpSet(g, faces), ball)
    assert count * h / (2 * h) >= 0.5


def test_density_vacuous_without_cracks():
    g = GridSpec(2, 16, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=1.0, beta=1.0,
                          g=rigid_field(g, 0)[0])
    out = density_lower_bound_check(rigid_field(g, 0)[0], JumpSet(g), params, [0.25])
    assert out["status"] == "vacuous"


def test_density_monotone_in_beta():
    g = GridSpec(2, 16, 1.0)
    target = two_sided_target(g)
    faces = midplane_faces(g)
    thetas = []
    for beta in (0.2, 0.5, 1.0):
        params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=beta, g=target)
        u, _ = solve_elastic(g, JumpSet(g, faces), params)
        out = density_lower_bound_check(u, JumpSet(g, faces), params,
                                        [4 * g.spacing])
        thetas.append(out["theta0"])
    assert thetas[0] <= thetas[1] <= thetas[2]


@pytest.mark.parametrize("dim, cells, kappa",
                         [(2, 32, 0.0), (2, 32, 2.0), (3, 16, 2.0)])
def test_density_rows_equal_per_ball_energy_G0(dim, cells, kappa):
    g = GridSpec(dim, cells, 1.0)
    u, js, _ = two_motion_crack_field(g, area=12 * g.face_area(), seed=3)
    params = EnergyParams(HOOKE, p=2.0, kappa=kappa, beta=0.5)
    h = g.spacing
    radii = [2 * h, 4 * h, 8 * h, 0.95]
    out = density_lower_bound_check(u, js, params, radii)
    # reference: one full-grid energy_G0 per (face, radius) pair
    for row, rho in zip(out["rows"], radii):
        theta0, theta1 = [], []
        for face in js.sorted_faces():
            x = g.face_center(face)
            if np.max(np.abs(x)) + rho > g.half_width - h:
                continue
            ball = BallRegion(tuple(float(v) for v in x), rho)
            scale = rho ** (g.dim - 1)
            theta0.append(energy_G0(u, js, params, ball) / scale)
            theta1.append(faces_in_region(g, js, ball) * g.face_area() / scale)
        assert row == {"rho": rho, "centers": len(theta0),
                       "theta0": min(theta0, default=None),
                       "theta1": min(theta1, default=None)}
    assert out["rows"][0]["centers"] == len(js)
    assert out["rows"][-1]["centers"] == 0


@pytest.mark.slow
def test_vanishing_jump_harness_shrinking_crack():
    g = GridSpec(2, 256, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0)
    rep = vanishing_jump_harness(g, "shrinking-crack", 4, params, eta=0.5)
    assert rep["status"] == "ok"
    assert all(row["pass"] for row in rep["semicontinuity"])
    assert all(row["halving"] for row in rep["weighted_jump"])
    assert rep["median_nonincreasing"]


@pytest.mark.slow
def test_vanishing_jump_harness_rigid_patches():
    g = GridSpec(2, 256, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0)
    rep = vanishing_jump_harness(g, "rigid-patches", 4, params, eta=0.5)
    assert rep["status"] == "ok"
    assert all(row["pass"] for row in rep["semicontinuity"])
    assert all(row["halving"] for row in rep["weighted_jump"])


def test_constant_sequence_degenerates_cleanly():
    # a level outside the smallness regime is skipped with notice
    g = GridSpec(2, 64, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0)
    rep = vanishing_jump_harness(g, "shrinking-crack", 3, params, eta=0.35)
    assert rep["status"] in ("ok", "all levels skipped")
    if rep["status"] == "ok" and rep["skipped"]:
        assert rep["skipped"][0]["notice"]


def test_minimizer_crack_area_monotone_in_beta():
    # larger toughness never increases the optimal crack area
    g = GridSpec(2, 6, 1.0)
    target = two_sided_target(g)
    cands = [(0, (3, j)) for j in range(1, 5)]
    areas = []
    for beta in (0.005, 0.05, 0.5):
        params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=beta, g=target)
        res = brute_force_minimize(g, cands, params)
        areas.append(res.best_config.n_active * g.face_area())
    assert areas[0] >= areas[1] >= areas[2]


def test_density_theta1_nondecreasing_in_beta():
    g = GridSpec(2, 16, 1.0)
    target = two_sided_target(g)
    faces = midplane_faces(g)
    thetas = []
    for beta in (0.2, 0.5, 1.0):
        params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=beta, g=target)
        u, _ = solve_elastic(g, JumpSet(g, faces), params)
        out = density_lower_bound_check(u, JumpSet(g, faces), params,
                                        [4 * g.spacing])
        thetas.append(out["theta1"])
    assert thetas[0] <= thetas[1] <= thetas[2]


def _reference_local(grid, hooke, ctx, cell):
    """Dofs and local bulk matrix of one cell, written out per stencil entry."""
    dim = grid.dim
    ops, dead = cell_strain_ops(grid, ctx, cell)
    nodes, weights = [], []
    for a in range(dim):
        row = []
        for node, coef in ops[a] or []:
            if node not in nodes:
                nodes.append(node)
            row.append((nodes.index(node), coef))
        weights.append(row)
    n_loc = len(nodes) * dim
    loc = np.zeros((n_loc, n_loc))
    trace_row = np.zeros(n_loc)
    for c in range(dim):
        for a in range(dim):
            if a in dead or c in dead:
                continue
            row = np.zeros(n_loc)
            for k, coef in weights[a]:
                row[k * dim + c] += 0.5 * coef
            for k, coef in weights[c]:
                row[k * dim + a] += 0.5 * coef
            loc += 2.0 * hooke.lame_mu * np.outer(row, row)
            if a == c:
                trace_row += row
    loc += hooke.lame_lambda * np.outer(trace_row, trace_row)
    loc *= grid.spacing ** dim
    dofs = [int(np.ravel_multi_index(node, grid.node_shape)) * dim + comp
            for node in nodes for comp in range(dim)]
    return np.array(dofs, dtype=int), loc


def reference_system(grid, params, jumps):
    """Per-cell dense assembly of the bulk + fidelity Hessian: crack-free
    cells in lexicographic order, the fidelity diagonal, then per affected
    cell the crack-free block out and the cracked block in."""
    n = (grid.cells_per_side + 1) ** grid.dim * grid.dim
    clean = CrackContext(grid, JumpSet(grid))
    H = np.zeros((n, n))
    for cell in itertools.product(range(grid.cells_per_side), repeat=grid.dim):
        dofs, loc = _reference_local(grid, params.hooke, clean, cell)
        H[np.ix_(dofs, dofs)] += loc
    counts = np.zeros(grid.node_shape)
    for corner in np.ndindex(*(2,) * grid.dim):
        counts[tuple(slice(c, c + grid.cells_per_side) for c in corner)] += 1.0
    w = params.kappa * grid.spacing ** grid.dim / 2 ** grid.dim
    H[np.arange(n), np.arange(n)] += 2.0 * w * np.repeat(counts.reshape(-1),
                                                         grid.dim)
    ctx = CrackContext(grid, jumps)
    for cell in sorted(affected_cells(grid, jumps)):
        dofs, loc_std = _reference_local(grid, params.hooke, clean, cell)
        dofs2, loc = _reference_local(grid, params.hooke, ctx, cell)
        H[np.ix_(dofs, dofs)] -= loc_std
        H[np.ix_(dofs2, dofs2)] += loc
    return H


def random_crack_set(g: GridSpec, rng, n_faces: int) -> JumpSet:
    m = g.cells_per_side
    faces = set()
    while len(faces) < n_faces:
        axis = int(rng.integers(g.dim))
        idx = [int(rng.integers(m)) for _ in range(g.dim)]
        idx[axis] = int(rng.integers(1, m))
        faces.add((axis, tuple(idx)))
    owner_high = [f for f in sorted(faces) if rng.random() < 0.4]
    assert owner_high
    return JumpSet(g, faces, owner_high)


@pytest.mark.parametrize("dim, cells, n_faces, seed",
                         [(2, 8, 12, 0), (2, 8, 24, 1), (3, 4, 12, 2)])
def test_assembly_matches_per_cell_reference(monkeypatch, dim, cells,
                                             n_faces, seed):
    g = GridSpec(dim, cells, 1.0)
    rng = np.random.default_rng(seed)
    target = DisplacementField(g, rng.normal(size=g.node_shape + (dim,)))
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=1.5, beta=0.1,
                          g=target)
    js = random_crack_set(g, rng, n_faces)
    ref = reference_system(g, params, js)

    H, _, _ = ElasticSystem(g, params).system_for(js)
    assert isinstance(H, np.ndarray)
    assert np.array_equal(H, ref)

    # the CSR form sums the same triplets in another order
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", 0)
    H_sparse, _, _ = ElasticSystem(g, params).system_for(js)
    assert not isinstance(H_sparse, np.ndarray)
    err = np.max(np.abs(H_sparse.toarray() - ref)) / np.max(np.abs(ref))
    assert err <= 1e-14


def test_sparse_and_dense_solves_agree(monkeypatch):
    g = GridSpec(2, 16, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.1, g=target)
    js = JumpSet(g, [(0, (8, j)) for j in range(4, 12)])
    dense_sys = ElasticSystem(g, params)
    assert dense_sys.dense
    u_dense, _ = dense_sys.solve(js)
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", 0)
    sparse_sys = ElasticSystem(g, params)
    assert not sparse_sys.dense
    u_sparse, info = sparse_sys.solve(js)
    assert info["relative_residual"] <= 1e-10
    assert float(np.max(np.abs(u_dense.values - u_sparse.values))) < 1e-9


_PROPERTY_GRID = GridSpec(2, 8, 1.0)
_faces_2d8 = st.tuples(st.integers(0, 1), st.integers(1, 7),
                       st.integers(0, 7)).map(
    lambda t: (t[0], (t[1], t[2]) if t[0] == 0 else (t[2], t[1])))


@given(faces=st.lists(_faces_2d8, max_size=20, unique=True),
       owner_flags=st.lists(st.booleans(), min_size=20, max_size=20),
       fixed=st.booleans())
def test_quadratic_energy_equals_quadrature_energy(faces, owner_flags, fixed):
    g = _PROPERTY_GRID
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.1,
                          g=two_sided_target(g))
    owner_high = [f for f, flag in zip(faces, owner_flags) if flag]
    js = JumpSet(g, faces, owner_high)
    _, info = solve_elastic(g, js, params,
                            boundary="fixed" if fixed else "free")
    assert info["energy_consistency"] <= 1e-9
