"""Elastic solver, brute-force minimization, deviation, density checks."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smalljump import oracle
from smalljump.cli import _midline_candidates
from smalljump.energy import (
    EnergyParams,
    HookeTensor,
    energy_G,
    energy_G0,
    energy_breakdown,
)
from smalljump.errors import SolverError
from smalljump.generators import (
    rigid_field,
    split_target,
    two_motion_crack_field,
)
from smalljump.grid import (
    BallRegion,
    BoxRegion,
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
    solve_elastic,
    vanishing_jump_harness,
)
from smalljump.strain import face_slots
from tests.oracle_reference import (
    boundary_nodes,
    density_rows,
    elimination_order,
    full_solve_energies,
    gather_corrections,
    gather_leaves,
    greedy_bits,
)
from tests.strain_reference import (
    CrackContext,
    affected_cells,
    cell_strain_ops,
    staircase,
)

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
    u, info = solve_elastic(g, JumpSet(g), params,
                            pinned_mask=boundary_nodes(g))
    assert float(np.max(np.abs(u.values - u_r.values))) < 1e-9


def test_solver_refuses_a_tensor_that_is_not_coercive():
    g = GridSpec(3, 4, 1.0)
    params = EnergyParams(HookeTensor(-0.8, 1.0), p=2.0, kappa=1.0)
    with pytest.raises(ValueError, match="got -0.4 in 3D"):
        ElasticSystem(g, params)
    ElasticSystem(GridSpec(2, 4, 1.0), params)


def test_fidelity_without_a_target_pulls_toward_zero():
    # g = None is the zero target, in the solve and in the energy alike
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.1)
    u, info = solve_elastic(g, JumpSet(g), params)
    assert np.all(u.values == 0.0)
    assert info["energy_consistency"] <= 1e-9
    pinned = np.zeros(g.node_shape, dtype=bool)
    pinned[0] = True
    values = np.zeros(g.node_shape + (2,))
    values[0, :, 0] = 0.3
    u, info = solve_elastic(g, JumpSet(g, midplane_faces(g)), params,
                            pinned_mask=pinned, pinned_values=values)
    assert info["bulk_fidelity_energy"] > 0
    assert info["energy_consistency"] <= 1e-9


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
    # scored by the quadrature energy of each solved field, so the bound
    # also checks the search's quadratic energy against the functional
    energy_of = full_solve_energies(ElasticSystem(g, params), cands,
                                    quadrature=True)
    gb = greedy_bits(len(cands), lambda bits: energy_of(bits)["total"])
    assert abs(energy_of(gb)["total"] - res.min_energy) <= 1e-9


def test_sparse_form_search_matches_dense(monkeypatch):
    g = GridSpec(2, 6, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=two_sided_target(g))
    cands = sorted([(0, (3, j)) for j in range(1, 5)] + [(1, (2, 3)), (1, (3, 3))])
    dense = brute_force_minimize(g, cands, params)
    dense_table = _full_table(g, params, cands)
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", 0)
    sparse = brute_force_minimize(g, cands, params)
    sparse_table = _full_table(g, params, cands)
    assert sparse.best_config == dense.best_config
    assert len(sparse_table) == len(dense_table) == 2 ** len(cands)
    for a, b in zip(sparse_table, dense_table):
        assert a["bits"] == b["bits"]
        assert a["total"] == pytest.approx(b["total"], rel=1e-9)
    for res, table in ((dense, dense_table), (sparse, sparse_table)):
        _assert_rows_of_the_table(res, table)


def _full_table(g, params, cands, base=None, **kwargs) -> np.ndarray:
    """evaluate()'s table of every configuration of ``cands`` (in key
    order), the walk with no bound."""
    return oracle.ConfigurationEnergies(ElasticSystem(g, params, **kwargs),
                                        cands, base or JumpSet(g)).evaluate()


def _assert_rows_of_the_table(res, table):
    """The search's rows are rows of the full table, byte for byte, and
    its winner is the table's by the tie rule, with the same energy."""
    assert res.per_config.tobytes() == table[res.per_config["bits"]].tobytes()
    lowest = table["total"].min()
    tied = table["bits"][table["total"] <= lowest + oracle.TIE_RTOL * abs(lowest)]
    cands = res.best_config.candidates
    assert res.best_config == min((CrackConfig(cands, b) for b in tied.tolist()),
                                  key=lambda c: (c.n_active, c.bitstring()))
    assert res.min_energy == table["total"][res.best_config.active_bits]


def _assert_search_matches_full_solves(res, energy_of, cands, table):
    """Every configuration's breakdown in the full table within 1e-12 of
    one full solve (the ``full_solve_energies`` breakdown ``energy_of``),
    the search's rows those of the table, and the winner of the same tie
    rule."""
    assert len(table) == 2 ** len(cands)
    _assert_rows_of_the_table(res, table)
    for bits, row in enumerate(table):
        ref = energy_of(bits)
        scale = max(abs(ref["total"]), abs(ref["bulk"]), abs(ref["fidelity"]))
        for key in ("total", "bulk", "fidelity"):
            assert abs(row[key] - ref[key]) <= 1e-12 * scale
    totals = [energy_of(b)["total"] for b in range(2 ** len(cands))]
    lowest = min(totals)
    tied = [CrackConfig(tuple(cands), b) for b, e in enumerate(totals)
            if e <= lowest + 1e-12 * abs(lowest)]
    assert res.best_config == min(tied, key=lambda c: (c.n_active,
                                                       c.bitstring()))


def _sparse_search_settings():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    h = g.spacing
    # psi0's setting: the nodes outside the inner box pinned to a field,
    # base faces with owner_high flags, the homogeneous functional;
    # candidates on the base crack, two of them in cells that straddle
    # the pinned ring
    faces = [(0, (4, j)) for j in range(7)]
    inner = BoxRegion((-1.0 + h,) * 2, (1.0 - h,) * 2)
    yield ("psi0", g,
           EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.05, g=target).homogeneous(),
           [(0, (4, 1)), (0, (4, 2)), (0, (4, 3)), (1, (3, 4)), (1, (1, 5))],
           JumpSet(g, faces, faces[1:5]),
           dict(pinned_mask=~inner.contains_points(g.node_coord_grid()),
                pinned_values=target.values))
    # Dirichlet data on the boundary, the homogeneous functional
    yield ("dirichlet", g,
           EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02, g=target).homogeneous(),
           [(0, (4, j)) for j in (0, 1, 3)] + [(1, (0, 4)), (1, (3, 4))], None,
           dict(pinned_mask=boundary_nodes(g), pinned_values=target.values))
    # fidelity data, free boundary, on a 3D grid as well
    for g in (GridSpec(2, 8, 1.0), GridSpec(3, 4, 1.0)):
        cands = [(0, (g.cells_per_side // 2,) + (j,) * (g.dim - 1))
                 for j in range(3)] + [(1, (1,) * g.dim)]
        yield (f"fidelity-{g.dim}d", g,
               EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=2.0, beta=0.02,
                            g=two_sided_target(g)), cands, None, {})


@pytest.fixture
def banded_sizes(monkeypatch):
    """Sizes of the H_II blocks that ``_banded_solve`` factors."""
    band_solve, sizes = oracle._banded_solve, []

    def spy(H, inner, *args):
        sizes.append(inner.size)
        return band_solve(H, inner, *args)

    monkeypatch.setattr(oracle, "_banded_solve", spy)
    return sizes


@pytest.mark.parametrize("case", list(_sparse_search_settings()),
                         ids=lambda c: c[0])
def test_sparse_condensed_search_matches_full_solves(monkeypatch, banded_sizes,
                                                     case):
    _, g, params, cands, base, kwargs = case
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", 0)
    res = brute_force_minimize(g, sorted(cands), params, base_jumps=base,
                               **kwargs)
    assert banded_sizes and banded_sizes[0] > 0
    assert res.min_energy > 0
    assert np.any(res.minimizer_u.values != 0.0)
    # the reference: one dense LU solve per configuration
    _assert_search_matches_full_solves(res, full_solve_energies(
        ElasticSystem(g, params, **kwargs), sorted(cands), base), sorted(cands),
        _full_table(g, params, sorted(cands), base, **kwargs))


def test_cell_blocks_build_only_the_cells_candidates_reach():
    g = GridSpec(2, 16, 1.0)
    system = ElasticSystem(g, EnergyParams(HOOKE, p=2.0, kappa=1.0))
    # one base face next to the candidates, one far from them
    base = JumpSet(g, [(0, (8, 11)), (1, (3, 3))], [(0, (8, 11))])
    cands = [(0, (8, j)) for j in range(5, 11)]
    blocks = system.cell_blocks(base, g.face_keys(cands))
    # every cell a face reaches is listed; the cells that only base faces
    # reach, (1, (3, 3))'s among them, have no candidate and one row: the
    # block the base set alone gives them
    alone = ~blocks.reach.any(axis=1)
    assert blocks.cells.tolist() == face_slots(g, base, g.face_keys(cands))[0].tolist()
    assert blocks.cells[~alone].tolist() == face_slots(g, JumpSet(g, cands))[0].tolist()
    far = face_slots(g, JumpSet(g, [(1, (3, 3))]))[0].tolist()
    assert all(c in blocks.cells[alone].tolist() for c in far)
    own = system.cell_blocks(base)
    for i in np.flatnonzero(alone):
        j = own.cells.tolist().index(blocks.cells[i].tolist())
        row, want = blocks.start[i], own.start[j]
        assert blocks.dofs[row].tobytes() == own.dofs[want].tobytes()
        assert blocks.locs[row].tobytes() == own.locs[want].tobytes()
    # one table row per cell and subset of the candidates reaching it
    assert blocks.reach.tolist() == [
        [cell[0] in range(6, 10) and cell[1] == j for j in range(5, 11)]
        for cell in blocks.cells.tolist()]
    assert len(blocks.dofs) == len(blocks.locs) == blocks.start[-1] == sum(
        2 ** blocks.reach.sum(axis=1))
    assert np.array_equal(np.diff(blocks.start), 2 ** blocks.reach.sum(axis=1))


def test_one_stencil_pass_builds_the_search(monkeypatch):
    # the 12-face cross on 2D 8^2, with no base faces and with three, one
    # of them a candidate: the Hessian and the search's blocks come from
    # one cell_blocks table
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=split_target(g, seed=0))
    cands = sorted(_midline_candidates(g, 12, cross=True))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return face_slots(*args, **kwargs)

    monkeypatch.setattr(oracle, "face_slots", counted)
    for base in (JumpSet(g), JumpSet(g, [(0, (2, 1)), (1, (6, 2)), (1, (6, 4))])):
        calls.clear()
        oracle.ConfigurationEnergies(ElasticSystem(g, params), cands, base)
        assert len(calls) == 1


def test_batching_cannot_move_bits(monkeypatch):
    # 64 B: every node is walked depth-first, down to single leaves;
    # 64 MiB: the whole tree is one breadth-first batch
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=split_target(g, seed=0))
    cands = sorted(_midline_candidates(g, 12, cross=True))
    results, tables = [], []
    for chunk, batch_level in ((64, 12), (1 << 26, 0)):
        monkeypatch.setattr(oracle, "CHUNK_BYTES", chunk)
        energies = oracle.ConfigurationEnergies(ElasticSystem(g, params), cands,
                                                JumpSet(g))
        assert energies._batch_level == batch_level
        tables.append(energies.evaluate())
        results.append(brute_force_minimize(g, cands, params))
        _assert_rows_of_the_table(results[-1], tables[-1])
    a, b = results
    assert tables[0].tobytes() == tables[1].tobytes()
    assert a.best_config == b.best_config
    assert a.min_energy == b.min_energy
    assert np.array_equal(a.minimizer_u.values, b.minimizer_u.values)


def test_search_memory_stays_within_its_budget():
    # the 12-face cross on 2D 8^2 (4 096 configurations) and its psi0:
    # the tree's batches grow with oracle.CHUNK_BYTES, and with them the
    # peak of every exhaustive search
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=split_target(g, seed=0))
    cands = sorted(_midline_candidates(g, 12, cross=True))
    brute_force_minimize(g, cands[:2], params)   # lazy imports, untraced
    tracemalloc.start()
    try:
        res = brute_force_minimize(g, cands, params)
        search = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        deviation_psi0(res.minimizer_u, JumpSet(g, res.best_config.active_faces()),
                       params, centered_box(1.0, 2), cands)
        psi0 = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search <= 6 * 2 ** 20
    assert psi0 <= 6 * 2 ** 20


def test_deep_tree_matches_full_solves(monkeypatch, banded_sizes):
    # psi0's setting on a 10-face cross: the nodes outside the inner box
    # pinned to a field, base faces with owner_high flags (two of them
    # among the candidates), the homogeneous functional
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    h = g.spacing
    inner = BoxRegion((-1.0 + h,) * 2, (1.0 - h,) * 2)
    faces = [(0, (4, 2)), (0, (4, 3)), (0, (4, 6))]
    base = JumpSet(g, faces, faces[1:])
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=target).homogeneous()
    kwargs = dict(pinned_mask=~inner.contains_points(g.node_coord_grid()),
                  pinned_values=target.values)
    cands = sorted(_midline_candidates(g, 10, cross=True))
    # both factorizations against one set of 1 024 reference solves
    energy_of = full_solve_energies(ElasticSystem(g, params, **kwargs), cands,
                                    base)
    for dense_limit in (oracle.DENSE_DOF_LIMIT, 0):
        monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", dense_limit)
        res = brute_force_minimize(g, cands, params, base_jumps=base, **kwargs)
        assert 0 < res.best_config.n_active < len(cands)
        _assert_search_matches_full_solves(
            res, energy_of, cands, _full_table(g, params, cands, base, **kwargs))
        assert bool(banded_sizes) == (dense_limit == 0)


def test_residual_checks_can_fail(monkeypatch):
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=split_target(g, seed=0))
    cands = sorted(_midline_candidates(g, 6, cross=True))
    brute_force_minimize(g, cands, params)
    energies = oracle.ConfigurationEnergies
    condense, field = energies._condense, energies._field

    def perturbed_tree(self):
        # the tree eliminates with a block off by 1e-6; the leaves' D-row
        # residual reads the true one
        condense(self)
        level = next(blocks for blocks in self._levels if blocks)
        *head, mats, coupling = level[0]
        level[0] = (*head, mats * (1 + 1e-6), coupling)

    with monkeypatch.context() as mp:
        mp.setattr(energies, "_condense", perturbed_tree)
        with pytest.raises(SolverError, match="did not converge"):
            brute_force_minimize(g, cands, params)
    # the winner's x_Df off by 1e-6: its full-Hessian check fires
    monkeypatch.setattr(energies, "_field", lambda self, bits, x_Df: field(
        self, bits, x_Df * (1 + 1e-6)))
    with pytest.raises(SolverError, match="did not converge"):
        brute_force_minimize(g, cands, params)


@pytest.mark.parametrize("dense_limit", [oracle.DENSE_DOF_LIMIT, 0])
def test_singular_crack_free_block_raises(monkeypatch, dense_limit):
    # no fidelity, and two owner_high cracks that cut the corner cell off
    # its neighbours: the corner node's rows of H_II are zero
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", dense_limit)
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=0.1)
    corner = [(0, (1, 0)), (1, (0, 1))]
    pinned = np.zeros(g.node_shape, dtype=bool)
    pinned[-1] = True
    values = np.zeros(g.node_shape + (2,))
    values[-1, :, 0] = 0.3
    base = JumpSet(g, corner, corner)
    with pytest.raises(SolverError, match="singular elastic system"):
        brute_force_minimize(g, [(0, (4, 3)), (0, (4, 4))], params,
                             base_jumps=base, pinned_mask=pinned,
                             pinned_values=values)
    with pytest.raises(SolverError, match="singular elastic system"):
        solve_elastic(g, base, params, pinned_mask=pinned, pinned_values=values)


def test_more_candidates_than_the_exhaustive_search_are_refused(monkeypatch):
    def no_system(*args, **kwargs):
        raise AssertionError("the search built a system before refusing")

    monkeypatch.setattr(oracle, "ElasticSystem", no_system)
    g = GridSpec(2, 16, 1.0)
    u = rigid_field(g, 0)[0]
    params = EnergyParams(HOOKE, p=2.0, kappa=1.0, beta=1.0, g=u)
    # faces of the two mid lines, all inside deviation_psi0's inner box
    cands = ([(0, (8, j)) for j in range(2, 14)]
             + [(1, (j, 8)) for j in range(2, 14)])[:oracle.EXHAUSTIVE_LIMIT + 1]
    assert len(cands) == 21
    message = "21 candidates exceed the exhaustive search (at most 20)"
    with pytest.raises(ValueError) as exc:
        brute_force_minimize(g, cands, params)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        deviation_psi0(u, JumpSet(g), params, centered_box(1.0, 2), cands)
    assert str(exc.value) == message


@pytest.mark.parametrize("cands, message", [
    ([(0, (4, 9))], "outside the grid"),
    ([(0, (0, 3))], "is not interior"),
    ([(0, (4, 3)), (0, (4, 3))], "duplicate candidate"),
])
def test_malformed_candidate_lists_are_refused(monkeypatch, cands, message):
    def no_system(*args, **kwargs):
        raise AssertionError("the search built a system before refusing")

    monkeypatch.setattr(oracle, "ElasticSystem", no_system)
    g = GridSpec(2, 8, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=split_target(g, seed=0))
    with pytest.raises(ValueError, match=message):
        brute_force_minimize(g, cands, params)


def test_psi0_refuses_a_malformed_candidate():
    g = GridSpec(2, 8, 1.0)
    u = rigid_field(g, 0)[0]
    params = EnergyParams(HOOKE, p=2.0, kappa=1.0, beta=1.0, g=u)
    with pytest.raises(ValueError, match=r"^malformed face \(0, \(4,\)\)$"):
        deviation_psi0(u, JumpSet(g), params, centered_box(1.0, 2), [(0, (4,))])


def test_psi0_of_minimizer_and_perturbation():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.05, g=target)
    cands = [(0, (4, j)) for j in range(2, 6)]
    # Dirichlet data from the split target: with a free boundary the
    # homogeneous minimizer is u = 0 and both checks would be vacuous
    res = brute_force_minimize(g, cands, params, homogeneous=True,
                               pinned_mask=boundary_nodes(g),
                               pinned_values=target.values)
    assert res.min_energy > 0
    assert np.any(res.minimizer_u.values != 0.0)
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


def test_psi0_on_proper_sub_boxes():
    # a sub-box that leaves cells out makes the search evaluate each
    # competitor's energy on the region alone
    g = GridSpec(2, 16, 1.0)
    target = split_target(g, seed=0)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.05, g=target)
    cands = [(0, (8, j)) for j in range(5, 11)]
    res = brute_force_minimize(g, cands, params, homogeneous=True,
                               pinned_mask=boundary_nodes(g),
                               pinned_values=target.values)
    assert res.best_config.bitstring() == "111111"
    own = res.best_config.active_faces()
    boxes = (centered_box(0.75, 2), BoxRegion((-0.75, -1.0), (1.0, 0.75)))
    whole_box = centered_box(1.0, 2)
    for box in boxes:
        assert not np.all(box.cell_mask(g))
        out = deviation_psi0(res.minimizer_u, JumpSet(g, own), params, box,
                             cands)
        assert abs(out["psi0"]) <= 1e-9

    # an extra face outside the candidates: every sub-box competitor is a
    # whole-box competitor with the same energy off the sub-box, so the
    # sub-box gap is at most the whole-box one
    perturbed = JumpSet(g, own + [(0, (8, 11))])
    whole = deviation_psi0(res.minimizer_u, perturbed, params, whole_box,
                           cands)
    assert whole["psi0"] > 0
    for box in boxes:
        out = deviation_psi0(res.minimizer_u, perturbed, params, box, cands)
        assert out["own_energy"] < whole["own_energy"]
        assert 0 < out["psi0"] <= whole["psi0"]


def test_psi0_empty_candidates_iff_elastic_solution():
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.05, g=target)
    # v must match u outside the inner box; u := the crack-free solution
    # of the homogeneous Dirichlet problem is its own best competitor
    u, info = solve_elastic(g, JumpSet(g), params.homogeneous(),
                            pinned_mask=boundary_nodes(g),
                            pinned_values=target.values)
    assert info["bulk_fidelity_energy"] > 0
    assert np.any(u.values != 0.0)
    out = deviation_psi0(u, JumpSet(g), params, centered_box(1.0, 2), [])
    assert abs(out["psi0"]) <= 1e-9


def test_psi0_keeps_owner_high_flags_of_the_field_jumps():
    # u is its own Dirichlet minimizer on a crack with two owner_high
    # faces; its competitors must use the same stencils, so psi0 = 0
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.05, g=target)
    faces = [(0, (4, j)) for j in range(2, 6)]
    js = JumpSet(g, faces, faces[1:3])
    h = g.spacing
    inner = BoxRegion((-1.0 + h,) * 2, (1.0 - h,) * 2)
    pinned = ~inner.contains_points(g.node_coord_grid())
    u, _ = solve_elastic(g, js, params.homogeneous(), pinned_mask=pinned,
                         pinned_values=target.values)
    out = deviation_psi0(u, js, params, centered_box(1.0, 2), [])
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
    x = g.face_centers(g.face_keys([(0, (8, 8))]))[0]
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
        for x in g.face_centers(js.keys):
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


def _density_instances():
    """The density checks' settings, a 3D 32^3 midplane, and radii of 2.5h,
    whose spheres pass through cell centres and face centres."""
    for dim, cells, kappa in [(2, 32, 0.0), (2, 32, 2.0), (3, 16, 2.0)]:
        g = GridSpec(dim, cells, 1.0)
        u, js, _ = two_motion_crack_field(g, area=12 * g.face_area(), seed=3)
        h = g.spacing
        yield (f"{dim}d{cells}-kappa{kappa:g}", u, js,
               EnergyParams(HOOKE, p=2.0, kappa=kappa, beta=0.5),
               [2 * h, 2.5 * h, 4 * h, 8 * h, 0.95])
    for cells, seed in ((16, None), (32, 3)):   # the midplane checks
        g = GridSpec(2, cells, 1.0)
        target = two_sided_target(g) if seed is None else split_target(g, seed)
        params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.5, g=target)
        js = JumpSet(g, midplane_faces(g))
        h = g.spacing
        yield (f"2d{cells}-midplane", solve_elastic(g, js, params)[0], js, params,
               [2 * h, 2.5 * h, 4 * h, 8 * h])
    g = GridSpec(3, 32, 1.0)
    u = DisplacementField(g, np.random.default_rng(5).normal(
        size=g.node_shape + (3,)))
    h = g.spacing
    yield ("3d32-midplane", u, JumpSet(g, midplane_faces(g)),
           EnergyParams(HOOKE, p=2.0, kappa=1.5, beta=0.5), [2 * h, 2.5 * h, 4 * h])


@pytest.mark.parametrize("case", list(_density_instances()), ids=lambda c: c[0])
def test_density_rows_equal_the_ball_by_ball_reference(case):
    _, u, js, params, radii = case
    out = density_lower_bound_check(u, js, params, radii)
    want = density_rows(u, js, params, radii)
    # bit for bit: repr tells -0.0 from 0.0 and shows every digit
    assert repr(out["rows"]) == repr(want)
    assert all(row["centers"] for row in want[:3])


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


@pytest.mark.parametrize("g", [GridSpec(2, 32, 1.0), GridSpec(3, 8, 1.0)],
                         ids=["2d32", "3d8"])
def test_staircase_local_blocks_equal_per_cell_reference(g):
    # every reached cell's table row: the same DOFs in the same order and
    # the same local matrix, bit for bit
    js = staircase(g)
    hooke = HookeTensor(0.7, 1.3)
    blocks = ElasticSystem(g, EnergyParams(hooke, p=2.0, kappa=1.0)
                           ).cell_blocks(js)
    cells = sorted(affected_cells(g, js))
    assert blocks.cells.tolist() == [list(c) for c in cells]
    ctx = CrackContext(g, js)
    for cell, dofs, loc in zip(cells, blocks.dofs, blocks.locs):
        want_dofs, want = _reference_local(g, hooke, ctx, cell)
        n = want_dofs.size
        assert dofs[:n].tolist() == want_dofs.tolist()
        assert np.all(dofs[n:] == -1) and not np.any(loc[n:]) \
            and not np.any(loc[:, n:])
        assert loc[:n, :n].tobytes() == want.tobytes()


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
def test_assembly_matches_per_cell_reference(dim, cells, n_faces, seed):
    g = GridSpec(dim, cells, 1.0)
    rng = np.random.default_rng(seed)
    target = DisplacementField(g, rng.normal(size=g.node_shape + (dim,)))
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=1.5, beta=0.1,
                          g=target)
    system = ElasticSystem(g, params)
    # crack-free, the CSR sums equal the reference's bit for bit
    H0, _, _ = system.system_for(JumpSet(g))
    assert np.array_equal(H0.toarray(), reference_system(g, params, JumpSet(g)))

    # the corrections of a crack set are summed in another order
    js = random_crack_set(g, rng, n_faces)
    ref = reference_system(g, params, js)
    H, _, _ = system.system_for(js)
    err = np.max(np.abs(H.toarray() - ref)) / np.max(np.abs(ref))
    assert err <= 1e-14


def test_sparse_and_dense_solves_agree(monkeypatch, banded_sizes):
    g = GridSpec(2, 16, 1.0)
    target = two_sided_target(g)
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.1, g=target)
    js = JumpSet(g, [(0, (8, j)) for j in range(4, 12)])
    u_lu, info_lu = ElasticSystem(g, params).solve(js)
    assert banded_sizes == []
    monkeypatch.setattr(oracle, "DENSE_DOF_LIMIT", 0)
    u_band, info = ElasticSystem(g, params).solve(js)
    # free boundary: every DOF is eliminated
    assert banded_sizes == [2 * 17 ** 2]
    assert info_lu["relative_residual"] <= 1e-10
    assert info["relative_residual"] <= 1e-10
    assert float(np.max(np.abs(u_lu.values - u_band.values))) < 1e-9


_PROPERTY_GRID = GridSpec(2, 8, 1.0)
_faces_2d8 = st.tuples(st.integers(0, 1), st.integers(1, 7),
                       st.integers(0, 7)).map(
    lambda t: (t[0], (t[1], t[2]) if t[0] == 0 else (t[2], t[1])))


@given(faces=st.lists(_faces_2d8, max_size=20, unique=True),
       owner_flags=st.lists(st.booleans(), min_size=20, max_size=20),
       fixed=st.booleans(),
       dense_limit=st.sampled_from([oracle.DENSE_DOF_LIMIT, 0]))
def test_quadratic_energy_equals_quadrature_energy(faces, owner_flags, fixed,
                                                   dense_limit):
    g = _PROPERTY_GRID
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.1,
                          g=two_sided_target(g))
    owner_high = [f for f, flag in zip(faces, owner_flags) if flag]
    js = JumpSet(g, faces, owner_high)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "DENSE_DOF_LIMIT", dense_limit)
        _, info = solve_elastic(g, js, params,
                                pinned_mask=boundary_nodes(g) if fixed else None)
    assert info["energy_consistency"] <= 1e-9


_SEARCH_GRIDS = (GridSpec(2, 6, 1.0), GridSpec(2, 7, 1.0), GridSpec(2, 8, 1.0),
                 GridSpec(3, 4, 1.0))


def _face_lists(g: GridSpec, min_size: int, max_size: int):
    m = g.cells_per_side
    face = st.tuples(st.integers(0, g.dim - 1),
                     st.lists(st.integers(0, m - 1), min_size=g.dim,
                              max_size=g.dim),
                     st.integers(1, m - 1)).map(
        lambda t: (t[0], tuple(t[1][:t[0]] + [t[2]] + t[1][t[0] + 1:])))
    return st.lists(face, min_size=min_size, max_size=max_size, unique=True)


@given(data=st.data())
def test_condensed_search_matches_full_solves(data):
    g = data.draw(st.sampled_from(_SEARCH_GRIDS))
    cands = sorted(data.draw(_face_lists(g, 1, 5)))
    base_faces = data.draw(_face_lists(g, 0, 6))
    owner = data.draw(st.lists(st.booleans(), min_size=len(base_faces),
                               max_size=len(base_faces)))
    base = JumpSet(g, base_faces, [f for f, o in zip(base_faces, owner) if o])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    shape = g.node_shape + (g.dim,)
    fixed = data.draw(st.booleans())
    homogeneous = data.draw(st.booleans())
    pinned = boundary_nodes(g) if fixed else np.zeros(g.node_shape, dtype=bool)
    if data.draw(st.booleans()):
        pinned = pinned | (rng.random(g.node_shape) < 0.2)
    kwargs = dict(
        pinned_mask=pinned if pinned.any() else None,
        pinned_values=rng.normal(size=shape) if data.draw(st.booleans()) else None)
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0,
                          kappa=data.draw(st.sampled_from([0.5, 2.0])), beta=0.05,
                          g=DisplacementField(g, rng.normal(size=shape)))

    res = brute_force_minimize(g, cands, params, base_jumps=base,
                               homogeneous=homogeneous, **kwargs)
    if homogeneous:
        params = params.homogeneous()
    _assert_search_matches_full_solves(res, full_solve_energies(
        ElasticSystem(g, params, **kwargs), cands, base), cands,
        _full_table(g, params, cands, base, **kwargs))


def _assert_tree_keeps_the_gather_bits(energies, probe):
    """Every (bits, x_Df) batch of the tree and its corrections, byte for
    byte those of the gather-based step, and the path of each leaf in
    ``probe`` walked again to the reference's x_Df."""
    got, ref = list(energies._leaves()), list(gather_leaves(energies))
    assert len(got) == len(ref)
    for (bits, x_Df), (ref_bits, ref_x) in zip(got, ref):
        assert bits.tobytes() == ref_bits.tobytes()
        assert x_Df.tobytes() == ref_x.tobytes()
        x_D = np.concatenate([x_Df, np.broadcast_to(
            energies._xDp, (bits.size, energies._xDp.size))], axis=1)
        for a, b in zip(energies._corrections(bits, x_D),
                        gather_corrections(energies, bits, x_D)):
            assert a.tobytes() == b.tobytes()
    for b in probe:
        (leaf,) = gather_leaves(energies, b)
        assert energies.minimizer(b).tobytes() == \
            energies._field(*leaf)[0][0].tobytes()


_PIN_GRIDS = tuple(GridSpec(2, m, 1.0) for m in range(6, 13)) + (
    GridSpec(3, 4, 1.0),)


@given(data=st.data())
def test_broadcast_tree_keeps_the_gather_steps_bits(data):
    g = data.draw(st.sampled_from(_PIN_GRIDS))
    cands = sorted(data.draw(_face_lists(g, 1, 7)))
    base_faces = data.draw(_face_lists(g, 0, 6))
    owner = data.draw(st.lists(st.booleans(), min_size=len(base_faces),
                               max_size=len(base_faces)))
    base = JumpSet(g, base_faces, [f for f, o in zip(base_faces, owner) if o])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    shape = g.node_shape + (g.dim,)
    h = g.spacing
    # no Dirichlet data, the grid boundary, or psi0's ring outside the
    # box one cell inside the grid
    pinned = data.draw(st.sampled_from([
        None, boundary_nodes(g), ~BoxRegion((-1.0 + h,) * g.dim, (1.0 - h,) * g.dim)
        .contains_points(g.node_coord_grid())]))
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=2.0, beta=0.05,
                          g=DisplacementField(g, rng.normal(size=shape)))
    system = ElasticSystem(g, params, pinned,
                           None if pinned is None else rng.normal(size=shape))
    probe = rng.integers(0, 2 ** len(cands), 2).tolist()
    for chunk in (64, oracle.CHUNK_BYTES, 1 << 26):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CHUNK_BYTES", chunk)
            energies = oracle.ConfigurationEnergies(system, cands, base)
        _assert_tree_keeps_the_gather_bits(energies, probe)


def test_blocks_decided_across_a_batch_root_keep_the_gather_bits():
    # psi0's setting on the 8-face cross: every level in turn is the batch
    # root, so some blocks have candidates decided above it and below it
    g = GridSpec(2, 8, 1.0)
    target = two_sided_target(g)
    h = g.spacing
    inner = BoxRegion((-1.0 + h,) * 2, (1.0 - h,) * 2)
    faces = [(0, (4, 2)), (0, (4, 3)), (0, (4, 6))]
    params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                          g=target).homogeneous()
    system = ElasticSystem(g, params, ~inner.contains_points(g.node_coord_grid()),
                           target.values)
    cands = sorted(_midline_candidates(g, 8, cross=True))
    energies = oracle.ConfigurationEnergies(system, cands, JumpSet(g, faces, faces[1:]))
    across = 0
    for batch in range(len(cands) + 1):
        energies._batch_level = batch
        across += any(lvs[0] < batch <= lvs[-1] for lvs, *_ in energies._blocks)
        _assert_tree_keeps_the_gather_bits(energies, [0, 2 ** len(cands) - 1, 165])
    assert across


@given(data=st.data())
def test_incremental_elimination_order_matches_the_recount(data):
    g = data.draw(st.sampled_from(_PIN_GRIDS))
    cands = sorted(data.draw(_face_lists(g, 1, 8)))
    base = JumpSet(g, data.draw(_face_lists(g, 0, 4)))
    pinned = data.draw(st.sampled_from([None, boundary_nodes(g)]))
    system = ElasticSystem(g, EnergyParams(HOOKE, p=2.0, kappa=1.0), pinned)
    energies = oracle.ConfigurationEnergies(system, cands, base)
    blocks = list(energies._cell_blocks())
    pin = np.repeat(system.pinned.reshape(-1), g.dim)
    D = np.unique(np.concatenate([d for _, d, *_ in blocks] + [[]])).astype(int)
    got = oracle._elimination_order(blocks, D[~pin[D]], len(cands))
    want = elimination_order(blocks, D[~pin[D]], len(cands))
    assert got[0] == want[0] == energies._order
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def _pruning_instance(data):
    """A search that the bound can prune: a cross or random interior
    faces (1-10) on 2D 6^2-12^2 or 3D 4^3, base faces with owner_high
    flags, a split or random target, and no Dirichlet data, the grid
    boundary or psi0's ring pinned."""
    g = data.draw(st.sampled_from(_PIN_GRIDS))
    if data.draw(st.booleans()):
        most = min(10, 2 * (g.cells_per_side - 2))
        cands = _midline_candidates(g, data.draw(st.integers(1, most)), True)
    else:
        cands = data.draw(_face_lists(g, 1, 10))
    cands = sorted(cands)
    base_faces = data.draw(_face_lists(g, 0, 6))
    owner = data.draw(st.lists(st.booleans(), min_size=len(base_faces),
                               max_size=len(base_faces)))
    base = JumpSet(g, base_faces, [f for f, o in zip(base_faces, owner) if o])
    seed = data.draw(st.integers(0, 2 ** 16))
    target = split_target(g, seed=seed) if data.draw(st.booleans()) else \
        DisplacementField(g, np.random.default_rng(seed).normal(
            size=g.node_shape + (g.dim,)))
    h = g.spacing
    pinned = data.draw(st.sampled_from([
        None, boundary_nodes(g), ~BoxRegion((-1.0 + h,) * g.dim, (1.0 - h,) * g.dim)
        .contains_points(g.node_coord_grid())]))
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=2.0,
                          beta=data.draw(st.sampled_from([0.005, 0.05])),
                          g=target)
    return g, cands, params, base, dict(pinned_mask=pinned,
                                        pinned_values=target.values)


@given(data=st.data())
def test_pruned_search_keeps_the_full_tables_winner(data):
    # against the table of the same batching: a row's last bit can depend
    # on the size of the batch that computes it
    g, cands, params, base, kwargs = _pruning_instance(data)
    for chunk in (64, oracle.CHUNK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CHUNK_BYTES", chunk)
            res = brute_force_minimize(g, cands, params, base_jumps=base,
                                       **kwargs)
            energies = oracle.ConfigurationEnergies(
                ElasticSystem(g, params, **kwargs), cands, base)
        _assert_rows_of_the_table(res, energies.evaluate())
        assert res.minimizer_u.values.tobytes() == energies.minimizer(
            res.best_config.active_bits).tobytes()


def _assert_bounds_lie_below_their_subtrees(energies) -> int:
    """Every bound the search computes is at most the lowest total of the
    node's subtree in evaluate()'s table, within the bound's error, and
    the search's rows are the table's; returns the number of bounds."""
    table = energies.evaluate()
    bound, seen = energies._bound, []

    def spy(Sr, bits, level, drop, acc):
        out = bound(Sr, bits, level, drop, acc)
        seen.append((bits, level, out))
        return out

    energies._bound = spy
    rows = energies.search()
    assert rows.tobytes() == table[rows["bits"]].tobytes()
    order = energies._order
    for bits, level, (bounds, errs, _) in seen:
        decided = sum(1 << j for j in order[:level + 1])
        for b in (0, 1):
            node = bits | b << order[level]
            below = table["total"][table["bits"] & decided == node]
            assert bounds[b] <= below.min() + errs[b]
    return 2 * len(seen)


@given(data=st.data())
def test_bounds_lie_below_their_subtrees(data):
    # each node bounded (CHUNK_BYTES 64 B), and each block's Q such that
    # B_c(t) - (B - Q on d x d) is PSD for every subset t
    g, cands, params, base, kwargs = _pruning_instance(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "CHUNK_BYTES", 64)
        energies = oracle.ConfigurationEnergies(
            ElasticSystem(g, params, **kwargs), cands, base)
    _assert_bounds_lie_below_their_subtrees(energies)
    for _, d, mats, base_mat in energies._cell_blocks():
        q = oracle._schur_complement(base_mat, d.size)
        lam = np.linalg.eigvalsh(mats + q)
        assert lam.min() >= -1e-10 * np.abs(base_mat).max()


def test_bounds_couple_the_pinned_nodes_of_pending_cells(monkeypatch):
    # a candidate in a cell on the pinned boundary, with Dirichlet data
    # five times the target: a pending block's Q couples the pinned values
    # into the bound's right-hand side, and the bound fails without them
    g = GridSpec(2, 6, 1.0)
    shape = g.node_shape + (2,)
    target = DisplacementField(g, np.random.default_rng(10115).normal(size=shape))
    params = EnergyParams(HookeTensor(0.7, 1.3), p=2.0, kappa=2.0, beta=0.005,
                          g=target)
    system = ElasticSystem(g, params, boundary_nodes(g),
                           5 * np.random.default_rng(10116).normal(size=shape))
    monkeypatch.setattr(oracle, "CHUNK_BYTES", 64)
    energies = oracle.ConfigurationEnergies(system, [(0, (5, 5)), (1, (2, 3))],
                                            JumpSet(g))
    assert _assert_bounds_lie_below_their_subtrees(energies) > 0


def test_pruning_skips_three_quarters_of_the_cross():
    # the benchmark's 12-face cross on 2D 8^2: the bound prunes 12 of the
    # 16 batches of 256 leaves on each of these targets
    g = GridSpec(2, 8, 1.0)
    cands = sorted(_midline_candidates(g, 12, cross=True))
    for seed in range(3):
        params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02,
                              g=split_target(g, seed=seed))
        res = brute_force_minimize(g, cands, params)
        assert len(res.per_config) <= 1024
        _assert_rows_of_the_table(res, _full_table(g, params, cands))
