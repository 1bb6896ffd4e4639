"""End-to-end approximation pipeline and its quantitative contract."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from smalljump import approximator
from smalljump import grid as grid_module
from smalljump.approximator import (
    C_STAR_DEFAULT,
    ApproxConfig,
    _assert_structure,
    _blend_numerator,
    _norm_region_boxes,
    _outside_node_slabs,
    approximate,
    boundary_trace_check,
    fit_decay_exponent,
    verify_properties,
)
from smalljump.covering import DyadicCube, boundary_faces_of_mask
from smalljump.energy import (
    EnergyParams,
    HookeTensor,
    cellwise_pth_power,
    f_zero,
    lp_norm_cells,
)
from smalljump.errors import CoveringError, FitError, RegimeError
from smalljump.generators import (
    CrackPatch,
    field_with_patches,
    random_cracks_field,
    rigid_patches_field,
    rigid_field,
    shrinking_crack_instance,
    sinusoid_field,
    two_motion_crack_field,
)
from smalljump.grid import (
    BoxRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    centered_box,
)
from smalljump.kornfit import cube_smoothed_field, extract_exceptional_set
from smalljump.strain import symmetric_gradient
from tests import approx_reference as ref
from tests import covering_reference as cref
from tests import strain_reference as sref

PARAMS = EnergyParams(HookeTensor(1.0, 1.0), p=2.0)
CFG = ApproxConfig(eta=0.5)


def test_rigid_field_reproduced_exactly():
    for dim, m in ((2, 64), (3, 32)):
        g = GridSpec(dim, m, 1.0)
        u, j = rigid_field(g, seed=1)
        res = approximate(u, j, PARAMS, CFG)
        assert float(np.max(np.abs(res.u_tilde.values - u.values))) <= 1e-12
        assert len(res.new_jump) == 0
        assert res.omega_volume == 0.0
        assert 1.0 - np.sqrt(res.delta) < res.radius < 1.0


def test_smooth_field_keeps_no_jump_and_small_strain_error():
    g = GridSpec(2, 64, 1.0)
    u, j = sinusoid_field(g, seed=2)
    res = approximate(u, j, PARAMS, CFG)
    rep = verify_properties(u, j, res, PARAMS, CFG)
    assert len(res.new_jump) == 0
    assert rep.by_name("p3_strain_error").realized <= 1.0
    assert rep.by_name("p2_new_jump").lhs == 0.0


def test_two_motion_crack_budgets_and_direct_crosscheck():
    g = GridSpec(2, 128, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.004, seed=3)
    res = approximate(u, j, PARAMS, CFG)
    rep = verify_properties(u, j, res, PARAMS, CFG)
    assert rep.passed

    # independent re-evaluation of the new-jump inequality from raw sets
    new_faces = res.new_jump.faces - j.faces
    lhs = len(new_faces) * g.face_area()
    shell_faces = np.count_nonzero(np.max(np.abs(g.face_centers(j.keys)), axis=1)
                                   > 1.0 - np.sqrt(res.delta))
    rhs = np.sqrt(res.delta) * shell_faces * g.face_area()
    c2 = rep.by_name("p2_new_jump")
    assert c2.lhs == pytest.approx(lhs)
    assert c2.budget == pytest.approx(rhs)

    # independent re-evaluation of the strain error by raw quadrature
    from smalljump.mollify import mollify

    e_u = sref.symmetric_gradient(u, j)
    e_t = sref.symmetric_gradient(res.u_tilde, res.new_jump)
    mol, margin = mollify(e_u, 2, res.delta, g.spacing)
    mask = centered_box(1.0 - np.sqrt(res.delta), 2).cell_mask(g)
    d = np.sqrt(np.sum((e_t - mol) ** 2, axis=(-2, -1)))
    lhs3 = (np.sum(d[mask] ** 2) * g.spacing ** 2) ** 0.5
    assert rep.by_name("p3_strain_error").lhs == pytest.approx(lhs3, rel=1e-12)


def test_p1_counts_crack_changes_off_the_open_box_q_r():
    g = GridSpec(2, 64, 1.0)
    u, j = sinusoid_field(g, seed=2)
    res = approximate(u, j, PARAMS, CFG)
    assert verify_properties(u, j, res, PARAMS, CFG).by_name(
        "p1_boundary_faces").passed
    # R/h is a half-integer: row k of faces across axis 1 has its centre
    # at (k + 1/2 - M/2) h, which is R on row k = M/2 + R/h - 1/2
    row = g.cells_per_side // 2 + round(res.radius / g.spacing - 0.5)
    mid = g.cells_per_side // 2
    for face, inside in (((0, (1, 1)), False),          # near the corner
                         ((0, (mid, row)), False),      # straddles dQ_R
                         ((0, (mid, row - 1)), True)):  # last row inside
        moved = replace(res, new_jump=JumpSet(g, res.new_jump.faces | {face}))
        check = verify_properties(u, j, moved, PARAMS, CFG).by_name(
            "p1_boundary_faces")
        assert check.passed == inside
        assert check.lhs == (0.0 if inside else 1.0)


def test_crown_crack_produces_contained_new_jump():
    # a 6-cell crack bundle deep in the crown (plane 50 of 2D 64^2): bad
    # cubes appear and the new faces lie on the bad-set boundary
    u, j, cfg = _crown_crack_instance(2, 64, 18, 3, 0.5)
    res = approximate(u, j, PARAMS, cfg)
    assert np.any(res.covering.bad_cells)
    new_faces = res.new_jump.faces - j.faces
    assert new_faces
    assert set(u.grid.face_keys(new_faces).tolist()) <= set(
        boundary_faces_of_mask(res.covering.bad_cells).tolist())
    rep = verify_properties(u, j, res, PARAMS, cfg)
    assert rep.by_name("p2_new_jump").detail["containment"]


def test_regime_gate():
    g = GridSpec(2, 64, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.5, seed=4)
    with pytest.raises(RegimeError):
        approximate(u, j, PARAMS, ApproxConfig(eta=0.1))


def test_non_coercive_hooke_tensor_refused_before_any_work(monkeypatch):
    g = GridSpec(2, 32, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.05, seed=1)

    def no_strain(*args, **kwargs):
        raise AssertionError("the approximation ran on a refused tensor")

    monkeypatch.setattr(approximator, "symmetric_gradient", no_strain)
    params = EnergyParams(HookeTensor(-5.0, 1.0), p=2.0)
    with pytest.raises(ValueError, match="dim\\*lambda \\+ 2\\*mu must be "
                                         "positive, got -8 in 2D"):
        approximate(u, j, params, CFG)


def test_non_dyadic_grid_rejected():
    g = GridSpec(2, 6, 1.0)
    u, j = rigid_field(g, seed=0)
    with pytest.raises(RegimeError):
        approximate(u, j, PARAMS, CFG)


def test_determinism_bitwise():
    g = GridSpec(2, 64, 1.0)
    u, j, _ = random_cracks_field(g, 2, 2, seed=5)
    r1 = approximate(u, j, PARAMS, CFG)
    r2 = approximate(u, j, PARAMS, CFG)
    assert np.array_equal(r1.u_tilde.values, r2.u_tilde.values)
    assert r1.new_jump.faces == r2.new_jump.faces
    assert np.array_equal(r1.omega_cells, r2.omega_cells)
    assert r1.radius == r2.radius


def test_idempotence_on_smooth_output():
    g = GridSpec(2, 64, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.004, seed=6)
    res = approximate(u, j, PARAMS, CFG)
    res2 = approximate(res.u_tilde, res.new_jump, PARAMS, CFG)
    e1 = symmetric_gradient(res.u_tilde, res.new_jump)
    e2 = symmetric_gradient(res2.u_tilde, res2.new_jump)
    n1 = lp_norm_cells(e1, g, 2.0)
    n2 = lp_norm_cells(e2, g, 2.0)
    budget = res2.delta ** 0.25 * n1
    assert abs(n2 - n1) <= 10.0 * budget + 1e-12


def test_omega_inside_radius_and_report_json():
    import json

    g = GridSpec(2, 64, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.01, seed=7)
    res = approximate(u, j, PARAMS, CFG)
    rep = verify_properties(u, j, res, PARAMS, CFG)
    payload = json.loads(rep.to_json())
    assert {c["name"] for c in payload["checks"]} >= {
        "p1_match_outside", "p2_new_jump", "p3_strain_error",
        "p4_volume", "p5_weighted_energy"}
    assert payload["s_reference_formula"].startswith("min(")
    if np.any(res.omega_cells):
        centers = np.abs(g.cell_center_grid())
        cheb = np.max(centers, axis=-1)
        assert float(np.max(cheb[res.omega_cells])) < res.radius


def test_boundary_trace_examples():
    g = GridSpec(2, 64, 1.0)
    u, j = rigid_field(g, seed=8)
    res = approximate(u, j, PARAMS, CFG)
    out = boundary_trace_check(u, j, res)
    assert out["pass"]
    assert all(max(r["fractions"]) == 0.0 for r in out["rows"])

    u2, j2, _ = two_motion_crack_field(g, area=0.01, seed=9)
    res2 = approximate(u2, j2, PARAMS, CFG)
    out2 = boundary_trace_check(u2, j2, res2)
    assert out2["pass"]


def test_sweep_family_decay():
    g = GridSpec(2, 128, 1.0)
    deltas, ratios = [], []
    for k in range(3):
        dk = 0.25 * 2 ** (-k)
        u, j, _ = shrinking_crack_instance(g, dk, seed=10)
        cfg = ApproxConfig(eta=0.5, delta=dk)
        res = approximate(u, j, PARAMS, cfg)
        rep = verify_properties(u, j, res, PARAMS, cfg)
        e = symmetric_gradient(u, j)
        ratios.append(rep.by_name("p3_strain_error").lhs
                      / lp_norm_cells(e, g, 2.0))
        deltas.append(res.delta)
    assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    assert fit_decay_exponent(deltas, ratios) >= 0.05


def test_fit_decay_exponent_on_synthetic_data():
    deltas = [0.25, 0.125, 0.0625]
    values = [d ** 0.5 for d in deltas]
    assert fit_decay_exponent(deltas, values) == pytest.approx(0.5, abs=1e-9)


def test_smoothness_proxy_reported_finite():
    g = GridSpec(2, 64, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.004, seed=11)
    res = approximate(u, j, PARAMS, CFG)
    rep = verify_properties(u, j, res, PARAMS, CFG)
    proxy = rep.smoothness_proxy
    assert proxy["finite"]
    assert proxy["max_second_difference"] >= 0.0


def _crown_crack_instance(dim: int, m: int, depth: int, half: int, eta: float):
    """A crack bundle in the crown, 2*half cells wide on the plane ``depth``
    cells above the centre, that turns crown cubes bad (delta = 0.25
    lattice)."""
    g = GridSpec(dim, m, 1.0)
    off = m // 2
    patch = CrackPatch(0, off + depth, (off - half,) * (dim - 1),
                       (off + half,) * (dim - 1), 3, 2)
    u, j = field_with_patches(g, [patch], [np.array([0.4, -0.2, 0.1][:dim])])
    return u, j, ApproxConfig(eta=eta, delta=0.25)


def _windowed_instances():
    for dim, m in ((2, 64), (3, 32)):
        g = GridSpec(dim, m, 1.0)
        u, j, _ = rigid_patches_field(g, 3, 2, seed=dim)
        yield f"{dim}d-rigid-patches", u, j, CFG, PARAMS
        u, j, _ = two_motion_crack_field(g, area=4 * g.face_area(), seed=dim)
        yield (f"{dim}d-two-motion-p1.5", u, j, CFG,
               EnergyParams(HookeTensor(1.0, 1.0), p=1.5))
    # a smooth field whose approximant leaves the 1e-2 and 1e-3 trace
    # thresholds in many half-balls
    yield ("3d-sinusoid", *sinusoid_field(GridSpec(3, 32, 1.0), seed=2), CFG,
           PARAMS)
    yield ("2d-crown", *_crown_crack_instance(2, 64, 18, 3, 0.5), PARAMS)
    yield ("3d-crown", *_crown_crack_instance(3, 32, 8, 2, 0.5), PARAMS)


@pytest.mark.parametrize("case", list(_windowed_instances()),
                         ids=lambda c: c[0])
def test_windowed_verification_equals_whole_grid_reference(case):
    name, u, j, cfg, params = case
    res = approximate(u, j, params, cfg)
    if "crown" in name:
        assert np.any(res.covering.bad_cells)
    rep = verify_properties(u, j, res, params, cfg)
    g = u.grid

    assert rep.by_name("p3_strain_error").lhs == \
        ref.p3_strain_lhs(u, j, res, params.p)
    detail3b, detail6, sums = ref.region_checks(u, j, res, params)
    assert rep.by_name("p3_energy").detail["per_region"] == detail3b
    assert rep.by_name("p6_lp_growth").detail["per_region"] == detail6
    # the same sums read through the box slices
    bulk_u = f_zero(res.strain, params)
    bulk_t = f_zero(symmetric_gradient(res.u_tilde, res.new_jump), params)
    u_pth = cellwise_pth_power(u.values, g, params.p)
    t_pth = cellwise_pth_power(res.u_tilde.values, g, params.p)
    domain = centered_box(1.0, g.dim)
    for region_name, region in _norm_region_boxes(g.dim, np.sqrt(res.delta)):
        box = region.cell_slices(g)
        dilated = region.dilate(3.0 * res.delta, clip=domain).cell_slices(g)
        assert sums[region_name] == (
            float(np.sum(bulk_t[box].ravel())),
            float(np.sum(bulk_u[dilated].ravel())),
            float(np.sum(t_pth[box].ravel())),
            float(np.sum(u_pth[box].ravel())))
    assert rep.smoothness_proxy == ref.second_difference_proxy(res)
    assert boundary_trace_check(u, j, res)["rows"] == \
        ref.boundary_trace_rows(u, res)
    # the same bits from slabs of three cell planes, whose edges cut the
    # inner box
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "SLAB_BYTES",
                   8 * 3 * g.cells_per_side ** (g.dim - 1))
        res3 = approximate(u, j, params, cfg)
        assert np.array_equal(res3.u_tilde.values, res.u_tilde.values)
        assert np.array_equal(res3.strain, res.strain)
        assert verify_properties(u, j, res3, params, cfg).to_json() == \
            rep.to_json()


def test_approximation_peak_memory_in_units_of_the_field():
    # the traced peak of approximate + verify_properties on 3D 64^3: 9.8
    # fields while the whole-grid cell kernels ran on whole arrays, 6.9
    # since they run slab by slab, 5.95 since verify_properties releases
    # each cell field once its property is measured.  scipy.ndimage is
    # imported at the first convolution; import it first, so that its
    # module objects are not traced with the arrays.
    from scipy import ndimage  # noqa: F401
    g = GridSpec(3, 64, 1.0)
    u, j, _ = rigid_patches_field(g, 3, 2, 0, amplitude=0.08)
    tracemalloc.start()
    try:
        res = approximate(u, j, PARAMS, CFG)
        assert verify_properties(u, j, res, PARAMS, CFG).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / u.values.nbytes < 6.5


def test_box_cell_slices_match_the_mask():
    g = GridSpec(3, 16, 1.0)
    h = g.spacing
    boxes = [centered_box(0.5, 3), centered_box(1.0, 3),
             BoxRegion((-0.75, 0.0, -1.0), (0.25, 2 * h, 1.0)),
             BoxRegion((0.0, -0.1, 0.3), (0.5 * h, 0.4, 0.35)),   # empty
             BoxRegion((h, -1.0, -1.0), (2 * h, 1.0, 1.0))]      # one cell thick
    vals = np.random.default_rng(0).normal(size=g.cell_shape)
    for box in boxes:
        mask = ref.box_cell_mask(g, box)
        sl = box.cell_slices(g)
        assert np.array_equal(box.cell_mask(g), mask)
        assert np.array_equal(vals[sl].ravel(), vals[mask])
        assert np.sum(vals[sl].ravel()) == np.sum(vals[mask])
        if not mask.any():
            assert all(s.stop == s.start for s in sl)


def _mixed_instance(dim: int, m: int, crown: tuple, pocket: tuple,
                    c_star: float):
    """The crown bundle of ``_crown_crack_instance`` (bad cubes) and a
    pocket with only its first face declared, which demotes a good cube
    that fits it; other good cubes whose 3/2 boxes meet a declared face
    keep fits, some with exceptional cells.  ``crown`` and ``pocket`` are
    (axis, plane offset, transverse centre, half-width, pocket depth,
    ramp), in cells from the centre."""
    g = GridSpec(dim, m, 1.0)
    off = m // 2
    patches = [CrackPatch(axis, off + plane, tuple(off + c - half for c in centre),
                          tuple(off + c + half for c in centre), depth, ramp)
               for axis, plane, centre, half, depth, ramp in (crown, pocket)]
    opening = np.array([0.4, -0.2, 0.1][:dim])
    u, _ = field_with_patches(g, patches, [opening, opening])
    faces = g.face_tuples(patches[0].face_keys(g)) \
        + g.face_tuples(patches[1].face_keys(g))[:1]
    return u, JumpSet(g, faces), ApproxConfig(eta=0.5, delta=0.25, c_star=c_star)


@pytest.mark.parametrize("case,plain_sides", [
    ((2, 64, (0, 18, (0,), 3, 3, 2), (1, -8, (-6,), 2, 4, 1), 0.5), 2),
    ((3, 32, (0, 8, (0, 0), 2, 3, 2), (1, -4, (-4, -4), 1, 3, 2), C_STAR_DEFAULT), 1),
    ((3, 64, (0, 16, (0, 0), 3, 3, 2), (1, -8, (-6, -6), 2, 4, 1), 0.5), 2),
], ids=["2d", "3d", "3d-two-sides"])
def test_partition_and_blend_equal_per_cube_reference(case, plain_sides):
    u, j, cfg = _mixed_instance(*case)
    res = approximate(u, j, PARAMS, cfg)
    cov, part = res.covering, res.partition
    fits = {s["cube"]: extract_exceptional_set(u, j, res.strain, cov.cubes[s["cube"]],
                                               cfg.c_star, p=PARAMS.p)
            for s in res.fit_summaries}
    assert res.demoted_cubes and np.count_nonzero(~cov.good) > len(res.demoted_cubes)
    assert any(f.omega.n_cells > 0 for f in fits.values())
    # the blend smooths u once per side for the cubes without exceptional
    # cells: those must span the case's number of sides
    plain = [i for i in part.cube_index.tolist()
             if i not in fits or fits[i].omega.n_cells == 0]
    assert len(set(cov.sides[plain].tolist())) >= plain_sides

    entries, densum, counts, grad = cref.partition_of_unity(cov, part.rim_phi)
    assert part.cube_index.tolist() == [i for i, _, _ in entries]
    assert np.array_equal(part.phi_tilde,
                          np.concatenate([phi.ravel() for _, _, phi in entries]))
    windows = [np.indices([s.stop - s.start for s in w]).reshape(u.grid.dim, -1)
               + np.array([s.start for s in w])[:, None] for _, w, _ in entries]
    assert np.array_equal(part.node_index(), np.concatenate(
        [np.ravel_multi_index(tuple(w), u.grid.node_shape) for w in windows]))
    assert np.array_equal(part.densum, densum)
    assert np.array_equal(cref.overlap_count(part), counts)
    assert part.grad_scaled == grad
    assert np.array_equal(_blend_numerator(u, part, fits),
                          cref.blend_numerator(u, cov, entries, part.rim_phi, fits))


def test_smoothing_window_exiting_the_grid_raises():
    g = GridSpec(2, 32, 1.0)
    u, _ = rigid_field(g, seed=1)
    edge = DyadicCube(0, (-16, 0), 8)   # its q' cells start at the grid edge
    with pytest.raises(FitError, match="smoothing window exits the grid"):
        cube_smoothed_field(u, edge, None)
    with pytest.raises(FitError, match="smoothing window exits the grid"):
        ref.cube_smoothed_field(u, edge, None)


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
def test_outside_node_slabs_are_the_nodes_outside_q_r(dim, m):
    g = GridSpec(dim, m, 1.0)
    for radius in (-1.0, 0.0, 0.3, 0.5, 1.0 - g.spacing, 0.99, 1.0):
        mask = np.zeros(g.node_shape, dtype=bool)
        for s in _outside_node_slabs(g, radius):
            assert mask[s].size > 0
            mask[s] = True
        cheb = np.max(np.abs(g.node_coord_grid()), axis=-1)
        assert np.array_equal(mask, cheb > radius)


@settings(max_examples=10)
@given(grid=st.sampled_from([(2, 32), (2, 64), (3, 32)]),
       generator=st.sampled_from([random_cracks_field, rigid_patches_field]),
       count=st.integers(1, 3), extent=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_approximant_equals_the_input_outside_q_r(grid, generator, count,
                                                   extent, seed):
    g = GridSpec(*grid, 1.0)
    u, j, _ = generator(g, count, extent, seed=seed)
    try:
        res = approximate(u, j, PARAMS, CFG)
    except RegimeError:
        reject()
    # bitwise: u~ is u itself on every node outside Q_R
    for s in _outside_node_slabs(g, res.radius):
        assert res.u_tilde.values[s].tobytes() == u.values[s].tobytes()
    rep = verify_properties(u, j, res, PARAMS, CFG)
    assert rep.by_name("p1_match_outside").lhs == 0.0
    assert rep.by_name("p1_boundary_faces").lhs == 0.0


def test_assert_structure_catches_changes_outside_q_r_and_omega_leaks():
    g = GridSpec(2, 16, 1.0)        # h = 1/8; node and cell coordinates
    radius, delta = 0.8125, 0.25    # radius is a cell-centre coordinate
    u = DisplacementField(g, np.zeros(g.node_shape + (2,)))
    omega = np.zeros(g.cell_shape, dtype=bool)
    _assert_structure(u, u, omega, radius, delta)
    # node 15 sits at 0.875 > radius, node 14 at 0.75 inside
    for node, outside in (((15, 8), True), ((8, 1), True), ((14, 14), False)):
        vals = np.zeros(g.node_shape + (2,))
        vals[node] = 1.0
        changed = DisplacementField(g, vals)
        if outside:
            with pytest.raises(CoveringError, match="differs"):
                _assert_structure(u, changed, omega, radius, delta)
        else:
            _assert_structure(u, changed, omega, radius, delta)
    # cell 14 has its centre at 0.8125 = radius, cell 13 at 0.6875
    for cell, leaks in (((8, 14), True), ((1, 8), True), ((13, 2), False)):
        om = omega.copy()
        om[cell] = True
        if leaks:
            with pytest.raises(CoveringError, match="leaks"):
                _assert_structure(u, u, om, radius, delta)
        else:
            _assert_structure(u, u, om, radius, delta)
