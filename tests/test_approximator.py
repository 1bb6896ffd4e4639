"""End-to-end approximation pipeline and its quantitative contract."""

from __future__ import annotations

import numpy as np
import pytest

from smalljump.approximator import (
    ApproxConfig,
    approximate,
    boundary_trace_check,
    fit_decay_exponent,
    verify_properties,
)
from smalljump.covering import boundary_faces_of_mask
from smalljump.energy import EnergyParams, HookeTensor, lp_norm_cells
from smalljump.errors import RegimeError
from smalljump.generators import (
    CrackPatch,
    field_with_patches,
    random_cracks_field,
    rigid_field,
    shrinking_crack_instance,
    sinusoid_field,
    two_motion_crack_field,
)
from smalljump.grid import GridSpec, centered_box
from smalljump.strain import symmetric_gradient

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
    shell_faces = [f for f in j.faces
                   if np.max(np.abs(g.face_center(f))) > 1.0 - np.sqrt(res.delta)]
    rhs = np.sqrt(res.delta) * len(shell_faces) * g.face_area()
    c2 = rep.by_name("p2_new_jump")
    assert c2.lhs == pytest.approx(lhs)
    assert c2.budget == pytest.approx(rhs)

    # independent re-evaluation of the strain error by raw quadrature
    from smalljump.mollify import mollify

    e_u = symmetric_gradient(u, j)
    e_t = symmetric_gradient(res.u_tilde, res.new_jump)
    mol, margin = mollify(e_u, 2, res.delta, g.spacing)
    mask = centered_box(1.0 - np.sqrt(res.delta), 2).cell_mask(g)
    d = np.sqrt(np.sum((e_t - mol) ** 2, axis=(-2, -1)))
    lhs3 = (np.sum(d[mask] ** 2) * g.spacing ** 2) ** 0.5
    assert rep.by_name("p3_strain_error").lhs == pytest.approx(lhs3, rel=1e-12)


def test_crown_crack_produces_contained_new_jump():
    # crack bundle deep in the crown: bad cubes appear and the only new
    # faces are on the bad-set boundary
    g = GridSpec(2, 64, 1.0)
    off = g.cells_per_side // 2
    m = 8  # delta = 0.25 lattice
    plane = off + 2 * m + 2  # inside the crown slabs for i0=1
    patch = CrackPatch(0, plane, (off - 2,), (off + 2,), 3, 2)
    u, j = field_with_patches(g, [patch], [np.array([0.4, -0.2])])
    cfg = ApproxConfig(eta=0.9, delta=0.25)
    res = approximate(u, j, PARAMS, cfg)
    new_faces = res.new_jump.faces - j.faces
    if new_faces:
        bad_boundary = set(boundary_faces_of_mask(res.covering.bad_cells))
        assert new_faces <= bad_boundary
    rep = verify_properties(u, j, res, PARAMS, cfg)
    assert rep.by_name("p2_new_jump").detail["containment"]


def test_regime_gate():
    g = GridSpec(2, 64, 1.0)
    u, j, _ = two_motion_crack_field(g, area=0.5, seed=4)
    with pytest.raises(RegimeError):
        approximate(u, j, PARAMS, ApproxConfig(eta=0.1))


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
