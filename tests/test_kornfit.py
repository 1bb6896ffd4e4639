"""Rigid-motion fitting, exceptional sets, and affine-norm bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from smalljump.approximator import (
    C_STAR_DEFAULT,
    SUITE_ETA,
    ApproxConfig,
    approximate,
)
from smalljump.covering import DyadicCube
from smalljump.energy import EnergyParams, HookeTensor
from smalljump.errors import FitError
from smalljump.generators import rigid_patches_field
from smalljump.grid import DisplacementField, GridSpec, JumpSet
from smalljump.kornfit import (
    AffineMap,
    ExceptionalSet,
    RigidMotion,
    affine_subset_bound,
    cube_smoothed_field,
    extract_exceptional_set,
    fit_rigid_motion,
    mollified_strain_error,
    neighbor_affine_distance,
    skew_basis,
)
from smalljump.strain import symmetric_gradient

from tests import approx_reference as ref
from tests import strain_reference as sref

from .test_fields import random_skew, rigid_field


def centered_cube(grid: GridSpec, side_h: int) -> DyadicCube:
    return DyadicCube(0, (-side_h // 2,) * grid.dim, side_h)


def cube_samples(grid: GridSpec, u: DisplacementField, cube: DyadicCube):
    sl = cube.enlarged_cell_ranges(grid, "q2")
    centers = grid.cell_center_grid()[sl].reshape(-1, grid.dim)
    vals = u.cell_means()[sl].reshape(-1, grid.dim)
    return centers, vals


def test_rigid_motion_requires_exact_skewness():
    with pytest.raises(ValueError):
        RigidMotion(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    RigidMotion(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))


@pytest.mark.parametrize("dim", [2, 3])
def test_fit_recovers_exact_rigid_motion(dim):
    rng = np.random.default_rng(0)
    g = GridSpec(dim, 16, 1.0)
    w, b = random_skew(rng, dim), rng.normal(size=dim)
    u = rigid_field(g, w, b)
    cube = centered_cube(g, 8)
    centers, vals = cube_samples(g, u, cube)
    motion = fit_rigid_motion(centers, vals)
    assert np.max(np.abs(motion.matrix - w)) < 1e-12
    assert np.max(np.abs(motion.offset - b)) < 1e-12
    assert np.max(np.abs(motion.matrix + motion.matrix.T)) <= 1e-14


def test_fit_ignores_symmetric_part_on_symmetric_region():
    # adding a traceless symmetric gradient leaves the skew fit unchanged
    rng = np.random.default_rng(1)
    g = GridSpec(2, 16, 1.0)
    w, b = random_skew(rng, 2), rng.normal(size=2)
    s = np.array([[0.3, 0.1], [0.1, -0.3]])
    x = g.node_coord_grid()
    vals = b + np.einsum("ij,...j->...i", w + s, x)
    u = DisplacementField(g, vals)
    cube = centered_cube(g, 8)
    centers, cvals = cube_samples(g, u, cube)
    motion = fit_rigid_motion(centers, cvals)
    assert np.max(np.abs(motion.matrix - w)) < 1e-12
    assert np.max(np.abs(motion.offset - b)) < 1e-12


def test_fit_optimality_under_perturbation():
    rng = np.random.default_rng(2)
    g = GridSpec(2, 16, 1.0)
    u = DisplacementField(g, rng.normal(size=g.node_shape + (2,)))
    cube = centered_cube(g, 8)
    centers, vals = cube_samples(g, u, cube)
    motion = fit_rigid_motion(centers, vals)

    def rss(m: AffineMap) -> float:
        return float(np.sum((vals - m(centers)) ** 2))

    base = rss(motion)
    for k in range(2):
        for sgn in (-1.0, 1.0):
            b2 = motion.offset.copy()
            b2[k] += sgn * 1e-4
            assert rss(AffineMap(motion.matrix, b2)) >= base
    for wb in skew_basis(2):
        for sgn in (-1.0, 1.0):
            assert rss(AffineMap(motion.matrix + sgn * 1e-4 * wb,
                                 motion.offset)) >= base


def test_fit_degenerate_region_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = np.zeros((2, 2))
    with pytest.raises(FitError):
        fit_rigid_motion(pts, vals)


def test_irls_matches_lstsq_on_clean_rigid_data():
    rng = np.random.default_rng(3)
    g = GridSpec(2, 16, 1.0)
    w, b = random_skew(rng, 2), rng.normal(size=2)
    u = rigid_field(g, w, b)
    cube = centered_cube(g, 8)
    centers, vals = cube_samples(g, u, cube)
    motion = fit_rigid_motion(centers, vals, p=1.7)
    assert np.max(np.abs(motion.matrix - w)) < 1e-9
    assert np.max(np.abs(motion.offset - b)) < 1e-9


def two_motion_cube_field(g: GridSpec, plane: int, span, opening):
    """Rigid background plus a one-sided opening pocket behind a crack
    patch on node plane ``plane`` (low side owns the plane nodes)."""
    rng = np.random.default_rng(42)
    w, b = random_skew(rng, g.dim), rng.normal(size=g.dim)
    x = g.node_coord_grid()
    vals = b + np.einsum("ij,...j->...i", w, x)
    m = np.zeros(g.node_shape)
    depth = max(2, (span.stop - span.start) // 2)
    idx = np.indices(g.node_shape)
    ax0 = idx[0]
    inside_axis = (ax0 > plane) & (ax0 <= plane + depth)
    trans = np.ones(g.node_shape, dtype=bool)
    for a in range(1, g.dim):
        trans &= (idx[a] > span.start) & (idx[a] < span.stop)
    m[inside_axis & trans] = 1.0
    vals = vals + m[..., None] * np.asarray(opening)
    faces = []
    if g.dim == 2:
        for j in range(span.start, span.stop):
            faces.append((0, (plane, j)))
    else:
        for j in range(span.start, span.stop):
            for k in range(span.start, span.stop):
                faces.append((0, (plane, j, k)))
    return DisplacementField(g, vals), JumpSet(g, faces), w, b


def test_exceptional_set_empty_without_cracks():
    rng = np.random.default_rng(4)
    g = GridSpec(2, 32, 1.0)
    x = g.node_coord_grid()
    u = DisplacementField(g, 0.1 * np.sin(2 * x))
    cube = centered_cube(g, 8)
    rep = extract_exceptional_set(u, JumpSet(g),
                                  symmetric_gradient(u, JumpSet(g)), cube,
                                  c_star=2.0)
    assert rep.omega.n_cells == 0
    assert not rep.violation
    assert math.isfinite(rep.constants["c_sobolev"])
    assert rep.residual_lp >= 0


def test_exceptional_set_covers_pocket_and_respects_budget():
    g = GridSpec(2, 32, 1.0)
    cube = centered_cube(g, 16)
    u, jumps, w, b = two_motion_cube_field(g, 16, slice(14, 18), (0.8, -0.5))
    rep = extract_exceptional_set(u, jumps, symmetric_gradient(u, jumps),
                                  cube, c_star=2.0)
    assert rep.omega.n_cells > 0
    assert rep.omega.volume <= 2.0 * (cube.side * g.spacing) * rep.crack_measure + 1e-12
    assert not rep.violation
    # after trimming, the majority motion is recovered
    assert np.max(np.abs(rep.motion.matrix - w)) < 1e-8
    assert np.max(np.abs(rep.motion.offset - b)) < 1e-8
    assert rep.constants["c_omega"] <= 2.0 + 1e-12


def test_outlier_corruption_recovered_after_trim():
    rng = np.random.default_rng(5)
    g = GridSpec(2, 32, 1.0)
    w, b = random_skew(rng, 2), rng.normal(size=2)
    u0 = rigid_field(g, w, b)
    vals = u0.values.copy()
    nodes = rng.choice(33 * 33, size=10, replace=False)
    flat = vals.reshape(-1, 2)
    flat[nodes] += rng.choice([-10.0, 10.0], size=(10, 2))
    u = DisplacementField(g, vals)
    cube = centered_cube(g, 16)
    sl = cube.enlarged_cell_ranges(g, "q2")
    centers = g.cell_center_grid()[sl].reshape(-1, 2)
    cvals = u.cell_means()[sl].reshape(-1, 2)
    motion, mask, n = ref.residual_prefix_oracle(centers, cvals, budget_cells=60)
    assert np.max(np.abs(motion.matrix - w)) < 1e-8
    assert np.max(np.abs(motion.offset - b)) < 1e-8


def test_violation_flag_for_undeclared_jump():
    # the field jumps but no faces are declared: zero budget, flag set
    g = GridSpec(2, 32, 1.0)
    cube = centered_cube(g, 16)
    u, _, _, _ = two_motion_cube_field(g, 16, slice(14, 18), (0.9, 0.4))
    rep = extract_exceptional_set(u, JumpSet(g),
                                  symmetric_gradient(u, JumpSet(g)), cube,
                                  c_star=2.0)
    assert rep.budget_cells == 0
    assert rep.violation


def test_prefix_oracle_agrees_with_trim():
    g = GridSpec(2, 32, 1.0)
    cube = centered_cube(g, 16)
    u, jumps, _, _ = two_motion_cube_field(g, 16, slice(14, 18), (0.8, -0.5))
    rep = extract_exceptional_set(u, jumps, symmetric_gradient(u, jumps),
                                  cube, c_star=2.0)
    sl = cube.enlarged_cell_ranges(g, "q2")
    centers = g.cell_center_grid()[sl].reshape(-1, 2)
    cvals = u.cell_means()[sl].reshape(-1, 2)
    _, mask, _ = ref.residual_prefix_oracle(centers, cvals, rep.budget_cells)
    trim = ~np.ones(centers.shape[0], dtype=bool)
    trim = rep.omega.local_mask.reshape(-1)
    sym_diff = np.count_nonzero(mask != trim)
    union = max(np.count_nonzero(mask | trim), 1)
    assert sym_diff / union <= 0.10


def test_mollified_strain_error_zero_for_rigid():
    rng = np.random.default_rng(6)
    g = GridSpec(2, 32, 1.0)
    u = rigid_field(g, random_skew(rng, 2), rng.normal(size=2))
    cube = centered_cube(g, 8)
    strain = symmetric_gradient(u, JumpSet(g))
    rep = extract_exceptional_set(u, JumpSet(g), strain, cube, c_star=2.0)
    out = mollified_strain_error(u, strain, cube, rep)
    assert out["error_p"] < 1e-26


def test_mollified_strain_error_decays_with_crack_size():
    g = GridSpec(2, 64, 1.0)
    cube = centered_cube(g, 32)
    ratios = []
    for half_span in (8, 4, 2):
        u, jumps, _, _ = two_motion_cube_field(
            g, 32, slice(32 - half_span, 32 + half_span), (0.4, -0.2))
        strain = symmetric_gradient(u, jumps)
        rep = extract_exceptional_set(u, jumps, strain, cube, c_star=3.0)
        out = mollified_strain_error(u, strain, cube, rep)
        ratios.append(out["ratio"])
    assert ratios[2] < ratios[0]


@pytest.mark.parametrize("dim,m", [(2, 64), (3, 32)])
def test_smoothing_and_mollified_strain_error_equal_whole_grid_reference(dim, m):
    # every fitted cube of an approximation, with and without exceptional
    # cells, against the whole-grid exceptional mask and mollification
    g = GridSpec(dim, m, 1.0)
    u, jumps, _ = rigid_patches_field(g, 3, 2, seed=dim)
    params = EnergyParams(HookeTensor(1.0, 1.0), p=2.0)
    cov = approximate(u, jumps, params, ApproxConfig(eta=SUITE_ETA)).covering
    strain = symmetric_gradient(u, jumps)
    rng = np.random.default_rng(dim)
    with_omega = 0
    for i, cube in enumerate(cov.cubes):
        if not cov.good[i] or cov.crack_in_third[i] == 0.0:
            continue
        fit = extract_exceptional_set(u, jumps, strain, cube, C_STAR_DEFAULT)
        with_omega += fit.omega.n_cells > 0
        # exceptional cells scattered over the whole grid, most of them
        # outside the smoothing window
        scattered = replace(fit, omega=ExceptionalSet(
            (slice(0, m),) * dim, rng.random(g.cell_shape) < 0.05,
            g.spacing))
        for f in (fit, scattered):
            got, win = cube_smoothed_field(u, cube, f)
            want, want_win = ref.cube_smoothed_field(u, cube, f)
            assert win == want_win and np.array_equal(got, want)
        for p in (2.0, 1.5):
            out = mollified_strain_error(u, strain, cube, fit, p=p)
            assert out["error_p"] == ref.mollified_strain_error_lhs(
                u, jumps, cube, fit, p)
    assert with_omega > 0


def test_affine_subset_bound_examples():
    g = GridSpec(2, 32, 1.0)
    cube = centered_cube(g, 16)
    shape = (16, 16)
    rng = np.random.default_rng(7)

    # full omega: both sides coincide, constant 1
    a = AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))
    full = np.ones(shape, dtype=bool)
    out = affine_subset_bound(a, cube, g, full)
    assert out["realized"] == pytest.approx(1.0)

    # constant map: ratio of integrals is the volume fraction exactly
    const = AffineMap(np.zeros((2, 2)), np.array([2.0, -1.0]))
    omega = np.zeros(shape, dtype=bool)
    omega[2:5, 3:9] = True
    out = affine_subset_bound(const, cube, g, omega)
    assert out["realized"] == pytest.approx(1.0)

    # random affine maps with 5% volume: realized constants stay bounded
    worst = 0.0
    for _ in range(200):
        a = AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))
        omega = np.zeros(shape, dtype=bool)
        flat = rng.choice(16 * 16, size=13, replace=False)
        omega.reshape(-1)[flat] = True
        out = affine_subset_bound(a, cube, g, omega)
        assert math.isfinite(out["realized"])
        worst = max(worst, out["realized"])
        if out["volume_fraction"] <= 0.25:
            assert out["absorption_ok"]
    assert worst < 40.0


def test_neighbor_affine_distance_examples():
    g = GridSpec(2, 32, 1.0)
    c1 = DyadicCube(0, (-8, -8), 8)
    c2 = DyadicCube(0, (0, -8), 8)
    rng = np.random.default_rng(8)
    a = AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))
    assert neighbor_affine_distance(a, a, g, c1, c2) == pytest.approx(0.0)

    # constant difference c over the overlap of volume V: |c| * V^{(n-1)/(np)}
    c = np.array([0.3, -0.4])
    b = AffineMap(a.matrix, a.offset + c)
    lo1, hi1 = c1.bounds12("q2")
    lo2, hi2 = c2.bounds12("q2")
    # count overlap cells directly
    sl = []
    for ax in range(2):
        lo = max(lo1[ax], lo2[ax])
        hi = min(hi1[ax], hi2[ax])
        n_cells = sum(1 for cc in range(32)
                      if lo < 12 * (cc - 16) + 6 < hi)
        sl.append(n_cells)
    vol = sl[0] * sl[1] * g.spacing ** 2
    expect = np.linalg.norm(c) * vol ** (1.0 / 4.0)
    assert neighbor_affine_distance(a, b, g, c1, c2) == pytest.approx(expect, rel=1e-12)

    far = DyadicCube(0, (100, 100), 8)
    with pytest.raises(ValueError):
        neighbor_affine_distance(a, b, g, c1, far)


def test_fitted_neighbor_distance_controlled_by_strain():
    # smooth field: the distance between neighbor fits is a small multiple
    # of the local strain norm
    g = GridSpec(2, 64, 1.0)
    x = g.node_coord_grid()
    u = DisplacementField(g, 0.05 * np.sin(2.0 * x))
    c1 = DyadicCube(0, (-8, -8), 8)
    c2 = DyadicCube(0, (0, -8), 8)
    e = symmetric_gradient(u, JumpSet(g))
    reps = [extract_exceptional_set(u, JumpSet(g), e, c, c_star=2.0)
            for c in (c1, c2)]
    dist = neighbor_affine_distance(reps[0].motion, reps[1].motion, g, c1, c2)
    sl = c1.enlarged_cell_ranges(g, "q3")
    e_ref = sref.symmetric_gradient(u, JumpSet(g))
    mag = np.sqrt(np.sum(e_ref[sl] ** 2, axis=(-2, -1)))
    norm = float(np.sum(mag ** 2) * g.spacing ** 2) ** 0.5
    delta_q = c1.side * g.spacing
    assert dist <= 20.0 * delta_q ** 0.5 * norm


@pytest.mark.parametrize("dim", [2, 3])
def test_affine_subset_bound_thousand_trials(dim):
    m = 32 if dim == 2 else 16
    g = GridSpec(dim, m, 1.0)
    side = 16 if dim == 2 else 8
    cube = centered_cube(g, side)
    shape = (side,) * dim
    n_cells = side ** dim
    rng = np.random.default_rng(100 + dim)
    worst = 0.0
    for _ in range(1000):
        a = AffineMap(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        omega = np.zeros(shape, dtype=bool)
        k = int(rng.integers(1, max(2, n_cells // 20)))
        omega.reshape(-1)[rng.choice(n_cells, size=k, replace=False)] = True
        out = affine_subset_bound(a, cube, g, omega)
        assert math.isfinite(out["realized"])
        worst = max(worst, out["realized"])
    assert worst < 64.0
