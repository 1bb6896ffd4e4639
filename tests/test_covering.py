"""Crown selection, dyadic tiling, classification, partition of unity."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smalljump.covering import (
    CrownSelection,
    DyadicCube,
    bad_set_perimeter,
    boundary_faces_of_mask,
    build_covering,
    classify,
    covering_structure_report,
    default_eta,
    lattice_delta,
    neighbor_pairs,
    partition_of_unity,
    pick_two_budget_index,
    select_crown,
)
from smalljump.energy import cellwise_pth_power, strain_pth_power
from smalljump.errors import CoveringError
from smalljump.grid import DisplacementField, GridSpec, JumpSet
from smalljump.strain import symmetric_gradient

from tests import covering_reference as cref
from tests import strain_reference as sref

from .test_fields import random_skew, rigid_field


def make_selection(grid: GridSpec, delta: float, i0: int = 1) -> CrownSelection:
    m = lattice_delta(grid, delta)
    n_ann = (grid.cells_per_side // 2) // m
    return CrownSelection(i0=i0, delta=m * grid.spacing, n_annuli=n_ann,
                          budgets={}, candidates=(i0,))


def _pth_powers(u, jumps):
    """|e(u)|^2 and |u|^2 per cell, the fields select_crown reads at p = 2."""
    return (strain_pth_power(symmetric_gradient(u, jumps), 2.0),
            cellwise_pth_power(u.values, u.grid, 2.0))


def test_pick_two_budget_index_matches_averaging_rule():
    # two candidates with budgets (1,0) and (0,1) against totals (1,1):
    # both valid, normalized sums tie, the first index wins
    assert pick_two_budget_index([(1.0, 0.0), (0.0, 1.0)], (1.0, 1.0)) == 0
    # concentrated budget: the empty candidate wins
    assert pick_two_budget_index([(8.0, 0.0), (0.0, 0.0)], (8.0, 1.0)) == 1
    # zero totals never divide
    assert pick_two_budget_index([(0.0, 0.0), (0.0, 0.0)], (0.0, 0.0)) == 0


def test_select_crown_rigid_field_picks_first_candidate():
    g = GridSpec(2, 64, 1.0)
    rng = np.random.default_rng(0)
    u = rigid_field(g, random_skew(rng, 2), rng.normal(size=2))
    sel = select_crown(u, JumpSet(g), *_pth_powers(u, JumpSet(g)), delta=0.25)
    assert sel.i0 == 1
    for row in sel.budgets.values():
        assert row["value"] <= row["bound"] + 1e-12


def test_select_crown_budgets_against_direct_integrals():
    # strained field: check the selected ring's budget against a direct
    # cell-sum over the ring region computed independently here
    g = GridSpec(2, 64, 1.0)
    x = g.node_coord_grid()
    u = DisplacementField(g, 0.05 * np.sin(3 * x))
    e = symmetric_gradient(u, JumpSet(g))
    sel = select_crown(u, JumpSet(g), strain_pth_power(e, 2.0),
                       cellwise_pth_power(u.values, g, 2.0), delta=1.0 / 8.0)
    # |e|^2 for p=2, over the full (d, d) matrix of the reference strain
    dens = np.sum(sref.symmetric_gradient(u, JumpSet(g)) ** 2, axis=(-2, -1))
    centers = g.cell_center_grid()
    cheb = np.max(np.abs(centers), axis=-1)
    m = lattice_delta(g, 1.0 / 8.0)
    w_out = (sel.n_annuli - sel.i0) * m * g.spacing
    w_in = (sel.n_annuli - sel.i0 - 2) * m * g.spacing
    ring = (cheb < w_out) & (cheb >= w_in)
    direct = float(np.sum(dens[ring])) * g.spacing ** 2
    assert sel.budgets["strain"]["value"] == pytest.approx(direct, rel=1e-12)
    # |u|^2 over the single outer ring, each cell the mean over its corners
    w_single = (sel.n_annuli - sel.i0 - 1) * m * g.spacing
    single = (cheb < w_out) & (cheb >= w_single)
    sq = np.sum(u.values ** 2, axis=-1)
    corners = [sq[tuple(slice(c, c + g.cells_per_side) for c in corner)]
               for corner in itertools.product((0, 1), repeat=2)]
    cell_sq = sum(corners) / len(corners)
    direct_lp = float(np.sum(cell_sq[single])) * g.spacing ** 2
    assert direct_lp > 0
    assert sel.budgets["lp"]["value"] == pytest.approx(direct_lp, rel=1e-12)


def test_select_crown_avoids_loaded_ring():
    # crack faces inside the first candidate ring only: with two candidates
    # the selection must take the second (budget-minimizing) one
    g = GridSpec(2, 256, 1.0)
    rng = np.random.default_rng(1)
    u = rigid_field(g, random_skew(rng, 2), rng.normal(size=2))
    m = lattice_delta(g, 1.0 / 32.0)
    n_ann = (g.cells_per_side // 2) // m
    off = g.cells_per_side // 2
    # faces in annulus C^1 (between half-widths (n-1)m and n m... inner ring)
    plane = off + (n_ann - 1) * m - m // 2
    faces = [(0, (plane, off + j)) for j in range(-2, 2)]
    js = JumpSet(g, faces)
    sel = select_crown(u, js, *_pth_powers(u, js), delta=1.0 / 32.0)
    assert len(sel.candidates) >= 2
    assert sel.i0 == 2
    assert sel.budgets["jump"]["value"] == 0.0


def test_select_crown_infeasible_when_delta_too_large():
    g = GridSpec(2, 16, 1.0)
    rng = np.random.default_rng(2)
    u = rigid_field(g, random_skew(rng, 2), rng.normal(size=2))
    with pytest.raises(CoveringError):
        select_crown(u, JumpSet(g), *_pth_powers(u, JumpSet(g)), delta=0.9)


def test_build_covering_interior_count_and_tiling():
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = build_covering(g, sel)
    n_interior = sum(1 for c in cov.cubes if c.level == 0)
    # direct tiling count of the interior box
    side_cells = 2 * (cov.n_annuli - cov.i0 - 1)
    assert n_interior == side_cells ** 2
    rep = covering_structure_report(cov)
    assert rep["tiling_exact"]
    assert rep["neighbor_ratios_ok"]
    assert rep["min_overlap_constant"] >= rep["overlap_bound"] - 1e-12


def test_build_covering_slab_sides():
    g = GridSpec(2, 128, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = build_covering(g, sel)
    m = cov.m
    for cube in cov.cubes:
        if cube.level == 0:
            assert cube.side == m
        else:
            assert cube.side == m >> cube.level
    assert 1 in cov.slab_counts  # first slab holds side delta/2 cubes
    assert all(c.side >= 4 for c in cov.cubes)


def test_build_covering_too_coarse():
    g = GridSpec(2, 8, 1.0)
    sel = make_selection(g, 2.0 / 8.0 * 4, i0=1)
    with pytest.raises(CoveringError):
        build_covering(g, sel)


def test_classify_flags_and_bad_set():
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = build_covering(g, sel)
    cov = classify(cov, JumpSet(g), eta=0.5)
    assert np.all(cov.good)
    assert not np.any(cov.bad_cells)
    assert bad_set_perimeter(cov)["perimeter"] == 0.0

    # a crack bundle in the crown turns its slab cube bad
    off = g.cells_per_side // 2
    plane = off + cov.w0_h - 6  # inside the finest slab
    faces = [(0, (plane, off + j)) for j in range(-2, 3)]
    cov2 = classify(build_covering(g, sel), JumpSet(g, faces), eta=0.5)
    assert not np.all(cov2.good)
    per = bad_set_perimeter(cov2)
    assert per["perimeter"] > 0
    assert math.isfinite(per["ratio"])


def test_classify_threshold_scale():
    # one face inside a fine cube's enlargement: bad iff eta below h/side^{n-1}
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = build_covering(g, sel)
    finest = min(c.side for c in cov.cubes)
    cube = next(c for c in cov.cubes if c.side == finest)
    off = g.cells_per_side // 2
    center = [int(a + finest // 2 + off) for a in cube.anchor]
    face = (0, tuple(center))
    js = JumpSet(g, [face])
    i_cube = cov.cubes.index(cube)

    tight = classify(build_covering(g, sel), js,
                     eta=0.5 * g.spacing / (finest * g.spacing))
    assert not tight.good[i_cube]
    loose = classify(build_covering(g, sel), js,
                     eta=2.0 * g.spacing / (finest * g.spacing))
    assert loose.good[i_cube]


def test_boundary_faces_of_mask_counts():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:4, 3:5] = True  # one 2x2 block: perimeter 8 faces
    assert len(boundary_faces_of_mask(mask)) == 8
    mask2 = np.zeros((8, 8), dtype=bool)
    mask2[2, 3] = True
    mask2[2, 4] = True  # two adjacent cells: 6 faces
    assert len(boundary_faces_of_mask(mask2)) == 6


@pytest.mark.parametrize("shape", [(9, 7), (5, 6, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("fill", ["empty", "full", "sparse", "half"])
def test_boundary_faces_of_mask_equal_brute_force(shape, fill):
    # every interior face checked by its two cells, in sorted order
    rng = np.random.default_rng(len(shape))
    mask = {"empty": np.zeros(shape, dtype=bool),
            "full": np.ones(shape, dtype=bool),
            "sparse": rng.random(shape) < 0.1,
            "half": rng.random(shape) < 0.5}[fill]
    want = []
    for a in range(mask.ndim):
        for idx in itertools.product(*(range(1 if b == a else 0, n)
                                       for b, n in enumerate(shape))):
            below = idx[:a] + (idx[a] - 1,) + idx[a + 1:]
            if mask[idx] != mask[below]:
                want.append((a, idx))
    got = boundary_faces_of_mask(mask)
    assert got.dtype == np.int64
    axis, *idx = (i.tolist() for i in np.unravel_index(got, (mask.ndim,) + shape))
    assert list(zip(axis, zip(*idx))) == sorted(want)
    assert (got.size == 0) == (fill in ("empty", "full"))


def test_partition_sums_to_one_and_bounded_overlap():
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = classify(build_covering(g, sel), JumpSet(g), eta=0.5)
    part = partition_of_unity(cov)
    assert cref.partition_sum_error(part) <= 1e-12
    assert cref.max_overlap(part) <= 2 * 3 ** g.dim
    assert max(part.grad_scaled.values()) < 32.0


def test_partition_gradient_constant_stable_across_delta():
    g = GridSpec(2, 128, 1.0)
    consts = []
    for delta in (1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0):
        sel = make_selection(g, delta, i0=1)
        cov = classify(build_covering(g, sel), JumpSet(g), eta=0.5)
        part = partition_of_unity(cov)
        consts.append(max(part.grad_scaled.values()))
    assert max(consts) < 32.0


def test_partition_with_bad_cube_normalizes_outside_it():
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = build_covering(g, sel)
    off = g.cells_per_side // 2
    plane = off + cov.w0_h - 6  # inside the finest slab
    faces = [(0, (plane, off + j)) for j in range(-2, 3)]
    cov = classify(cov, JumpSet(g, faces), eta=0.01)
    assert not np.all(cov.good)
    part = partition_of_unity(cov)
    assert cref.partition_sum_error(part) <= 1e-12


def test_sigma_counts_bounded():
    g = GridSpec(2, 256, 1.0)
    sel = make_selection(g, 1.0 / 8.0, i0=1)
    cov = build_covering(g, sel)
    rep = covering_structure_report(cov)
    assert rep["sigma_constant"] < 64.0


def test_default_eta_formula():
    assert default_eta(2, 1.0) == pytest.approx(1.0 / 128.0)
    assert default_eta(3, 2.0) == pytest.approx(1.0 / 2048.0)


def test_covering_json_roundtrippable():
    import json

    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = classify(build_covering(g, sel), JumpSet(g), eta=0.5)
    payload = json.loads(cov.to_json())
    assert payload["i0"] == 1
    assert payload["delta"] == pytest.approx(0.25)
    assert all(c["good"] for c in payload["cubes"])
    assert payload["bad_voxels"] == []


def test_level_zero_cubes_good_when_scale_dominates_crack():
    # when the covering scale is at least the crack-derived scale, the
    # total crack area cannot exceed the threshold of any full-size cube
    g = GridSpec(2, 64, 1.0)
    eta = 0.5
    faces = [(0, (32, 30)), (0, (32, 31))]
    js = JumpSet(g, faces)
    delta_raw = js.measure() ** 0.5
    assert delta_raw < eta
    m = lattice_delta(g, max(delta_raw, 4 * g.spacing))
    delta_cov = m * g.spacing
    assert delta_cov >= delta_raw
    assert js.measure() <= eta * delta_cov + 1e-15  # total fits one cube budget
    sel = make_selection(g, delta_cov, i0=1)
    cov = classify(build_covering(g, sel), js, eta=eta)
    for i, cube in enumerate(cov.cubes):
        if cube.level == 0:
            assert cov.good[i]


@given(data=st.data())
def test_neighbor_pairs_equal_all_pairs_scan(data):
    dim = data.draw(st.sampled_from([2, 3]), label="dim")
    cells = data.draw(st.sampled_from([32, 64, 128, 256] if dim == 2
                                      else [32, 64]), label="cells")
    g = GridSpec(dim, cells, 1.0)
    sides = [m for m in (4, 8, 16, 32, 64) if cells // 2 // m >= 3]
    if dim == 3 and cells == 64:
        sides = [m for m in sides if m >= 8]   # keeps the O(n^2) scan small
    m = data.draw(st.sampled_from(sides), label="delta_h")
    i0 = data.draw(st.integers(1, cells // 2 // m - 2), label="i0")
    cov = build_covering(g, make_selection(g, m * g.spacing, i0=i0))
    for which in ("q", "q1", "q2", "q3"):
        assert neighbor_pairs(cov, which) == cref.neighbor_pairs(cov, which)


def test_neighbor_pairs_skip_boxes_that_only_touch():
    # cubes 0 and 1 share a face inside one bucket; cube 2 overlaps both
    g = GridSpec(2, 64, 1.0)
    cov = build_covering(g, make_selection(g, 0.25, i0=1))
    cubes = (DyadicCube(0, (0, 0), 2), DyadicCube(0, (2, 0), 2),
             DyadicCube(0, (1, 1), 2))
    assert neighbor_pairs(replace(cov, cubes=cubes), "q") == [(0, 2), (1, 2)]


@pytest.mark.parametrize("dim,cells", [(2, 64), (3, 32)])
def test_tiling_exact_fails_for_a_missing_or_duplicated_cube(dim, cells):
    g = GridSpec(dim, cells, 1.0)
    cov = build_covering(g, make_selection(g, 0.25, i0=1))
    assert covering_structure_report(cov)["tiling_exact"]
    mid = len(cov.cubes) // 2
    for cubes in (cov.cubes[1:], cov.cubes[:mid] + cov.cubes[mid + 1:],
                  cov.cubes + cov.cubes[-1:], cov.cubes + cov.cubes[mid:mid + 1]):
        assert not covering_structure_report(replace(cov, cubes=cubes))["tiling_exact"]


@pytest.mark.parametrize("dim", [2, 3])
def test_neighbor_ratios_fail_for_a_four_to_one_neighbor(dim):
    # split a first-slab cube that touches the interior box into its 2^dim
    # children: they tile the same cells, and each one facing the interior
    # box is a quarter of its delta-cube neighbour's side
    g = GridSpec(dim, 64, 1.0)
    cov = build_covering(g, make_selection(g, 0.25, i0=1))
    s1 = cov.m // 2
    parent = DyadicCube(1, (-cov.w1_h - s1,) + (0,) * (dim - 1), s1)
    assert parent in cov.cubes
    s2 = s1 // 2
    children = tuple(
        DyadicCube(2, tuple(a + c * s2 for a, c in zip(parent.anchor, corner)), s2)
        for corner in np.ndindex(*(2,) * dim))
    edited = replace(cov, cubes=tuple(c for c in cov.cubes if c != parent)
                     + children)
    assert covering_structure_report(cov)["neighbor_ratios_ok"]
    rep = covering_structure_report(edited)
    assert rep["tiling_exact"]
    assert not rep["neighbor_ratios_ok"]
    assert neighbor_pairs(edited, "q1") == cref.neighbor_pairs(edited, "q1")


def test_uncovered_blended_node_raises():
    # without one delta-cube, the centre of its cells is in no bump
    g = GridSpec(2, 64, 1.0)
    cov = build_covering(g, make_selection(g, 0.25, i0=1))
    hole = next(i for i, c in enumerate(cov.cubes) if c.anchor == (0, 0))
    edited = classify(replace(cov, cubes=cov.cubes[:hole] + cov.cubes[hole + 1:]),
                      JumpSet(g), eta=0.5)
    with pytest.raises(CoveringError, match="uncovered blended node"):
        partition_of_unity(edited)
