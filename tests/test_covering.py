"""Crown selection, dyadic tiling, classification, partition of unity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from smalljump.covering import (
    CrownSelection,
    bad_set_perimeter,
    boundary_faces_of_mask,
    build_covering,
    classify,
    covering_structure_report,
    default_eta,
    lattice_delta,
    partition_of_unity,
    pick_two_budget_index,
    select_crown,
)
from smalljump.errors import CoveringError
from smalljump.grid import DisplacementField, GridSpec, JumpSet
from smalljump.strain import symmetric_gradient

from .test_fields import random_skew, rigid_field


def make_selection(grid: GridSpec, delta: float, i0: int = 1) -> CrownSelection:
    m = lattice_delta(grid, delta)
    n_ann = (grid.cells_per_side // 2) // m
    return CrownSelection(i0=i0, delta=m * grid.spacing, n_annuli=n_ann,
                          budgets={}, candidates=(i0,), include_lp=False)


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
    sel = select_crown(u, JumpSet(g), symmetric_gradient(u, JumpSet(g)),
                       delta=0.25)
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
    sel = select_crown(u, JumpSet(g), e, delta=1.0 / 8.0)
    dens = np.sum(e ** 2, axis=(-2, -1))  # |e|^2 for p=2
    centers = g.cell_center_grid()
    cheb = np.max(np.abs(centers), axis=-1)
    m = lattice_delta(g, 1.0 / 8.0)
    w_out = (sel.n_annuli - sel.i0) * m * g.spacing
    w_in = (sel.n_annuli - sel.i0 - 2) * m * g.spacing
    ring = (cheb < w_out) & (cheb >= w_in)
    direct = float(np.sum(dens[ring])) * g.spacing ** 2
    assert sel.budgets["strain"]["value"] == pytest.approx(direct, rel=1e-12)


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
    sel = select_crown(u, js, symmetric_gradient(u, js), delta=1.0 / 32.0)
    assert len(sel.candidates) >= 2
    assert sel.i0 == 2
    assert sel.budgets["jump"]["value"] == 0.0


def test_select_crown_infeasible_when_delta_too_large():
    g = GridSpec(2, 16, 1.0)
    rng = np.random.default_rng(2)
    u = rigid_field(g, random_skew(rng, 2), rng.normal(size=2))
    with pytest.raises(CoveringError):
        select_crown(u, JumpSet(g), symmetric_gradient(u, JumpSet(g)),
                     delta=0.9)


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


def test_partition_sums_to_one_and_bounded_overlap():
    g = GridSpec(2, 64, 1.0)
    sel = make_selection(g, 0.25, i0=1)
    cov = classify(build_covering(g, sel), JumpSet(g), eta=0.5)
    part = partition_of_unity(cov)
    assert part.partition_sum_error() <= 1e-12
    assert part.max_overlap() <= 2 * 3 ** g.dim
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
    assert part.partition_sum_error() <= 1e-12


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
