"""Core field types: strain, jump measure, energy densities, mollifier."""

from __future__ import annotations

import ast
import itertools
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smalljump import grid as grid_module
from smalljump.covering import face_coords12
from smalljump.energy import (
    EnergyParams,
    HookeTensor,
    cellwise_pth_power,
    energy_G,
    energy_G0,
    f_zero,
    lp_norm_cells,
    strain_pth_power,
)
from smalljump.grid import (
    BoxRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    cell_slabs,
    corner_average,
    load_field,
    load_jump,
    save_field,
    save_jump,
)
from smalljump.mollify import mollify, mollify_stack
from smalljump.strain import crack_free_strain, face_slots, symmetric_gradient
from tests import strain_reference as sref


def rigid_field(grid: GridSpec, w: np.ndarray, b: np.ndarray) -> DisplacementField:
    x = grid.node_coord_grid()
    vals = b + np.einsum("ij,...j->...i", w, x)
    return DisplacementField(grid, vals)


def random_skew(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return 0.5 * (a - a.T)


@pytest.fixture
def grid2d() -> GridSpec:
    return GridSpec(2, 16, 1.0)


def test_grid_invariants():
    g = GridSpec(2, 16, 1.0)
    assert g.spacing == pytest.approx(2.0 / 16)
    assert g.is_dyadic
    assert not GridSpec(2, 6, 1.0).is_dyadic
    with pytest.raises(ValueError):
        GridSpec(4, 16, 1.0)
    with pytest.raises(ValueError):
        GridSpec(2, 16, -1.0)


def test_jumpset_validation(grid2d):
    with pytest.raises(ValueError):
        JumpSet(grid2d, [(0, (0, 3))])  # on the domain boundary
    with pytest.raises(ValueError):
        JumpSet(grid2d, [(0, (16, 3))])
    js = JumpSet(grid2d, [(0, (8, 3)), (0, (8, 3))])
    assert len(js) == 1


@pytest.mark.parametrize("faces, owner_high, message", [
    ([(0, (4, 4.7))], [], "malformed face (0, (4, 4.7))"),
    ([(1.0, (4, 4))], [], "malformed face (1.0, (4, 4))"),
    ([(0, (4,))], [], "malformed face (0, (4,))"),
    ([(2, (4, 4))], [], "malformed face (2, (4, 4))"),
    ([(0, (8, 3)), (1, (4, 4.5)), (0, (0, 3))], [], "malformed face (1, (4, 4.5))"),
    ([(0, (8, 3)), (0, (0, 3)), (0, (4, 4.5))], [], "face (0, (0, 3)) is not interior"),
    ([(0, (8, 16)), (0, (16, 3))], [], "face (0, (8, 16)) outside the grid"),
    ([(np.int64(0), (np.int64(8), np.int64(-1)))], [],
     "face (0, (8, -1)) outside the grid"),
    ([(0, (8, 2 ** 70))], [], f"face (0, (8, {2 ** 70})) outside the grid"),
    ([(0, (8, 3))], [(0, (8, 4))], "owner_high must be a subset of the faces"),
], ids=["float-index", "float-axis", "short-index", "axis-past-dim",
        "first-is-malformed", "first-is-on-the-boundary", "first-is-off-the-grid",
        "numpy-integers", "huge-index", "owner-high-outside"])
def test_jumpset_names_the_first_malformed_face(grid2d, faces, owner_high, message):
    # non-integer entries are refused, never truncated; the first
    # offending face in input order names the error
    with pytest.raises(ValueError) as exc:
        JumpSet(grid2d, faces, owner_high)
    assert str(exc.value) == message


def test_strain_zero_for_constants_and_rigid(grid2d):
    rng = np.random.default_rng(0)
    empty = JumpSet(grid2d)
    for dim, m in ((2, 16), (3, 8)):
        g = GridSpec(dim, m, 1.0)
        w = random_skew(rng, dim)
        b = rng.normal(size=dim)
        e = symmetric_gradient(rigid_field(g, w, b), JumpSet(g))
        assert np.max(np.abs(e)) < 1e-13
    const = DisplacementField(grid2d, np.ones(grid2d.node_shape + (2,)))
    e = symmetric_gradient(const, empty)
    assert np.max(np.abs(e)) == 0.0


def test_strain_identity_map(grid2d):
    x = grid2d.node_coord_grid()
    u = DisplacementField(grid2d, x.copy())
    e = symmetric_gradient(u, JumpSet(grid2d))
    expected = sref.packed(np.eye(2))[:, None, None]
    assert np.allclose(e - expected, 0.0, atol=1e-13)


def test_strain_ignores_crack_between_two_motions():
    # Two rigid motions glued across a full cracked plane: no strain anywhere.
    g = GridSpec(2, 16, 1.0)
    rng = np.random.default_rng(1)
    w1, w2 = random_skew(rng, 2), random_skew(rng, 2)
    b1, b2 = rng.normal(size=2), rng.normal(size=2)
    x = g.node_coord_grid()
    vals = np.where(
        (x[..., :1] <= 0.0),  # plane nodes belong to the low side
        b1 + np.einsum("ij,...j->...i", w1, x),
        b2 + np.einsum("ij,...j->...i", w2, x),
    )
    faces = [(0, (8, j)) for j in range(16)]
    u = DisplacementField(g, vals)
    e = symmetric_gradient(u, JumpSet(g, faces))
    assert np.max(np.abs(e)) < 1e-12


def _faces(g: GridSpec):
    """Random interior faces of ``g``."""
    m = g.cells_per_side
    return st.tuples(
        st.integers(0, g.dim - 1), st.integers(1, m - 1),
        st.lists(st.integers(0, m - 1), min_size=g.dim - 1, max_size=g.dim - 1),
    ).map(lambda t: (t[0], tuple(t[2][:t[0]]) + (t[1],) + tuple(t[2][t[0]:])))


@st.composite
def crack_sets(draw, grid: GridSpec) -> JumpSet:
    """Random interior faces with a random owner_high subset."""
    faces = draw(st.lists(_faces(grid), max_size=20, unique=True))
    owned = draw(st.lists(st.booleans(), min_size=len(faces),
                          max_size=len(faces)))
    return JumpSet(grid, faces, [f for f, o in zip(faces, owned) if o])


_STRAIN_GRIDS = (GridSpec(2, 8, 1.0), GridSpec(3, 4, 1.0))
# slab sizes in cell planes: the default budget (one slab on these grids),
# then slabs of one and of three planes, the last slab a short one
_SLAB_PLANES = (None, 1, 3)


@contextmanager
def _slabs_of(g: GridSpec, planes: int | None):
    """The whole-grid kernels on ``g`` run in slabs of ``planes`` cell
    planes (None: the default budget) inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        if planes is not None:
            mp.setattr(grid_module, "SLAB_BYTES",
                       8 * planes * g.cells_per_side ** (g.dim - 1))
            assert len(cell_slabs(g.cell_shape)) == -(-g.cells_per_side // planes)
        yield


@pytest.mark.parametrize("g", _STRAIN_GRIDS, ids=["2d8", "3d4"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_strain_exactly_symmetric_on_random_cracks(g, data, seed):
    js = data.draw(crack_sets(g))
    rng = np.random.default_rng(seed)
    u = DisplacementField(g, rng.normal(size=g.node_shape + (g.dim,)))
    pairs = [(i, k) for i in range(g.dim) for k in range(i, g.dim)]
    want = sref.symmetric_gradient(u, js)
    for planes in _SLAB_PLANES:
        with _slabs_of(g, planes):
            e = symmetric_gradient(u, js)
        assert e.shape == (len(pairs),) + g.cell_shape
        assert all(plane.flags.c_contiguous for plane in e)
        assert not e.flags.writeable
        # each plane stands for both triangles of the reference's strain
        for n, (i, k) in enumerate(pairs):
            assert np.array_equal(e[n], want[..., i, k])
            assert np.array_equal(e[n], want[..., k, i])


def test_strain_slabs_meet_on_a_cracked_node_plane():
    # slabs of three cell planes on 3D 6^3 meet on node plane 3, and the
    # faces there take each crack stencil: a one-sided fallback below an
    # owner_high face, a dead axis, a one-sided fallback above a low-owned
    # face
    g = GridSpec(3, 6, 1.0)
    high = [(0, (3, 1, 1)), (0, (4, 3, 3))]
    js = JumpSet(g, high + [(0, (3, 3, 3)), (0, (3, 1, 4))], high)

    (below, _), (_, dead), (above, _) = sref.table_ops(
        g, js, [(2, 1, 1), (3, 3, 3), (3, 1, 4)])
    assert sorted({node[0] for node, _ in below[0]}) == [1, 2]
    assert 0 in dead
    assert sorted({node[0] for node, _ in above[0]}) == [4, 5]
    u = DisplacementField(
        g, np.random.default_rng(0).normal(size=g.node_shape + (3,)))
    want = sref.symmetric_gradient(u, js)
    for planes in _SLAB_PLANES:
        with _slabs_of(g, planes):
            e = symmetric_gradient(u, js)
        for n, (i, k) in enumerate([(i, k) for i in range(3)
                                    for k in range(i, 3)]):
            assert np.array_equal(e[n], want[..., i, k])


@pytest.mark.parametrize("g", _STRAIN_GRIDS, ids=["2d8", "3d4"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_rigid_motion_strain_vanishes_on_random_cracks(g, data, seed):
    js = data.draw(crack_sets(g))
    rng = np.random.default_rng(seed)
    w = random_skew(rng, g.dim) * rng.uniform(0.0, 10.0)
    b = rng.normal(size=g.dim) * rng.uniform(0.0, 10.0)
    e = symmetric_gradient(rigid_field(g, w, b), js)
    bound = 1e-12 * (1.0 + np.max(np.abs(w)) + np.max(np.abs(b)))
    assert np.max(np.abs(e)) <= bound


def _with_dead_axis(js: JumpSet) -> JumpSet:
    """js plus the two faces bounding cell (1, ..., 1) along axis 0, the
    low one owned by the low side and the high one by the high side: the
    cell keeps no same-side pair on axis 0."""
    c = (1,) * js.grid.dim
    low, high = (0, c), (0, (2,) + c[1:])
    return JumpSet(js.grid, js.faces | {low, high},
                   (js.owner_high - {low}) | {high})


@pytest.mark.parametrize("g", _STRAIN_GRIDS, ids=["2d8", "3d4"])
@given(data=st.data())
def test_stencils_equal_flag_array_reference(g, data):
    # the table's rows against the whole-grid flag arrays, on every cell;
    # cells outside every face's reach keep the crack-free stencil
    js = _with_dead_axis(data.draw(crack_sets(g)))
    ctx, clean = sref.CrackContext(g, js), sref.CrackContext(g, JumpSet(g))
    reached = {tuple(c) for c in face_slots(g, js)[0].tolist()}
    assert reached == sref.affected_cells(g, js)
    cells = list(itertools.product(range(g.cells_per_side), repeat=g.dim))
    for cell, got in zip(cells, sref.table_ops(g, js, cells)):
        assert got == sref.cell_strain_ops(g, ctx, cell)
        if cell not in reached:
            assert got == sref.cell_strain_ops(g, clean, cell)


_STAIRCASE_GRIDS = (GridSpec(2, 32, 1.0), GridSpec(3, 8, 1.0))


@pytest.mark.parametrize("g", _STAIRCASE_GRIDS, ids=["2d32", "3d8"])
def test_staircase_strain_equals_reference(g):
    # a crack set that reaches many cells, with both owner sides, against
    # the per-cell reference, bit for bit, in slabs of any size
    js = sref.staircase(g)
    ctx = sref.CrackContext(g, js)
    cells = sorted(sref.affected_cells(g, js))
    assert sref.table_ops(g, js, cells) == [
        sref.cell_strain_ops(g, ctx, cell) for cell in cells]
    u = DisplacementField(
        g, np.random.default_rng(7).normal(size=g.node_shape + (g.dim,)))
    want = sref.packed(sref.symmetric_gradient(u, js))
    for planes in _SLAB_PLANES:
        with _slabs_of(g, planes):
            got = symmetric_gradient(u, js)
        assert got.tobytes() == want.tobytes()


@pytest.mark.xfail(strict=True, reason=(
    "cells that a face reaches but that have no cracked face of their own "
    "take the table's sum order, not the crack-free kernel's; the fix moves "
    "the strain of far cells, and so the perfbench/refs.json digests of "
    "suite-3d64 and cli-approx-3d128, which must be re-recorded with it"))
@pytest.mark.parametrize("g", _STAIRCASE_GRIDS, ids=["2d32", "3d8"])
def test_reached_cells_without_a_cracked_face_have_crack_free_bits(g):
    js = sref.staircase(g)
    own = np.zeros(g.cell_shape, dtype=bool)
    for axis, idx in js.faces:
        own[idx] = True   # the cell above the face
        own[idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]] = True
    far = np.zeros(g.cell_shape, dtype=bool)
    far[tuple(face_slots(g, js)[0].T)] = True
    far &= ~own
    assert far.any()
    u = DisplacementField(
        g, np.random.default_rng(7).normal(size=g.node_shape + (g.dim,)))
    e = symmetric_gradient(u, js)
    free = crack_free_strain(u.values, g.spacing)
    assert e[:, far].tobytes() == free[:, far].tobytes()


@pytest.mark.parametrize("g", _STRAIN_GRIDS, ids=["2d8", "3d4"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_planes_and_densities_equal_trailing_axes_reference(g, data, seed):
    # every strain plane, energy density and magnitude against the
    # trailing-axes layout and its numpy sums, bit for bit, in slabs of
    # any size
    js = _with_dead_axis(data.draw(crack_sets(g)))
    assert 0 in sref.table_ops(g, js, [(1,) * g.dim])[0][1]
    rng = np.random.default_rng(seed)
    u = DisplacementField(g, rng.normal(size=g.node_shape + (g.dim,)))
    want = sref.symmetric_gradient(u, js)
    pairs = [(i, k) for i in range(g.dim) for k in range(i, g.dim)]
    # general, non-symmetric matrices for the densities, packed as the
    # symmetric part the reference's quadratic form reads
    xi = rng.normal(size=(3,) + g.cell_shape + (g.dim, g.dim))
    hooke = HookeTensor(rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0))
    other = rng.normal(size=u.values.shape)
    for slab_planes in _SLAB_PLANES:
        with _slabs_of(g, slab_planes):
            e = symmetric_gradient(u, js)
            assert e.shape == (len(pairs),) + g.cell_shape
            for n, (i, k) in enumerate(pairs):
                assert np.array_equal(e[n], want[..., i, k])
            for p in (1.5, 2.0, 3.0):
                params = EnergyParams(hooke, p=p)
                assert np.array_equal(f_zero(e, params),
                                      sref.f_zero(want, params))
                for x in (want, xi):
                    planes = sref.packed(x)
                    assert np.array_equal(hooke.quadratic_form(planes),
                                          sref.quadratic_form(hooke, x))
                    assert np.array_equal(f_zero(planes, params),
                                          sref.f_zero(x, params))
                assert np.array_equal(strain_pth_power(e, p),
                                      sref.magnitude(want) ** p)
                assert lp_norm_cells(e, g, p) == sref.lp_norm_cells(want, g, p)
                for sub in (None, other):
                    diff = u.values if sub is None else u.values - sub
                    assert np.array_equal(
                        cellwise_pth_power(u.values, g, p, sub),
                        corner_average(np.linalg.norm(diff, axis=-1) ** p,
                                       g.dim))


@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_cellwise_pth_power_equals_norm_reference(dim, seed):
    # the planar kernels against np.linalg.norm and 0.5 * (low + high), bit
    # for bit, on fields spanning six decades, in slabs of any size
    g = GridSpec(dim, {2: 24, 3: 9}[dim], 1.0)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=g.node_shape + (1,))
    u = rng.normal(size=g.node_shape + (dim,)) * scale
    other = rng.normal(size=u.shape) * scale
    for x in (u[..., 0], u):
        assert np.array_equal(corner_average(x, dim), sref.corner_average(x, dim))
    for slab_planes in _SLAB_PLANES:
        with _slabs_of(g, slab_planes):
            for p in (1.5, 2.0, 3.0):
                for sub in (None, other):
                    assert np.array_equal(cellwise_pth_power(u, g, p, sub),
                                          sref.cellwise_pth_power(u, dim, p, sub))


def test_jump_measure_values(grid2d):
    assert JumpSet(grid2d).measure() == 0.0
    g = GridSpec(2, 8, 1.0)  # h = 0.25
    assert JumpSet(g, [(1, (3, 4))]).measure() == pytest.approx(0.25)
    # full mid-plane in 2d, M=16, r=1: 16 faces of length 2/16 each
    faces = [(0, (8, j)) for j in range(16)]
    assert JumpSet(grid2d, faces).measure() == pytest.approx(2.0)


def test_f_zero_values_and_convexity():
    hooke = HookeTensor(lame_lambda=0.0, lame_mu=0.5)
    params = EnergyParams(hooke, p=2.7)
    assert f_zero(sref.packed(np.zeros((2, 2))), params) == 0.0
    # C Id . Id = 2, so f_0(Id) = 2^(p/2) / p
    assert f_zero(sref.packed(np.eye(2)), params) == pytest.approx(
        2.0 ** 1.35 / 2.7, rel=1e-15)

    rng = np.random.default_rng(2)
    params = EnergyParams(HookeTensor(1.3, 0.7), p=2.7)
    for _ in range(100):
        x1 = rng.normal(size=(2, 2))
        x2 = rng.normal(size=(2, 2))
        x1, x2 = sref.packed(x1), sref.packed(x2)
        for t in (0.25, 0.5, 0.75):
            lhs = f_zero(t * x1 + (1 - t) * x2, params)
            rhs = t * f_zero(x1, params) + (1 - t) * f_zero(x2, params)
            assert lhs <= rhs + 1e-12


def test_hooke_coercivity():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        hooke = HookeTensor(lame_lambda=-0.2, lame_mu=1.0)
        hooke.validate(dim)
        c0 = sref.coercivity_constant(hooke, dim)
        assert c0 > 0
        xi = rng.normal(size=(1000, dim, dim))
        q = hooke.quadratic_form(sref.packed(xi))
        norm2 = np.sum((xi + np.swapaxes(xi, -1, -2)) ** 2, axis=(-2, -1))
        assert np.all(q >= c0 * norm2 - 1e-10)
        # skew inputs have a zero symmetric part and carry no energy
        skew = xi - np.swapaxes(xi, -1, -2)
        assert np.all(hooke.quadratic_form(sref.packed(skew)) == 0.0)


def test_densities_refuse_a_tensor_that_is_not_coercive_in_their_dimension():
    # 2*lambda + 2*mu = 0.4 but 3*lambda + 2*mu = -0.4: a 3D strain can
    # have C xi . xi < 0, and its fractional power would be NaN
    params = EnergyParams(HookeTensor(-0.8, 1.0), p=1.5)
    rng = np.random.default_rng(6)
    assert np.all(np.isfinite(f_zero(rng.normal(size=(3, 4, 4)), params)))
    planes3 = rng.normal(size=(6, 4, 4, 4))
    with pytest.raises(ValueError, match="got -0.4 in 3D"):
        f_zero(planes3, params)


def test_energy_G_examples(grid2d):
    rng = np.random.default_rng(4)
    hooke = HookeTensor(1.0, 1.0)
    w, b = random_skew(rng, 2), rng.normal(size=2)
    u = rigid_field(grid2d, w, b)
    empty = JumpSet(grid2d)

    params = EnergyParams(hooke, p=2.0, kappa=2.0, beta=1.0, g=u)
    assert energy_G(u, empty, params) == pytest.approx(0.0, abs=1e-22)

    # kappa = 0 leaves the bulk term only
    smooth = DisplacementField(
        grid2d, np.sin(grid2d.node_coord_grid()) * 0.1)
    params0 = EnergyParams(hooke, p=2.0, kappa=0.0, beta=1.0)
    e = symmetric_gradient(smooth, empty)
    bulk = float(np.sum(f_zero(e, params0))) * grid2d.spacing ** 2
    assert energy_G(smooth, empty, params0) == pytest.approx(bulk)

    # single mid-plane crack: beta * H^1 = 3 * 2.0
    faces = [(0, (8, j)) for j in range(16)]
    crack = JumpSet(grid2d, faces)
    params3 = EnergyParams(hooke, p=2.0, kappa=1.0, beta=3.0, g=u)
    assert energy_G(u, crack, params3) == pytest.approx(6.0)


def test_energy_G0_homogeneous_and_scaling(grid2d):
    rng = np.random.default_rng(5)
    hooke = HookeTensor(1.0, 1.0)
    empty = JumpSet(grid2d)
    zero = DisplacementField(grid2d, np.zeros(grid2d.node_shape + (2,)))
    params = EnergyParams(hooke, p=2.0, kappa=1.5, beta=1.0, g=zero)
    assert energy_G0(zero, empty, params) == pytest.approx(0.0)

    w, b = random_skew(rng, 2), rng.normal(size=2)
    u = rigid_field(grid2d, w, b)
    params_g = EnergyParams(hooke, p=2.0, kappa=1.5, beta=1.0, g=u)
    assert energy_G(u, empty, params_g) == pytest.approx(0.0, abs=1e-22)
    assert energy_G0(u, empty, params_g) > 0.0

    p = 2.6
    params_p = EnergyParams(hooke, p=p, kappa=0.7, beta=1.0, g=zero)
    smooth = DisplacementField(grid2d, np.cos(grid2d.node_coord_grid() * 2) * 0.2)
    lam = 1.7
    scaled = DisplacementField(grid2d, lam * smooth.values)
    e0 = energy_G0(smooth, empty, params_p)
    e1 = energy_G0(scaled, empty, params_p)
    assert e1 == pytest.approx(lam ** p * e0, rel=1e-10)


def test_energy_region_restriction(grid2d):
    rng = np.random.default_rng(6)
    hooke = HookeTensor(1.0, 1.0)
    smooth = DisplacementField(grid2d, np.sin(grid2d.node_coord_grid()) * 0.3)
    params = EnergyParams(hooke, p=2.0, kappa=0.0, beta=1.0)
    empty = JumpSet(grid2d)
    left = BoxRegion((-2.0, -2.0), (0.0, 2.0))
    right = BoxRegion((0.0, -2.0), (2.0, 2.0))
    total = energy_G(smooth, empty, params)
    split = energy_G(smooth, empty, params, left) + energy_G(smooth, empty, params, right)
    assert split == pytest.approx(total, rel=1e-12)
    # empty region gives zero
    nowhere = BoxRegion((5.0, 5.0), (6.0, 6.0))
    assert energy_G(smooth, empty, params, nowhere) == 0.0


def test_mollify_constant_affine_and_bounds():
    g = GridSpec(2, 32, 1.0)
    const = np.full(g.node_shape + (2,), 3.25)
    out, margin = mollify(const, 2, 0.25, g.spacing)
    inner = (slice(margin, -margin),) * 2
    assert np.allclose(out[inner], 3.25, atol=1e-13)

    rng = np.random.default_rng(7)
    w = random_skew(rng, 2)
    b = rng.normal(size=2)
    aff = rigid_field(g, w, b).values
    out, margin = mollify(aff, 2, 0.25, g.spacing)
    inner = (slice(margin, -margin),) * 2
    assert np.max(np.abs(out[inner] - aff[inner])) < 1e-12

    step = np.zeros(g.node_shape + (1,))
    step[16:, :, 0] = 1.0
    out, margin = mollify(step, 2, 0.25, g.spacing)
    inner = (slice(margin, -margin),) * 2
    assert out[inner].min() >= -1e-15 and out[inner].max() <= 1.0 + 1e-15


@given(dim=st.sampled_from([2, 3]), width=st.sampled_from([3, 5, 7]),
       data=st.data())
def test_mollify_stack_interior_entries_do_not_depend_on_the_extent(dim, width,
                                                                   data):
    """An entry at least ``margin`` from a window's edges is the same, bit
    for bit, when the window is convolved alone or inside any larger box of
    the same lattice."""
    h = 1.0 / 64
    # a kernel of radius max(scale / 6, 2) cells is ``width`` taps wide
    scale = {3: 8, 5: 15, 7: 22}[width] * h
    margin = width // 2
    ints = st.integers
    win_shape = [data.draw(ints(width, width + 3)) for _ in range(dim)]
    pad_lo = [data.draw(ints(0, 4)) for _ in range(dim)]
    pad_hi = [data.draw(ints(0, 4)) for _ in range(dim)]
    comps = data.draw(st.sampled_from([1, dim]))
    rng = np.random.default_rng(data.draw(ints(0, 2 ** 16)))
    lattice = rng.normal(size=tuple(a + n + b + 2 for a, n, b in
                                    zip(pad_lo, win_shape, pad_hi)) + (comps,))
    box = lattice[(slice(1, -1),) * dim]    # a strided view, as in the blend
    win = tuple(slice(a, a + n) for a, n in zip(pad_lo, win_shape))
    whole, m_box = mollify_stack(box[None], dim, scale, h)
    alone, m_win = mollify_stack(np.ascontiguousarray(box[win])[None], dim,
                                 scale, h)
    assert m_box == m_win == margin
    inner = tuple(slice(margin, n - margin) for n in win_shape)
    at = tuple(slice(s.start + margin, s.stop - margin) for s in win)
    assert np.array_equal(alone[0][inner], whole[0][at])


def test_mollify_preserves_mass_of_compact_field():
    g = GridSpec(2, 32, 1.0)
    f = np.zeros(g.node_shape + (1,))
    f[10:20, 12:22, 0] = np.random.default_rng(8).normal(size=(10, 10))
    out, _ = mollify(f, 2, 0.25, g.spacing)
    assert np.sum(out) == pytest.approx(np.sum(f), rel=1e-12)


def test_mollify_underresolved_scale_errors():
    g = GridSpec(2, 16, 1.0)
    with pytest.raises(ValueError):
        mollify(np.zeros(g.node_shape + (2,)), 2, 0.5 * g.spacing, g.spacing)


def test_field_io_roundtrip(tmp_path, grid2d):
    rng = np.random.default_rng(9)
    u = DisplacementField(grid2d, rng.normal(size=grid2d.node_shape + (2,)))
    save_field(tmp_path / "field", u)
    back = load_field(tmp_path / "field")
    assert back.grid == grid2d
    assert np.array_equal(back.values, u.values)

    js = JumpSet(grid2d, [(0, (8, 3)), (1, (2, 7))])
    save_jump(tmp_path / "cracks.json", js)
    back_j = load_jump(tmp_path / "cracks.json", grid2d)
    assert back_j.faces == js.faces
    assert back_j.owner_high == frozenset()

    # the object form carries the faces whose high side owns the plane
    owned = JumpSet(grid2d, [(0, (8, 3)), (1, (2, 7)), (0, (5, 5))],
                    [(1, (2, 7)), (0, (5, 5))])
    save_jump(tmp_path / "owned.json", owned)
    assert isinstance(json.loads((tmp_path / "owned.json").read_text()), dict)
    back_o = load_jump(tmp_path / "owned.json", grid2d)
    assert back_o.faces == owned.faces
    assert back_o.owner_high == owned.owner_high == {(1, (2, 7)), (0, (5, 5))}


_KEY_GRIDS = tuple(GridSpec(2, m, 1.0) for m in range(6, 17)) + tuple(
    GridSpec(3, m, 1.0) for m in range(4, 9))


def _tuple_center(g: GridSpec, face) -> list[float]:
    """A face centre computed face by face, as GridSpec.face_center did."""
    axis, idx = face
    return [-g.half_width + g.spacing * (i if a == axis else i + 0.5)
            for a, i in enumerate(idx)]


def _tuple_jump_json(faces: frozenset, owner_high: frozenset) -> str:
    payload = [[a, list(idx)] for a, idx in sorted(faces)]
    if owner_high:
        payload = {"faces": payload,
                   "owner_high": [[a, list(idx)] for a, idx in sorted(owner_high)]}
    return json.dumps(payload)


@given(data=st.data())
def test_jump_set_keys_match_a_tuple_reference(data, tmp_path_factory):
    # a JumpSet against the frozensets of face tuples it used to hold
    g = data.draw(st.sampled_from(_KEY_GRIDS))
    sets = []
    for _ in range(2):
        faces = data.draw(st.lists(_faces(g), max_size=30))   # repeats too
        high = data.draw(st.lists(st.sampled_from(faces), max_size=len(faces))
                         if faces else st.just([]))
        sets.append((JumpSet(g, faces, high), frozenset(faces), frozenset(high)))
    (a, ref_a, high_a), (b, ref_b, _) = sets
    assert a.sorted_faces() == sorted(ref_a)
    assert a.faces == ref_a and a.owner_high == high_a
    assert len(a) == len(ref_a) and a.measure() == len(ref_a) * g.face_area()
    for f in sorted(ref_a | ref_b) + [(0, (0,) * g.dim), (g.dim, (1,) * g.dim)]:
        assert (f in a) == (f in ref_a)
    for op, ref in ((np.union1d, ref_a | ref_b), (np.setdiff1d, ref_a - ref_b),
                    (np.setxor1d, ref_a ^ ref_b)):
        assert g.face_tuples(op(a.keys, b.keys)) == sorted(ref)

    axes, centers = a.face_coord_arrays()
    assert axes.dtype == np.int64 and centers.shape == (len(ref_a), g.dim)
    assert axes.tolist() == [f[0] for f in sorted(ref_a)]
    assert centers.tobytes() == np.array(
        [_tuple_center(g, f) for f in sorted(ref_a)]).reshape(-1, g.dim).tobytes()
    if g.cells_per_side % 2 == 0:   # covering grids are dyadic
        want = [[12 * (i - g.cells_per_side // 2) + 6 - 6 * (j == axis)
                 for j, i in enumerate(idx)] for axis, idx in sorted(ref_a)]
        assert face_coords12(g, a).tolist() == want

    first = sorted(ref_b)[:data.draw(st.integers(0, len(ref_b)))]
    cells, slot, state = face_slots(g, a, g.face_keys(first))
    ref_cells, ref_slot, ref_state = sref.tuple_face_slots(g, ref_a, high_a, first)
    assert np.array_equal(cells, ref_cells)
    assert np.array_equal(state[slot], ref_state[ref_slot])

    path = tmp_path_factory.getbasetemp() / "keys.jump.json"
    save_jump(path, a)
    assert path.read_text() == _tuple_jump_json(ref_a, high_a)


def test_only_the_grid_module_reads_face_tuples():
    # every other module of the package works on face keys: no tuple view
    # of a jump set and no per-face centre
    views = {"faces", "owner_high", "sorted_faces", "face_center"}
    found = []
    for path in sorted(Path(grid_module.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        found += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in views]
    assert found == []
