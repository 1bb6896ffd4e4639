"""Core field types: strain, jump measure, energy densities, mollifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smalljump.energy import (
    EnergyParams,
    HookeTensor,
    energy_G,
    energy_G0,
    f_mu,
    jump_measure,
)
from smalljump.grid import (
    BoxRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    load_field,
    load_jump,
    save_field,
    save_jump,
)
from smalljump.mollify import mollify
from smalljump.strain import symmetric_gradient


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
    expected = np.eye(2)
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


@st.composite
def crack_sets(draw, grid: GridSpec) -> JumpSet:
    """Random interior faces with a random owner_high subset."""
    m = grid.cells_per_side
    face = st.tuples(
        st.integers(0, grid.dim - 1), st.integers(1, m - 1),
        st.lists(st.integers(0, m - 1), min_size=grid.dim - 1,
                 max_size=grid.dim - 1),
    ).map(lambda t: (t[0], tuple(t[2][:t[0]]) + (t[1],) + tuple(t[2][t[0]:])))
    faces = draw(st.lists(face, max_size=20, unique=True))
    owned = draw(st.lists(st.booleans(), min_size=len(faces),
                          max_size=len(faces)))
    return JumpSet(grid, faces, [f for f, o in zip(faces, owned) if o])


_STRAIN_GRIDS = (GridSpec(2, 8, 1.0), GridSpec(3, 4, 1.0))


@pytest.mark.parametrize("g", _STRAIN_GRIDS, ids=["2d8", "3d4"])
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_strain_exactly_symmetric_on_random_cracks(g, data, seed):
    js = data.draw(crack_sets(g))
    rng = np.random.default_rng(seed)
    u = DisplacementField(g, rng.normal(size=g.node_shape + (g.dim,)))
    e = symmetric_gradient(u, js)
    assert e.shape == g.cell_shape + (g.dim, g.dim)
    assert np.array_equal(e, np.swapaxes(e, -1, -2))


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


def test_jump_measure_values(grid2d):
    assert jump_measure(JumpSet(grid2d)) == 0.0
    g = GridSpec(2, 8, 1.0)  # h = 0.25
    assert jump_measure(JumpSet(g, [(1, (3, 4))])) == pytest.approx(0.25)
    # full mid-plane in 2d, M=16, r=1: 16 faces of length 2/16 each
    faces = [(0, (8, j)) for j in range(16)]
    assert jump_measure(JumpSet(grid2d, faces)) == pytest.approx(2.0)


def test_f_mu_values_and_convexity():
    hooke = HookeTensor(lame_lambda=0.0, lame_mu=0.5)
    params = EnergyParams(hooke, p=2.0, mu_offset=0.0)
    assert f_mu(np.zeros((2, 2)), params) == pytest.approx(0.0)
    assert f_mu(np.eye(2), params) == pytest.approx(1.0)
    # p = 2 makes f_mu independent of mu
    for mu in (0.0, 1.0, 1e6):
        pm = EnergyParams(hooke, p=2.0, mu_offset=mu)
        assert f_mu(np.eye(2), pm) == pytest.approx(1.0)

    rng = np.random.default_rng(2)
    params = EnergyParams(HookeTensor(1.3, 0.7), p=2.7, mu_offset=0.4)
    for _ in range(100):
        x1 = rng.normal(size=(2, 2))
        x2 = rng.normal(size=(2, 2))
        x1, x2 = 0.5 * (x1 + x1.T), 0.5 * (x2 + x2.T)
        for t in (0.25, 0.5, 0.75):
            lhs = f_mu(t * x1 + (1 - t) * x2, params)
            rhs = t * f_mu(x1, params) + (1 - t) * f_mu(x2, params)
            assert lhs <= rhs + 1e-12


def test_hooke_coercivity():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        hooke = HookeTensor(lame_lambda=-0.2, lame_mu=1.0)
        hooke.validate(dim)
        c0 = hooke.coercivity_constant(dim)
        assert c0 > 0
        xi = rng.normal(size=(1000, dim, dim))
        q = hooke.quadratic_form(xi)
        norm2 = np.sum((xi + np.swapaxes(xi, -1, -2)) ** 2, axis=(-2, -1))
        assert np.all(q >= c0 * norm2 - 1e-10)
        # skew inputs carry no energy
        skew = xi - np.swapaxes(xi, -1, -2)
        assert np.max(np.abs(hooke.quadratic_form(skew))) < 1e-12


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
    from smalljump.energy import f_mu as _f
    e = symmetric_gradient(smooth, empty)
    bulk = float(np.sum(_f(e, params0))) * grid2d.spacing ** 2
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
