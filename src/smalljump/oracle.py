"""Exact desk-scale minimization of the Griffith functionals.

For p = 2 the bulk plus fidelity energy is a positive (semi)definite
quadratic form in the node values; each crack configuration decouples
stencils across its faces, and the solver returns the exact minimizer of
that discrete quadratic.  The oracle minimizes over the crack
configurations of a candidate face list by branch and bound, solving
the bulk problem of each configuration it cannot rule out (condensed
onto the DOFs the candidates touch), and exposes minimality gaps,
density lower bounds and vanishing-jump convergence experiments built
on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import (
    EnergyParams,
    cellwise_pth_power,
    energy_G0,
    energy_breakdown,
    f_zero,
)
from .errors import SolverError
from .grid import (
    BallRegion,
    BoxRegion,
    DisplacementField,
    Face,
    GridSpec,
    JumpSet,
    Region,
    centered_box,
    faces_in_region,
    node_mask_from_cells,
)
from .strain import face_slots, stencil_table, symmetric_gradient

# The most candidates of an exhaustive search, bound by its time: 2^k
# configurations when the bound prunes nothing (see brute_force_minimize).
EXHAUSTIVE_LIMIT = 20
# Width, in cells, of the band along the region boundary where psi0's
# competitors are pinned to the field.
PSI0_MARGIN_CELLS = 1
# Half-widths t of the boxes Q_t on which the harness tests semicontinuity
# and the decay of the crack area.
HARNESS_T_VALUES = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CrackConfig:
    """Subset of an ordered candidate face list, encoded as a bitmask."""

    candidates: tuple[Face, ...]
    active_bits: int

    def __post_init__(self):
        if self.active_bits >> len(self.candidates):
            raise ValueError("active bits outside the candidate list")

    def active_faces(self) -> list[Face]:
        return [f for k, f in enumerate(self.candidates)
                if self.active_bits >> k & 1]

    def bitstring(self) -> str:
        return "".join(str(self.active_bits >> k & 1)
                       for k in range(len(self.candidates)))

    @property
    def n_active(self) -> int:
        return bin(self.active_bits).count("1")


@dataclass
class OracleResult:
    best_config: CrackConfig
    jumps: JumpSet   # the winner's: the base faces and its active candidates
    minimizer_u: DisplacementField
    min_energy: float
    breakdown: dict
    per_config: np.ndarray   # CONFIG_DTYPE rows the search computed, by bits


# A row of the search's table: candidate bits, then the minimizer's energies.
ENERGY_TERMS = ("bulk", "fidelity", "surface", "total")
CONFIG_DTYPE = np.dtype([("bits", np.int64)]
                        + [(t, np.float64) for t in ENERGY_TERMS])
# Below this many DOFs the condensation factors H_II by dense LU, at and
# above it by banded Cholesky, which condenses the 12-face cross 2-14x
# faster from 1 029 DOFs up but costs scipy.linalg's import (README, "Oracle").
DENSE_DOF_LIMIT = 1000
# Configuration energies within this relative distance of the lowest one
# count as tied (condensed and full solves differ near 1e-15).
TIE_RTOL = 1e-12
# Bound on one batch of the search's elimination tree: a subtree's nodes,
# each counted with the S it is born with and a D-sized row (subtrees of
# 256 leaves for the 12-face cross on 2D 8^2).
CHUNK_BYTES = 1 << 21
# Window cells of one chunk of the density check's balls (6 MB in 3D).
DENSITY_CHUNK = 1 << 18


class CellBlocks(NamedTuple):
    """Local bulk matrices of reached cells, a row per cell and subset of
    the candidates reaching it (``ElasticSystem.cell_blocks``)."""

    cells: np.ndarray   # (n_cells, dim), sorted
    reach: np.ndarray   # (n_cells, k) bool: candidate j reaches cell i
    start: np.ndarray   # (n_cells + 1,): cell i owns rows start[i]..
    dofs: np.ndarray    # (n_rows, L) local DOFs, -1 past a row's own
    locs: np.ndarray    # (n_rows, L, L), zero past a row's own


class ElasticSystem:
    """Quadratic form of the p=2 bulk + fidelity energy on node values.

    The problem is its ``EnergyParams`` (a target of None is zero) and
    its Dirichlet data: the nodes of ``pinned_mask`` keep
    ``pinned_values``, the target where none are given.

    The local matrices of cells come in batches from the strain module's
    stencil table, so the solver's internal energy is exactly the
    quadrature energy.  A crack set's Hessian is one COO->CSR sum: the
    crack-free local matrix, built once, broadcast over the cells that
    no face reaches, each reached cell's own block from ``cell_blocks``,
    then the fidelity diagonal.  The Hessian is CSR with int32 indices
    at every size; the linear term and the constant are built once.

    ``solve`` is the condensed search of ConfigurationEnergies with no
    candidates: every free DOF is eliminated, through the same
    factorization of H_II that the oracle search uses.
    """

    def __init__(self, grid: GridSpec, params: EnergyParams,
                 pinned_mask: np.ndarray | None = None,
                 pinned_values: np.ndarray | None = None):
        if params.p != 2.0:
            raise SolverError("the elastic solver is quadratic: p must be 2")
        params.hooke.validate(grid.dim)
        self.grid = grid
        self.params = params
        self.dim = grid.dim
        self.n_nodes = (grid.cells_per_side + 1) ** grid.dim
        self.n_dof = self.n_nodes * grid.dim
        self.g_vals = np.zeros(grid.node_shape + (grid.dim,)) \
            if params.g is None else params.g.values
        self.pinned = np.zeros(grid.node_shape, dtype=bool) \
            if pinned_mask is None else np.asarray(pinned_mask, dtype=bool)
        if params.kappa <= 0 and not self.pinned.any():
            raise SolverError("singular system: add fidelity or boundary data")
        self.pin_values = self.g_vals if pinned_values is None else pinned_values

        # cells per node: 2 along each axis, 1 on its boundary planes
        per_axis = np.pad(np.full(grid.cells_per_side - 1, 2.0), 1,
                          constant_values=1.0)
        counts = np.prod(np.meshgrid(*[per_axis] * grid.dim, indexing="ij"),
                         axis=0)
        # E = 0.5 x'Hx - f'x + const; the fidelity energy sum w (x - g)^2
        # gives H its diagonal 2w, f = 2wg and const = sum w g^2
        w = params.kappa * grid.spacing ** grid.dim / 2 ** grid.dim
        self.fid_weights = w * np.repeat(counts.reshape(-1), grid.dim)
        self._diag = 2.0 * self.fid_weights
        self._f = self._diag * self.g_vals.reshape(-1)
        self._const = w * float(np.sum(counts[..., None] * self.g_vals ** 2))
        # crack-free local matrix, the same for every cell up to a dof shift
        dofs, locs = self._local_blocks(np.zeros((1, grid.dim), dtype=int),
                                        np.zeros((1, grid.dim, 4), np.int8))
        self._std_dofs, self._std_loc = dofs[0], locs[0]

    # -- assembly -----------------------------------------------------

    def _local_blocks(self, cells: np.ndarray, states: np.ndarray):
        """(dofs, locs) of the bulk energies h^d B'CB of ``cells`` (n, dim)
        whose faces have ``states``.  A row numbers its nodes as its
        stencil terms first name them (axis by axis, hi before lo), its
        DOFs node by node.  B's row (c, a) holds half the weights of
        d/dx_a on component c plus those of d/dx_c on component a, or is
        zero where c or a is dead; the rows' outer products are summed in
        (c, a) order, then the trace row's."""
        grid, dim, n = self.grid, self.dim, len(cells)
        lo, hi, w, dead = stencil_table(grid, cells, states)
        nodes = np.stack([hi, lo], axis=3).reshape(n, dim * 2 ** dim)
        weights = np.stack([w, -w], axis=3).reshape(nodes.shape)
        named = weights != 0
        first = np.argmax((nodes[:, :, None] == nodes[:, None]) & named[:, None],
                          axis=2)
        new = named & (first == np.arange(nodes.shape[1]))
        local = (np.cumsum(new, axis=1) - 1)[np.arange(n)[:, None], first]
        size = int(new.sum(axis=1).max(initial=0))
        node_of = np.full((n, size), -1)
        r, t = np.nonzero(new)
        node_of[r, local[r, t]] = nodes[r, t]
        dofs = np.where(node_of[..., None] < 0, -1, node_of[..., None] * dim
                        + np.arange(dim)).reshape(n, size * dim)
        half = np.zeros((dim, n, size))   # [a, cell, node]
        r, t = np.nonzero(named)   # term t belongs to axis t // 2^dim
        half[t // 2 ** dim, r, local[r, t]] = 0.5 * weights[r, t]
        eye = np.eye(dim)
        rows = (half[None, :, :, :, None] * eye[:, None, None, None, :]
                + half[:, None, :, :, None] * eye[None, :, None, None, :])
        rows = np.where((dead.T[:, None] | dead.T[None, :])[..., None, None],
                        0.0, rows).reshape(dim, dim, n, size * dim)
        lam, mu = self.params.hooke.lame_lambda, self.params.hooke.lame_mu
        locs, trace = np.zeros((n, size * dim, size * dim)), np.zeros((n, size * dim))
        for c in range(dim):
            for a in range(dim):
                locs += 2.0 * mu * (rows[c, a, :, :, None] * rows[c, a, :, None])
            trace += rows[c, c]
        locs += lam * (trace[:, :, None] * trace[:, None])
        locs *= grid.spacing ** dim
        return dofs, locs

    def cell_blocks(self, base: JumpSet, candidates=()) -> CellBlocks:
        """Every per-cell crack block of a base set and candidate keys, in
        one batch: the cells that a face of either reaches, and in row
        ``start[i] + t`` cell i's local matrix with the candidates of
        subset t of those reaching it active (bit b for the b-th), on top
        of the base faces not among the candidates.  A cell that no
        candidate reaches has one row.  Faces keep their state in base."""
        k = len(candidates)
        cells, slot, state = face_slots(self.grid, base, candidates)
        cand = (slot >= 0) & (slot < k)
        reach = np.zeros((len(cells), k), dtype=bool)
        reach[np.nonzero(cand)[0], slot[cand]] = True
        cell = np.repeat(np.arange(len(cells)), 2 ** reach.sum(axis=1))
        start = np.searchsorted(cell, np.arange(len(cells) + 1))
        t = np.arange(len(cell)) - start[cell]
        slot, cand = slot[cell], cand[cell]
        # a candidate's bit: the number of reaching candidates before it
        bit = np.cumsum(np.pad(reach, ((0, 0), (1, 0))), axis=1)[
            cell[:, None, None], np.where(cand, slot, 0)]
        off = cand & ((t[:, None, None] >> bit) & 1 == 0)
        return CellBlocks(cells, reach, start, *self._local_blocks(
            cells[cell], state[np.where(off, -1, slot)]))

    def system_for(self, jumps: JumpSet, blocks: CellBlocks | None = None):
        """(H, f, const) of the crack set ``jumps``.  H sums, as COO
        triplets, the crack-free block on every cell that ``blocks`` (by
        default ``cell_blocks(jumps)``) does not list and row start[i] of
        ``blocks`` on its cell i; the fidelity diagonal is added last."""
        cells, _, start, dofs, locs = self.cell_blocks(jumps) \
            if blocks is None else blocks
        free = np.ones(self.grid.cell_shape, dtype=bool)
        free[tuple(cells.T)] = False
        # int32 triplet indices: the CSR form keeps them without a copy
        std = (np.ravel_multi_index(np.nonzero(free), self.grid.node_shape)[:, None]
               * self.dim + self._std_dofs).astype(np.int32)
        own = _triplets(dofs[start[:-1]].astype(np.int32), locs[start[:-1]])
        keep = (own[0] >= 0) & (own[1] >= 0)
        rows, cols, vals = (np.concatenate([x, y[keep]]) for x, y in zip(
            _triplets(std, self._std_loc), own))
        from scipy import sparse
        H = sparse.coo_matrix((vals, (rows, cols)), shape=(self.n_dof,) * 2).tocsr()
        # tocsr leaves the summed entries in triplet-sized buffers;
        # compact them once the triplets are freed
        del rows, cols, vals
        H = H.copy()
        H.setdiag(H.diagonal() + self._diag)
        return H, self._f, self._const

    def fidelity_energy(self, x: np.ndarray) -> np.ndarray:
        """Fidelity energy of flat node-value rows, shape (..., n_dof)."""
        return np.sum(self.fid_weights * (x - self.g_vals.reshape(-1)) ** 2,
                      axis=-1)

    def solve(self, jumps: JumpSet) -> tuple[DisplacementField, dict]:
        """Minimizer for one crack set, with its relative residual and
        quadratic energy."""
        energies = ConfigurationEnergies(self, [], jumps)
        x, quad, rel = energies._field(np.zeros(1, dtype=np.int64),
                                       np.zeros((1, 0)))
        u = DisplacementField(self.grid, x[0].reshape(self.g_vals.shape))
        return u, {"relative_residual": float(rel[0]),
                   "quadratic_energy": float(quad[0]),
                   "energy_scale": abs(energies._const)}


def _triplets(dofs: np.ndarray, loc: np.ndarray):
    """COO (rows, cols, vals) of ``loc`` placed on ``dofs`` x ``dofs``.

    Leading axes of ``dofs`` place one copy of ``loc`` per row.
    """
    shape = dofs.shape + dofs.shape[-1:]
    return tuple(np.broadcast_to(a, shape).reshape(-1)
                 for a in (dofs[..., :, None], dofs[..., None, :], loc))


def _dense(a) -> np.ndarray:
    """``a`` itself if it is a dense array, else its dense copy."""
    return a if isinstance(a, np.ndarray) else a.toarray()


def _banded_solve(H, inner: np.ndarray, rhs: np.ndarray,
                  Df: np.ndarray) -> np.ndarray:
    """H_II^-1 [rhs_I, H_IDf] for sparse SPD H, by LAPACK's banded Cholesky.

    The upper diagonals of H_II that hold nonzeros, w the farthest, are
    copied into one (w + 1) x |I| Fortran-order array, which ``dpbtrf``
    factors in place: no index arrays, no fill-in outside the band.  The
    right-hand sides are allocated after the factor and solved in place.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded
    A = H[inner][:, inner]
    diagonals = np.flatnonzero(np.bincount(np.maximum(A.indices - np.repeat(
        np.arange(inner.size, dtype=A.indices.dtype), np.diff(A.indptr)), 0)))
    w = int(diagonals.max(initial=0))
    band = np.zeros((w + 1, inner.size), order="F")
    for k in diagonals:
        band[w - k, k:] = A.diagonal(k)
    del A   # its CSR arrays need not sit beside the factor and the rhs
    band = cholesky_banded(band, overwrite_ab=True)
    # in Fortran order the H_IDf columns are one contiguous block to fill,
    # and LAPACK solves all columns in place
    yx = np.empty((inner.size, Df.size + 1), order="F")
    yx[:, 0] = rhs[inner]
    H[inner[:, None], Df].toarray(out=yx[:, 1:])
    # the factor's input was checked finite
    return cho_solve_banded((band, False), yx, overwrite_b=True,
                            check_finite=False)


def solve_elastic(grid: GridSpec, jumps: JumpSet, params: EnergyParams,
                  pinned_mask: np.ndarray | None = None,
                  pinned_values: np.ndarray | None = None
                  ) -> tuple[DisplacementField, dict]:
    """Exact minimizer of the discrete bulk + fidelity energy for a fixed
    crack set, the nodes of ``pinned_mask`` held at ``pinned_values`` (the
    target by default); the energy consistency against the quadrature
    functional is returned in the info dictionary."""
    u, info = ElasticSystem(grid, params, pinned_mask,
                            pinned_values).solve(jumps)
    bd = energy_breakdown(u, jumps, params)
    info["bulk_fidelity_energy"] = bd["bulk"] + bd["fidelity"]
    gap = abs(info["quadratic_energy"] - info["bulk_fidelity_energy"])
    scale = max(abs(info["bulk_fidelity_energy"]),
                abs(info["quadratic_energy"]),
                info.get("energy_scale", 0.0), 1e-12)
    info["energy_consistency"] = gap / scale
    return u, info


class ConfigurationEnergies:
    """Energies of the crack configurations over one candidate list.

    Configuration ``bits`` cracks the base faces plus the candidates whose
    bit is set; every face keeps its state in the base set.

    The free DOFs I that no candidate touches are eliminated once, by
    dense LU below DENSE_DOF_LIMIT DOFs and banded Cholesky above it:
    every solution is x = xc + M x_Df, with x_Df on the free DOFs of the
    candidates' cells D solving (S0 + delta_ff) x_Df = r0 - delta_fp x_Dp.
    The configurations are the leaves of a binary tree over the
    candidates, as in nested dissection (George 1973): each level decides
    one candidate, in a greedy order, adds to S the per-cell correction
    blocks it completes and eliminates the DOFs of Df that no pending
    block touches, so a subtree's leaves share the factorization above
    it.  Below the CHUNK_BYTES level a subtree is one batch, a tensor of
    nodes with an axis per level, and each block is added to all of them
    by broadcast.  Energies and the residual check of every leaf come from
    |D|-sized coefficients; node values are built only for the winner,
    checked on the full Hessian, and for a region's energy_breakdown.

    ``evaluate`` computes every leaf.  ``search`` is branch and bound
    (Land & Doig 1960) over the same walk: above the batch level each
    child gets a lower bound from its own S, less a fixed PSD matrix per
    pending block, and a child or batch root whose bound is above the
    lowest total computed so far is skipped; every leaf it computes is
    the row evaluate() gives it.  README, "Oracle", has the details and
    the measurements.
    """

    def __init__(self, system: ElasticSystem, candidates: list[Face],
                 base: JumpSet, region: Region | None = None):
        self.system = system
        self.candidates = system.grid.face_keys(candidates)
        self.base = base
        self.base_faces = np.setdiff1d(base.keys, self.candidates)
        self.region = region
        self._condense()

    def jumps(self, bits: int) -> JumpSet:
        active = (bits >> np.arange(len(self.candidates))) & 1 == 1
        keys = np.union1d(self.base_faces, self.candidates[active])
        return JumpSet.from_keys(self.system.grid, keys, self.base.states(keys))

    def _cell_blocks(self, blocks: CellBlocks | None = None):
        """(candidate indices, dofs, corrections, base) of each cell a
        candidate reaches in ``blocks`` (by default the cell_blocks of the
        base set and the candidates): one correction per subset of the
        cell's candidates, on the DOFs they change, and the base
        configuration's local matrix over all the cell's DOFs, those
        first."""
        blocks = blocks or self.system.cell_blocks(self.base, self.candidates)
        for i in np.flatnonzero(blocks.reach.any(axis=1)):
            rows = slice(blocks.start[i], blocks.start[i + 1])
            d = blocks.dofs[rows]
            dofs = np.unique(d[d >= 0])
            pos = np.searchsorted(dofs, d)
            t, a, b = np.nonzero((d[:, :, None] >= 0) & (d[:, None] >= 0))
            mats = np.zeros((len(d), dofs.size, dofs.size))
            mats[t, pos[t, a], pos[t, b]] = blocks.locs[rows][t, a, b]
            base = mats[0].copy()
            mats -= base   # relative to the base configuration's block
            used = np.any(mats != 0, axis=(0, 1))
            if np.any(used):
                first = np.concatenate([np.flatnonzero(used),
                                        np.flatnonzero(~used)])
                yield (np.flatnonzero(blocks.reach[i]), dofs[used],
                       mats[:, used][:, :, used], base[first][:, first])

    def _condense(self) -> None:
        sys_, k = self.system, len(self.candidates)
        table = sys_.cell_blocks(self.base, self.candidates)
        blocks = list(self._cell_blocks(table))
        H, f, self._const = sys_.system_for(self.jumps(0), table)
        dense = sys_.n_dof < DENSE_DOF_LIMIT
        if dense:
            H = H.toarray()
        pin = np.repeat(sys_.pinned.reshape(-1), sys_.dim)
        x0 = np.where(pin, sys_.pin_values.reshape(-1), 0.0)
        D = np.unique(np.concatenate([d for _, d, *_ in blocks] + [[]])).astype(int)
        self._order, block_level, dof_level = _elimination_order(
            blocks, D[~pin[D]], k)
        Df = D[~pin[D]][np.argsort(dof_level, kind="stable")]
        # ends[l]: the DOFs eliminated once l candidates are decided
        self._ends = np.searchsorted(np.sort(dof_level), np.arange(k + 1),
                                     side="right")
        inner = np.setdiff1d(np.flatnonzero(~pin), Df)
        D = np.concatenate([Df, D[pin[D]]])   # free DOFs of D first
        pos = np.zeros(sys_.n_dof, dtype=int)
        pos[D] = np.arange(D.size)
        rank = np.argsort(self._order)   # the level deciding each candidate
        # each block whole for the checks, and its free part embedded in the
        # S of its level for the tree, both with an axis per candidate
        self._blocks, self._levels = [], [[] for _ in range(k)]
        # each block's D positions and base matrix by level, for the bound
        self._bases, self._bound_tables = [[] for _ in range(k + 2)], None
        for (js, d, mats, base), level in zip(blocks, block_level):
            self._bases[level].append((pos[d], base))
            free = ~pin[d]
            coupling = mats[:, free][:, :, ~free] @ x0[d[~free]]
            lvs, js, (mats, coupling) = _by_level(rank[js], js, mats, coupling)
            # the rounding of a BLAS product follows the matrix's memory
            # order: the rows' checks take each matrix column-major, as
            # numpy's indexing leaves them in cell_blocks' output
            self._blocks.append((lvs, js, pos[d], np.ascontiguousarray(
                mats.swapaxes(-1, -2)).swapaxes(-1, -2), pos[d[free]], coupling))
            if np.any(free):   # a block on pinned DOFs alone leaves S as it is
                self._levels[level - 1].append((lvs, js) + _embed(
                    pos[d[free]] - self._ends[level - 1],
                    mats[..., free, :][..., free], coupling))
        rhs = f - H @ x0
        try:
            if dense:
                yx = np.linalg.solve(H[inner[:, None], inner], np.column_stack(
                    [rhs[inner], H[inner[:, None], Df]]))
            else:   # returns after freeing its band, before the products below
                yx = _banded_solve(H, inner, rhs, Df)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular elastic system: {exc}") from exc
        H_DI = H[Df[:, None], inner]
        self._S0 = _dense(H[Df[:, None], Df]) - H_DI @ yx[:, 1:]
        self._r0 = rhs[Df] - H_DI @ yx[:, 0]
        self._rhs_Df, self._rhs_inner2 = rhs[Df], float(rhs[inner] @ rhs[inner])
        # every solution is x = xc + M x_Df, with M = -H_II^-1 H_IDf on I
        # and the identity on Df; H xc and H M give the full-Hessian checks
        self._xc = x0.copy()
        self._xc[inner] = yx[:, 0]
        self._X = X = yx[:, 1:]
        self._Hxc = H @ self._xc
        self._HM = _dense(H[:, Df]) - H[:, inner] @ X
        self._f, self._free = f, np.flatnonzero(~pin)
        self._inner, self._Df, self._D, self._xDp = inner, Df, D, x0[D[Df.size:]]
        # the leaves' coefficients: E(xc), ||R_I||, ||(HM)_I||_2, and the
        # fidelity a + x_Df.(2b + C x_Df)
        self._E_xc = 0.5 * self._xc @ self._Hxc - f @ self._xc + self._const
        K = self._HM[inner]
        self._bound_I = (np.linalg.norm(self._Hxc[inner] - f[inner]),
                         np.sqrt(np.linalg.eigvalsh(K.T @ K).max(initial=0.0)))
        wd = sys_.fid_weights
        e0 = wd * (self._xc - sys_.g_vals.reshape(-1))
        self._fid = (sys_.fidelity_energy(self._xc), e0[Df] - X.T @ e0[inner],
                     np.diag(wd[Df]) + X.T @ (wd[inner, None] * X))
        # the shallowest level whose subtrees fit CHUNK_BYTES, counting for
        # each node the S it is born with (its parent's) and a D-sized row
        live, self._batch_level = 0, k
        for lv in reversed(range(k)):
            front = Df.size - int(self._ends[lv])
            live = 2 * (live + 8 * ((front + 1) ** 2 + D.size))
            if live > CHUNK_BYTES:
                break
            self._batch_level = lv

    def _leaves(self, only: int | None = None, best=None):
        """(bits, x_Df) of every batch of leaves, or of the one leaf ``only``,
        whose path then fixes every bit and its nodes have no axes.  A
        node is [S | r], the Schur complement beside its right-hand side.
        With ``best``, a callable giving the lowest total computed so far,
        only the subtrees that _walk cannot prune."""
        Sr = np.concatenate([self._S0, self._r0[:, None]], axis=1)
        if only is None:
            acc = np.array([self._E_xc, abs(self._E_xc)])
            yield from self._walk(Sr, 0, 0, (), best, acc)
        else:
            yield from self._batch(Sr, only, 0, len(self.candidates), ())

    def _walk(self, Sr, level: int, bits: int, path: tuple, best=None,
              acc=None):
        """Depth-first down to the batch level: each node's two children
        are one step of two nodes; ``path`` holds the ancestors' solves.
        With ``best``, each child is bounded below (_bound, from the
        node's energy so far ``acc``), the lower bound is visited first,
        and a child is skipped when its bound is above ``best()`` by more
        than TIE_RTOL and the bound's rounding error, so no configuration
        tied with the lowest is skipped."""
        if level == self._batch_level:
            yield from self._batch(Sr, bits, level, level, path)
            return
        Sr, (sol,), drop = self._decide(Sr, bits, level, (level,))
        kids = (0, 1)
        if best is not None:
            bounds, errs, acc = self._bound(Sr, bits, level, drop, acc)
            kids = np.argsort(bounds, kind="stable").tolist()
        for b in kids:
            if best is not None:
                lowest = best()
                if bounds[b] - errs[b] > lowest + TIE_RTOL * abs(lowest):
                    continue
            yield from self._walk(Sr[b], level + 1, bits | b << self._order[level],
                                  path + (sol[b],), best,
                                  None if best is None else acc[b])

    def _batch(self, Sr, root: int, level: int, batch: int, path: tuple):
        """(bits, x_Df) of the leaves below the node at ``level``: its levels
        from ``batch`` on add an axis each, and each leaf's x_Df is
        back-substituted through its ancestors' solves by broadcast."""
        k, order = len(self.candidates), self._order
        path = path + tuple(self._decide(Sr, root, batch, range(level, k))[1])
        bits = np.array(root)
        for lv in range(batch, k):
            bits = bits[..., None] | np.array([0, 1 << order[lv]])
        x = np.empty(bits.shape + (self._Df.size,))
        for lv in reversed(range(k)):
            anc = path[lv]
            if anc.ndim > 2:   # one axis per level of the batch down to lv
                anc = anc.reshape(anc.shape[:-2] + (1,) * (k - 1 - lv)
                                  + anc.shape[-2:])
            lo, hi = self._ends[lv], self._ends[lv + 1]
            x[..., lo:hi] = (anc[..., -1]
                             - (anc[..., :-1] @ x[..., hi:, None])[..., 0])
        yield bits.reshape(-1), x.reshape(bits.size, self._Df.size)

    def _decide(self, Sr, root: int, batch: int, levels):
        """Decide the candidates of ``levels`` for nodes [S | r] whose
        candidates ``order[:batch]`` are set as in ``root``; they have an
        axis of length 2 for each level decided from ``batch`` on, child
        2i + b setting it to b.  Each level adds the blocks it completes,
        by broadcast, and eliminates the DOFs they finish; returns the
        nodes, the levels' solves and each node's sum of r_e.S_ee^-1 r_e
        over them, twice the energy the eliminations took off."""
        sols, drop = [], 0.0
        for level in levels:
            if level >= batch:
                Sr = np.repeat(Sr[..., None, :, :], 2, axis=-3)
            m = level + 1 - batch
            for lvs, js, lo, hi, mats, coupling in self._levels[level]:
                Sr[..., lo:hi, lo:hi] += _batch_view(mats, lvs, js, root, batch, m)
                Sr[..., lo:hi, -1] -= _batch_view(coupling, lvs, js, root, batch, m)
            e = self._ends[level + 1] - self._ends[level]
            try:
                sol = np.linalg.solve(Sr[..., :e, :e], Sr[..., :e, e:])
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular elastic system: {exc}") from exc
            drop = drop + np.sum(Sr[..., :e, -1] * sol[..., -1], axis=-1)
            Sr = Sr[..., e:, e:] - Sr[..., e:, :e] @ sol
            sols.append(sol)
        return Sr, sols, drop

    def _bound(self, Sr, bits: int, level: int, drop, acc):
        """Lower bounds on the totals below the two children ``Sr`` of the
        node at ``level`` whose energy so far is ``acc`` (value, sum of
        magnitudes), their rounding errors and the children's ``acc``.

        A pending block c cracks its base matrix B only on its DOFs d, and
        B_c(t) - (B - Q_c on d x d) is the Schur complement of B_c(t) onto
        d, so PSD, with Q_c the one of B (_schur_complement).  Below a
        node its S minus the pending Q_c (with their pinned-DOF terms) is
        then a lower Hessian; its minimum plus the energy so far and the
        surface of the faces decided on bounds every configuration below.
        A child whose lower Hessian is not positive definite gets -inf.
        The error is 1e-10, the leaves' residual tolerance, of the terms'
        magnitudes, plus |w| |A w - v| for the solve A w = v."""
        if self._bound_tables is None:
            self._bound_tables = self._bound_levels()
        P, p, c, pinned = self._bound_tables[level + 1]
        done = sum((_batch_view(e, lvs, js, bits, level, 1)
                    for lvs, js, e in pinned), np.zeros(1))
        acc = acc + np.stack([done - 0.5 * drop, np.abs(done) + 0.5 * np.abs(drop)],
                             axis=-1)
        surface = self._surface(bits | np.array([0, 1 << self._order[level]]))
        bounds, errs = np.full(2, -math.inf), np.zeros(2)
        for b in (0, 1):
            A, v = Sr[b, :, :-1] - P, Sr[b, :, -1] + p
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                continue
            w = np.linalg.solve(A, v)
            least = -0.5 * float(v @ w)
            bounds[b] = acc[b, 0] + c + least + surface[b]
            errs[b] = 1e-10 * (acc[b, 1] + abs(c) + abs(least) + surface[b]) \
                + float(np.linalg.norm(w) * np.linalg.norm(A @ w - v))
        return bounds, errs, acc

    def _bound_levels(self):
        """Per number l of decided candidates, up to the batch level: the
        sum of the Q_c of the blocks still pending, as (P, p, c) on the
        front after l levels (P on its free DOFs, p = Q_fp x_p beside
        them and c = -x_p.Q_pp x_p / 2), and the (lvs, js, x_p.B_pp x_p / 2)
        of the blocks on pinned DOFs that level l - 1 completes."""
        n_f, k = self._Df.size, len(self.candidates)
        P, p, c = np.zeros((n_f, n_f)), np.zeros(n_f), 0.0
        tables = [None] * (self._batch_level + 1)
        for lv in reversed(range(k + 1)):
            for pos, base in self._bases[lv + 1]:
                q = _schur_complement(base, pos.size)
                f = pos < n_f
                x_p = self._xDp[pos[~f] - n_f]
                P[pos[f, None], pos[f]] += q[f][:, f]
                p[pos[f]] += q[f][:, ~f] @ x_p
                c -= 0.5 * x_p @ q[~f][:, ~f] @ x_p
            if lv <= self._batch_level:
                lo = self._ends[lv]
                tables[lv] = (P[lo:, lo:].copy(), p[lo:].copy(), c, [])
        for lvs, js, pos, mats, _, _ in self._blocks:
            f = pos < n_f
            if lvs[-1] < self._batch_level and not np.all(f):
                x_p = self._xDp[pos[~f] - n_f]
                energy = 0.5 * ((mats[..., ~f, :][..., ~f] @ x_p) @ x_p)
                tables[lvs[-1] + 1][3].append((lvs, js, energy))
        return tables

    def _corrections(self, bits: np.ndarray, x_D: np.ndarray):
        """delta x_D of a batch of leaves, from the stored blocks, and the
        norm of their right-hand sides (rhs_Df - delta_fp x_Dp on Df).  The
        2^m leaves of a batch, as _leaves yields them, are the subtree
        below the first one's top k - m levels."""
        k, m = len(self.candidates), bits.size.bit_length() - 1
        batch, root = k - m, int(bits[0])
        x_D = x_D.reshape((2,) * m + x_D.shape[-1:])
        dx = np.zeros(x_D.shape)
        coupling = np.zeros(x_D.shape[:-1] + self._Df.shape)
        for lvs, js, pos, mats, free_pos, cpl in self._blocks:
            dx[..., pos] += (_batch_view(mats, lvs, js, root, batch, m)
                             @ x_D[..., pos, None])[..., 0]
            coupling[..., free_pos] += _batch_view(cpl, lvs, js, root, batch, m)
        return dx.reshape(bits.size, -1), np.sqrt(self._rhs_inner2 + np.sum(
            (self._rhs_Df - coupling.reshape(bits.size, -1)) ** 2, axis=1))

    def _field(self, bits: np.ndarray, x_Df: np.ndarray):
        """Node values, quadratic energy and relative residual of
        configurations, checked on the full Hessian."""
        x = np.repeat(self._xc[None], len(x_Df), axis=0)
        x[:, self._inner] -= x_Df @ self._X.T
        x[:, self._Df] = x_Df
        hx = self._Hxc + x_Df @ self._HM.T
        dx, scale = self._corrections(bits, x[:, self._D])
        hx[:, self._D] += dx
        rel = _converged(np.linalg.norm((hx - self._f)[:, self._free], axis=1),
                         scale)
        quad = 0.5 * np.sum(x * hx, axis=1) - x @ self._f + self._const
        return x, quad, rel

    def _surface(self, bits: np.ndarray) -> np.ndarray:
        """beta h^(d-1) times the number of base and candidate faces that
        ``bits`` crack: the surface energy of rows and of bounds alike."""
        sys_ = self.system
        return sys_.params.beta * sys_.grid.face_area() * (
            len(self.base_faces) + np.bitwise_count(bits))

    def _rows(self, bits: np.ndarray, x_Df: np.ndarray) -> np.ndarray:
        sys_, n_f = self.system, self._Df.size
        x_D = np.concatenate([x_Df, np.broadcast_to(
            self._xDp, (bits.size, self._xDp.size))], axis=1)
        dx, scale = self._corrections(bits, x_D)
        res_D = (self._S0 @ x_Df[..., None])[..., 0] + dx[:, :n_f] - self._r0
        res_I = self._bound_I[0] + self._bound_I[1] * np.linalg.norm(x_Df, axis=1)
        _converged(np.sqrt(np.sum(res_D ** 2, axis=1) + res_I ** 2), scale)
        # E(xc) - r0.x_Df + x_Df.S0 x_Df / 2 + x_D.delta x_D / 2, grouped so
        # that the residual carries the S0 term
        quad = self._E_xc + 0.5 * (np.sum(x_Df * (res_D - self._r0), axis=1)
                                   + np.sum(x_D[:, n_f:] * dx[:, n_f:], axis=1))
        rows = np.zeros(bits.size, CONFIG_DTYPE)
        rows["bits"] = bits
        if self.region is None:
            a, b, C = self._fid
            rows["fidelity"] = a + np.sum(
                x_Df * (2.0 * b + (C @ x_Df[..., None])[..., 0]), axis=1)
            rows["bulk"] = quad - rows["fidelity"]
            rows["surface"] = self._surface(bits)
            rows["total"] = quad + rows["surface"]
        else:
            for i, b in enumerate(bits.tolist()):
                x = self._field(bits[i:i + 1], x_Df[i:i + 1])[0]
                bd = energy_breakdown(DisplacementField(sys_.grid, x.reshape(
                    sys_.g_vals.shape)), self.jumps(b), sys_.params, self.region)
                rows[i] = (b, *(bd[t] for t in ENERGY_TERMS))
        return rows

    def evaluate(self) -> np.ndarray:
        """Every configuration's CONFIG_DTYPE row, sorted by bits: the
        walk with no bound."""
        rows = np.empty(2 ** len(self.candidates), CONFIG_DTYPE)
        for bits, x_Df in self._leaves():
            rows[bits] = self._rows(bits, x_Df)
        return rows

    def search(self) -> np.ndarray:
        """The CONFIG_DTYPE rows of the configurations the branch-and-bound
        walk computes, sorted by bits, each the row evaluate() gives it;
        every configuration it skips has a total above the lowest by more
        than TIE_RTOL.  With a region it is evaluate(): a region's
        energies are not the quadratic that the bound bounds."""
        if self.region is not None:
            return self.evaluate()
        tables, lowest = [], math.inf
        for bits, x_Df in self._leaves(best=lambda: lowest):
            tables.append(self._rows(bits, x_Df))
            lowest = min(lowest, float(tables[-1]["total"].min()))
        rows = np.concatenate(tables)
        del tables
        return rows[np.argsort(rows["bits"])]

    def minimizer(self, bits: int) -> np.ndarray:
        """Flat node values of one configuration: its path is walked again,
        to the same x_Df, and the field is checked on the full Hessian."""
        (leaf,) = self._leaves(bits)
        return self._field(*leaf)[0][0]


def _converged(residual: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Residual norms relative to the right-hand side's, at most 1e-10."""
    rel = residual / np.maximum(scale, 1e-300)
    if np.any(rel > 1e-10):
        raise SolverError("elastic solve did not converge: rel residual "
                          f"{float(np.max(rel)):.2e}")
    return rel


def _by_level(lvs: np.ndarray, js: np.ndarray, *arrays: np.ndarray):
    """A block's candidates in the order of the levels ``lvs`` deciding
    them, (lvs, js), and its per-subset ``arrays`` with one axis of length
    2 per candidate in that order.  Subset t holds candidate js[i] in bit
    i, the C-order axis n - 1 - i of its (2,) * n reshape."""
    n, by_level = js.size, np.argsort(lvs)
    axes = tuple((n - 1 - by_level).tolist())
    return tuple(lvs[by_level].tolist()), tuple(js[by_level].tolist()), [
        np.ascontiguousarray(a.reshape((2,) * n + a.shape[1:]).transpose(
            axes + tuple(range(n, n + a.ndim - 1)))) for a in arrays]


def _embed(pos: np.ndarray, mats: np.ndarray, coupling: np.ndarray):
    """(lo, hi, mats, coupling) of a block on the slice lo:hi of its level's
    front that holds ``pos``.  Entries off ``pos`` are -0.0 in mats and
    0.0 in coupling, which leave any value they are added to or
    subtracted from bit for bit as it was."""
    lo, hi = int(pos.min()), int(pos.max()) + 1
    full = np.full(mats.shape[:-2] + (hi - lo,) * 2, -0.0)
    full[..., pos[:, None] - lo, pos - lo] = mats
    cpl = np.zeros(coupling.shape[:-1] + (hi - lo,))
    cpl[..., pos - lo] = coupling
    return lo, hi, full, cpl


def _batch_view(a: np.ndarray, lvs: tuple, js: tuple, root: int, batch: int,
                m: int) -> np.ndarray:
    """A block array's entries for nodes of a batch: the bits of its
    candidates decided above level ``batch`` as in ``root``, then an axis
    for each of the m levels from ``batch`` on, of length 2 where the
    block has that level's candidate and 1 elsewhere."""
    fixed = tuple(root >> j & 1 for j, lv in zip(js, lvs) if lv < batch)
    shape = [1] * m
    for lv in lvs[len(fixed):]:
        shape[lv - batch] = 2
    return a[fixed].reshape(shape + list(a.shape[len(lvs):]))


def _schur_complement(B: np.ndarray, n: int) -> np.ndarray:
    """B_dd - B_dN B_NN^+ B_Nd of a PSD matrix B whose first n DOFs are d.
    B_NN's eigenvalues below 1e-10 of its largest count as zero: a mode
    cut off only makes the complement larger, and the bound it gives
    lower."""
    if n == len(B):
        return B.copy()
    lam, V = np.linalg.eigh(B[n:, n:])
    keep = lam > 1e-10 * lam.max(initial=0.0)
    W = B[:n, n:] @ V[:, keep]
    return B[:n, :n] - (W / lam[keep]) @ W.T


def _elimination_order(blocks, Df: np.ndarray, k: int):
    """Greedy candidate order of the elimination tree: the next candidate
    finishes the most DOFs of Df (one product of the blocks' and DOFs'
    open counts), the lower index on ties.  A block is added with its
    last candidate and a DOF eliminated with its last block; returns the
    order and these (1-based) levels."""
    need = np.zeros((len(blocks), k))
    touch = np.zeros((len(blocks), Df.size))
    for c, (js, d, *_) in enumerate(blocks):
        need[c, js], touch[c] = 1.0, np.isin(Df, d)
    pending = need.sum(axis=1)
    unfinished = (pending > 0) @ touch
    order: list[int] = []
    for _ in range(k):
        finishes = (need * (pending == 1)[:, None]).T @ touch
        done = np.count_nonzero(finishes == unfinished, axis=1)
        done[order] = -1
        order.append(int(np.argmax(done)))
        pending -= need[:, order[-1]]
        unfinished -= finishes[order[-1]]
    level = 1 + np.max(np.where(need, np.argsort(order), -1), axis=1, initial=-1)
    return order, level, np.max(np.where(touch, level[:, None], 0), axis=0,
                                initial=0)


def brute_force_minimize(grid: GridSpec, candidates: list[Face],
                         params: EnergyParams,
                         region: Region | None = None,
                         base_jumps: JumpSet | None = None,
                         homogeneous: bool = False,
                         pinned_mask: np.ndarray | None = None,
                         pinned_values: np.ndarray | None = None
                         ) -> OracleResult:
    """Minimize over all 2^k crack configurations of the candidate list.

    Every energy comes from one ConfigurationEnergies.search: the
    configurations are searched by branch and bound, and the ones it
    skips provably lie above the lowest total by more than TIE_RTOL, so
    the minimum is exact.  More than EXHAUSTIVE_LIMIT candidates are
    refused before any system is built, because the worst case still
    computes all 2^k (README, "Oracle").  ``per_config`` is one
    CONFIG_DTYPE row (40 B) per configuration computed, sorted by bits;
    only the winner's node values are built.  Energies within TIE_RTOL
    of the lowest count as tied, and among them fewer active faces wins,
    then the lexicographic bitstring.  ``homogeneous=True`` minimizes G0, that
    is G on ``params.homogeneous()``.
    """
    params = params.homogeneous() if homogeneous else params
    k = len(candidates)
    if k > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{k} candidates exceed the exhaustive search "
                         f"(at most {EXHAUSTIVE_LIMIT})")
    keys = np.unique(grid.face_keys(candidates))
    if keys.size < k:
        raise ValueError("duplicate candidate faces")
    candidates = grid.face_tuples(keys)
    system = ElasticSystem(grid, params, pinned_mask, pinned_values)
    energies = ConfigurationEnergies(system, candidates,
                                     base_jumps or JumpSet(grid), region)
    per_config = energies.search()
    totals = per_config["total"]
    lowest = totals.min()
    tied = per_config["bits"][totals <= lowest + TIE_RTOL * abs(lowest)]
    best = min((CrackConfig(tuple(candidates), b) for b in tied.tolist()),
               key=lambda c: (c.n_active, c.bitstring()))
    bd = dict(zip(ENERGY_TERMS, per_config[np.searchsorted(
        per_config["bits"], best.active_bits)].item()[1:]))
    u = DisplacementField(grid, energies.minimizer(best.active_bits)
                          .reshape(system.g_vals.shape))
    return OracleResult(best, energies.jumps(best.active_bits), u, bd["total"],
                        bd, per_config)


def deviation_psi0(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                   region: BoxRegion, candidates: list[Face]) -> dict:
    """Gap between the field's homogeneous energy and the best competitor
    agreeing with it outside a compactly contained sub-box."""
    grid = u.grid
    h = grid.spacing
    inner = BoxRegion(tuple(v + PSI0_MARGIN_CELLS * h for v in region.lo),
                      tuple(v - PSI0_MARGIN_CELLS * h for v in region.hi))
    keys = grid.face_keys(candidates)
    if not np.all(inner.contains_points(grid.face_centers(keys))):
        raise ValueError("candidate faces must lie inside the inner box")
    pinned_mask = ~inner.contains_points(grid.node_coord_grid())
    reg = None if bool(np.all(region.cell_mask(grid))) else region
    g0 = params.homogeneous()
    own = energy_breakdown(u, jumps, g0, reg)["total"]

    result = brute_force_minimize(
        grid, candidates, g0, region=reg, base_jumps=jumps,
        pinned_mask=pinned_mask, pinned_values=u.values)
    return {"psi0": own - result.min_energy, "own_energy": own,
            "infimum": result.min_energy, "oracle": result}


def density_lower_bound_check(u: DisplacementField, jumps: JumpSet,
                              params: EnergyParams,
                              radii: list[float]) -> dict:
    """Scaling of energy and crack area in balls centered on the crack.

    For each crack face center x and radius rho with the ball compactly
    inside the domain, reports G0(u, ball)/rho^(n-1) and crack area over
    rho^(n-1); the minima over centers are the empirical density
    constants.  The densities are computed once, and each ball sums
    them in energy_G0's order (_ball_sums)."""
    grid, kappa = u.grid, params.kappa
    if len(jumps) == 0:
        return {"status": "vacuous", "rows": []}
    fields = [f_zero(symmetric_gradient(u, jumps), params)] + (
        [cellwise_pth_power(u.values, grid, params.p)] if kappa > 0 else [])
    faces, hvol = grid.face_centers(jumps.keys), grid.spacing ** grid.dim
    area = grid.face_area()
    rows = []
    for rho in radii:
        x = faces[np.max(np.abs(faces), axis=1) + rho
                  <= grid.half_width - grid.spacing]
        rows.append({"rho": rho, "centers": len(x), "theta0": None, "theta1": None})
        if len(x):
            sums, n = _ball_sums(grid, fields, jumps.keys, x, rho)
            g0 = sums[0] * hvol + (kappa * (sums[1] * hvol) if kappa > 0 else 0.0) \
                + params.beta * n * area
            scale = rho ** (grid.dim - 1)
            rows[-1].update(theta0=float(np.min(g0 / scale)),
                            theta1=float(np.min(n * area / scale)))
    theta0, theta1 = (min((r[t] for r in rows if r["centers"]), default=math.inf)
                      for t in ("theta0", "theta1"))
    ok = math.isfinite(theta1) and theta1 > 0 and theta0 > 0
    return {"status": "ok" if ok else "degenerate", "rows": rows,
            "theta0": theta0, "theta1": theta1}


def _ball_sums(grid: GridSpec, fields: list, keys: np.ndarray,
               x: np.ndarray, rho: float):
    """(sums, counts) of the balls of radius rho around the points x: the
    np.sum of each cell field over a ball's cells in the C order of its
    bounding window (one cell of padding), by one 2-D sum per distinct
    cell count, and the number of face centres of ``keys`` in it (their
    cells are in the window).  Membership is BallRegion's test on
    differences of absolute coordinates; DENSITY_CHUNK bounds a chunk."""
    dim, h, c1d = grid.dim, grid.spacing, grid.cell_centers_1d()
    lo = np.searchsorted(c1d, x - rho - h)
    width = int(np.max(np.searchsorted(c1d, x + rho + h) - lo))
    # one window shape: the cells past a ball's own window are outside it
    lo = np.minimum(lo, grid.cells_per_side - width)
    ball = BallRegion((0.0,) * dim, rho)
    present = np.zeros(grid.face_lattice, dtype=bool)
    present.flat[keys] = True
    sums, counts = np.empty((len(fields), len(x))), np.empty(len(x), dtype=int)
    step = max(1, DENSITY_CHUNK // width ** dim)
    for s in range(0, len(x), step):
        xs, at = x[s:s + step], lo[s:s + step]
        win = tuple((at[:, a, None] + np.arange(width)).reshape(
            (-1,) + (1,) * a + (width,) + (1,) * (dim - 1 - a)) for a in range(dim))
        inside = ball.contains_points(np.stack(np.broadcast_arrays(*(
            c1d[i] - xs[:, a].reshape(i.shape[:1] + (1,) * dim)
            for a, i in enumerate(win))), axis=-1))
        n_in = np.count_nonzero(inside.reshape(len(xs), -1), axis=1)
        for f, field in enumerate(fields):
            vals = field[win][inside]
            for c in np.unique(n_in):
                balls = np.flatnonzero(n_in == c)
                sums[f, s + balls] = np.sum(vals[
                    (np.cumsum(n_in)[balls] - c)[:, None] + np.arange(c)], axis=1)
        axis, i, *off = np.nonzero(present[(slice(None),) + win])
        centres = grid.face_centers(np.ravel_multi_index(
            (axis,) + tuple(at[i, a] + off[a] for a in range(dim)), grid.face_lattice))
        counts[s:s + step] = np.bincount(
            i[ball.contains_points(centres - xs[i])], minlength=len(xs))
    return sums, counts


def vanishing_jump_harness(grid: GridSpec, kind: str, levels: int,
                           params: EnergyParams, eta: float,
                           kappa0: float = 0.1, seed: int = 0) -> dict:
    """Convergence experiment along a built-in vanishing-jump family.

    Per level: run the approximation pipeline, fit the global rigid
    drift, and report (i) the median distance to the limit field off the
    exceptional set, (ii) the tail semicontinuity of the homogeneous bulk
    energy on the boxes Q_t, and (iii) the decay of the weighted crack
    area.  Levels outside the smallness regime are skipped with notice.
    """
    from dataclasses import replace

    from .approximator import ApproxConfig, approximate
    from .generators import vanishing_sequence
    from .kornfit import fit_rigid_motion

    seq = vanishing_sequence(grid, kind, levels, seed=seed)
    centers = grid.cell_center_grid().reshape(-1, grid.dim)
    hvol = grid.spacing ** grid.dim

    runs = []
    skipped = []
    for lv, (u, jumps, meta) in enumerate(seq):
        kappa_lv = kappa0 * 4.0 ** (-lv)
        delta_raw = jumps.measure() ** (1.0 / grid.dim)
        if delta_raw >= eta:
            skipped.append({"level": lv, "delta": delta_raw,
                            "notice": "outside the smallness regime"})
            continue
        params_lv = replace(params, kappa=kappa_lv)
        cfg = ApproxConfig(eta=eta)
        res = approximate(u, jumps, params_lv, cfg)
        motion = fit_rigid_motion(centers, u.cell_means().reshape(-1, grid.dim))
        g0 = energy_G0(u, jumps, params_lv)
        runs.append({"level": lv, "u": u, "jumps": jumps, "res": res,
                     "motion": motion, "kappa": kappa_lv, "meta": meta,
                     "g0_total": g0})
    if not runs:
        return {"status": "all levels skipped", "skipped": skipped}

    coords = grid.node_coord_grid()
    last = runs[-1]
    u_inf_vals = last["res"].u_tilde.values - last["motion"](coords)
    u_inf = DisplacementField(grid, u_inf_vals)
    e_inf = symmetric_gradient(u_inf, last["res"].new_jump)

    reference = max(r["g0_total"] for r in runs)
    tol = 1e-6 * reference

    medians = []
    for r in runs:
        omega_nodes = node_mask_from_cells(r["res"].omega_cells)
        diff = np.linalg.norm(r["u"].values - r["motion"](coords) - u_inf_vals,
                              axis=-1)
        medians.append(float(np.median(diff[~omega_nodes])))

    dens_inf = f_zero(e_inf, params)
    dens_runs = [f_zero(r["res"].strain, params) for r in runs]
    semicontinuity, weighted_jump = [], []
    for t in HARNESS_T_VALUES:
        box = centered_box(t, grid.dim)
        cells = box.cell_slices(grid)
        lhs = float(np.sum(dens_inf[cells].ravel()) * hvol)
        tail = [float(np.sum(dens[cells].ravel()) * hvol) for dens in dens_runs]
        semicontinuity.append({"t": t, "lhs": lhs, "tail_min": min(tail),
                               "tolerance": tol, "pass": lhs <= min(tail) + tol})
        vals = [params.beta * faces_in_region(grid, r["jumps"], box)
                * grid.face_area() for r in runs]
        halving = all(vals[i + 1] <= 0.5 * vals[i] + 1e-15
                      for i in range(len(vals) - 1))
        weighted_jump.append({"t": t, "values": vals, "halving": halving})

    return {
        "status": "ok",
        "kind": kind,
        "skipped": skipped,
        "levels": [r["level"] for r in runs],
        "areas": [r["meta"]["area"] for r in runs],
        "kappas": [r["kappa"] for r in runs],
        "median_distance": medians,
        "median_nonincreasing": all(medians[i + 1] <= medians[i] + 1e-12
                                    for i in range(len(medians) - 1)),
        "semicontinuity": semicontinuity,
        "weighted_jump": weighted_jump,
        "reference_energy": reference,
    }
