"""Cross-commit golden outputs of ``smalljump approx``.

The determinism tests compare two runs of one build, so they cannot see
a change that moves every run the same way.  These digests pin the bytes
of ``report.json`` and ``u_tilde.bin`` for one 2D and two 3D instances
(one at p = 1.5, which takes the fractional-power path of the energy
densities), and of ``configs.csv``, ``summary.json`` and
``minimizer.bin`` for one 2D oracle run whose minimizer is cracked, so
its density table is filled.
Two more pin library runs of the homogeneous Dirichlet problem, which
the CLI does not reach: one elastic solve and one 6-candidate search.
A refactor that is meant to keep outputs bit-identical must keep them.

Recorded with numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64).  A
different numpy or scipy build may round differently; if only the
library versions changed, re-record the digests and say so.

The oracle CLI digests and the Dirichlet search digest were re-recorded
when the search became an elimination tree over the candidates: the
same discrete problem solved in another order, so its rounding moved.
Against the per-configuration solves they replaced, the winners were
the same, every ``configs.csv`` value moved by at most 8.8e-15
relative, ``minimizer.bin`` by at most 7.2e-16 and psi0 by 4.4e-16; the
Dirichlet search's totals moved by at most 2.5e-16 relative.

All digests are taken with one BLAS thread, which ``tests/conftest.py``
sets.  OpenBLAS splits a product by its thread count, so the oracle CLI
digests and both Dirichlet digests came out differently at one thread
than at the two to four threads they were first recorded with; they were
re-recorded at one thread from unchanged code.  The winners stayed the
same; ``configs.csv`` values moved by at most 4.4e-15 relative,
``minimizer.bin`` by 3.3e-15 of its largest entry, psi0 by 2.3e-15, the
Dirichlet solve's field by 6.9e-16 of its largest entry and the
Dirichlet search's totals by 1.3e-16 relative.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from smalljump.cli import main
from smalljump.energy import EnergyParams, HookeTensor
from smalljump.generators import split_target
from smalljump.grid import GridSpec, JumpSet
from smalljump.oracle import brute_force_minimize, solve_elastic
from tests.oracle_reference import boundary_nodes

GOLDEN = {
    "2d-128-rigid-patches": (
        ["--dim", "2", "--cells", "128", "--seed", "2", "--count", "3"], [],
        "fe791991c0b4df92c981918a38e7f7db7307ce46c3c8bd5573ff682bb63bb948",
        "3fadb56e8bd6f13c0948d5d0d8ad65722d6d29ea8a0ebd8191e63e2064e8ac43",
    ),
    "3d-32-rigid-patches": (
        ["--dim", "3", "--cells", "32", "--seed", "1", "--count", "2"], [],
        "134f172ca2cbd61512af051637881346f87fd16ae4522f040a05a50f27c5986a",
        "c44838a9656782af52eb0276c933ab29a0a4b52f74d5672c7aaa4aaec612fc02",
    ),
    "3d-32-rigid-patches-p1.5": (
        ["--dim", "3", "--cells", "32", "--seed", "1", "--count", "2"],
        ["--p", "1.5"],
        "b7df7e68d7668753c0fce032aa3bd9bcb3e2739198cdff9a41830e008404e3d5",
        "f2abd6b0c796618be4edcc1a25576c5529bde8516871ab37623e77a25d70ae8e",
    ),
}

ORACLE_GOLDEN = {
    "2d-16-cracked-minimizer": (
        ["--dim", "2", "--cells", "16", "--kappa", "2", "--beta", "0.05"],
        "721db0678f5cff4688b869b792b92af467e8b3f07ea698dcb854fac4c3ced378",
        "8533882fe91a8a661abb5092d1331873511463d9566216c9673a9daac1860a59",
        "f7d372dd0117ecfea6f7c34ce1e2d15b7d74429ed12a4dedcfab1d4775a35f8c",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_approx_outputs_match_golden_digests(tmp_path, name):
    gen_args, approx_args, report_sha, field_sha = GOLDEN[name]
    base = tmp_path / "field"
    assert main(["gen", "--spec", "rigid-patches", *gen_args,
                 "--out", str(base)]) == 0
    out = tmp_path / "run"
    assert main(["approx", "--field", str(base),
                 "--jump", str(base.with_suffix(".jump.json")),
                 "--eta", "0.5", *approx_args,
                 "--out", str(out)]) == 0
    assert _sha256(out / "report.json") == report_sha
    assert _sha256(out / "u_tilde.bin") == field_sha


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_outputs_match_golden_digests(tmp_path, name):
    args, configs_sha, summary_sha, field_sha = ORACLE_GOLDEN[name]
    out = tmp_path / "run"
    assert main(["oracle", *args, "--out", str(out)]) == 0
    assert (out / "density.csv").exists()
    assert _sha256(out / "configs.csv") == configs_sha
    assert _sha256(out / "summary.json") == summary_sha
    assert _sha256(out / "minimizer.bin") == field_sha


# Library runs that no CLI digest reaches: the homogeneous functional G0
# with Dirichlet data on the grid boundary, taken from the split target,
# and base faces with owner_high flags.
def _dirichlet_instance():
    g = GridSpec(2, 16, 1.0)
    target = split_target(g, seed=1)
    params = EnergyParams(HookeTensor(1.0, 1.0), p=2.0, kappa=2.0, beta=0.05,
                          g=target)
    return g, target, params


def test_dirichlet_solve_matches_golden_digest():
    g, target, params = _dirichlet_instance()
    faces = [(0, (8, j)) for j in range(4, 12)]
    u, info = solve_elastic(g, JumpSet(g, faces, faces[2:5]),
                            params.homogeneous(), pinned_mask=boundary_nodes(g),
                            pinned_values=target.values)
    digest = hashlib.sha256(u.values.tobytes()
                            + json.dumps(info, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "1e95f7b481ee37753051af4a7b2532112219762af3918e22ea5f599b6dbdc2a2")


def test_dirichlet_search_matches_golden_digest():
    g, target, params = _dirichlet_instance()
    cands = [(0, (8, j)) for j in range(5, 11)]
    res = brute_force_minimize(g, cands, params, homogeneous=True,
                               pinned_mask=boundary_nodes(g),
                               pinned_values=target.values)
    totals = np.array([row["total"] for row in res.per_config])
    assert totals.size == 64
    digest = hashlib.sha256(totals.tobytes()
                            + res.minimizer_u.values.tobytes()
                            + res.best_config.bitstring().encode())
    assert digest.hexdigest() == (
        "9edf3dc716e514af517e05edf4692ceb69d0bb69f9c9c51892481d06ca3412d9")
