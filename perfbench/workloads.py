"""The four benchmark workloads: the inputs made from the seed, the items
a run repeats, and the checks on every item's output.

Each workload is a closed loop with one caller: the next item starts only
after the previous one has finished and been checked.  The seed goes only
into the input generators; the program sees only the generated inputs.
The library workloads call through module attributes (`approximator.
approximate`, not a bound import) so that the tracer sees their calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from smalljump import approximator, cli, covering, generators, grid, oracle
from smalljump.energy import EnergyParams, HookeTensor, energy_breakdown

SUITE_ETA = 0.5
HOOKE = HookeTensor(1.0, 1.0)
PSI0_FLOOR = -1e-9
CONSISTENCY_LIMIT = 1e-9
# random_cracks_field's default opening, the one the acceptance suite and
# scripts/calibrate.py use; rigid_patches_field defaults to a smaller one.
POCKET_AMPLITUDE = 0.08


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _quiet_cli(argv: list[str]) -> int:
    """Run the CLI in-process with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class Checks:
    """Named pass/fail results for one item."""

    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.rows)


def _check_oracle(checks: Checks, bits: str, min_energy: float,
                  quadrature_total: float) -> None:
    """The winning energy is the quadrature energy of the minimizer, and the
    instance is not degenerate."""
    gap = _relative_gap(min_energy, quadrature_total)
    checks.add("energy_consistency", gap <= CONSISTENCY_LIMIT, f"{gap:.3g}")
    checks.add("winning_set_not_empty_or_full",
               "1" in bits and "0" in bits, bits)
    checks.add("min_energy_positive", min_energy > 0, f"{min_energy:.6g}")


def check_reference(checks: Checks, digest: dict, expected: dict,
                    rtol: float) -> None:
    """Compare an item's digest with the one recorded for the default seed:
    strings exactly, numbers to the workload's relative tolerance."""
    for key, want in expected.items():
        got = digest.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and _relative_gap(got, want) <= rtol
        else:
            ok = got == want
        checks.add(f"ref_{key}", ok, f"{got} vs {want}")


# ---------------------------------------------------------------------------

class SuiteApprox:
    """3D 64^3 instances shaped like the criterion-2 mix; one item runs
    approximate, verify_properties and covering_structure_report.

    The pocket instances use rigid_patches_field with random_cracks_field's
    amplitude (POCKET_AMPLITUDE): the same pockets with a fixed extent, so
    that the seed does not draw their size."""

    name = "suite-3d64"
    ref_rtol = 0.0

    def __init__(self, tiny: bool):
        self.cells = 32 if tiny else 64
        self.batch = 2 if tiny else 6
        self.params = EnergyParams(HOOKE, p=2.0)
        self.config = approximator.ApproxConfig(eta=SUITE_ETA)

    def setup(self, seed: int, workdir: Path):
        g = grid.GridSpec(3, self.cells, 1.0)
        area = g.face_area()
        fields = []
        for i in range(self.batch):
            s = seed * 100 + i
            if i % 3 == 0:
                u, j, _ = generators.two_motion_crack_field(
                    g, area=2 * area * (1 + i % 4), seed=s)
            else:
                u, j, _ = generators.rigid_patches_field(
                    g, 2 + i % 2 if i % 3 == 1 else 1, 2, s,
                    amplitude=POCKET_AMPLITUDE)
            fields.append((u, j))
        return fields

    def items_per_pass(self, inputs) -> int:
        return len(inputs)

    def run_item(self, inputs, k: int):
        u, j = inputs[k]
        res = approximator.approximate(u, j, self.params, self.config)
        rep = approximator.verify_properties(u, j, res, self.params, self.config)
        structure = covering.covering_structure_report(res.covering)
        return res, rep, structure

    def check(self, inputs, k: int, output, first: bool) -> Checks:
        res, rep, structure = output
        checks = Checks()
        failed = [c.name for c in rep.checks if not c.passed]
        checks.add("properties_pass", rep.passed, ",".join(failed))
        checks.add("containment",
                   rep.by_name("p2_new_jump").detail.get("containment") is True)
        checks.add("tiling_exact", structure["tiling_exact"] is True)
        checks.add("neighbor_ratios_ok", structure["neighbor_ratios_ok"] is True)
        return checks

    def digest(self, output) -> dict:
        res, rep, _ = output
        return {"report_sha256": _sha256(rep.to_json().encode()),
                "u_tilde_sha256": _sha256(res.u_tilde.values.tobytes())}


class CliApprox:
    """`smalljump approx` on a 3D 128^3 field with three extent-2 pockets,
    read from and written to disk."""

    name = "cli-approx-3d128"
    ref_rtol = 0.0

    def __init__(self, tiny: bool):
        self.cells = 32 if tiny else 128

    def setup(self, seed: int, workdir: Path):
        g = grid.GridSpec(3, self.cells, 1.0)
        u, j, _ = generators.rigid_patches_field(g, 3, 2, seed,
                                                 amplitude=POCKET_AMPLITUDE)
        base = workdir / "input"
        grid.save_field(base, u)
        grid.save_jump(base.with_suffix(".jump.json"), j)
        return base

    def items_per_pass(self, inputs) -> int:
        return 1

    def run_item(self, inputs, k: int):
        out = inputs.parent / "out"
        rc = _quiet_cli(["approx", "--field", str(inputs),
                         "--jump", str(inputs.with_suffix(".jump.json")),
                         "--eta", str(SUITE_ETA), "--out", str(out)])
        return rc, out

    def check(self, inputs, k: int, output, first: bool) -> Checks:
        rc, out = output
        checks = Checks()
        checks.add("exit_code", rc == cli.EXIT_PASS, str(rc))
        if rc != cli.EXIT_PASS:
            return checks
        report = json.loads((out / "report.json").read_text())
        props = report["properties"]
        failed = [c["name"] for c in props["checks"] if not c["pass"]]
        checks.add("properties_pass", props["pass"] is True, ",".join(failed))
        p2 = [c for c in props["checks"] if c["name"] == "p2_new_jump"]
        checks.add("containment", bool(p2) and p2[0].get("containment") is True)
        return checks

    def digest(self, output) -> dict:
        _, out = output
        return {"report_sha256": _sha256((out / "report.json").read_bytes()),
                "u_tilde_sha256": _sha256((out / "u_tilde.bin").read_bytes())}


def _cross_candidates(m: int, per_axis: int) -> list:
    """Faces on the two midlines of a 2D grid, centred, per_axis on each."""
    mid, start = m // 2, max(1, (m - per_axis) // 2)
    return ([(0, (mid, j)) for j in range(start, start + per_axis)]
            + [(1, (j, mid)) for j in range(start, start + per_axis)])


class OracleEnum:
    """Exhaustive `brute_force_minimize` of the fidelity functional on a 2D
    8^2 grid over the 12-face midline cross (4 096 configurations)."""

    name = "oracle-enum-2d8"
    ref_rtol = 1e-12

    def __init__(self, tiny: bool):
        self.per_axis = 2 if tiny else 6

    def setup(self, seed: int, workdir: Path):
        g = grid.GridSpec(2, 8, 1.0)
        target = generators.split_target(g, seed=seed)
        params = EnergyParams(HOOKE, p=2.0, kappa=2.0, beta=0.02, g=target)
        return g, params, _cross_candidates(8, self.per_axis)

    def items_per_pass(self, inputs) -> int:
        return 1

    def run_item(self, inputs, k: int):
        g, params, cands = inputs
        return oracle.brute_force_minimize(g, cands, params, homogeneous=False)

    def check(self, inputs, k: int, output, first: bool) -> Checks:
        g, params, cands = inputs
        checks = Checks()
        bits = output.best_config.bitstring()
        own = grid.JumpSet(g, output.best_config.active_faces())
        total = energy_breakdown(output.minimizer_u, own, params)["total"]
        _check_oracle(checks, bits, output.min_energy, total)
        # psi0 re-runs the search on the competitors of the minimizer, as
        # costly as the item itself, so it is computed for the first item of
        # the run; every later item must return the same minimizer bit for
        # bit, which makes its psi0 the same number.
        if first:
            psi = oracle.deviation_psi0(output.minimizer_u, own, params,
                                        grid.centered_box(1.0, 2), cands)
            self._first = (bits, output.min_energy, psi["psi0"])
        first_bits, first_energy, psi0 = self._first
        checks.add("psi0_nonnegative", psi0 >= PSI0_FLOOR, f"{psi0:.3g}")
        checks.add("repeat_identical",
                   bits == first_bits and output.min_energy == first_energy)
        return checks

    def digest(self, output) -> dict:
        return {"best_bits": output.best_config.bitstring(),
                "min_energy": output.min_energy, "psi0": self._first[2]}


class CliOracle:
    """`smalljump oracle` on a 2D 64^2 grid (8 450 DOFs, sparse Jacobi-CG)
    over the 4-face midline cross: 16 configurations, 16 more for psi0,
    and the density check."""

    name = "cli-oracle-2d64"
    ref_rtol = 1e-9
    kappa, beta = 2.0, 0.005

    def __init__(self, tiny: bool):
        self.cells = 16 if tiny else 64

    def setup(self, seed: int, workdir: Path):
        g = grid.GridSpec(2, self.cells, 1.0)
        target = generators.split_target(g, seed=seed)
        base = workdir / "target"
        grid.save_field(base, target)
        return base, EnergyParams(HOOKE, p=2.0, kappa=self.kappa,
                                  beta=self.beta, g=target)

    def items_per_pass(self, inputs) -> int:
        return 1

    def run_item(self, inputs, k: int):
        base, _ = inputs
        out = base.parent / "out"
        rc = _quiet_cli(["oracle", "--cells", str(self.cells),
                         "--n-candidates", "4", "--cross",
                         "--kappa", str(self.kappa), "--beta", str(self.beta),
                         "--target", str(base), "--out", str(out)])
        return rc, out

    def check(self, inputs, k: int, output, first: bool) -> Checks:
        _, params = inputs
        rc, out = output
        checks = Checks()
        checks.add("exit_code", rc == cli.EXIT_PASS, str(rc))
        if rc != cli.EXIT_PASS:
            return checks
        summary = json.loads((out / "summary.json").read_text())
        u = grid.load_field(out / "minimizer")
        own = grid.load_jump(out / "minimizer.jump.json", u.grid)
        total = energy_breakdown(u, own, params)["total"]
        bits = summary["best_bits"]
        _check_oracle(checks, bits, summary["min_energy"], total)
        psi0 = summary["psi0"]
        checks.add("psi0_nonnegative",
                   psi0 is not None and psi0 >= PSI0_FLOOR, f"{psi0}")
        return checks

    def digest(self, output) -> dict:
        _, out = output
        summary = json.loads((out / "summary.json").read_text())
        return {key: summary[key] for key in ("best_bits", "min_energy", "psi0")}


WORKLOADS = {w.name: w for w in (SuiteApprox, CliApprox, OracleEnum, CliOracle)}
