"""Cross-commit golden outputs of ``smalljump approx``.

The determinism tests compare two runs of one build, so they cannot see
a change that moves every run the same way.  These digests pin the bytes
of ``report.json`` and ``u_tilde.bin`` for one 2D and one 3D instance; a
refactor that is meant to keep outputs bit-identical must keep them.

Recorded with numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64).  A
different numpy or scipy build may round differently; if only the
library versions changed, re-record the digests and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from smalljump.cli import main

GOLDEN = {
    "2d-128-rigid-patches": (
        ["--dim", "2", "--cells", "128", "--seed", "2", "--count", "3"],
        "fe791991c0b4df92c981918a38e7f7db7307ce46c3c8bd5573ff682bb63bb948",
        "3fadb56e8bd6f13c0948d5d0d8ad65722d6d29ea8a0ebd8191e63e2064e8ac43",
    ),
    "3d-32-rigid-patches": (
        ["--dim", "3", "--cells", "32", "--seed", "1", "--count", "2"],
        "134f172ca2cbd61512af051637881346f87fd16ae4522f040a05a50f27c5986a",
        "c44838a9656782af52eb0276c933ab29a0a4b52f74d5672c7aaa4aaec612fc02",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_approx_outputs_match_golden_digests(tmp_path, name):
    gen_args, report_sha, field_sha = GOLDEN[name]
    base = tmp_path / "field"
    assert main(["gen", "--spec", "rigid-patches", *gen_args,
                 "--out", str(base)]) == 0
    out = tmp_path / "run"
    assert main(["approx", "--field", str(base),
                 "--jump", str(base.with_suffix(".jump.json")),
                 "--eta", "0.5", "--out", str(out)]) == 0
    assert _sha256(out / "report.json") == report_sha
    assert _sha256(out / "u_tilde.bin") == field_sha
