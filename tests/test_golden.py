"""Pinned `--hex-floats` outputs of the RK4 path and of `oscbath steady`.

The fixtures in tests/golden/ hold the output of the commands in GOLDEN,
written by the per-step RK4 (four right-hand-side evaluations and one
symmetrization per step) that the precomputed step map replaced. Rewrite
one with ``oscbath <args> --hex-floats --out tests/golden/<name>.csv`` only
when a change of its numbers is intended.

The steady state does not depend on the integrator and must stay byte for
byte the same. Its fixture was rewritten twice. First for the normal-mode
closed form that replaced the Kronecker LU solve: 14 of 16 matrix entries
and the three measures moved by at most 4.4e-16, far inside REL_TOL, and
both solves are within 4 ulp of a 60-digit solution. Then for the mode
rotation formed from 2 theta, exact at epsilon = 0, which made the state
exactly symmetric under the swap of the two oscillators: sigma[x1,x1]
moved by 1 ulp to equal sigma[x2,x2], and sigma[x1,p1] and sigma[x2,p2]
by 2 and 3 ulp to one shared value (5 of 16 entries; the measures did not
move); every entry is within 1 ulp of a 60-digit solution. The RK4 runs
may move by rounding: every float column must stay within
REL_TOL * max(|b|, 1) of the fixture value b, and the `physical` column
must match exactly.
"""

import math
from pathlib import Path

from oscbath.cli import main
from helpers import parse_csv

GOLDEN_DIR = Path(__file__).with_name("golden")

GOLDEN = {
    "evolve_rk4": ["evolve", "--integrator", "rk4"],
    "evolve_lambda0_rk4": ["evolve", "--lambda", "0", "--integrator", "rk4"],
    "steady": ["steady"],
}

# The precomputed map moved the stable run by at most 1e-14 and the
# lambda = 0 run by at most 1.2e-12 (relative), both far below this.
REL_TOL = 1e-11


def _run(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*GOLDEN[name], "--hex-floats", "--out", str(out)]) == 0
    return out.read_text(), (GOLDEN_DIR / f"{name}.csv").read_text()


def _assert_rows_close(got_text, want_text, skip=()):
    got_meta, got_header, got_rows = parse_csv(got_text)
    want_meta, want_header, want_rows = parse_csv(want_text)
    assert got_meta == want_meta
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        assert got["physical"] == want["physical"], want["t"]
        for col in want_header:
            if col == "physical" or col in skip:
                continue
            a = float.fromhex(got[col])
            b = float.fromhex(want[col])
            if math.isnan(b):
                assert math.isnan(a), (want["t"], col)
            else:
                assert abs(a - b) <= REL_TOL * max(abs(b), 1.0), (want["t"], col, a, b)


def test_steady_is_byte_identical(tmp_path):
    got, want = _run("steady", tmp_path)
    assert got == want


def test_stable_rk4_matches_every_column(tmp_path):
    _assert_rows_close(*_run("evolve_rk4", tmp_path))


def test_lambda0_rk4_matches_all_but_discord(tmp_path):
    # Without dissipation the state stays pure. There the discord's last
    # f_entropy argument, sqrt(zeta), is 1 in exact arithmetic, but
    # cancellation puts it 1e-8 to 6e-7 below 1, outside f_entropy's domain:
    # 64 of the fixture's 501 discords are already NaN (DomainError), and
    # rounding-level changes of sigma flip about 100 rows between NaN and
    # finite. Purity, log negativity, the symplectic eigenvalues and the
    # invariants are well conditioned there.
    got, want = _run("evolve_lambda0_rk4", tmp_path)
    _assert_rows_close(got, want, skip=("discord",))

