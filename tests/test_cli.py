import argparse
import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oscbath
import oscbath.cli

from oscbath import (
    CorrelationReport,
    SymplecticData,
    TimeGrid,
    Trajectory,
)
from oscbath.cli import _COLUMNS, _csv_text, _trajectory_csv, main
from oscbath.model import _SQUEEZING_LIMIT
from oscbath.sweep import FIGURE_IDS, figure_preset, sweep_parameter
from helpers import FIG1A, parse_csv


def _load_workloads():
    # the benchmark's output checker and references are the golden gate
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def after_squeezing_warning(err: str, r: str) -> str:
    """stderr after its first line, which must be validate's warning for an
    r beyond the supported squeezing range."""
    first, _, rest = err.partition("\n")
    assert first.startswith(f"warning: r = {r} is beyond the supported squeezing range")
    return rest


FIG1A_FLAGS = ["--omega", "1", "--epsilon", "0", "--nu", "0.8",
               "--lambda", "0.6", "--temp", "0.2", "--r", "1"]


# Values whose formatting is easy to get wrong: signed zeros, NaN, +-inf,
# subnormals, the ends of the exponent range and 12th-digit rounding ties.
_SPECIAL_VALUES = [
    -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308 / 3, 1e300, -1e-300, 1.7976931348623157e308,
    0.1234567890125, 1.0000000000005, 9.99999999999951, 99999999999.95,
    123456789012.5, -2.5e-13, 1.0, 1e16, 0.5, -1e-5, 3.0, 0.1,
]


def _special_trajectory(seed=0):
    rng = np.random.default_rng(seed)
    n = 3 * len(_SPECIAL_VALUES)

    def column():
        return rng.permutation(np.array(_SPECIAL_VALUES * 3))

    report = CorrelationReport(
        purity=column(), log_negativity=column(), discord=column(),
        physical=rng.random(n) < 0.5, zeta_branch=np.full(n, None, dtype=object),
    )
    data = SymplecticData(*(column() for _ in range(9)))
    return Trajectory(params=FIG1A, grid=TimeGrid(0.0, 1.0, n), integrator="closed",
                      times=column(), sigmas=None,
                      data=data, report=report)


def _per_value(v, hex_floats):
    # the per-value formatter that the whole-table slots replaced
    return (v + 0.0).hex() if hex_floats else f"{v + 0.0:#.12g}"


def _per_value_rows(traj, hex_floats):
    rep, data = traj.report, traj.data
    columns = [
        [_per_value(v, hex_floats) for v in c.tolist()]
        for c in (traj.times, rep.purity, rep.log_negativity, rep.discord,
                  data.nu_minus, data.nu_plus, data.i1, data.i2, data.i3, data.i4)
    ]
    columns.append(["true" if p else "false" for p in rep.physical.tolist()])
    return [",".join(row) for row in zip(*columns)]


def _args(hex_floats):
    return argparse.Namespace(hex_floats=hex_floats, log_base="e", threshold=0.0, dt=1e-3)


class TestTrajectoryLines:
    @pytest.mark.parametrize("hex_floats", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_per_value_formatting(self, hex_floats, seed):
        traj = _special_trajectory(seed)
        lines = _trajectory_csv(traj, _args(hex_floats)).split("\n")
        assert lines[1] == ",".join(_COLUMNS)
        assert lines[2:] == [*_per_value_rows(traj, hex_floats), ""]

    def test_every_preset_matches_per_value_formatting(self):
        count = 0
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for o in sweep_parameter(preset.params, preset.sweep, preset.values,
                                     preset.grid):
                for hex_floats in (False, True):
                    lines = _trajectory_csv(o.trajectory, _args(hex_floats)).split("\n")
                    assert lines[2:] == [*_per_value_rows(o.trajectory, hex_floats), ""]
                count += 1
        assert count == 60


# Every float, then the ones the exact-digit path must get right: 12-digit
# ties, whose product can land on a half with a nonzero low part, the
# range [1e-12, 1e13] around the one it covers, and powers of ten and
# their neighbours, where log10 can be one off.
_TIE = st.builds(lambda m, e: (m + 0.5) * 10.0 ** -e,
                 st.integers(10 ** 11, 10 ** 12 - 1), st.integers(0, 22))
_COVERED = st.floats(min_value=1e-12, max_value=1e13)
_POWER = st.integers(-13, 13).map(lambda e: 10.0 ** e)
_NEAR_POWER = st.builds(math.nextafter, _POWER, st.sampled_from([0.0, math.inf]))


class TestCsvText:
    @settings(max_examples=1500, deadline=None, database=None, derandomize=True)
    @given(st.one_of(st.floats(), _TIE, _COVERED, _POWER, _NEAR_POWER))
    def test_every_float_matches_per_value_formatting(self, v):
        assert _csv_text([[v]], False) == f"{v + 0.0:#.12g}\n"
        assert _csv_text([[v]], True) == f"{(v + 0.0).hex()}\n"

    @pytest.mark.parametrize("v,text", [
        (123456789012.5, "123456789012."),  # tie to even
        (123456789013.5, "123456789014."),
        (999999999999.5, "1.00000000000e+12"),  # carry into the exponent
        (1e12, "1.00000000000e+12"),
        (math.nextafter(1e12, 0.0), "1.00000000000e+12"),
        (9.99999999999995e-05, "0.000100000000000"),  # fixed/scientific boundary
        (9.99999999999e-05, "9.99999999999e-05"),
        (1e-4, "0.000100000000000"),
        (1e-11, "1.00000000000e-11"),  # boundary of the exact-digit range
        (9.999999999995e-12, "1.00000000000e-11"),
        (-0.0, "0.00000000000"),
        (5e-324, "4.94065645841e-324"),
        (1.7976931348623157e308, "1.79769313486e+308"),
        # one value per decimal layout X = -11..11: the "0.000" prefix word,
        # the point in every place of the four 3-digit chunks, chunks with
        # inner zeros, and the exponent word
        (9.07060504031e-11, "9.07060504031e-11"),
        (9.07060504031e-10, "9.07060504031e-10"),
        (9.07060504031e-09, "9.07060504031e-09"),
        (9.07060504031e-08, "9.07060504031e-08"),
        (9.07060504031e-07, "9.07060504031e-07"),
        (9.07060504031e-06, "9.07060504031e-06"),
        (9.07060504031e-05, "9.07060504031e-05"),
        (0.000907060504031, "0.000907060504031"),
        (0.00907060504031, "0.00907060504031"),
        (0.0907060504031, "0.0907060504031"),
        (0.907060504031, "0.907060504031"),
        (9.07060504031, "9.07060504031"),
        (90.7060504031, "90.7060504031"),
        (907.060504031, "907.060504031"),
        (9070.60504031, "9070.60504031"),
        (90706.0504031, "90706.0504031"),
        (907060.504031, "907060.504031"),
        (9070605.04031, "9070605.04031"),
        (90706050.4031, "90706050.4031"),
        (907060504.031, "907060504.031"),
        (9070605040.31, "9070605040.31"),
        (90706050403.1, "90706050403.1"),
        (907060504031.0, "907060504031."),
    ])
    def test_pinned_values(self, v, text):
        negative = ("-" if v else "") + text
        assert _csv_text([[v]], False) == text + "\n"
        assert _csv_text([[-v]], False) == negative + "\n"
        assert _csv_text([[v, -v], [-v, v]], False, np.array([True, False])) == (
            f"{text},{negative},true\n{negative},{text},false\n")
        assert _csv_text([[v]], True) == (v + 0.0).hex() + "\n"

    @pytest.mark.parametrize("hex_floats", [False, True])
    def test_rows_mixing_exact_digits_and_fallback(self, hex_floats):
        row = [1.5, math.nan, 1e-300, -2.5e-5, -math.inf, 1e15, 0.0, -0.0, 5e-324, 123.456]
        table = [row, row[::-1]]
        want = "".join(",".join([*(_per_value(v, hex_floats) for v in r), flag]) + "\n"
                       for r, flag in zip(table, ("true", "false")))
        assert _csv_text(table, hex_floats, np.array([True, False])) == want
        assert _csv_text(table, hex_floats) == want.replace(",true", "").replace(",false", "")


class TestValidateCommand:
    def test_caption_values_pass(self, capsys):
        assert main(["validate", *FIG1A_FLAGS]) == 0
        assert "ok" in capsys.readouterr().out

    def test_coupling_bound_violation(self, capsys):
        code = main(["validate", "--nu", "1.5", "--omega", "1", "--epsilon", "0"])
        assert code == 1
        assert "omega1*omega2" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf"])
    def test_non_finite_nu(self, nu, capsys):
        assert main(["validate", "--nu", nu]) == 1
        assert capsys.readouterr().err == f"nu must be finite (got {nu})\n"

    def test_epsilon_violation(self):
        assert main(["validate", "--epsilon", "1"]) == 1

    def test_warning_on_marginal_set(self, capsys):
        assert main(["validate", "--lambda", "0"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_malformed_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--omega", "abc"])
        assert exc.value.code == 2

    def test_negative_value_in_scientific_notation(self, capsys):
        assert main(["validate", "--nu", "-1e-3"]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_negative_value_beyond_float_range(self, capsys):
        assert main(["validate", "--omega", "-1e400"]) == 1
        assert "omega must be finite and > 0 (got -inf)" in capsys.readouterr().err


class TestEvolveCommand:
    def test_csv_shape_and_first_row(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["evolve", *FIG1A_FLAGS, "--t-end", "10",
                     "--points", "201", "--out", str(out)])
        assert code == 0
        meta, header, rows = parse_csv(out.read_text())
        assert header == ["t", "purity", "log_negativity", "discord",
                          "nu_minus", "nu_plus", "I1", "I2", "I3", "I4",
                          "physical"]
        assert len(rows) == 201
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert first["purity"] == "1.00000000000"
        assert float(first["log_negativity"]) == pytest.approx(2.0, abs=1e-9)
        assert first["physical"] == "true"

    def test_metadata_records_everything(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["evolve", *FIG1A_FLAGS, "--out", str(out)])
        meta = parse_csv(out.read_text())[0][0]
        for key in ("omega=", "epsilon=", "nu=", "lambda=", "temperature=",
                    "r=", "t_start=", "t_end=", "points=", "integrator=",
                    "dt=", "log_base="):
            assert key in meta
        assert "threshold=" not in meta  # evolve does not scan for sudden death

    def test_vacuum_stays_product(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["evolve", "--r", "0", "--nu", "0", "--lambda", "0.6",
              "--temp", "0", "--points", "51", "--out", str(out)])
        _, _, rows = parse_csv(out.read_text())
        assert all(float(r["log_negativity"]) == 0.0 for r in rows)
        assert all(float(r["discord"]) == 0.0 for r in rows)

    @pytest.mark.parametrize("flags", [["--lambda", "0"], ["--nu", "1"]])
    def test_closed_integrator_on_marginal_sets_exits_0(self, flags, capsys):
        # lambda = 0 and |nu| = omega1*omega2 take the default closed form
        assert main(["evolve", *flags, "--points", "11"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "integrator=closed" in captured.out.splitlines()[0]
        assert len(captured.out.splitlines()) == 13  # metadata, header, 11 rows

    def test_invariant_beyond_float_range_exits_1(self, capsys):
        assert main(["evolve", "--r", "200", "--points", "3"]) == 1
        assert "beyond the float range" in capsys.readouterr().err

    def test_large_squeezing_exits_1(self, capsys):
        assert main(["evolve", "--r", "50", "--points", "3"]) == 1
        err = after_squeezing_warning(capsys.readouterr().err, "50.0")
        assert err.startswith("error:") and "symplectic eigenvalue" in err

    def test_squeezing_beyond_float_range_exits_1(self, capsys):
        assert main(["evolve", "--r", "400", "--points", "3"]) == 1
        err = after_squeezing_warning(capsys.readouterr().err, "400.0")
        assert err.startswith("error:") and "squeezing r = 400.0" in err

    @pytest.mark.parametrize("integrator", ["closed", "rk4"])
    def test_squeezing_at_the_float_range_limit_exits_1(self, integrator, capsys):
        code = main(["evolve", "--r", "355", "--points", "3", "--integrator", integrator])
        assert code == 1
        err = after_squeezing_warning(capsys.readouterr().err, "355.0")
        assert err.startswith("error: exact i1 ") and "beyond the float range" in err

    @pytest.mark.parametrize("flags, reason", [
        # omega1*omega2 is the smallest subnormal: W-^2 rounds to 0, while
        # lambda^2 keeps the steady state
        (["--omega", "3e-162", "--epsilon", "0.9", "--nu", "0", "--temp", "0"],
         "the lower normal-mode frequency squared"),
        (["--r", "1e308"], "squeezing r = 1e+308 puts cosh(2r) beyond the float range"),
        (["--lambda", "1.7976931348623157e+308", "--nu", "0", "--r", "1e-300"],
         "2*lambda is beyond the float range"),
        # 2*lambda is finite, but 2*lambda*coth(omega1/2T)/omega1 of 2 D is not
        (["--lambda", "8.9e307"],
         "steady state left the float range: diffusion entry "
         "2*lambda*coth(omega1/2T)/omega1 overflows (lambda = 8.9e+307, T = 0.2)\n"),
    ])
    def test_float_range_limits_exit_1(self, flags, reason, capsys):
        assert main(["evolve", *flags, "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        r = float(flags[flags.index("--r") + 1]) if "--r" in flags else 1.0
        if r > _SQUEEZING_LIMIT:  # validate's warning comes first
            err = after_squeezing_warning(err, repr(r))
        assert err.startswith(f"error: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["evolve", "--points", "3"], ["steady"]])
    def test_squeezing_beyond_the_supported_range_warns(self, command, capsys):
        assert main([*command, "--r", "4.58"]) == 0
        captured = capsys.readouterr()
        assert after_squeezing_warning(captured.err, "4.58") == ""
        assert captured.out.startswith(f"# oscbath {command[0]} ")
        assert main([*command, "--r", "4.579"]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_params_exit_1_without_rk4_hint(self, capsys):
        code = main(["evolve", "--nu", "1.5", "--points", "11"])
        assert code == 1
        err = capsys.readouterr().err
        assert "omega1*omega2" in err
        assert "rk4" not in err

    def test_bad_grid_is_usage_error(self, capsys):
        # 1 point, and counts beyond 2**53, where numpy's linspace raises a
        # bare ValueError (2**62) or IndexError (2**63) instead of MemoryError
        for points in ("1", "9007199254740993", "4611686018427387904", "9223372036854775808"):
            code = main(["evolve", "--points", points])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and err.count("\n") == 1

    def test_infinite_t_end_is_usage_error(self, capsys):
        assert main(["evolve", "--t-end", "inf", "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "t_end" in err

    def test_negative_infinite_t_end_is_usage_error(self, capsys):
        assert main(["evolve", "--t-end", "-inf"]) == 2
        assert capsys.readouterr().err.startswith("usage error: t_end must be finite")

    @pytest.mark.parametrize("dt", ["nan", "-1", "-1e-3"])
    def test_bad_dt_is_usage_error(self, dt, capsys):
        assert main(["evolve", "--integrator", "rk4", "--dt", dt]) == 2
        assert capsys.readouterr().err.startswith("usage error: dt must be finite and > 0")

    def test_grid_beyond_memory_exits_1(self, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(oscbath.cli, "evolve_trajectory", no_memory)
        assert main(["evolve", "--points", "100000000000"]) == 1
        assert capsys.readouterr().err == (
            "error: not enough memory for 100000000000 time points\n")

    @pytest.mark.parametrize("command", ["evolve", "figure"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_threshold_is_usage_error(self, command, threshold, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        argv = ["evolve"] if command == "evolve" else ["figure", "fig2b"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), f"--threshold={threshold}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if command == "figure":
            assert "--threshold: must be a finite number" in err
        else:  # evolve takes no threshold at all
            assert f"unrecognized arguments: --threshold={threshold}" in err
        assert not out.exists()  # rejected before any work

    def test_steady_has_no_threshold(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steady", "--threshold", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold" in capsys.readouterr().err

    def test_rk4_overflow_exits_1(self, capsys):
        code = main(["evolve", "--integrator", "rk4", "--t-end", "1e300",
                     "--points", "3", "--dt", "1e299"])
        assert code == 1
        assert "left the float range" in capsys.readouterr().err

    def test_rk4_step_count_beyond_float_range_exits_1(self, capsys):
        code = main(["evolve", "--t-end", "1e308", "--integrator", "rk4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t/dt beyond the float range" in err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        # a path below a regular file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "run.csv"
        assert main(["evolve", "--points", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}: ")
        assert "Traceback" not in err

    def test_rk4_integrator_conserves_purity(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["evolve", "--lambda", "0", "--nu", "0.8", "--r", "1",
                     "--integrator", "rk4", "--points", "21",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = parse_csv(out.read_text())
        purities = [float(r["purity"]) for r in rows]
        assert max(purities) - min(purities) <= 1e-9

    def test_stdout_output(self, capsys):
        assert main(["evolve", *FIG1A_FLAGS, "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# oscbath evolve")
        assert len(out.splitlines()) == 5  # meta + header + 3 rows

    def test_hex_floats_round_trip_exactly(self, tmp_path):
        dec = tmp_path / "dec.csv"
        hexed = tmp_path / "hex.csv"
        main(["evolve", *FIG1A_FLAGS, "--points", "11", "--out", str(dec)])
        main(["evolve", *FIG1A_FLAGS, "--points", "11", "--hex-floats",
              "--out", str(hexed)])
        _, _, dec_rows = parse_csv(dec.read_text())
        _, _, hex_rows = parse_csv(hexed.read_text())
        for drow, hrow in zip(dec_rows, hex_rows):
            exact = float.fromhex(hrow["discord"])
            assert float(drow["discord"]) == pytest.approx(exact, rel=1e-11)
            assert float.fromhex(hrow["discord"]).hex() == hrow["discord"]


class TestSteadyCommand:
    def test_uncoupled_cold_bath_is_vacuum(self, capsys):
        assert main(["steady", "--nu", "0", "--temp", "0", "--lambda", "0.6",
                     "--omega", "1", "--epsilon", "0"]) == 0
        out = capsys.readouterr().out
        assert "purity,1.00000000000" in out
        matrix_rows = [l for l in out.splitlines()
                       if l and not l.startswith("#") and "," in l
                       and not l.split(",")[0].isalpha()][:4]
        matrix = np.array([[float(v) for v in row.split(",")]
                           for row in matrix_rows])
        assert np.abs(matrix - np.eye(4)).max() <= 1e-10

    def test_thermal_uncoupled_values(self, capsys):
        assert main(["steady", "--nu", "0", "--temp", "0.2", "--lambda",
                     "0.6", "--omega", "1", "--epsilon", "0"]) == 0
        out = capsys.readouterr().out
        assert "1.01356730981" in out
        assert "purity,0.973407773317" in out

    @pytest.mark.parametrize("hex_floats", [False, True])
    def test_values_match_per_value_formatting(self, hex_floats, capsys):
        flags = ["--log-base", "2"] + (["--hex-floats"] if hex_floats else [])
        assert main(["steady", *FIG1A_FLAGS, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        s_inf = oscbath.steady_state(FIG1A)
        report = oscbath.full_report(s_inf)
        bits = 1.0 / math.log(2.0)
        assert lines[2:6] == [",".join(_per_value(v, hex_floats) for v in row)
                              for row in s_inf.tolist()]
        assert lines[6:10] == [
            "# measures",
            f"purity,{_per_value(report.purity, hex_floats)}",
            f"log_negativity,{_per_value(report.log_negativity * bits, hex_floats)}",
            f"discord,{_per_value(report.discord * bits, hex_floats)}",
        ]

    def test_marginal_coupling_exits_0(self, capsys):
        # W- = 0: the lower mode is held by the damping alone
        assert main(["steady", "--nu", "1.0", "--omega", "1",
                     "--epsilon", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "physical,true" in captured.out

    def test_zero_dissipation_exits_1(self, capsys):
        assert main(["steady", "--lambda", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: steady state requires lambda > 0 (got lambda=0.0)\n"

    @pytest.mark.parametrize("omega", ["3.5e153", "9.5e153", "1.3e154"])
    def test_largest_frequencies_exit_0(self, omega, capsys):
        # k = 8 (W+^2 + W-^2) + 16 lambda^2 and w1^2 + w2^2 overflow; the
        # blocks are solved in scaled units and pass the residual bound,
        # down to lambda = 1e-300
        for lam in ("0.6", "1e-200", "1e-300"):
            assert main(["steady", "--omega", omega, "--lambda", lam]) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and "physical,true" in captured.out

    @pytest.mark.parametrize("flags, reason", [
        # omega1*omega2 is the smallest subnormal, so W-^2 rounds to 0, and
        # lambda^2 = 1e-400 underflows too
        (["--omega", "3e-162", "--epsilon", "0.9", "--nu", "0", "--lambda", "1e-200",
          "--temp", "0"], "W-^2 + lambda^2 underflows to 0"),
        # full_report of a steady state that steady_state accepts
        (["--epsilon", "1e-08", "--temp", "1.9473953578010756e+121"],
         "exact i4 of the covariance matrix is beyond the float range"),
        # the solve beyond the float range: p = coth(omega/2T) omega = 2T overflows
        (["--omega", "10", "--temp", "1e308"], "steady state left the float range"),
        (["--temp", "1e308"], "coth(omega_i / 2T) is beyond the float range"),
        (["--lambda", "1.7976931348623157e+308"], "2*lambda is beyond the float range"),
        # 2*lambda is finite; the first entry of 2 D that overflows is named
        (["--lambda", "8.9e307"],
         "steady state left the float range: diffusion entry "
         "2*lambda*coth(omega1/2T)/omega1 overflows (lambda = 8.9e+307, T = 0.2)\n"),
        (["--omega", "10", "--lambda", "8.9e307"],
         "steady state left the float range: diffusion entry "
         "2*lambda*coth(omega1/2T)*omega1 overflows"),
        # every entry of 2 D is finite; the scaled mode solve overflows
        (["--lambda", "8.9e307", "--temp", "0.1"],
         "steady state left the float range: the normal-mode solve overflows "
         "(lambda = 8.9e+307, W+^2 = 1.8)\n"),
    ])
    def test_errors_beyond_the_solve_exit_1(self, flags, reason, capsys):
        assert main(["steady", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {reason}")
        assert captured.err.count("\n") == 1

    def test_vanishing_lambda_exits_0_with_a_physical_state(self, capsys):
        # lambda^2 underflows to 0, yet sigma_inf keeps its lambda -> 0+ limit
        flags = ["--epsilon", "0.5", "--lambda", "2.1113590913827084e-290", "--temp", "0"]
        assert main(["steady", *flags]) == 0
        out = capsys.readouterr().out
        assert "physical,true" in out
        assert out.splitlines()[2].startswith("2.45322743577,")

    def test_infinite_temperature_exits_1(self, capsys):
        assert main(["steady", "--temp", "inf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "temperature" in err
        assert "Traceback" not in err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "steady.csv"
        assert main(["steady", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}: ")
        assert "Traceback" not in err

    def test_warm_bath_accepted(self, capsys):
        # max|2D| ~ 2.4e7, so the residual bound scales up with it
        assert main(["steady", "--temp", "1e7"]) == 0
        assert "physical,true" in capsys.readouterr().out


class TestFigureCommand:
    def test_fig1a_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["figure", "fig1a", "--out", str(out_dir)]) == 0
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert csvs == [
            "fig1a_temperature=0.1.csv",
            "fig1a_temperature=0.5.csv",
            "fig1a_temperature=1.csv",
            "fig1a_temperature=2.csv",
        ]
        svg = (out_dir / "fig1a.svg").read_text()
        assert svg.count("<polyline") == 4
        assert ">discord</text>" in svg
        assert ">t</text>" in svg
        for value in ("0.1", "0.5", "1", "2"):
            assert f">T={value}</text>".replace("T", "temperature") in svg

    def test_squeezing_beyond_the_supported_range_warns(self, monkeypatch, tmp_path, capsys):
        # no preset has r > 2; one swept to r = 5 warns once, for that value
        preset = dataclasses.replace(figure_preset("fig2c"), values=(1.0, 5.0),
                                     grid=TimeGrid(0.0, 1.0, 3))
        monkeypatch.setattr(oscbath.cli, "figure_preset", lambda _: preset)
        assert main(["figure", "fig2c", "--out", str(tmp_path)]) == 0
        assert after_squeezing_warning(capsys.readouterr().err, "5.0") == ""

    def test_invalid_sweep_value_is_skipped(self, monkeypatch, tmp_path, capsys):
        preset = dataclasses.replace(figure_preset("fig1a"), values=(0.1, -1.0),
                                     grid=TimeGrid(0.0, 1.0, 3))
        monkeypatch.setattr(oscbath.cli, "figure_preset", lambda _: preset)
        assert main(["figure", "fig1a", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "skipping temperature=-1: temperature must be finite and >= 0 (got -1.0)\n")
        assert captured.out == f"wrote 1 CSV files and fig1a.svg to {tmp_path}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig1a.svg", "fig1a_temperature=0.1.csv"]
        assert (tmp_path / "fig1a.svg").read_text().count("<polyline") == 1

    def test_no_valid_sweep_value_exits_1(self, monkeypatch, tmp_path, capsys):
        preset = dataclasses.replace(figure_preset("fig1a"), values=(-1.0, -2.0),
                                     grid=TimeGrid(0.0, 1.0, 3))
        monkeypatch.setattr(oscbath.cli, "figure_preset", lambda _: preset)
        assert main(["figure", "fig1a", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "skipping temperature=-1: temperature must be finite and >= 0 (got -1.0)",
            "skipping temperature=-2: temperature must be finite and >= 0 (got -2.0)",
            "error: no valid curves produced",
        ]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9", "--out", "/tmp/nowhere"])
        assert exc.value.code == 2

    def test_runs_are_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["figure", "fig2d", "--out", str(dir_a)]) == 0
        assert main(["figure", "fig2d", "--out", str(dir_b)]) == 0
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_all_presets_match_golden_reference(self, tmp_path, capsys):
        workloads = _load_workloads()
        refs = workloads.load_refs()
        assert sorted(refs) == sorted(FIGURE_IDS)
        for fid in FIGURE_IDS:
            out_dir = tmp_path / fid
            assert main(["figure", fid, "--out", str(out_dir)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            ok, records, reason = workloads.check_figure_output(
                refs[fid], out_dir, captured.out)
            assert ok, f"{fid}: {reason}"
            assert records == 501 * len(refs[fid]["csv"])

    def test_unwritable_directory_exits_1(self, tmp_path, capsys):
        # a path below a regular file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["figure", "fig1a", "--out", str(blocker / "sub")])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_still_writes_every_file(self, unbuffered, tmp_path):
        # as `oscbath figure fig2a --out DIR | head -0`: stdout is a pipe
        # whose reader is gone, so each write raises BrokenPipeError
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(oscbath.__file__).parents[1]))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "oscbath", "figure", "fig2a", "--out", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig2a.svg", *(f"fig2a_temperature={v}.csv" for v in ("0.1", "0.5", "1", "2"))]
        assert result.returncode == 1  # README: 1 for unwritable output
        assert result.stderr == "error: cannot write to -: [Errno 32] Broken pipe\n"

    def test_csv_path_taken_by_a_directory_exits_1(self, tmp_path, capsys):
        # the directory exists and is writable, but one output path is not
        (tmp_path / "fig1a_temperature=0.5.csv").mkdir()
        code = main(["figure", "fig1a", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write to {tmp_path}: ")
        assert "Traceback" not in err


class TestLogBaseUnits:
    """--log-base 2 converts at output only: the log negativity and discord
    are the nats values times 1 / ln 2, bit for bit, and nothing else moves.
    The threshold converts the other way, so the printed scan is the same."""

    FACTOR = 1.0 / math.log(2.0)
    ENTROPIC = ("log_negativity", "discord")

    def bits(self, name, value):
        if name in self.ENTROPIC:
            return (float.fromhex(value) * self.FACTOR + 0.0).hex()
        return value

    def check_csv(self, nats_text, bits_text):
        meta, header, rows = parse_csv(nats_text)
        assert parse_csv(bits_text) == (
            [m.replace("log_base=e", "log_base=2") for m in meta], header,
            [{name: self.bits(name, v) for name, v in row.items()} for row in rows],
        )

    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("integrator", ["closed", "rk4"])
    def test_evolve(self, integrator, capsys):
        argv = ["evolve", "--integrator", integrator, "--hex-floats", "--log-base"]
        self.check_csv(self.run([*argv, "e"], capsys), self.run([*argv, "2"], capsys))

    def test_steady(self, capsys):
        argv = ["steady", "--hex-floats", "--log-base"]
        nats = self.run([*argv, "e"], capsys).splitlines()
        expected = [nats[0].replace("log_base=e", "log_base=2")]
        for line in nats[1:]:
            name, comma, value = line.partition(",")
            expected.append(name + comma + self.bits(name, value))
        assert self.run([*argv, "2"], capsys).splitlines() == expected

    @pytest.mark.parametrize("figure", ["fig1a", "fig2a", "fig3a"])  # one per observable
    def test_figure(self, figure, tmp_path, capsys):
        nats, bits = tmp_path / "e", tmp_path / "2"
        printed = [self.run(["figure", figure, "--hex-floats", "--log-base", base,
                             "--out", str(tmp_path / base)], capsys) for base in "e2"]
        assert "entanglement deaths" in printed[0]
        assert printed[1] == printed[0].replace(str(nats), str(bits))
        names = sorted(p.name for p in nats.glob("*.csv"))
        assert len(names) == 4
        assert sorted(p.name for p in bits.glob("*.csv")) == names
        for name in names:
            self.check_csv((nats / name).read_text(), (bits / name).read_text())
        # only an entropic curve is drawn in bits; purity has no unit
        svgs = [(d / f"{figure}.svg").read_text() for d in (nats, bits)]
        assert (svgs[0] == svgs[1]) == (figure_preset(figure).observable == "purity")

    def test_threshold_is_in_the_log_base_unit(self, tmp_path, capsys):
        # 0.25 nats is 0.25 / ln 2 bits; 0.25 nats read as bits scans otherwise
        nats, bits = 0.25, 0.25 * self.FACTOR
        assert bits / self.FACTOR == nats
        printed = [
            self.run(["figure", "fig2a", "--log-base", base, "--threshold", repr(threshold),
                      "--out", str(tmp_path / base)], capsys).splitlines()[:-1]
            for base, threshold in (("e", nats), ("2", bits), ("2", nats))
        ]
        assert printed[0] and printed[1] == printed[0]
        assert printed[2] != printed[0]


# Every option of the four commands, by the kind of value it takes; an
# option drawn for a command that lacks it is a usage error (exit 2).
_FLOAT_FLAGS = ["--omega", "--epsilon", "--nu", "--lambda", "--temp", "--r",
                "--t-start", "--t-end", "--dt", "--threshold"]
_CHOICE_FLAGS = {"--integrator": ["closed", "rk4"], "--log-base": ["e", "2"]}
_SHORT_TEXT = st.text(alphabet="-+.0123456789eEinfatx ", max_size=6)
_OPTION = st.one_of(
    st.tuples(st.sampled_from(_FLOAT_FLAGS), st.floats().map(repr) | _SHORT_TEXT),
    st.tuples(st.just("--points"), st.integers(max_value=2001).map(str) | _SHORT_TEXT),
    *[st.tuples(st.just(flag), st.sampled_from(values) | _SHORT_TEXT)
      for flag, values in _CHOICE_FLAGS.items()],
    st.tuples(st.just("--out"), st.sampled_from(["-", "out.csv", "missing/out.csv"])),
    st.just(("--hex-floats",)),
)
# the marginal sets, lambda = 0 and |nu| = omega1*omega2
_MARGINAL_FLAGS = st.sampled_from([[], ["--lambda", "0"], ["--nu", "1", "--omega", "1"]])
_T_END = st.floats(min_value=0.0, max_value=1e308) | st.sampled_from([1e-300, 1e-3, 2.0, 1e300])
# the RK4 core's edges: tiny steps, step counts t/dt near the float range,
# grids of two points, and the marginal sets
_RK4_EVOLVE = st.builds(
    lambda dt, t_end, points, flags: [
        "evolve", "--integrator", "rk4", "--dt", repr(dt), "--t-end", repr(t_end),
        "--points", str(points), *flags],
    st.floats(min_value=5e-324, max_value=1.0) | st.sampled_from([5e-324, 1e-300, 1e-10, 0.3]),
    _T_END,
    st.integers(min_value=2, max_value=40),
    _MARGINAL_FLAGS,
)
# the same grids and sets under the default closed integrator
_CLOSED_EVOLVE = st.builds(
    lambda t_end, points, flags: [
        "evolve", "--t-end", repr(t_end), "--points", str(points), *flags],
    _T_END,
    st.integers(min_value=2, max_value=40),
    _MARGINAL_FLAGS,
)


def _run_argv(argv, capsys):
    """Run ``main(argv)`` and check it exits 0, 1 or 2 with no traceback; any
    exception other than argparse's SystemExit fails the test as it is."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


class TestArgvNeverCrashes:
    """Every command line exits 0, 1 or 2, with no traceback."""

    @settings(max_examples=120, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["validate", "evolve", "steady", "figure"]),
           st.lists(_OPTION, max_size=5),
           st.sampled_from(FIGURE_IDS) | _SHORT_TEXT)
    def test_drawn_options(self, monkeypatch, tmp_path, capsys, command, options, figure):
        monkeypatch.chdir(tmp_path)  # every --out is relative
        argv = [command, *(part for option in options for part in option)]
        if command == "figure":
            argv[1:1] = [figure, "--out", "figure_out"]
        _run_argv(argv, capsys)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_RK4_EVOLVE)
    def test_rk4_evolve_edges(self, tmp_path, capsys, argv):
        _run_argv(argv + ["--out", str(tmp_path / "rk4.csv")], capsys)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_CLOSED_EVOLVE)
    def test_closed_evolve_edges(self, tmp_path, capsys, argv):
        _run_argv(argv + ["--out", str(tmp_path / "closed.csv")], capsys)
