import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

from rankmoments.binormal import cov_rs_rk_exact, omegas, var_rs_exact
from rankmoments.cli import main, parse_grid
from rankmoments.errors import ConvergenceError, DomainError
from rankmoments.formatting import format_fixed

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParser:
    def test_basic(self):
        grid = parse_grid("0(0.25)1")
        assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]
        assert parse_grid("1(0.01)1") == [1.0]

    def test_descending(self):
        assert parse_grid("1(-0.5)0") == [1.0, 0.5, 0.0]

    def test_fractional_step_hits_endpoint(self):
        grid = parse_grid("0(0.01)1")
        assert len(grid) == 101
        assert grid[-1] == 1.0

    def test_bad_specs(self):
        with pytest.raises(DomainError):
            parse_grid("nonsense")
        with pytest.raises(DomainError):
            parse_grid("0(0)1")
        with pytest.raises(DomainError):
            parse_grid("0(-0.1)1")

    def test_length_limit(self):
        assert len(parse_grid("0(0.0001)1")) == 10_001
        assert len(parse_grid("1(-0.0001)0")) == 10_001
        for spec in ("0(0.00009999)1", "0(1e-300)1", "0(1)1e999"):
            with pytest.raises(DomainError, match="more than 10001 points"):
                parse_grid(spec)

    @pytest.mark.parametrize("command", [
        ["tables"], ["are"], ["simulate", "--n", "10", "--trials", "10"]])
    def test_too_long_grid_exit_3(self, command, capsys):
        # a 10**9-point list would need about 30 GB: it must not be built
        code, out, err = run(command + ["--grid", "0(1e-9)1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("invalid input: grid '0(1e-9)1' has more than")


class TestTables:
    def test_small_grid(self, capsys):
        code, out, _ = run(["tables", "--grid", "0(0.5)1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,omega1,omega2,omega3"
        assert len(lines) == 4
        assert lines[1] == "0.00,0.1111111111,0.5555555556,0.0555555556"
        assert out.endswith("\n") and "\r" not in out

    def test_out_of_range_grid(self, capsys):
        code, _, err = run(["tables", "--grid=-0.5(0.5)0.5"], capsys)
        assert code == 3

    def test_missing_grid_exit_3(self, capsys):
        code, out, err = run(["tables"], capsys)
        assert code == 3 and out == ""
        assert err == "invalid input: tables requires --grid\n"

    def test_convergence_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        omegas(0.5)  # the one-time pattern validation runs here

        def fail(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        monkeypatch.setattr("rankmoments.quadrature.integrate_adaptive", fail)
        target = tmp_path / "t.csv"
        code, out, err = run(["tables", "--grid", "0.4321",
                              "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith("numerical failure: ")
        assert out == "" and not target.exists()

    def test_grid_pass_stall_exit_2(self, tmp_path, monkeypatch, capsys):
        # a real stall inside a whole-grid pass: two bisections per integral
        omegas(0.5)  # the one-time pattern validation runs here
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        monkeypatch.setattr("rankmoments.quadrature.MAX_SUBDIVISIONS", 2)
        target = tmp_path / "t.csv"
        code, out, err = run(["tables", "--grid", "0(0.05)1",
                              "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith("numerical failure: quadrature on [")
        assert "stalled" in err and "after 2 subdivisions" in err
        assert out == "" and not target.exists()

    def test_file_output_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["tables", "--grid", "0(0.2)1", "--out", str(p1)],
                   capsys)[0] == 0
        assert run(["tables", "--grid", "0(0.2)1", "--out", str(p2)],
                   capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestMoments:
    def test_reference_values(self, capsys):
        code, out, _ = run(["moments", "--rho", "0", "--n", "10"], capsys)
        assert code == 0
        assert "var_rs_exact=0.1111111111" in out
        assert "cov_rs_rk_exact=0.0814814815" in out

    def test_degenerate(self, capsys):
        code, out, _ = run(["moments", "--rho", "1", "--n", "10"], capsys)
        assert code == 0
        assert "var_rs_exact=0.0000000000" in out
        assert "cov_rs_rk_exact=0.0000000000" in out

    def test_wraps_library_bit_exactly(self, capsys):
        code, out, _ = run(["moments", "--rho", "0.5", "--n", "20"], capsys)
        record = dict(line.split("=") for line in out.splitlines()[1:])
        assert record["var_rs_exact"] == format_fixed(var_rs_exact(0.5, 20), 10)
        assert record["cov_rs_rk_exact"] == format_fixed(
            cov_rs_rk_exact(0.5, 20), 10)

    def test_small_n_rejected(self, capsys):
        assert run(["moments", "--rho", "0.5", "--n", "3"], capsys)[0] == 3

    def test_cross_check_failure_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("rankmoments.binormal._ROUTE_TOL", -1.0)
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        code, _, err = run(["moments", "--rho", "0.5", "--n", "20"], capsys)
        assert code == 2
        assert err.startswith("numerical failure: omega3 cross-check")

    @pytest.mark.parametrize("args", [
        ["tables", "--grid", "0.99999999999999"],
        ["moments", "--rho", "0.99999999999999", "--n", "1000"]])
    def test_omega3_near_one_exit_0(self, args, capsys):
        # Childs's legs agree here with the Plackett route's omega3 of
        # 0.49999995500; a table row of 0.5000000000 would be wrong
        code, out, err = run(args, capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        # the rho label reads back as the rho asked for, not as 1.00
        if args[0] == "tables":
            rho, _, _, omega3 = lines[1].split(",")
            assert rho == "0.99999999999999"
            assert abs(float(omega3) - 0.49999995500) <= 1e-9
        else:
            assert lines[0] == "rho=0.99999999999999 n=1000"


class TestEstimate:
    def test_identity_sample(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,10\n2,20\n3,30\n4,40\n")
        code, out, _ = run(["estimate", str(f)], capsys)
        assert code == 0
        assert "r_s=1.0000000000" in out
        assert "r_k=1.0000000000" in out

    def test_fixture(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n2,3\n3,2\n4,4\n")
        code, out, _ = run(["estimate", str(f)], capsys)
        assert code == 0
        assert "r_k=0.6666666667" in out

    def test_ties_exit_3(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n2,2\n2,3\n4,4\n")
        code, _, err = run(["estimate", str(f)], capsys)
        assert code == 3
        assert "2.0" in err

    def test_malformed_exit_4(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\nbroken\n3,4\n5,6\n")
        assert run(["estimate", str(f)], capsys)[0] == 4

    def test_missing_file_exit_4(self, capsys):
        assert run(["estimate", "/nonexistent/file.csv"], capsys)[0] == 4

    def test_large_sample_memory(self, tmp_path, capsys):
        # 20 000 pairs: an n x n pair-sign matrix alone would be 3.2 GB
        rng = np.random.default_rng(20000)
        x = rng.standard_normal(20000)
        y = 0.6 * x + 0.8 * rng.standard_normal(20000)
        f = tmp_path / "d.csv"
        f.write_text("".join(f"{a!r},{b!r}\n"
                             for a, b in zip(x.tolist(), y.tolist())))
        tracemalloc.start()
        try:
            code, out, _ = run(["estimate", "--precision", "15", str(f)],
                               capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        fields = dict(line.split("=") for line in out.splitlines())
        assert abs(float(fields["r_k"]) - kendalltau(x, y)[0]) <= 1e-12
        assert peak < 50 * 2 ** 20

    def test_independent_of_blas_kernel(self, tmp_path):
        # no printed digit may depend on which OpenBLAS kernel
        # DYNAMIC_ARCH picks; a BLAS dot for r_p moved its last digit
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5000)
        y = 0.5 * x + rng.standard_normal(5000)
        f = tmp_path / "d.csv"
        f.write_text("".join(f"{a!r},{b!r}\n"
                             for a, b in zip(x.tolist(), y.tolist())))
        outputs = []
        for coretype in (None, "Prescott"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run(
                [sys.executable, "-m", "rankmoments.cli", "estimate",
                 "--precision", "15", str(f)],
                env=env, capture_output=True, text=True, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].startswith("n=5000\n")
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_exit_3(self, tmp_path, capsys, cell):
        f = tmp_path / "d.csv"
        f.write_text(f"1,1\n2,{cell}\n3,2\n4,4\n")
        code, _, err = run(["estimate", str(f)], capsys)
        assert code == 3
        assert err == "invalid input: sample values must be finite\n"

    @pytest.mark.parametrize("scale", ["e200", "e-170"])
    def test_extreme_scale_pearson(self, tmp_path, scale):
        # squaring these x overflows (e200) or underflows (e-170) unless
        # the columns are rescaled first; run fresh to see stderr whole
        f = tmp_path / "d.csv"
        f.write_text(f"1{scale},1\n2{scale},3\n3{scale},2\n4{scale},4\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "rankmoments.cli", "estimate", str(f)],
            env=env, capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "r_p=0.8000000000\n" in proc.stdout

    @pytest.mark.parametrize("rows", [
        "1,1\n1,2\n1,3\n1,4\n",
        "1,5\n2,5\n3,5\n4,5\n",
        # the mean of these columns rounds, so their centred sum of
        # squares is not exactly 0
        "".join(f"0.7,{i}\n" for i in range(6)),
        "".join(f"{i},0.7\n" for i in range(7)),
        "".join(f"0.7,{i}\n" for i in range(11)),
        "".join(f"0.1,{i}\n" for i in range(6)),
        "".join(f"{i},{1 / 3!r}\n" for i in range(10)),
    ])
    def test_constant_column_exit_3(self, tmp_path, capsys, rows):
        f = tmp_path / "d.csv"
        f.write_text(rows)
        code, out, err = run(["estimate", str(f)], capsys)
        assert code == 3 and out == ""
        assert err == "invalid input: constant coordinate has zero variance\n"

    def test_too_few_rows_exit_3(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,1\n2,2\n3,3\n")
        assert run(["estimate", str(f)], capsys)[0] == 3


class TestSimulate:
    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_contaminated_perfect_correlation(self, capsys, sign):
        # the mixed-pattern pair correlation is 1 + 1 ulp in magnitude at
        # lambda = 0.1; every trial is identical, so se = 0, and the exact
        # means miss +-1 by asin roundoff (up to 2.4e-9 at lambda = 3)
        for lam in ("0.1", "3"):
            code, out, err = run(["simulate", "--model", "contaminated",
                                  "--rho", sign, "--rho-prime", sign,
                                  "--lambda", lam, "--epsilon", "0.1",
                                  "--n", "10", "--trials", "100", "--strict"],
                                 capsys)
            assert code == 0 and out.startswith("model,")
            assert err == "PASS=3 FAIL=0 SKIP=15\n"

    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_binormal_perfect_correlation_strict(self, capsys, sign):
        # se = 0 in every row; the theory is off by at most 1e-12
        code, _, err = run(["simulate", "--rho", sign, "--n", "10",
                            "--trials", "200", "--strict"], capsys)
        assert code == 0
        assert err == "PASS=17 FAIL=0 SKIP=0\n"

    def test_basic_run(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, _, err = run(["simulate", "--rho", "0", "--n", "10",
                            "--trials", "5000", "--seed", "7",
                            "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        assert text.splitlines()[0] == \
            "model,rho,n,kind,metric,empirical,theory,se,verdict"

    def test_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--rho", "0.3", "--n", "10", "--trials", "2000",
                "--seed", "5"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_strict_failure_exit_2(self, capsys):
        # a 10-sigma synthetic failure: tiny tolerance makes noise FAIL
        code, _, _ = run(["simulate", "--rho", "0.3", "--n", "10",
                          "--trials", "2000", "--seed", "5",
                          "--tol-sigmas", "0.0001", "--strict"], capsys)
        assert code == 2

    def test_missing_args(self, capsys):
        assert run(["simulate", "--n", "10"], capsys)[0] == 3

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_3(self, lam, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr("rankmoments.simulate.sample_contaminated_block",
                            sample)
        code, out, err = run(["simulate", "--model", "contaminated",
                              "--epsilon", "0.1", "--lambda", lam,
                              "--rho", "0.5", "--n", "10", "--trials", "100"],
                             capsys)
        assert (code, out) == (3, "")
        assert err.startswith("invalid input: scale multipliers must be "
                              "finite and positive")
        assert err.count("\n") == 1

    def test_budget_exit_5(self, capsys):
        code, out, err = run(["simulate", "--rho", "0.5", "--n", "1001",
                              "--trials", "1000000"], capsys)
        assert (code, out) == (5, "")
        assert err.startswith("resource limit: cell budget exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_memory_limit_exit_5(self, threads):
        # a 6 GB block under a 2 GB address-space limit, set in the child
        # only; two cells of two blocks, so at two threads the MemoryError
        # is raised in a pool worker and re-raised from its future
        pytest.importorskip("resource")
        child = ("import os, resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
                 "os.cpu_count = lambda: 4\n"
                 "from rankmoments.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, RANKMOMENTS_THREADS=threads,
                   OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-c", child, "simulate", "--grid", "0.3(0.2)0.5",
             "--n", "100000", "--trials", "8192", "--seed", "1"],
            env=env, capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (5, "")
        assert proc.stderr.startswith("resource limit: Unable to allocate")
        assert proc.stderr.count("\n") == 1


class TestAre:
    def test_values(self, capsys):
        code, out, _ = run(["are", "--rho", "0"], capsys)
        assert code == 0
        assert f"0.0000,{9 / math.pi ** 2:.10f},{9 / math.pi ** 2:.10f}" in out

    def test_grid(self, capsys):
        code, out, _ = run(["are", "--grid", "0(0.5)1"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4


class TestRhoLabels:
    # each rho column takes the fewest decimals at which every rho of the
    # command reads back as itself, and never fewer than 2 (tables) or 4;
    # the golden files hold the coarse grids, and
    # test_omega3_near_one_exit_0 a single rho near 1
    @pytest.mark.parametrize("args, labels", [
        (["tables", "--grid", "0(0.001)0.005"],
         ["0.000", "0.001", "0.002", "0.003", "0.004", "0.005"]),
        (["are", "--grid", "0.99(0.00001)0.99003"],
         ["0.99000", "0.99001", "0.99002", "0.99003"]),
        (["simulate", "--grid", "0.5(0.00001)0.50002", "--n", "10",
          "--trials", "100"], ["0.50000", "0.50001", "0.50002"]),
    ])
    def test_grid_labels(self, args, labels, capsys):
        code, out, _ = run(args, capsys)
        assert code == 0
        column = 1 if args[0] == "simulate" else 0
        read = [line.split(",")[column] for line in out.splitlines()[1:]]
        assert list(dict.fromkeys(read)) == labels

    @pytest.mark.parametrize("command", [
        ["are"], ["moments", "--n", "10"],
        ["simulate", "--n", "10", "--trials", "10"]])
    def test_non_finite_rho_exit_3(self, command, capsys):
        # the label width skips a non-finite rho; the range check rejects it
        for rho in ("nan", "inf"):
            code, _, err = run(command + ["--rho", rho], capsys)
            assert code == 3
            assert "invalid input" in err


class TestPrecision:
    def test_precision_flag(self, capsys):
        code, out, _ = run(["are", "--rho", "0", "--precision", "3"], capsys)
        assert code == 0
        assert "0.912,0.912" in out

    def test_precision_range(self, capsys):
        assert run(["are", "--rho", "0", "--precision", "19"], capsys)[0] == 3


class TestUsageErrors:
    """argparse's own exit code 2 would read as a numerical failure."""

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--n", "abc"], "argument --n: invalid int value"),
        (["are", "--precision", "x"], "argument --precision: invalid int"),
        (["frobnicate"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
        (["tables", "--no-such-flag"], "unrecognized arguments"),
    ])
    def test_usage_error_exit_3(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 3 and captured.out == ""
        assert captured.err.startswith("usage: rankmoments")
        assert message in captured.err

    @pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"]])
    def test_help_exit_0(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rankmoments")
