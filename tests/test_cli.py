import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from rankmoments import cli
from rankmoments.binormal import cov_rs_rk_exact, var_rs_exact
from rankmoments.cli import main, parse_grid
from rankmoments.errors import ConvergenceError, DomainError
from rankmoments.formatting import format_fixed

from oracles import read_pairs_oracle

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


    @pytest.mark.parametrize("command", [
        ["simulate", "--grid", "-0.6(0.3)0.3", "--n", "10", "--trials", "100"],
        ["are", "--grid", "-1(0.5)0"], ["are", "--grid", "-1e-3"],
        ["are", "--rho", "-1e-3"], ["moments", "--rho", "-1e-3", "--n", "5"],
        ["simulate", "--model", "contaminated", "--rho-prime", "-1e-1",
         "--epsilon", "0.1", "--lambda", "3", "--rho", "0.5", "--n", "10",
         "--trials", "100"]])
    def test_leading_minus(self, command, capsys):
        # argparse would take the value for a flag; --flag=value always
        # worked and must give the same bytes
        code, out, err = run(command, capsys)
        k = next(i for i, arg in enumerate(command)
                 if re.match(r"-[0-9.]", arg))
        joined = (command[:k - 1] + [f"{command[k - 1]}={command[k]}"]
                  + command[k + 1:])
        assert code == 0 and out.count("\n") > 1
        assert run(joined, capsys) == (code, out, err)

    def test_leading_minus_after_a_switch(self, capsys):
        # --strict takes no value: joined as "--strict=-1", it still fails
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--rho", "0.5", "--n", "10", "--trials", "100",
                  "--strict", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (3, "")
        assert "--strict: ignored explicit argument '-1'" in captured.err

    def test_leading_minus_out_of_tables_range(self, capsys):
        code, out, err = run(["tables", "--grid", "-1(0.5)0"], capsys)
        assert (code, out) == (3, "")
        assert err == "invalid input: tables grid must lie within [0, 1]\n"


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

        def fail(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        monkeypatch.setattr("rankmoments.orthant.integrate_adaptive", fail)
        target = tmp_path / "t.csv"
        code, out, err = run(["tables", "--grid", "0.4321",
                              "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith("numerical failure: ")
        assert out == "" and not target.exists()

    def test_grid_pass_stall_exit_2(self, tmp_path, monkeypatch, capsys):
        # a real stall inside a whole-grid pass: two bisections per integral
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

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 79])
    def test_huge_n_exit_3(self, n, capsys):
        code, out, err = run(["moments", "--rho", "0.5", "--n", str(n)],
                             capsys)
        assert (code, out) == (3, "")
        assert err == f"invalid input: n must be at most 2**53, got {n}\n"

    def test_largest_n_exit_0(self, capsys):
        code, out, err = run(["moments", "--rho", "0.5", "--n",
                              str(2 ** 53)], capsys)
        assert code == 0 and err == ""
        assert "mean_rk=0.3333333333" in out

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
        assert err == "tied data: tied values in x: (2.0,)\n"

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


def is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-50, 50).map(str))
# float() reads these, some as non-finite; loadtxt refuses a few of them
SPECIAL_CELLS = st.sampled_from(["nan", "-inf", "Infinity", "1_000", " 1.5 ",
                                 "\t2", "+3", ".5", "-0", "1e400", "1E-400",
                                 "\xa03", "\uff14"])
BAD_CELLS = st.sampled_from(["", " ", "x", "1x", "--1", "1 2", "0x10",
                             '"7"', '"a,b"', '""', '1"2'])
# loadtxt strips \x1c-\x1f as whitespace; float() refuses them
SEPARATOR_CELLS = st.sampled_from(["\x1c1", "1\x1f", "\x1d2\x1e"])
ANY_CELLS = st.one_of(FLOATS, SPECIAL_CELLS, BAD_CELLS, SEPARATOR_CELLS)


ROW_KINDS = ["plain"] * 12 + ["special"] * 3 + ["separator"] * 3 + \
    ["bad"] * 2 + ["lone"]


@st.composite
def csv_rows(draw):
    """One row: mostly two numbers, sometimes an odd or missing cell, and
    any cells past the second."""
    kind = draw(st.sampled_from(ROW_KINDS))
    if kind == "lone":
        return draw(ANY_CELLS)
    cells = [draw(FLOATS), draw(FLOATS)]
    odd = {"special": SPECIAL_CELLS, "separator": SEPARATOR_CELLS,
           "bad": BAD_CELLS}.get(kind)
    if odd is not None:
        cells[draw(st.integers(0, 1))] = draw(odd)
    cells += draw(st.lists(ANY_CELLS, max_size=2))
    return ",".join(cells) + draw(st.sampled_from(["", "", ","]))


BLANK_ROWS = st.lists(st.sampled_from(["", "  ", "\t", ",", " , ", '""']),
                      max_size=2)
HEADERS = st.sampled_from(["x,y", '"x","y"', "x,y,z", "x", "a b,", "x,1",
                           "1,y", "5"])


@st.composite
def csv_files(draw):
    """The lines of a CSV file (no line break inside a cell), its text, and
    a byte-order mark to put in front of the text, or ""."""
    lines = draw(BLANK_ROWS)
    if draw(st.booleans()):
        lines.append(draw(HEADERS))
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(BLANK_ROWS) + [draw(csv_rows())]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = eol if lines and draw(st.booleans()) else ""
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return lines, eol.join(lines) + end, bom


def run_quietly(argv):
    """main(argv) as (exit code, stdout, stderr, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


class TestEstimateReader:
    @pytest.mark.parametrize("head", ["", "x,y\n", "\n \n"])
    def test_byte_order_mark_dropped(self, tmp_path, capsys, head):
        text = head + "1,2\n3,4\n5,6\n7,9\n9,8\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run(["estimate", str(plain)], capsys)
        assert want[0] == 0 and want[1].startswith("n=5\n")
        assert run(["estimate", str(marked)], capsys) == want

    def test_only_a_leading_mark_dropped(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_bytes(b"x,y\n\xef\xbb\xbf1,2\n3,4\n5,6\n7,8\n")
        code, out, err = run(["estimate", str(f)], capsys)
        assert (code, out) == (4, "")
        assert err == (f"i/o error: {f}: line 2: could not convert string "
                       f"to float: '\\ufeff1'\n")

    def test_undecodable_exit_4(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_bytes(b"x,y\n1,2\n3,\xff4\n5,6\n7,8\n")
        code, out, err = run(["estimate", str(f)], capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"i/o error: {f}: ") and "0xff" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, line, message", [
        # a first row with one number is data, not a header to drop
        ("1,2x\n3,4\n5,6\n7,8\n9,10\n", 1,
         "could not convert string to float: '2x'"),
        ("5\n3,4\n5,6\n7,8\n9,10\n", 1, "need two columns"),
        # blank lines count: "broken" is on line 5
        ("x,y\n\n1,2\n\nbroken\n3,4\n5,6\n", 5, "need two columns"),
        ("x,y\r\r1,2\r\rbroken\r3,4\r5,6\r", 5, "need two columns"),
        ("x,y\r\n \r\n1,2\r\n3,?\r\n5,6\r\n7,8\r\n", 4,
         "could not convert string to float: '?'"),
        # a quoted line break: the row ends on line 3
        ('x,y\n1,"2\nx"\n3,4\n5,6\n7,8\n', 3,
         "could not convert string to float: '2\\nx'"),
        ('"x\ny",z\n1,2\n3,4\nbad,6\n7,8\n', 5,
         "could not convert string to float: 'bad'"),
        ("x,y\n1,2\n3,4\n5,6\n7," + "8" * 200_000 + "\n" + '"9",1\n', 5,
         "field larger than field limit (131072)"),
    ])
    def test_bad_row_names_its_physical_line(self, tmp_path, capsys, text,
                                             line, message):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        code, out, err = run(["estimate", str(f)], capsys)
        assert (code, out) == (4, "")
        assert err == f"i/o error: {f}: line {line}: {message}\n"

    @pytest.mark.parametrize("text, rows", [
        ("x,y\n", 0), ("x,y", 0), ("x,y\n\n \n", 0), ("1,2\n", 1),
        ("\n\n1,2\n3,4\n\n", 2)])
    def test_short_file_warns_nothing(self, tmp_path, text, rows):
        f = tmp_path / "d.csv"
        f.write_text(text)
        code, out, err, caught = run_quietly(["estimate", str(f)])
        assert caught == []
        assert (code, out, err) == (
            3, "", f"invalid input: {f}: need at least 4 rows, got {rows}\n")

    @pytest.mark.parametrize("text, loop_rows", [
        ("x,y\n1,10\n2,30\n3,20\n4,40\n", 0),
        ("1,10\r\n2,30\r\n3,20\r\n4,40\r\n", 0),
        ('"x","y"\n1,10\n2,30\n3,20\n4,40\n', 0),
        ('x,y\n1,10\n2,30\n3,20\n4,"40"\n', 4),
        # the quoted cell holds a line that loadtxt would read as a row
        ('x,y\n1,10,"a\n9,9,"\n2,30\n3,20\n4,40\n', 4),
        ("x,y\n1,10\n \n2,30\n3,20\n4,40\n", 4),
        ("x,y\n1,10\n2,3_0\n3,20\n4,40\n", 4),
        ("x,y\n1,10\n2,30\n3,20\n4,40,\x1c\n", 4),
    ])
    def test_row_loop_only_where_loadtxt_cannot(self, tmp_path, monkeypatch,
                                                text, loop_rows):
        # the header-free first row is always read by the row loop
        counted = []
        row_loop = cli._row_loop

        def counting(rows, path):
            pairs = row_loop(rows, path)
            counted.append(len(pairs))
            return pairs

        monkeypatch.setattr(cli, "_row_loop", counting)
        f = tmp_path / "d.csv"
        f.write_text(text, newline="")
        sample = cli._read_pairs(str(f))
        assert sample.x.tolist() == [1, 2, 3, 4]
        assert sample.y.tolist() == [10, 30, 20, 40]
        assert sum(counted) - (text[0] == "1") == loop_rows

    def test_matches_row_loop(self, tmp_path_factory):
        """The reader against the csv.reader row loop it replaced, on
        generated files: the same x and y bits, or the same exit code and
        stderr, but for the deliberate header, line-number and byte-order
        mark fixes."""
        path = str(tmp_path_factory.mktemp("reader") / "d.csv")

        def write(text):
            with open(path, "w", newline="") as fh:
                fh.write(text)

        @settings(max_examples=300, deadline=None)
        @given(csv_files())
        def check(case):
            lines, text, bom = case
            write(bom + text)
            code, out, err, caught = run_quietly(["estimate", path])
            assert caught == []
            got = cli._read_pairs(path) if code == 0 else None
            # the row loop kept a mark in the first cell: it reads the text
            # without one
            write(text)
            nonblank = [i for i, line in enumerate(lines, 1)
                        if any(c.strip() for c in next(csv.reader([line]), []))]
            if nonblank:
                cells = next(csv.reader([lines[nonblank[0] - 1]]))[:2]
                numbers = [is_number(c) for c in cells]
                if any(numbers) and numbers != [True, True]:
                    # the row loop dropped this row as a header
                    assert code == 4 and out == ""
                    assert err.startswith(
                        f"i/o error: {path}: line {nonblank[0]}: ")
                    return
            with mock.patch.object(cli, "_read_pairs", read_pairs_oracle):
                want = run_quietly(["estimate", path])[:3]
            # the row loop counts non-blank rows, the reader physical lines
            count = re.match(rf"i/o error: {re.escape(path)}: line (\d+): ",
                             want[2])
            if count:
                line = nonblank[int(count[1]) - 1]
                want = want[:2] + (want[2].replace(
                    f": line {count[1]}: ", f": line {line}: ", 1),)
            assert (code, out, err) == want
            if code == 0:
                ref = read_pairs_oracle(path)
                assert got.x.tobytes() == ref.x.tobytes()
                assert got.y.tobytes() == ref.y.tobytes()

        check()


class TestSimulate:
    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_contaminated_perfect_correlation(self, capsys, sign):
        # every trial is identical, so se = 0, and the exact means miss +-1
        # only by the rounding of the weighted arcsine sums
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

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exit_3(self, tol, capsys):
        # at rho = 1 every trial is identical and every se is 0
        code, out, err = run(["simulate", "--rho", "1", "--n", "10",
                              "--trials", "5", "--tol-sigmas", tol,
                              "--strict"], capsys)
        assert (code, out) == (3, "")
        assert "tol_sigmas must be finite and > 0" in err

    def test_missing_args(self, capsys):
        assert run(["simulate", "--n", "10"], capsys)[0] == 3

    # 1e160 is finite, but its square is not
    @pytest.mark.parametrize("lam", ["nan", "inf", "1e160"])
    def test_non_finite_lambda_exit_3(self, lam, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr("rankmoments.simulate.sample_contaminated_block",
                            sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["simulate", "--model", "contaminated",
                                  "--epsilon", "0.1", "--lambda", lam,
                                  "--rho", "0.5", "--n", "10",
                                  "--trials", "100"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("invalid input: scale multipliers must be "
                              "finite and positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--lambda-x",
                                      "--lambda-y", "--lambda", "--rho-prime"])
    def test_contamination_flag_on_binormal_exit_3(self, flag, capsys):
        code, out, err = run(["simulate", flag, "0.3", "--rho", "0.5",
                              "--n", "20", "--trials", "1000"], capsys)
        assert (code, out) == (3, "")
        assert err == f"invalid input: {flag} needs --model contaminated\n"

    @pytest.mark.parametrize("flags", [["--lambda-x", "3"],
                                       ["--lambda-y", "3"],
                                       ["--lambda-x", "3", "--lambda-y", "3"]])
    def test_lambda_with_one_scale_exit_3(self, flags, capsys):
        code, out, err = run(["simulate", "--model", "contaminated",
                              "--lambda", "3", *flags, "--rho", "0.5",
                              "--n", "20", "--trials", "1000"], capsys)
        assert (code, out) == (3, "")
        assert err == ("invalid input: give --lambda or "
                       "--lambda-x/--lambda-y, not both\n")

    @pytest.mark.parametrize("given, spelled_out", [
        ([], ["--epsilon", "0", "--lambda-x", "1", "--lambda-y", "1",
              "--rho-prime", "0"]),
        (["--epsilon", "0.2", "--lambda", "3"],
         ["--epsilon", "0.2", "--lambda-x", "3", "--lambda-y", "3"]),
        (["--epsilon", "0.2", "--lambda-x", "3"],
         ["--epsilon", "0.2", "--lambda-x", "3", "--lambda-y", "1"]),
    ])
    def test_contamination_defaults(self, given, spelled_out, capsys):
        args = ["simulate", "--model", "contaminated", "--rho", "0.5",
                "--n", "20", "--trials", "500", "--seed", "3"]
        want = run(args + spelled_out, capsys)
        assert want[0] == 0
        assert run(args + given, capsys) == want

    def test_budget_exit_5(self, capsys):
        code, out, err = run(["simulate", "--rho", "0.5", "--n", "1001",
                              "--trials", "1000000"], capsys)
        assert (code, out) == (5, "")
        assert err.startswith("resource limit: cell budget exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", ["16777217", "100000000"])
    def test_n_bound_exit_5(self, n, monkeypatch, capsys):
        # n above 2**24 is refused before any draw, although trials * n
        # is within the budget
        def sample(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr("rankmoments.simulate.sample_binormal_block",
                            sample)
        code, out, err = run(["simulate", "--rho", "0.5", "--n", n,
                              "--trials", "1"], capsys)
        assert (code, out) == (5, "")
        assert err == (f"resource limit: n = {n} is above the simulate "
                       "bound 2**24 = 16777216\n")

    def test_n_at_bound_reaches_the_draw(self, monkeypatch, capsys):
        def sample(*args):
            raise MemoryError("drawn")

        monkeypatch.setattr("rankmoments.simulate.sample_binormal_block",
                            sample)
        code, out, err = run(["simulate", "--rho", "0.5", "--n", "16777216",
                              "--trials", "1"], capsys)
        assert (code, out, err) == (5, "", "resource limit: drawn\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_memory_limit_exit_5(self, threads):
        # a 6 GB draw under a 2 GB address-space limit, set in the child
        # only; two blocks per cell, so at two threads the pool is made
        # and each job's draw fails in a pool worker, on a grid of two
        # rho as at one
        pytest.importorskip("resource")
        child = ("import os, resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
                 "os.cpu_count = lambda: 4\n"
                 "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
                 "from rankmoments.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, RANKMOMENTS_THREADS=threads,
                   OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        for rho in (["--grid", "0.3(0.2)0.5"], ["--rho", "0.3"]):
            proc = subprocess.run(
                [sys.executable, "-c", child, "simulate", *rho,
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


@pytest.mark.parametrize("command, more", [
    ("simulate", ["--n", "20", "--trials", "1000"]), ("are", [])])
def test_rho_and_grid_exit_3(command, more, capsys):
    code, out, err = run([command, "--rho", "0.5", "--grid", "0(0.5)1",
                          *more], capsys)
    assert (code, out) == (3, "")
    assert err == f"invalid input: {command} takes --rho or --grid, not both\n"


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


class TestParserReuse:
    """main builds its parser once per process; a run must read exactly as
    it would from a freshly built parser, after any mix of subcommands,
    usage errors and help."""

    ARGVS = [
        ["moments", "--rho", "0.5", "--n", "10"],
        ["tables", "--grid", "0(0.5)1", "--precision", "4"],
        ["tables", "--no-such-flag"],
        ["--help"],
        ["moments", "--rho", "x", "--n", "10"],
        ["are", "--rho", "0.3"],
        ["simulate", "--help"],
        [],
        ["estimate"],
        ["tables", "--grid", "0(0.5)1", "--precision", "0"],
        ["are", "--rho", "0.3", "--grid", "0(0.5)1"],
        ["frobnicate"],
        ["moments", "--rho", "0.5", "--n", "10"],
        ["tables", "--grid", "0(0.5)1"],
    ]

    @staticmethod
    def _call(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_matches_fresh_parser(self, capsys):
        cli._parser.cache_clear()
        shared = [self._call(argv, capsys) for argv in self.ARGVS]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(self._call(argv, capsys))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes.count(0) == 5 and codes.count(3) == 2
        assert codes.count(("SystemExit", 3)) == 5
        assert codes.count(("SystemExit", 0)) == 2
