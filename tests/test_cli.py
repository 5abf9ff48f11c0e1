"""Command-line drivers: file outputs, formats and determinism."""

import re
import weakref

import numpy as np
import pytest

import arcscat.scattering as scattering
from arcscat import cli
from arcscat.cli import main


def run(args):
    return main(args)


def test_solve_writes_outputs(tmp_path):
    out = tmp_path / "run"
    rc = run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
              "--pol", "TE", "--form", "S", "--obs", "90", "--out", str(out)])
    assert rc == 0
    ff = (out / "farfield.csv").read_text().splitlines()
    assert ff[0] == "angle_deg,re,im,abs"
    assert len(ff) == 91  # header + one row per observation angle
    dens = (out / "density.csv").read_text().splitlines()
    assert dens[0] == "theta,re,im"
    assert len(dens) == 129
    report = (out / "report.txt").read_text()
    for key in ("formulation:", "n:", "k:", "L_over_lambda:", "iterations:",
                "final_residual:", "mat_seconds:", "solve_seconds:"):
        assert key in report
    assert "formulation: TE_S" in report


def test_solve_deterministic_outputs(tmp_path):
    args = ["solve", "--arc", "spiral", "--ratio", "10", "--n", "128",
            "--pol", "TM", "--form", "NS", "--obs", "45"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(args + ["--out", str(out1)])
    run(args + ["--out", str(out2)])
    assert (out1 / "farfield.csv").read_bytes() == (out2 / "farfield.csv").read_bytes()
    assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()


def test_solve_self_check_reports_eps(tmp_path):
    out = tmp_path / "run"
    run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
         "--self-check", "--out", str(out)])
    report = (out / "report.txt").read_text()
    assert "eps_r_estimate:" in report
    eps = float(report.split("eps_r_estimate:")[1].strip())
    assert eps < 1e-8


@pytest.mark.parametrize("args,output,builds", [
    (["solve", "--arc", "strip", "--ratio", "5", "--n", "64", "--self-check"],
     "report.txt", 2),
    (["converge", "--arc", "spiral", "--ratio", "5", "--pol", "TM", "--form", "NS",
      "--n", "64,128,256"], "converge.csv", 3),
    (["tables", "--table", "strip-tm", "--cap", "50", "--self-check"],
     "table_strip-tm.csv", 2),
], ids=["solve", "converge", "tables"])
def test_no_earlier_s_is_alive_at_a_build(tmp_path, monkeypatch, args, output, builds):
    real = scattering.build_S_matrix
    built, alive_at_build = [], []

    def build(arc, k, grid):
        alive_at_build.append([ref() is not None for ref in built])
        s = real(arc, k, grid)
        built.append(weakref.ref(s))
        return s

    monkeypatch.setattr(scattering, "build_S_matrix", build)
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert alive_at_build == [[False] * i for i in range(builds)]
    assert (tmp_path / output).exists()


def test_solve_float_format_17_digits(tmp_path):
    out = tmp_path / "run"
    run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
         "--obs", "10", "--out", str(out)])
    row = (out / "farfield.csv").read_text().splitlines()[1].split(",")
    # 17 significant digits survive a parse round trip exactly
    assert float(row[1]) == float(f"{float(row[1]):.17g}")
    assert len(row) == 4
    assert "," not in row[0] and "." in row[1]


def test_wavenumber_flags_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        run(["solve", "--arc", "strip", "--ratio", "10", "--k", "3.0",
             "--n", "128", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        run(["solve", "--arc", "strip", "--n", "128", "--out", str(tmp_path)])


def test_inadmissible_grid_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run(["solve", "--arc", "strip", "--ratio", "10", "--n", "130",
             "--out", str(tmp_path)])


def test_maxit_below_one_rejected(tmp_path):
    with pytest.raises(SystemExit, match="--maxit must be at least 1"):
        run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
             "--maxit", "0", "--out", str(tmp_path)])


@pytest.mark.parametrize("command,flags,message", [
    ("solve", ["--k", "nan"], "wavenumber must be finite and positive"),
    ("solve", ["--k", "-2"], "wavenumber must be finite and positive"),
    ("solve", ["--ratio", "inf"], "wavenumber must be finite and positive"),
    ("spectrum", ["--k", "0"], "wavenumber must be finite and positive"),
    ("solve", ["--ratio", "10", "--tol", "0"], "--tol must be in (0, 1)"),
    ("solve", ["--ratio", "10", "--tol", "1.5"], "--tol must be in (0, 1)"),
    ("solve", ["--ratio", "10", "--tol", "nan"], "--tol must be in (0, 1)"),
    ("converge", ["--ratio", "10", "--obs", "0"], "--obs must be at least 1"),
], ids=["k-nan", "k-negative", "ratio-inf", "spectrum-k-zero", "tol-zero", "tol-above-one",
        "tol-nan", "converge-obs-zero"])
def test_bad_numbers_rejected(tmp_path, command, flags, message):
    with pytest.raises(SystemExit, match=re.escape(f"error: {message}")):
        run([command, "--arc", "strip", "--n", "64", *flags, "--out", str(tmp_path)])


def test_residual_above_tol_warns(tmp_path, monkeypatch, capsys):
    args = ["solve", "--arc", "strip", "--ratio", "5", "--n", "64", "--tol", "1e-8",
            "--obs", "8", "--out", str(tmp_path)]
    assert run(args) == 0
    assert "warning" not in capsys.readouterr().err

    real_solve = cli.solve

    def loose_solve(*a, **kw):
        sol = real_solve(*a, **kw)
        sol.report.final_residual = 1e-3
        return sol

    monkeypatch.setattr(cli, "solve", loose_solve)
    assert run(args) == 0
    assert "warning: true residual 1.000e-03 exceeds 10 x tol" in capsys.readouterr().err


def test_bad_formulation_combo_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
             "--pol", "TM", "--form", "ATK", "--out", str(tmp_path)])


def test_spectrum_outputs(tmp_path):
    out = tmp_path / "eigs"
    rc = run(["spectrum", "--arc", "spiral", "--ratio", "10", "--n", "80",
              "--form", "NS,S", "--out", str(out)])
    assert rc == 0
    for name in ("NS", "S"):
        lines = (out / f"eigs_{name}.csv").read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 81
    lam = np.array([[float(v) for v in line.split(",")]
                    for line in (out / "eigs_NS.csv").read_text().splitlines()[1:]])
    lam = lam[:, 0] + 1j * lam[:, 1]
    assert np.mean(np.abs(lam + 0.25) < 0.35) >= 0.70


def test_spectrum_builds_s_once(tmp_path, monkeypatch):
    sizes = []
    real = scattering.build_S_matrix

    def counting(arc, k, grid):
        sizes.append(grid.n)
        return real(arc, k, grid)

    monkeypatch.setattr(scattering, "build_S_matrix", counting)
    out = tmp_path / "eigs"
    assert run(["spectrum", "--arc", "spiral", "--ratio", "5", "--n", "64",
                "--form", "S,N,NS,ATK", "--out", str(out)]) == 0
    assert sizes == [64]
    assert all((out / f"eigs_{name}.csv").exists() for name in ("S", "N", "NS", "S0invS"))


def test_spectrum_atk_maps_to_s0invs(tmp_path):
    out = tmp_path / "eigs"
    run(["spectrum", "--arc", "strip", "--ratio", "5", "--n", "64",
         "--form", "ATK", "--out", str(out)])
    assert (out / "eigs_S0invS.csv").exists()


def test_converge_requires_two_sizes(tmp_path):
    with pytest.raises(SystemExit):
        run(["converge", "--arc", "strip", "--ratio", "10", "--n", "128",
             "--out", str(tmp_path)])


def test_converge_monotone(tmp_path):
    out = tmp_path / "conv"
    rc = run(["converge", "--arc", "strip", "--ratio", "10",
              "--n", "48,64,96,256", "--out", str(out)])
    assert rc == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "n,eps_r"
    assert len(lines) == 4
    eps = [float(line.split(",")[1]) for line in lines[1:]]
    assert eps[0] > eps[-1]
    assert eps[-1] < 1e-10


def test_converge_substitutes_inadmissible_sizes(tmp_path, capsys):
    out = tmp_path / "conv"
    run(["converge", "--arc", "strip", "--ratio", "5",
         "--n", "63,128", "--out", str(out)])
    assert "not FFT-admissible" in capsys.readouterr().out
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "64"


def test_converge_rounds_a_huge_size_at_once(tmp_path, capsys):
    with pytest.raises(SystemExit, match="at least two distinct"):
        run(["converge", "--arc", "strip", "--ratio", "5", "--n", "1000000000001",
             "--out", str(tmp_path)])
    assert "using 1000000000000" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_dark_data_gives_eps_r_zero(tmp_path):
    # TM incidence along the strip has zero normal data: every far field
    # vanishes, and eps_r is 0, not nan
    dark = ["--arc", "strip", "--ratio", "5", "--pol", "TM", "--form", "N", "--inc-deg", "0"]
    run(["converge", *dark, "--n", "64,128", "--out", str(tmp_path)])
    assert (tmp_path / "converge.csv").read_text() == "n,eps_r\n64,0\n"
    run(["solve", *dark, "--n", "64", "--self-check", "--out", str(tmp_path)])
    assert "eps_r_estimate: 0\n" in (tmp_path / "report.txt").read_text()


def test_fieldmap_outputs(tmp_path):
    out = tmp_path / "map"
    rc = run(["fieldmap", "--arc", "strip", "--ratio", "5", "--n", "64",
              "--inc-deg", "0", "--rect=-1.5,-1,1.5,1", "--res", "40x30",
              "--out", str(out)])
    assert rc == 0
    pgm = (out / "fieldmap.pgm").read_bytes()
    header = b"P5\n40 30\n255\n"
    assert pgm.startswith(header)
    assert len(pgm) == len(header) + 40 * 30
    lines = (out / "fieldmap.csv").read_text().splitlines()
    assert lines[0] == "x,y,re,im,abs"
    assert len(lines) == 1 + 40 * 30
    # masked rows have empty value cells; at least the strip itself masks
    masked = [line for line in lines[1:] if line.endswith(",,,")]
    assert masked
    meta = (out / "fieldmap.meta").read_text()
    for key in ("min:", "max:", "width: 40", "height: 30"):
        assert key in meta


def test_fieldmap_masked_pixels_midgray(tmp_path):
    out = tmp_path / "map"
    run(["fieldmap", "--arc", "strip", "--ratio", "5", "--n", "64",
         "--rect=-1.2,-0.1,1.2,0.1", "--res", "16x9", "--out", str(out)])
    pgm = (out / "fieldmap.pgm").read_bytes()
    pixels = np.frombuffer(pgm.split(b"255\n", 1)[1], dtype=np.uint8)
    lines = (out / "fieldmap.csv").read_text().splitlines()[1:]
    masked = np.array([line.endswith(",,,") for line in lines])
    assert np.all(pixels[masked] == 128)


@pytest.mark.parametrize("rect", ["nan,-1,1,1", "-1,-1,inf,1", "1,1,1,1", "1,-1,-1,1",
                                  "-1,1,1,-1"])
def test_fieldmap_bad_rect_rejected_before_the_solve(tmp_path, monkeypatch, rect):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --rect")
    monkeypatch.setattr(cli, "solve", no_solve)
    out = tmp_path / "map"
    with pytest.raises(SystemExit, match=re.escape("error: --rect expects finite x0,y0,x1,y1")):
        run(["fieldmap", "--arc", "strip", "--ratio", "5", "--n", "64", f"--rect={rect}",
             "--res", "4x3", "--out", str(out)])
    assert not out.exists()


def test_tables_strip_tm(tmp_path):
    out = tmp_path / "tab"
    rc = run(["tables", "--table", "strip-tm", "--cap", "50", "--out", str(out)])
    assert rc == 0
    lines = (out / "table_strip-tm.csv").read_text().splitlines()
    assert lines[0] == "L_over_lambda,n,formulation,iterations,mat_seconds,solve_seconds,eps_r"
    assert len(lines) == 3  # one L/lambda row within the cap, two formulations
    rows = {line.split(",")[2]: line.split(",") for line in lines[1:]}
    it_n = int(rows["TM_N"][3])
    it_ns = int(rows["TM_NS"][3])
    assert it_ns < it_n


def test_tables_self_check_builds_s_once_per_grid(tmp_path, monkeypatch):
    sizes = []
    real = scattering.build_S_matrix

    def counting(arc, k, grid):
        sizes.append(grid.n)
        return real(arc, k, grid)

    monkeypatch.setattr(scattering, "build_S_matrix", counting)
    out = tmp_path / "tab"
    assert run(["tables", "--table", "strip-tm", "--cap", "50", "--self-check",
                "--out", str(out)]) == 0
    assert sizes == [400, 800]
    rows = [line.split(",") for line in (out / "table_strip-tm.csv").read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["50", "400", "TM_N"], ["50", "400", "TM_NS"]]
    assert all(0.0 <= float(row[6]) < 1e-6 for row in rows)


def test_tables_unknown_id(tmp_path):
    with pytest.raises(SystemExit):
        run(["tables", "--table", "bogus", "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [
    ["tables", "--table", "strip-tm", "--arc", "spiral"],
    ["spectrum", "--arc", "strip", "--ratio", "5", "--n", "64", "--tol", "1e-3"],
    ["fieldmap", "--arc", "strip", "--ratio", "5", "--n", "64", "--self-check"],
], ids=["tables-arc", "spectrum-tol", "fieldmap-self-check"])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
