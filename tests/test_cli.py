"""Command-line drivers: file outputs, formats and determinism."""

import os
import re
import weakref
from types import SimpleNamespace

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
    ("solve", ["--ratio", "1", "--inc-deg", "nan"], "--inc-deg must be finite"),
    ("solve", ["--ratio", "1", "--inc-deg", "inf"], "--inc-deg must be finite"),
    ("converge", ["--ratio", "1", "--inc-deg", "nan"], "--inc-deg must be finite"),
    ("fieldmap", ["--ratio", "1", "--inc-deg=-inf"], "--inc-deg must be finite"),
], ids=["k-nan", "k-negative", "ratio-inf", "spectrum-k-zero", "tol-zero", "tol-above-one",
        "tol-nan", "converge-obs-zero", "inc-deg-nan", "inc-deg-inf", "converge-inc-deg-nan",
        "fieldmap-inc-deg-minus-inf"])
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


def test_grid_below_the_kernel_bandwidth_warns(tmp_path, capsys):
    # N = 64 aliases the spiral's kernel at k = 200 (B = 2k max tau sin
    # theta = 2975): GMRES converges, to a far field 92 % off
    assert run(["solve", "--arc", "spiral", "--k", "200", "--n", "64", "--pol", "TM",
                "--form", "N", "--obs", "8", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "iterations=64" in captured.out
    assert "warning: N = 64 is below the kernel bandwidth" in captured.err
    assert "B = 2 k max(tau sin theta) = 2975" in captured.err
    assert "README" in captured.err


def test_bad_formulation_combo_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run(["solve", "--arc", "strip", "--ratio", "10", "--n", "128",
             "--pol", "TM", "--form", "ATK", "--out", str(tmp_path)])


ACCEPTED_FORMS = {("TE", "S"): "TE_S", ("TE", "NS"): "TE_NS", ("TE", "ATK"): "TE_ATKINSON",
                  ("TM", "N"): "TM_N", ("TM", "NS"): "TM_NS"}


@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("form", ["S", "N", "NS", "ATK", "ATKINSON", "S0invS"])
def test_pol_and_form_spell_a_formulation(tmp_path, pol, form):
    # ATK is the one alias, for ATKINSON; no other spelling is accepted
    args = ["solve", "--arc", "strip", "--ratio", "1", "--n", "16", "--obs", "4",
            "--pol", pol, "--form", form, "--out", str(tmp_path)]
    if (pol, form) in ACCEPTED_FORMS:
        assert run(args) == 0
        report = (tmp_path / "report.txt").read_text()
        assert f"formulation: {ACCEPTED_FORMS[pol, form]}\n" in report
    else:
        with pytest.raises(SystemExit, match=re.escape(
                f"error: no formulation for polarization {pol} with --form {form}")):
            run(args)


@pytest.mark.parametrize("command,n,message", [
    ("solve", "2000000000000000000", "grid size 2000000000000000000 not admissible"),
    ("solve", "99999999999999999999", "grid size 99999999999999999999 not admissible"),
    ("spectrum", "2000000000000000000", "grid size 2000000000000000000 not admissible"),
    ("fieldmap", "2000000000000000000", "grid size 2000000000000000000 not admissible"),
    ("fieldmap", "99999999999999999999", "grid size 99999999999999999999 not admissible"),
    ("converge", "64,2000000000000000000", "--n expects grid sizes below about 1.7e18"),
    ("converge", "64,1e300", "--n expects grid sizes below about 1.7e18"),
], ids=["solve-2e18", "solve-1e20", "spectrum-2e18", "fieldmap-2e18", "fieldmap-1e20",
        "converge-2e18", "converge-1e300"])
def test_grid_sizes_beyond_the_fft_limit_are_rejected(tmp_path, monkeypatch, command, n, message):
    # scipy.fft plans no size beyond about 1.7e18, 2/3/5-smooth or not
    monkeypatch.setattr(cli, "_run_solve", lambda *args: pytest.fail("a solve ran"))
    with pytest.raises(SystemExit, match=re.escape(f"error: {message}")) as exc:
        run([command, "--arc", "strip", "--ratio", "1", f"--n={n}", "--out", str(tmp_path)])
    assert "the largest size scipy.fft plans" in str(exc.value)


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


@pytest.mark.parametrize("forms,names", [
    ("S,S", ["S"]),
    ("ATK,S0invS", ["S0invS"]),
    ("NS,S,ATK,NS,S0invS,S", ["NS", "S", "S0invS"]),
])
def test_spectrum_computes_each_operator_once(tmp_path, monkeypatch, forms, names):
    # repeats, and the two names of S0invS, are dropped in first-seen order
    calls = []
    real = cli.dense_operator
    monkeypatch.setattr(cli, "dense_operator",
                        lambda name, *args: calls.append(name) or real(name, *args))
    out = tmp_path / "eigs"
    assert run(["spectrum", "--arc", "strip", "--ratio", "5", "--n", "32",
                "--form", forms, "--out", str(out)]) == 0
    assert calls == names
    assert sorted(p.name for p in out.glob("eigs_*.csv")) == sorted(f"eigs_{n}.csv" for n in names)


def test_spectrum_atk_maps_to_s0invs(tmp_path):
    out = tmp_path / "eigs"
    run(["spectrum", "--arc", "strip", "--ratio", "5", "--n", "64",
         "--form", "ATK", "--out", str(out)])
    assert (out / "eigs_S0invS.csv").exists()


@pytest.mark.parametrize("command,n", [("solve", "1000000000000000000"),
                                       ("converge", "64,1000000000000000000")])
def test_a_grid_too_large_to_allocate_fails_with_an_error_line(tmp_path, monkeypatch, command, n):
    # converge builds every grid before its first solve, so nothing is built
    monkeypatch.setattr(scattering, "build_S_matrix", lambda *args: pytest.fail("S was built"))
    with pytest.raises(SystemExit, match=re.escape(
            "error: grid size 1000000000000000000 too large: its nodes do not fit in memory")):
        run([command, "--arc", "strip", "--ratio", "1", f"--n={n}", "--out", str(tmp_path)])


def test_converge_requires_two_sizes(tmp_path):
    with pytest.raises(SystemExit):
        run(["converge", "--arc", "strip", "--ratio", "10", "--n", "128",
             "--out", str(tmp_path)])


@pytest.mark.parametrize("sizes", ["32.7,64.2", "64,nan", "64,inf"])
def test_converge_rejects_non_integer_sizes(tmp_path, sizes):
    with pytest.raises(SystemExit, match=re.escape("error: --n expects integer grid sizes")):
        run(["converge", "--arc", "strip", "--ratio", "10", "--n", sizes,
             "--out", str(tmp_path)])
    assert not (tmp_path / "converge.csv").exists()


@pytest.mark.parametrize("sizes", ["-5,0,64", "2,3,64"])
def test_converge_rejects_sizes_below_four(tmp_path, monkeypatch, sizes):
    monkeypatch.setattr(cli, "_run_solve", lambda *args: pytest.fail("a solve ran"))
    with pytest.raises(SystemExit, match=re.escape("error: --n expects grid sizes of at least 4")):
        run(["converge", "--arc", "strip", "--ratio", "1", f"--n={sizes}",
             "--out", str(tmp_path)])
    assert not (tmp_path / "converge.csv").exists()


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


def test_fieldmap_res_too_large_to_allocate_fails_before_the_solve(tmp_path, monkeypatch):
    # the pixel points are built first; the 74.5 GiB request is refused
    # at once, so nothing is allocated and no S is built
    builds = []
    real = scattering.build_S_matrix
    monkeypatch.setattr(scattering, "build_S_matrix",
                        lambda *args: builds.append(args) or real(*args))
    with pytest.raises(SystemExit, match=re.escape(
            "error: --res 100000x100000 too large: its points do not fit in memory")):
        run(["fieldmap", "--arc", "strip", "--ratio", "1", "--n", "64", "--res", "100000x100000",
             "--out", str(tmp_path / "map")])
    assert builds == []


@pytest.mark.parametrize("command,obs", [
    ("solve", "100000000000"), ("converge", "100000000000"), ("tables", "10" * 10)])
def test_obs_too_large_to_allocate_fails_before_the_solve(tmp_path, monkeypatch, command, obs):
    # 1e11 directions take 12 TiB at the far field's peak and 1e19 exceed
    # numpy's largest array: both are refused before any S is built
    builds = []
    real = scattering.build_S_matrix
    monkeypatch.setattr(scattering, "build_S_matrix",
                        lambda *args: builds.append(args) or real(*args))
    problem = ["--table", "strip-te"] if command == "tables" else ["--arc", "strip", "--ratio", "1"]
    with pytest.raises(SystemExit, match=re.escape(
            f"error: --obs {obs} too large: its far field does not fit in memory")):
        run([command, *problem, "--obs", obs, "--out", str(tmp_path)])
    assert builds == []


def test_obs_whose_directions_fit_but_far_field_does_not_fails_before_the_solve(tmp_path,
                                                                               monkeypatch):
    # memory / 64 directions: their (obs, 2) array takes a quarter of the
    # memory, the command's peak 2.25 times the memory (refused unless the
    # swap is larger than the memory)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    obs = str(memory // 64)

    def build(*args):
        raise AssertionError("S built for an --obs that does not fit")

    monkeypatch.setattr(scattering, "build_S_matrix", build)
    with pytest.raises(SystemExit, match=re.escape(
            f"error: --obs {obs} too large: its far field does not fit in memory")):
        run(["solve", "--arc", "strip", "--ratio", "1", "--obs", obs, "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [
    ["solve", "--pol", "TM", "--form", "NS", "--self-check"],
    ["solve", "--pol", "TE", "--form", "S", "--self-check"],
    ["converge", "--pol", "TM", "--form", "NS", "--n", "16,24,32,40"]])
def test_obs_probe_covers_what_the_command_allocates(tmp_path, allocation_peak, argv):
    # the peak of the command after main's checks (the probe allocates
    # FAR_FIELD_BYTES * obs itself), at N = 16 where the solve is small
    obs = 1 << 16
    command = [*argv, "--arc", "strip", "--ratio", "1", "--obs", str(obs), "--out", str(tmp_path)]
    if "--n" not in argv:
        command += ["--n", "16"]
    args = cli.build_parser().parse_args(command)
    assert allocation_peak(lambda: args.func(args)) <= cli.FAR_FIELD_BYTES * obs


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


@pytest.mark.parametrize("cap", ["nan", "-1", "0", "49.9"])
def test_tables_rejects_a_cap_below_the_smallest_row(tmp_path, monkeypatch, cap):
    monkeypatch.setattr(cli, "_run_solve", lambda *args: pytest.fail("a solve ran"))
    with pytest.raises(SystemExit, match=re.escape("error: --cap must be at least 50")):
        run(["tables", "--table", "strip-tm", f"--cap={cap}", "--out", str(tmp_path)])
    assert not (tmp_path / "table_strip-tm.csv").exists()


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_tables_rejects_a_non_finite_incidence(tmp_path, monkeypatch, angle):
    monkeypatch.setattr(cli, "_run_solve", lambda *args: pytest.fail("a solve ran"))
    with pytest.raises(SystemExit, match=re.escape("error: --inc-deg must be finite")):
        run(["tables", "--table", "strip-tm", "--inc-deg", angle, "--out", str(tmp_path)])


def test_tables_cap_inf_runs_every_row(tmp_path, monkeypatch):
    sizes = []

    def stub(formulation, arc, inc, grid, args):
        sizes.append(grid.n)
        return SimpleNamespace(report=SimpleNamespace(iterations=1, elapsed=0.0),
                               mat_seconds=0.0)

    monkeypatch.setattr(cli, "_run_solve", stub)
    assert run(["tables", "--table", "strip-tm", "--cap", "inf", "--out", str(tmp_path)]) == 0
    assert sizes == [400, 400, 1600, 1600, 6400, 6400]
    rows = (tmp_path / "table_strip-tm.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["50", "50", "200", "200", "800", "800"]


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
