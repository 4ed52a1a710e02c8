"""Command line interface: exit codes, config handling, CSV determinism."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from curlab import calibrations as cal
from curlab import cli
from curlab import currents as cur
from curlab import examples as ex


def _read_rows(path):
    """Header comment lines and parsed csv rows of an output file."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line.split(","))
    return header, rows


def _stable_bytes(path):
    """File content with the timestamp line removed."""
    lines = [l for l in path.read_text().splitlines(keepends=True)
             if not l.startswith("# generated")]
    return "".join(lines)


def test_mass_flat_disk(tmp_path):
    rc = cli.run(["mass", "--example", "flat-disk", "--h", "0.05",
                  "--out", str(tmp_path), "--n", "4"])
    assert rc == 0
    out = tmp_path / "mass.csv"
    header, rows = _read_rows(out)
    assert header[0].startswith("# curlab ")
    assert rows[0] == ["r", "mass"]
    for r_s, m_s in rows[1:-1]:
        assert float(m_s) == pytest.approx(math.pi * float(r_s) ** 2, rel=1e-4)
    assert rows[-1][0] == "inf"


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["density-sweep", "--example", "graph-z2", "--h", "0.05",
            "--seed", "3", "--n", "5"]
    assert cli.run(argv + ["--out", str(a)]) == 0
    assert cli.run(argv + ["--out", str(b)]) == 0
    fa, fb = a / "density_sweep.csv", b / "density_sweep.csv"
    assert _stable_bytes(fa) == _stable_bytes(fb)
    assert "# seed: 3" in fa.read_text()


def test_monotonicity_passes(tmp_path):
    rc = cli.run(["monotonicity", "--example", "two-lines", "--h", "0.05",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "monotonicity.csv")
    assert all(row[-1] == "true" for row in rows[1:])
    assert all(row[-2] == "0" for row in rows[1:])


def test_defect_check_failure(tmp_path, capsys, monkeypatch):
    # a field built from the measured mesh calibrates it up to roundoff, so
    # the failing defect is injected
    monkeypatch.setattr(cal, "calibration_defect",
                        lambda C, field, R=None: 1e-3 * cur.mass(C))
    rc = cli.run(["defect", "--example", "graph-z2", "--h", "0.15",
                  "--out", str(tmp_path)])
    assert rc == 2
    assert "check failed" in capsys.readouterr().err


def test_defect_passes(tmp_path):
    rc = cli.run(["defect", "--example", "nonholo-graph", "--h", "0.06",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "defect.csv")
    assert float(rows[1][2]) <= 1e-6


def test_unknown_example(tmp_path, capsys):
    rc = cli.run(["mass", "--example", "no-such-thing", "--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "mass.csv").exists()


def test_off_support_center(tmp_path, capsys):
    rc = cli.run(["monotonicity", "--example", "flat-disk",
                  "--center", "5,0,0,0", "--out", str(tmp_path)])
    assert rc == 1
    assert "support" in capsys.readouterr().err


def test_bad_ladder_parameters(tmp_path):
    rc = cli.run(["mass", "--example", "flat-disk", "--q", "1.2",
                  "--out", str(tmp_path)])
    assert rc == 1
    rc = cli.run(["mass", "--example", "flat-disk", "--n", "2",
                  "--out", str(tmp_path)])
    assert rc == 1


def test_bad_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        cli.run(["mass", "--no-such-flag"])
    assert e.value.code == 1


def test_missing_subcommand(capsys):
    assert cli.run([]) == 1


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# ladder setup\n"
        "example = flat-disk\n"
        "r-max = 0.4   # hyphen form accepted\n"
        "n = 4\n"
    )
    rc = cli.run(["mass", "--config", str(cfg), "--h", "0.1",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "mass.csv")
    assert float(rows[1][0]) == pytest.approx(0.4)
    # a flag overrides the config entry
    rc = cli.run(["mass", "--config", str(cfg), "--h", "0.1",
                  "--r-max", "0.2", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "mass.csv")
    assert float(rows[1][0]) == pytest.approx(0.2)


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example = flat-disk\nwibble = 3\n")
    rc = cli.run(["mass", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "wibble" in capsys.readouterr().err


def test_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    rc = cli.run(["mass", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1


def test_mesh_file_input(tmp_path):
    C = ex.flat_disk(h=0.1)
    mesh = tmp_path / "disk.txt"
    cur.write_mesh(mesh, C)
    rc = cli.run(["mass", "--mesh", str(mesh), "--n", "4",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "mass.csv")
    assert float(rows[-1][1]) == pytest.approx(cur.mass(C), rel=1e-12)


def test_mesh_file_missing(tmp_path, capsys):
    rc = cli.run(["mass", "--mesh", str(tmp_path / "nope.txt"),
                  "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("tri", ["0 1 7 1", "-1 0 1 1", "0 1 2 1 5"])
def test_mesh_file_bad_triangle(tmp_path, capsys, tri):
    """An index past the last vertex, a negative index (which would wrap to
    the last vertex) and a trailing field each fail to load."""
    mesh = tmp_path / "bad.txt"
    mesh.write_text("dim 4\nvertex 0 0 0 0\nvertex 1 0 0 0\nvertex 0 1 0 0\n"
                    f"tri {tri}\n")
    rc = cli.run(["mass", "--mesh", str(mesh), "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot load mesh" in capsys.readouterr().err


def test_directions_output(tmp_path):
    rc = cli.run(["directions", "--example", "two-lines", "--h", "0.05",
                  "--radius", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_rows(tmp_path / "directions.csv")
    assert len(rows) - 1 == 2
    weights = [float(r[1]) for r in rows[1:]]
    assert np.allclose(weights, 1.0, atol=0.05)
    assert any(line.startswith("# stable:") for line in header)


def test_rate_fit_output(tmp_path):
    rc = cli.run(["rate-fit", "--example", "graph-z2", "--h", "0.02",
                  "--gauge", "cylinder", "--mode", "A", "--theta-hat",
                  str(math.pi), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "rate_fit.csv")
    assert float(rows[1][2]) == pytest.approx(2.0, abs=0.1)


def test_jholo_energy_and_rate(tmp_path):
    rc = cli.run(["jholo-energy", "--example", "z1", "--n", "6",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "jholo_energy.csv")
    for r_s, e_s in rows[1:]:
        assert float(e_s) == pytest.approx(
            math.pi**2 * float(r_s) ** 2, rel=0.01
        )
    rc = cli.run(["jholo-rate", "--example", "z1z2", "--mode", "A",
                  "--theta-hat", "0", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "jholo_rate.csv")
    assert float(rows[1][2]) == pytest.approx(4.0, abs=0.1)


def test_rate_ladders_have_six_scales(tmp_path):
    """rate-fit and jholo-rate both fit at least six ladder scales, so
    --n 4, which the settings accept, runs for both."""
    for argv in (["rate-fit", "--example", "two-lines", "--h", "0.3"],
                 ["jholo-rate", "--example", "z1"]):
        assert cli.run(argv + ["--n", "4", "--out", str(tmp_path)]) == 0


def test_example_without_mesh_size(tmp_path, capsys):
    rc = cli.run(["dirichlet", "--example", "cusp", "--h", "0.3",
                  "--out", str(tmp_path)])
    assert rc == 1
    assert "example 'cusp' takes no --h" in capsys.readouterr().err
    assert not (tmp_path / "dirichlet.csv").exists()


def test_jholo_monotonicity_zero_energy_map(tmp_path):
    """The constant map has zero energy, so it passes with C = 0."""
    rc = cli.run(["jholo-monotonicity", "--example", "constant",
                  "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_rows(tmp_path / "jholo_monotonicity.csv")
    assert all(row[-2:] == ["0", "true"] for row in rows[1:])


def test_jholo_unknown_map(tmp_path):
    rc = cli.run(["jholo-energy", "--example", "flat-disk",
                  "--out", str(tmp_path)])
    assert rc == 1


def test_jholo_ladder_beyond_grid(tmp_path):
    rc = cli.run(["jholo-energy", "--example", "z1", "--r-max", "2.0",
                  "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("command", ["jholo-energy", "jholo-monotonicity", "jholo-rate"])
@pytest.mark.parametrize("flag, value", [("--h", "0.1"), ("--mesh", "nonexistent.mesh")])
def test_jholo_rejects_mesh_settings(tmp_path, capsys, command, flag, value):
    """A sampled map has its own grid, so a mesh size or a mesh file is an
    input error that names the flag, not a setting quietly dropped."""
    rc = cli.run([command, "--example", "z1", flag, value, "--out", str(tmp_path)])
    assert rc == 1
    assert f"map pipelines take no {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_jholo_rejects_mesh_size_from_config(tmp_path, capsys):
    cfg = tmp_path / "map.cfg"
    cfg.write_text("example = z1\nh = 0.1\n")
    rc = cli.run(["jholo-energy", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "map pipelines take no --h" in capsys.readouterr().err


# the smallest input on which each subcommand exits 0, its CSV columns and
# the config echo it writes
_BASE_ECHO = ("center=0,0,0,0 delta=0.05 example={ex} gauge=ball {h}mode=B "
              "n={n} q=0.7 r_max=0.8 {radius}seed=0 threshold=0.1")
_LINES = ("--example", "two-lines", "--h", "0.3", "--n", "4")
_SMALLEST = {
    "mass": (_LINES, ("r", "mass")),
    "defect": (_LINES, ("mass", "defect", "defect_over_mass")),
    "density-sweep": (_LINES, ("r", "mass", "theta", "normalized")),
    "monotonicity": (_LINES, ("r", "theta", "c1", "passed")),
    "hopf-mass": (_LINES, ("r_inner", "r_outer", "hopf_mass")),
    "directions": (_LINES + ("--radius", "0.5"),
                   ("index", "weight", "diameter", "rep0_re", "rep0_im",
                    "rep1_re", "rep1_im")),
    "uniqueness-gap": (_LINES, ("r", "gap")),
    "goodslice": (_LINES, ("r", "rho0", "slice_mass", "slice_energy")),
    "dirichlet": (("--example", "flat-disk", "--h", "0.3", "--n", "4"),
                  ("r", "energy", "factor")),
    "rate-fit": (_LINES, ("theta_hat", "amplitude", "exponent",
                          "residual_rms", "exact_cone")),
    "jholo-energy": (("--example", "z1", "--n", "4"), ("r", "scaled_energy")),
    "jholo-monotonicity": (("--example", "z1", "--n", "5"),
                           ("r", "scaled_energy", "c", "passed")),
    "jholo-rate": (("--example", "z1", "--n", "6"),
                   ("theta_hat", "amplitude", "exponent", "residual_rms",
                    "exact_cone")),
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_subcommand_smallest_input(tmp_path, name):
    argv, columns = _SMALLEST[name]
    assert cli.run([name, *argv, "--out", str(tmp_path)]) == 0
    header, rows = _read_rows(tmp_path / f"{name.replace('-', '_')}.csv")
    assert tuple(rows[0]) == columns
    flags = dict(zip(argv[::2], argv[1::2]))
    echo = _BASE_ECHO.format(
        ex=flags["--example"],
        h=f"h={flags['--h']} " if "--h" in flags else "",
        n=flags["--n"],
        radius=f"radius={flags['--radius']} " if "--radius" in flags else "",
    )
    assert f"# config: {echo}" in header


def _exit_status(argv):
    """`cli.run`'s status, also when argparse exits through SystemExit."""
    try:
        return cli.run(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("entry", ["gauge = cyl", "mode = C", "n = 4.5"])
def test_config_values_checked_like_flags(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"example = two-lines\nh = 0.3\n{entry}\n")
    assert _exit_status(["mass", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "mass.csv").exists()
    flag, value = (t.strip() for t in entry.split("="))
    assert _exit_status(["mass", "--example", "two-lines", "--h", "0.3",
                         f"--{flag}", value, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, config, setting", [
    (("mass", "--r-max", "nan"), "", "--r-max"),
    (("rate-fit", "--r-max", "nan"), "", "--r-max"),
    (("mass", "--q", "inf"), "", "--q"),
    (("density-sweep", "--center", "nan,0,0,0"), "", "center"),
    (("mass", "--center", "0,0"), "", "center"),
    (("mass", "--center", "0,0,0,0,0"), "", "center"),
    (("directions", "--radius", "0.5", "--threshold", "0"), "", "threshold"),
    (("mass",), "r-max = -inf\n", "--r-max"),
    (("defect",), "delta = nan\n", "--delta"),
])
def test_non_finite_numbers_and_wrong_centers_rejected(tmp_path, capsys, argv, config,
                                                       setting):
    """A non-finite float setting, from a flag or a config entry, a center
    with a non-finite coordinate or the wrong number of them, and a
    clustering threshold that is not a positive angle each exit 1, name the
    setting and write no CSV."""
    cmd, *flags = argv
    base = [cmd, "--example", "two-lines", "--h", "0.3", *flags]
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        base += ["--config", str(cfg)]
    out = tmp_path / "out"
    assert _exit_status(base + ["--out", str(out)]) == 1
    assert setting in capsys.readouterr().err
    assert not out.exists()


def test_readme_lists_commands_and_settings():
    """README's subcommand list is `cli._COMMANDS` in order, and its
    settings table names exactly the parser's setting flags, each with its
    config key and default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([\w-]+)`", listed) == list(cli._COMMANDS)

    table = dict((flag, (key, default)) for flag, key, default in re.findall(
        r"^\| `(--[\w-]+)` \| `(\w+)` \| (.+?) \|$", readme, re.M))
    parser = cli._build_parser()
    flags = {s for a in parser._actions for s in a.option_strings}
    assert set(table) == flags - {"-h", "--help", "--version", "--config"}
    for a in parser._actions:
        if a.option_strings and a.option_strings[0] in table:
            default = "none" if a.default is None else f"`{a.default}`"
            assert table[a.option_strings[0]] == (a.dest, default)
