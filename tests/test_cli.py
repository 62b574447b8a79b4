"""Command-line interface: subcommands, exit codes, argument files."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pwlienard import (Case, LienardSystem, RingElem, design_case_y, expand,
                       load_preset, oracle, oracle_m0, oracle_m1)
from pwlienard import cli, errors, simulator
from pwlienard.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


def args_file(tmp_path, *lines):
    """An argument file holding ``lines``, one argument each, as the
    ``@FILE`` word that stands for them."""
    path = tmp_path / "flags.args"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def test_import_loads_neither_numpy_nor_scipy():
    """The package is standard library only, the quadrature oracle and the
    ``verify`` subcommand included.  A fresh interpreter, since this one may
    have both."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pwlienard.cli; "
         "from pwlienard import load_preset, oracle_m1; "
         "oracle_m1(load_preset('example1'), 1.0); "
         "rc = pwlienard.cli.main(['verify', '--preset', 'example1']); "
         "print(rc, sorted({'numpy', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip().splitlines()[-1] == f"{EXIT_OK} []"


def test_melnikov_report(outdir):
    rc = main(["--out", str(outdir), "melnikov", "--preset", "example1",
               "--h-grid", "1,4"])
    assert rc == EXIT_OK
    doc = read_json(outdir / "melnikov.json")
    assert doc["case"] == "Y"
    assert doc["zero_bound"] == {"M0": 3, "M1": 4}
    # exact rational coefficients of M1, keyed by doubled exponent
    assert {k: v[0]["q"] for k, v in doc["M1"].items()} == {
        "1": "24/1", "2": "-50/1", "3": "35/1", "4": "-10/1", "5": "1/1"}
    for row in doc["grid"]:
        assert abs(row["M1"]) < 1e-9  # h = 1 and 4 are zeros
        # example1's M0 is the zero polynomial, printed as a float
        assert type(row["M0"]) is float and row["M0"] == 0.0


def test_roots_report(outdir):
    rc = main(["--out", str(outdir), "roots", "--preset", "example1",
               "--which", "M1"])
    assert rc == EXIT_OK
    doc = read_json(outdir / "roots.json")
    assert doc["certified_count"] == 4
    assert doc["theorem_bound"] == 4
    mids = [r["mid"] for r in doc["h_roots"]]
    assert mids == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-9)
    for r in doc["h_roots"]:
        assert r["hi"] - r["lo"] <= 1e-12


def test_oracle_pass(outdir):
    rc = main(["--out", str(outdir), "oracle", "--preset", "example2",
               "--h-grid", "0.5,2"])
    assert rc == EXIT_OK
    lines = (outdir / "oracle.csv").read_text().strip().splitlines()
    assert lines[0] == "h,term,closed,oracle,rel_err,status"
    assert all(line.endswith("pass") for line in lines[1:])
    assert len(lines) == 5  # 2 h values x (M0, M1)


def test_oracle_detects_oddness_mismatch(tmp_path, outdir):
    """Negative control: outside the oddness hypothesis the projected
    closed form and the quadrature of the full system disagree, and the
    harness must say so with exit code 3."""
    sys_ = LienardSystem.build(Case.SWITCH_Y, 0, 1, b0=[1], c=[0, 1])
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(sys_.to_json()))
    rc = main(["--out", str(outdir), "oracle", "--system", str(doc_path),
               "--h-grid", "1.0"])
    assert rc == EXIT_NUMERICAL
    text = (outdir / "oracle.csv").read_text()
    assert "FAIL" in text


def test_oracle_nan_row_fails(outdir, monkeypatch):
    """A NaN error is no pass: its row says FAIL and the exit code is 3."""
    quad = oracle.quad_I
    monkeypatch.setattr(oracle, "quad_I", lambda sys_, h, index:
                        quad(sys_, h, index) if index == 0 else math.nan)
    rc = main(["--out", str(outdir), "oracle", "--preset", "example1",
               "--h-grid", "0.5,2"])
    assert rc == EXIT_NUMERICAL
    rows = (outdir / "oracle.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["pass", "FAIL"] * 2


@pytest.mark.parametrize("command,columns", [("oracle", (2, 3, 4)),
                                             ("verify", (1, 2, 3))],
                         ids=["oracle", "verify"])
def test_rel_err_is_relative_to_the_reference(tmp_path, monkeypatch,
                                              command, columns):
    """Both commands print |value - reference| / (1 + |reference|) in
    their rel_err column, here with every quadrature set to 3.0, far from
    the closed forms, so that the denominator shows."""
    monkeypatch.setattr(oracle, "quad_I", lambda sys_, h, index: 3.0)
    assert main(["--out", str(tmp_path), command, "--preset", "example2",
                 "--h-grid", "1,2"]) == EXIT_NUMERICAL
    lines = (tmp_path / f"{command}.csv").read_text().splitlines()[1:]
    assert len(lines) >= 4
    for row in (line.split(",") for line in lines):
        value, reference = (float(row[i]) for i in columns[:2])
        assert row[columns[2]] == \
            f"{abs(value - reference) / (1.0 + abs(reference)):.3e}"


def test_rel_tol_env_override(tmp_path, outdir, monkeypatch):
    sys_ = LienardSystem.build(Case.SWITCH_Y, 0, 1, b0=[1], c=[0, 1])
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(sys_.to_json()))
    monkeypatch.setenv("PWLIENARD_REL_TOL", "1e6")
    rc = main(["--out", str(outdir), "oracle", "--system", str(doc_path),
               "--h-grid", "1.0"])
    assert rc == EXIT_OK


def test_design_round_trip(outdir):
    rc = main(["--out", str(outdir), "design", "--case", "Y", "--m", "3",
               "--n", "3", "--targets", "1,4,9,16"])
    assert rc == EXIT_OK
    doc = read_json(outdir / "design.json")
    assert doc["verified"]
    assert doc["roots"]["certified_count"] == 4
    # each root carries its certificate, as in roots.json
    assert [r["certificate"] for r in doc["roots"]["h_roots"]] == \
        ["SimpleSignChange"] * 4
    # the emitted system document must load back
    sys_ = LienardSystem.from_json(doc["system"])
    assert sys_.case is Case.SWITCH_Y


def test_design_too_many_targets(outdir):
    rc = main(["--out", str(outdir), "design", "--case", "X", "--m", "3",
               "--n", "3", "--targets", "1,2,3,4,5"])
    assert rc == EXIT_VALIDATION


def test_simulate_finds_cycles(tmp_path, outdir):
    inv_pi = RingElem.term(1, p=-1)
    sys_ = LienardSystem.build(
        Case.SWITCH_Y, 4, 0,
        a1=[inv_pi * RingElem.rational(2), 0, inv_pi * RingElem.rational(-5),
            0, inv_pi])
    doc_path = tmp_path / "sys.json"
    doc_path.write_text(json.dumps(sys_.to_json()))
    rc = main(["--out", str(outdir), "simulate", "--system", str(doc_path),
               "--lam", "0.02", "--eps", "4e-4", "--r-range", "1.2:1.7",
               "--grid", "15"])
    assert rc == EXIT_OK
    doc = read_json(outdir / "cycles.json")
    assert doc["backend"] == "python"
    assert len(doc["cycles"]) == 1
    assert doc["cycles"][0]["h_star"] == pytest.approx(1.0, abs=1e-3)
    # the proxy nodes: 5 fit the budget of 15 and reach the noise floor
    assert len(doc["grid"]) == len(doc["displacements"]) == 5


@pytest.mark.parametrize("partial, full", [
    (["--lam", "0.05"], ["--lam", "0.05", "--eps", "4e-4"]),
    (["--eps", "1e-3"], ["--lam", "0.02", "--eps", "1e-3"]),
], ids=["lam-only", "eps-only"])
def test_partial_param_override_keeps_file_value(tmp_path, partial, full):
    """A --lam or --eps flag on its own keeps the other value of the file."""
    doc_path = tmp_path / "sys.json"
    doc_path.write_text(json.dumps(
        load_preset("example1").with_params(0.02, 4e-4).to_json()))
    scans = []
    for flags in (partial, full):
        out = tmp_path / "-".join(flags)
        rc = main(["--out", str(out), "simulate", "--system", str(doc_path),
                   "--r-range", "1.5:2.5", "--grid", "2"] + flags)
        assert rc == EXIT_OK
        doc = read_json(out / "cycles.json")
        scans.append((doc["grid"], doc["displacements"]))
    assert scans[0] == scans[1]


def test_config_r_range_parsed_like_the_flag(tmp_path):
    """An argument file's --r-range sets the scan as the typed flag does."""
    scans = []
    for flags in ([args_file(tmp_path, "--r-range=1.5:2.5")],
                  ["--r-range", "1.5:2.5"]):
        out = tmp_path / ("file" if flags[0].startswith("@") else "typed")
        rc = main(["--out", str(out), "simulate", "--preset", "example1",
                   "--lam", "0.02", "--eps", "4e-4", "--grid", "2"] + flags)
        assert rc == EXIT_OK
        doc = read_json(out / "cycles.json")
        scans.append((doc["grid"], doc["displacements"]))
    assert scans[0] == scans[1]
    assert scans[0][0][0] == 1.5


def test_simulate_trajectory_dump(outdir):
    rc = main(["--out", str(outdir), "simulate", "--preset", "example1",
               "--r-range", "1.5:2.5", "--grid", "3",
               "--dump-traj", "2.0"])
    assert rc == EXIT_OK
    rows = read_json(outdir / "cycles.json")["trajectory"]
    assert all(list(row) == ["t", "x", "y", "side"] for row in rows)
    assert len(rows) >= 2



def test_failed_dump_writes_nothing(outdir, capsys):
    """A --dump-traj return that fails exits 3 and leaves --out empty: the
    scan's cycles.json is not written before it."""
    assert main(["--out", str(outdir), "simulate", "--preset", "example1",
                 "--lam", "0.5", "--eps", "0.5", "--r-range", "1:3",
                 "--grid", "20", "--dump-traj", "45"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure: angular speed "
                                       "below guard at t = 37.3048\n")
    assert list(outdir.glob("*")) == []


def test_simulate_trajectory_dump_switch_on_x(outdir):
    """A switch-on-x return starts on the y-axis: its first row is
    (t, x, y) = (0, 0, R), on the side opposite its first crossing."""
    rc = main(["--out", str(outdir), "simulate", "--preset", "example2",
               "--lam", "0.02", "--eps", "4e-4", "--r-range", "1:3",
               "--grid", "12", "--dump-traj", "1.5"])
    assert rc == EXIT_OK
    rows = read_json(outdir / "cycles.json")["trajectory"]
    assert list(rows[0]) == ["t", "x", "y", "side"]
    assert ",".join(map(repr, rows[0].values())) == "0.0,0.0,1.5,1.0"
    assert len(rows) >= 2

def test_verify_pass(outdir):
    rc = main(["--out", str(outdir), "verify", "--preset", "example1",
               "--h-grid", "0.5,2"])
    assert rc == EXIT_OK
    lines = (outdir / "verify.csv").read_text().strip().splitlines()
    assert lines[0] == "check,value,reference,rel_err,tol,status"
    assert all(line.endswith("pass") for line in lines[1:])


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_verify_runs_each_integral_once(monkeypatch, outdir, name):
    """One quad_I per integral and h; the M0 and M1 references are the
    values oracle_m0 and oracle_m1 give, to the last digit printed."""
    sys_ = load_preset(name)
    asked = []
    quad = oracle.quad_I

    def counted(system, h, index):
        asked.append((h, index))
        return quad(system, h, index)

    monkeypatch.setattr(oracle, "quad_I", counted)
    assert main(["--out", str(outdir), "verify", "--preset", name,
                 "--h-grid", "0.5,2"]) == EXIT_OK
    n = sys_.case.n_integrals
    assert asked == [(h, i) for h in (0.5, 2.0) for i in range(n)]
    monkeypatch.undo()
    refs = {line.split(",")[0]: line.split(",")[2] for line in
            (outdir / "verify.csv").read_text().splitlines()[1:]}
    for h in (0.5, 2.0):
        assert refs[f"M0@h={h}"] == f"{oracle_m0(sys_, h):.17g}"
        assert refs[f"M1@h={h}"] == f"{oracle_m1(sys_, h):.17g}"


# sha256 of stdout at the default h grid, as printed when verify ran every
# integral a second time inside oracle_m0 and oracle_m1
PINNED_OUTPUT = {
    ("oracle", "example1"):
        "dbc7618f1a92f0abfe34ad45eeca3235d0b2cc8135e72998dce2db650bf51f39",
    ("verify", "example1"):
        "0b3e65ec97b346f77faaf33dfed6d30cd92a2a022614a4e5f20ef12108f23352",
    ("oracle", "example2"):
        "bd15617958984f42ec8ef091e94ac24af8d2565dc83079b6d8b084672968606c",
    ("verify", "example2"):
        "01ef4369c5a23c6ff767e3730d889fbf0e719e542d1a862eca64d2f179037f73",
}


@pytest.mark.parametrize("command, name", sorted(PINNED_OUTPUT))
def test_oracle_and_verify_output_pinned(capsys, command, name):
    assert main([command, "--preset", name]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_OUTPUT[command, name]


# each subcommand's exit code, stdout, stderr and sorted (name, bytes) of
# the files it writes under --out, hashed with and without --out; SYSTEM
# is design_case_y([1.0, 4.0], 3, 3), whose cycles lie at h = 1 and 4
PINNED_RUNS = {
    "melnikov --preset example1": (
        "0a134c8140170d7c978901406d45228923d1104d5c812c624ef7222e8a87103b",
        "3f5a56a6bf4665ce14b643296d8655fd189339fdd7c120d7d3e4c2a5c066cd1f"),
    "roots --preset example1": (
        "b01bb26733e052c883ae30055b38da1af7e0985e7ab31f0cf075155846a5cd0d",
        "80f31f5d2131afec5bea21b3c4e790fd4fcfef1fbf7520b412b6c4cc0a45f616"),
    "design --case X --m 3 --n 3 --targets 0.5,1,2,4": (
        "5933002561de5be76c54bf4705981f71074601860a3565cb5aa54648b8049cba",
        "8f8d3678c76ef506827baf20e9d3ea8e5fe829fe8c78f359331e78ebd4f8a0dc"),
    "--precision 6 oracle --preset example2": (
        "29a2526089464f100df1501f500b3ddf0c0e098970cb1f6e2b117b8687841330",
        "9feee2abf9fe7c363ba1aa135cc68df4908b4f3faf1fe25fc6642f5ee2151317"),
    # exits 3 with "first failing row: F@h=0.5" on stderr
    "verify --preset example1 --h-grid 0.5 --with-sim --lam 0.02 "
    "--eps 1e-4": (
        "bf5ccd20ef693c20bb2a0a9a833150c6313cbc8e091e84137be09d730424354a",
        "a4f67c55c7785cfd249eee477e43213e0f04d915d9f1b0e3cf9810dd67bd7c75"),
    # one cycles.json, the scan's nodes and the dumped return included
    "simulate --system SYSTEM --lam 0.02 --eps 4e-4 --r-range 1:3.4 "
    "--grid 60 --dump-traj 2": (
        "b087ad1ea380030c1302101789baa68f67233540d792fab824cf7494fdd79c96",
        "9d3572e85e5a7c15e024265681a6f59f88659eb341b3a7f71aa68565c176de17"),
}


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", list(PINNED_RUNS), ids=[
    "melnikov", "roots", "design", "oracle", "verify", "simulate"])
def test_subcommand_bytes_pinned(tmp_path, capsys, command, with_out):
    system = tmp_path / "system.json"
    system.write_text(design_case_y([1.0, 4.0], 3, 3).dumps())
    outdir = tmp_path / "out"
    argv = command.replace("SYSTEM", str(system)).split()
    rc = main((["--out", str(outdir)] if with_out else []) + argv)
    captured = capsys.readouterr()
    files = sorted((p.name, p.read_bytes()) for p in outdir.glob("*"))
    run = repr((rc, captured.out, captured.err, files)).encode()
    assert hashlib.sha256(run).hexdigest() == PINNED_RUNS[command][with_out]


# sha256 of the scan's displacement nodes and of the dumped return of the
# pinned simulate run, as the CSV text that displacement.csv and
# trajectory.csv held: header, repr fields, "\n" line ends
SIMULATE_DATA = {
    "displacement.csv":
        "47f92b6b312ffc1e739434455798d9b5e18ab20d94e8cf02ae17c66dd0979a25",
    "trajectory.csv":
        "8285102b6b723969f5792edbb655139cb2e938fcc8cd18c4a05efe0833fa3a35",
}


def test_simulate_data_pinned(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(design_case_y([1.0, 4.0], 3, 3).dumps())
    outdir = tmp_path / "out"
    command = [c for c in PINNED_RUNS if c.startswith("simulate")][0]
    argv = command.replace("SYSTEM", str(system)).split()
    assert main(["--out", str(outdir)] + argv) == EXIT_OK
    doc = read_json(outdir / "cycles.json")
    tables = {
        "displacement.csv": ("r,displacement",
                             zip(doc["grid"], doc["displacements"])),
        "trajectory.csv": ("t,x,y,side",
                           (row.values() for row in doc["trajectory"])),
    }
    for name, digest in SIMULATE_DATA.items():
        header, rows = tables[name]
        text = header + "\n" + "\n".join(
            ",".join(map(repr, row)) for row in rows) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("command", ["melnikov", "oracle", "verify"])
def test_overflowing_energy_is_named(capsys, command):
    """A finite h too large for a float exits 3 with a message that names h
    and the term that overflows."""
    assert main([command, "--preset", "example1", "--h-grid", "1e300"]) \
        == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure: h = 1e+300: the "
                                       "h^(3/2) term overflows a float\n")


def test_verify_with_sim_uses_system_params(tmp_path):
    """--with-sim simulates at the lambda and eps of the loaded system: the
    file alone and the file with the same values as flags give the same
    finite-difference rows, predicted at the file's lambda."""
    sys_ = load_preset("example1").with_params(0.05, 1e-3)
    doc_path = tmp_path / "sys.json"
    doc_path.write_text(json.dumps(sys_.to_json()))
    rows = []
    for flags in ([], ["--lam", "0.05", "--eps", "1e-3"]):
        out = tmp_path / f"out{len(flags)}"
        main(["--out", str(out), "verify", "--system", str(doc_path),
              "--h-grid", "0.5", "--with-sim"] + flags)
        lines = (out / "verify.csv").read_text().splitlines()
        rows.append([line for line in lines if line.startswith("F@")])
    assert len(rows[0]) == 2
    assert rows[0] == rows[1]
    m1 = expand(sys_).m1.eval(0.5)
    assert float(rows[0][0].split(",")[2]) == pytest.approx(0.05 * m1)


def test_verify_with_sim_at_lam_zero(capsys):
    """--lam 0 simulates and predicts at lambda = 0: the F row's reference
    is M0 alone, where it used to be M0 + 0.02 M1."""
    main(["verify", "--preset", "example2", "--h-grid", "0.5", "--with-sim",
          "--lam", "0", "--eps", "1e-4"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    m0 = expand(load_preset("example2")).m0.eval(0.5)
    assert [row[2] for row in rows if row[0] == "F@h=0.5"] == [f"{m0:.17g}"]


def test_verify_with_sim_needs_eps(capsys):
    """The increment divides by eps, so an eps of 0, here the preset's,
    is an input error that names --eps, not a simulation at 1e-4."""
    assert main(["verify", "--preset", "example1", "--h-grid", "0.5",
                 "--with-sim"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--eps" in captured.err
    assert captured.out == ""


def test_simulate_stdout_is_one_document(capsys):
    """Without --out, a --dump-traj run prints one JSON document that holds
    the dumped return, where a CSV used to follow the JSON."""
    assert main(["simulate", "--preset", "example1", "--r-range", "1.5:2.5",
                 "--grid", "3", "--dump-traj", "2.0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["trajectory"][0] == {"t": 0.0, "x": 2.0, "y": 0.0,
                                    "side": -1.0}


def strict_json(text):
    """``text`` parsed as strict JSON: NaN and the infinities raise."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_failed_returns_read_null(capsys):
    """At lam = eps = 0.5 every node's return fails; cycles.json writes
    null at each, where a bare NaN would fail a strict JSON parser."""
    assert main(["simulate", "--preset", "example1", "--lam", "0.5",
                 "--eps", "0.5", "--r-range", "1:3", "--grid", "20"]) \
        == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["displacements"] == [None] * 5
    assert doc["cycles"] == []


def test_failed_polish_residual_reads_null(tmp_path, capsys, monkeypatch):
    """A polish return that fails leaves its cycle's residual null, the
    other keys numbers (the README quickstart's design)."""
    def escape(*args, **kwargs):
        raise errors.EscapeAnnulus("the polish return left the annulus")

    doc_path = tmp_path / "sys.json"
    doc_path.write_text(json.dumps(design_case_y([1.0, 4.0], 3, 3).to_json()))
    monkeypatch.setattr(simulator, "displacement", escape)
    assert main(["simulate", "--system", str(doc_path), "--lam", "0.02",
                 "--eps", "4e-4", "--r-range", "1:3.4", "--grid", "60"]) \
        == EXIT_OK
    cycles = strict_json(capsys.readouterr().out)["cycles"]
    assert len(cycles) == 2
    for cycle in cycles:
        assert cycle["residual"] is None
        assert all(isinstance(cycle[key], float)
                   for key in ("h_star", "radius", "stability_slope"))


def test_rk_tol_flag_is_gone(capsys):
    """simulate has no --rk-tol: it runs at SimConfig's tolerance."""
    err = exits_2(["simulate", "--preset", "example1", "--grid", "3",
                   "--rk-tol", "1e-12"], capsys)
    assert err.endswith("unrecognized arguments: --rk-tol 1e-12")


def test_config_file_defaults(tmp_path, outdir):
    """The flags of an argument file are read as if typed where it stands."""
    rc = main(["--out", str(outdir), "melnikov",
               args_file(tmp_path, "--h-grid=1,4", "--preset=example1")])
    assert rc == EXIT_OK
    doc = read_json(outdir / "melnikov.json")
    assert [row["h"] for row in doc["grid"]] == [1.0, 4.0]


def test_required_flags_from_a_file(tmp_path, outdir):
    """design's required flags may come from an argument file: it writes the
    design.json of the same flags typed.  The file holds both spellings of
    a flag with its value."""
    texts = []
    for flags in ([args_file(tmp_path, "--case=X", "--m", "3", "--n=3",
                             "--targets=1,2")],
                  ["--case", "X", "--m", "3", "--n", "3", "--targets", "1,2"]):
        out = outdir / ("file" if flags[0].startswith("@") else "typed")
        assert main(["--out", str(out), "design"] + flags) == EXIT_OK
        texts.append((out / "design.json").read_text())
    assert texts[0] == texts[1]


def test_config_flag_beats_config_file(tmp_path, outdir):
    """A flag typed after the argument file wins, also where its value is
    the parser default."""
    flags = args_file(tmp_path, "--h-grid=1,4")
    for text, grid in (("9", [9.0]), ("0.5,1,2,3", [0.5, 1.0, 2.0, 3.0])):
        rc = main(["--out", str(outdir), "melnikov", "--preset", "example1",
                   flags, "--h-grid", text])
        assert rc == EXIT_OK
        doc = read_json(outdir / "melnikov.json")
        assert [row["h"] for row in doc["grid"]] == grid


def test_root_flags_from_a_file_before_the_subcommand(tmp_path, outdir):
    """A file before the subcommand holds the root flags: its --precision
    sets oracle's digits as the typed flag does."""
    texts = []
    for head in ([args_file(tmp_path, "--precision=3")], ["--precision", "3"]):
        out = outdir / ("file" if head[0].startswith("@") else "typed")
        rc = main(["--out", str(out)] + head
                  + ["oracle", "--preset", "example2", "--h-grid", "2"])
        assert rc == EXIT_OK
        texts.append((out / "oracle.csv").read_text())
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[2].split(",")[2] == "1.18e+04"


@pytest.fixture
def example2_doc(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(load_preset("example2").dumps())
    return str(path)


@pytest.mark.parametrize("key, typed, case", [
    ("preset", "system", None), ("system", "preset", None),
    ("system", None, "X"),
], ids=["typed-system", "typed-preset", "config-system"])
def test_config_preset_and_system_are_one_input(tmp_path, outdir, capsys,
                                                example2_doc, key, typed,
                                                case):
    """--preset and --system are one input wherever they come from: a file's
    --system is used, and one of them in the file with the other typed
    exits 2.  example1 is switch-on-y and example2 switch-on-x."""
    values = {"preset": "example1", "system": example2_doc}
    flags = [] if typed is None else [f"--{typed}", values[typed]]
    rc = main(["--out", str(outdir), "melnikov",
               args_file(tmp_path, f"--{key}={values[key]}")] + flags)
    if case is None:
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "error: give one of --preset/--system, not both\n"
    else:
        assert rc == EXIT_OK
        assert read_json(outdir / "melnikov.json")["case"] == case


@pytest.mark.parametrize("config", [False, True], ids=["typed", "config"])
def test_preset_and_system_together_exit_2(tmp_path, capsys, example2_doc,
                                           config):
    """--preset and --system both set, typed or in an argument file, are an
    input error that names both flags."""
    both = ["--preset", "example1", "--system", example2_doc]
    if config:
        argv = ["melnikov", args_file(tmp_path, *both)]
    else:
        argv = ["melnikov"] + both
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == \
        "error: give one of --preset/--system, not both\n"
    assert captured.out == ""


def exits_2(argv, capsys):
    """argparse's own exit: status 2, the usage, then the error line,
    which is returned."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    return err.splitlines()[-1]


def test_config_unknown_key(tmp_path, capsys):
    """A flag that the subcommand does not have exits 2, from a file too."""
    err = exits_2(["melnikov", "--preset", "example1",
                   args_file(tmp_path, "--no-such-flag=1")], capsys)
    assert err.endswith("unrecognized arguments: --no-such-flag=1")


@pytest.mark.parametrize("text", ['["precision"]', "3", '{"h_grid": "1,4"}'],
                         ids=["list", "number", "object"])
def test_config_not_an_object(tmp_path, capsys, text):
    """An argument file is not read as JSON: a JSON document is one stray
    argument, and argparse exits 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    err = exits_2(["melnikov", "--preset", "example1", f"@{cfg}"], capsys)
    assert err.endswith(f"unrecognized arguments: {text}")


def test_config_flag_is_gone(capsys):
    """--config is not a flag: its file path is taken for the subcommand."""
    err = exits_2(["--config", "x.json", "melnikov"], capsys)
    assert "argument command: invalid choice: 'x.json'" in err


def test_at_argument_names_a_file(tmp_path, outdir, capsys, example2_doc,
                                  monkeypatch):
    """A word that begins with @ names an argument file, and exits 2 where
    that file is missing; a path that begins with @ is written ./@name."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@sys.json").write_text(Path(example2_doc).read_text())
    err = exits_2(["melnikov", "--system", "@sys.json"], capsys)
    assert "No such file or directory: 'sys.json'" in err
    assert exits_2(["melnikov", "@missing.args"], capsys) \
        .endswith("No such file or directory: 'missing.args'")
    rc = main(["--out", str(outdir), "melnikov", "--system", "./@sys.json"])
    assert rc == EXIT_OK
    assert read_json(outdir / "melnikov.json")["case"] == "X"


@pytest.mark.parametrize("lines, argv, expected", [
    (["--grid=abc"], ["simulate", "--preset", "example1", "@"],
     "argument --grid: expected an integer from 2, got 'abc'"),
    (["--h-grid=5"], ["melnikov", "--preset", "example1", "@"], [5.0]),
    (["--which=M7"], ["roots", "--preset", "example1", "@"],
     "argument --which: invalid choice: 'M7'"),
    ([], ["melnikov", "--preset", "example1", "@"], [0.5, 1.0, 2.0, 3.0]),
    (["--r-range=1:2:3"], ["simulate", "--preset", "example1", "@"],
     "argument --r-range: expected lo:hi"),
    # a flag of another subcommand is parsed where the file stands
    (["--which=M2"], ["melnikov", "--preset", "example1", "@"],
     "unrecognized arguments: --which=M2"),
    # the file may hold the subcommand itself
    (["melnikov", "--preset=example1"], ["@"], [0.5, 1.0, 2.0, 3.0]),
], ids=["grid-type", "h_grid-text", "which-choices", "empty-file",
        "r_range-form", "other-subcommand", "command"])
def test_config_values_parsed_like_flags(tmp_path, outdir, capsys, lines,
                                         argv, expected):
    """A file's words take the place of the @FILE word in argv.  A value
    that argparse rejects exits 2 with the error line of the same text
    typed, which names the flag; ``expected`` is a part of that line, or
    the melnikov grid."""
    from_file = [args_file(tmp_path, *lines) if arg == "@" else arg
                 for arg in argv]
    if isinstance(expected, str):
        typed = [word for arg in argv
                 for word in (lines if arg == "@" else [arg])]
        assert expected in exits_2(from_file, capsys)
        assert expected in exits_2(typed, capsys)
        return
    assert main(["--out", str(outdir)] + from_file) == EXIT_OK
    doc = read_json(outdir / "melnikov.json")
    assert [row["h"] for row in doc["grid"]] == expected


@pytest.mark.parametrize("command, in_file", [
    ("oracle", False), ("melnikov", False), ("oracle", True),
], ids=["oracle", "melnikov", "file"])
def test_negative_precision_is_named(tmp_path, capsys, command, in_file):
    """--precision is an integer from 0 for every subcommand; a negative
    value exits 2 with an error line that names the flag and the value."""
    flags = ["--precision", "-1"]
    if in_file:
        flags = [args_file(tmp_path, *flags)]
    err = exits_2(flags + [command, "--preset", "example1", "--h-grid",
                           "0.5"], capsys)
    assert err.endswith(
        "error: argument --precision: expected an integer from 0, got '-1'")


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--preset", "example1", "--grid", "1"],
     "argument --grid: expected an integer from 2, got '1'"),
    (["simulate", "--preset", "example1", "--grid", "abc"],
     "argument --grid: expected an integer from 2, got 'abc'"),
    (["--precision", "abc", "oracle", "--preset", "example1"],
     "argument --precision: expected an integer from 0, got 'abc'"),
    (["verify", "--preset", "example1", "--h-grid", ","],
     "argument --h-grid: expected comma-separated numbers, got ','"),
    (["oracle", "--preset", "example1", "--h-grid", ""],
     "argument --h-grid: expected comma-separated numbers, got ''"),
    (["melnikov", "--preset", "example1", "--h-grid", "abc"],
     "argument --h-grid: expected comma-separated numbers, got 'abc'"),
    (["design", "--case", "Y", "--m", "3", "--n", "3", "--targets", "1,abc"],
     "argument --targets: expected comma-separated numbers, got '1,abc'"),
], ids=["grid-below-2", "grid-not-an-integer", "precision-not-an-integer",
        "verify-empty-h-grid", "oracle-empty-h-grid", "h-grid-not-numbers",
        "targets-not-numbers"])
def test_flag_text_is_named(capsys, argv, expected):
    """A --grid below 2, a --precision that is not an integer, an --h-grid
    with no number and a word that is not a number in --h-grid or
    --targets exit 2 with an error line that names the flag; an empty grid
    compared nothing."""
    assert exits_2(argv, capsys).endswith(f"error: {expected}")


@pytest.mark.parametrize("text", ["", ","])
def test_design_targets_may_be_empty(outdir, text):
    """design --targets with no number still means no targets: M1 is zero."""
    assert main(["--out", str(outdir), "design", "--case", "Y", "--m", "3",
                 "--n", "3", "--targets", text]) == EXIT_OK
    doc = read_json(outdir / "design.json")
    assert doc["targets"] == [] and doc["roots"] is None


def test_zero_precision_is_valid(outdir):
    """0 digits stays valid; the g format prints one."""
    assert main(["--out", str(outdir), "--precision", "0", "oracle",
                 "--preset", "example1", "--h-grid", "0.5"]) == EXIT_OK
    rows = (outdir / "oracle.csv").read_text().splitlines()
    assert rows[1].startswith("0.5,M0,")


@pytest.mark.parametrize("preset", ["remark-smooth-cubic", "remark-eqMM"])
def test_roots_m0_needs_no_oddness(outdir, preset):
    """M0 has no oddness hypothesis: an even f0 or g0 must not stop it."""
    rc = main(["--out", str(outdir), "roots", "--preset", preset,
               "--which", "M0"])
    assert rc == EXIT_OK
    doc = read_json(outdir / "roots.json")
    assert doc["which"] == "M0"
    assert doc["certified_count"] <= doc["theorem_bound"]


EXAMPLE1 = load_preset("example1").to_json()
# flag text that the flag's argparse type rejects: argparse exits 2 itself,
# after the usage, with an error line that names the flag
MALFORMED_FLAG_TEXT = [
    ["simulate", "--preset", "example1", "--r-range", "1:2:3"],
    ["simulate", "--preset", "example1", "--r-range", "1"],
    ["simulate", "--preset", "example1", "--r-range", "a:b"],
]


@pytest.mark.parametrize("argv", [
    ["roots", "--preset", "example1", "--which", "M0"],
    ["roots", "--preset", "remark-pw-cubic", "--which", "M1", "--project-odd"],
    ["melnikov", "--preset", "example1", "--h-grid=-1"],
    ["design", "--case", "Y", "--m", "3", "--n", "3", "--targets", "inf,1"],
    ["melnikov", "--preset", "remark-eqMM"],
    ["roots", "--preset", "remark-pw-cubic", "--which", "M1"],
    ["design", "--case", "X", "--m", "0", "--n", "3", "--targets", "1"],
    ["design", "--case", "Y", "--m", "0", "--n", "3", "--targets", "1,2,3"],
    ["simulate", "--preset", "example1", "--r-range", "3.4:1"],
    ["simulate", "--preset", "example1", "--lam", "nan"],
    ["oracle", "--preset", "example1", "--h-grid", "nan"],
    ["melnikov", "--preset", "example1", "--h-grid", "inf"],
    ["simulate", "--preset", "example1", "--r-range", "1:inf"],
    ["simulate", "--preset", "example1", "--dump-traj", "0"],
    ["simulate", "--preset", "example1", "--dump-traj", "100"],
    ["simulate", "--preset", "example1", "--dump-traj", "nan"],
    ["simulate", "--preset", "example1", "--dump-traj", "inf"],
    *MALFORMED_FLAG_TEXT,
    ["melnikov", "--system", dict(EXAMPLE1, m=3.5)],
    ["melnikov", "--system", dict(EXAMPLE1, m="3")],
    ["melnikov", "--system", dict(EXAMPLE1, m=1e9)],
    ["melnikov", "--system", dict(EXAMPLE1, m=True)],
    ["melnikov", "--system", dict(EXAMPLE1, a1=[None])],
    ["melnikov", "--system", dict(EXAMPLE1, a1=5)],
    ["melnikov", "--system", dict(EXAMPLE1, **{"lambda": "x"})],
    ["melnikov", "--system", dict(EXAMPLE1, a1=[{"q": "1"}])],
    ["melnikov", "--system", dict(EXAMPLE1, a1=[[1]])],
    ["melnikov", "--system", dict(EXAMPLE1, a1=[False])],
    ["melnikov", "--system", [EXAMPLE1]],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[[{"q": "1", "e": 1.5}]] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[[{"e": 1}]] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[float("inf")] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system", dict(EXAMPLE1, m=10**9)],
    ["design", "--case", "Y", "--m", str(10**9), "--n", "0"],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[[{"q": "1", "e": 10**11}]] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[[{"q": "1", "p": 10**6}]] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[[{"q": "100/1", "p": 620}]] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=["1e400"] + EXAMPLE1["a1"][1:])],
    ["melnikov", "--system",
     dict(EXAMPLE1, a1=[10 ** 400] + EXAMPLE1["a1"][1:])],
], ids=["zero-M0", "zero-M1", "negative-h", "infinite-target",
        "even-f0-melnikov", "even-f0-roots", "infeasible-shape-X",
        "infeasible-shape-Y", "reversed-r-range", "nan-lam", "nan-h",
        "infinite-h", "unbounded-r-range", "dump-traj-zero",
        "dump-traj-above-annulus", "dump-traj-nan", "dump-traj-infinite",
        "r-range-three-values", "r-range-one-value", "r-range-not-numbers",
        "fractional-m", "string-m",
        "float-m", "boolean-m", "null-coefficient", "number-vector",
        "string-lambda", "bare-term", "number-term", "boolean-coefficient",
        "array-document", "fractional-e", "term-without-q",
        "infinite-coefficient", "degree-above-bound",
        "design-degree-above-bound", "e-above-bound", "p-above-bound",
        "term-overflows-a-float", "rational-overflows-a-float",
        "integer-overflows-a-float"])
def test_input_errors_are_validation_errors(tmp_path, outdir, capsys, argv):
    """Errors in the input exit 2 with an error line, not as numerical
    failures.  A JSON value in ``argv`` is a ``--system`` document: it is
    written to a file, whose path takes its place.  The text of
    MALFORMED_FLAG_TEXT, the last word of its ``argv``, is rejected by
    argparse, whose error line names the flag before it."""
    if argv in MALFORMED_FLAG_TEXT:
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(outdir)] + argv)
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"error: argument {argv[-2]}: expected lo:hi" in err
        return
    doc = tmp_path / "system.json"
    for arg in argv:
        if not isinstance(arg, str):
            doc.write_text(json.dumps(arg))
    argv = [arg if isinstance(arg, str) else str(doc) for arg in argv]
    assert main(["--out", str(outdir)] + argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("r", ["0", "100", "nan", "inf"])
def test_dump_traj_outside_the_annulus_runs_no_scan(monkeypatch, capsys, r):
    """A --dump-traj start outside the annulus exits 2 before the scan:
    no cycles.json on stdout, where it used to print the whole scan and
    then exit 3 at the dump."""
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(simulator, "find_cycles", scan)
    assert main(["simulate", "--preset", "example1", "--dump-traj", r]) \
        == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --dump-traj")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["oracle", "verify"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-8", "abc"])
def test_rel_tol_must_be_finite_and_non_negative(monkeypatch, capsys,
                                                 command, value):
    """A NaN or negative tolerance would fail every row and an infinite one
    pass every row; each, and a value that is not a number, is an input
    error instead."""
    monkeypatch.setenv("PWLIENARD_REL_TOL", value)
    assert main([command, "--preset", "example1", "--h-grid", "1"]) \
        == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: PWLIENARD_REL_TOL")
    assert captured.out == ""


INPUT_ERRORS = (errors.NegativeEnergy, errors.OddnessViolated,
                errors.TooManyTargets, errors.InfeasibleShape,
                errors.ZeroPolynomial)
PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, Exception)]


@pytest.mark.parametrize(
    "exc", PACKAGE_ERRORS + [ValueError, KeyError, OSError, ArithmeticError],
    ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(monkeypatch, capsys, exc):
    """The error class alone sets the exit code: 2 for the input errors
    (every ValueError, errors.InvalidInput included, KeyError and OSError),
    3 for every other package error and for ArithmeticError."""
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_melnikov", fail)
    rc = main(["melnikov", "--preset", "example1"])
    if exc in INPUT_ERRORS + (errors.InvalidInput, ValueError, KeyError,
                              OSError):
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")
    else:
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")


def test_missing_system_is_validation_error():
    assert main(["melnikov"]) == EXIT_VALIDATION


def test_unknown_preset_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["melnikov", "--preset", "nope"])
    assert exc.value.code == 2


def test_precision_flag(outdir):
    rc = main(["--out", str(outdir), "--precision", "3", "oracle",
               "--preset", "example2", "--h-grid", "2"])
    assert rc == EXIT_OK
    lines = (outdir / "oracle.csv").read_text().strip().splitlines()
    closed = lines[1].split(",")[2]
    assert len(closed.replace("-", "").replace(".", "").split("e")[0]) <= 4


def test_simulate_runs_past_the_parser_nesting_limit(tmp_path, outdir):
    """A switch-on-y system with f1 of degree 300 simulates: the kernel
    nests at most 100 Horner steps in one expression, where one
    expression nested 299 deep met CPython's limit of 200 parentheses and
    exited 1 with a traceback."""
    m = 300
    doc = tmp_path / "system.json"
    doc.write_text(json.dumps({
        "case": "Y", "m": m, "n": 0, "a0": [0] * (m + 1),
        "a1": [1] + [0] * (m - 1) + [1e-10], "b0": [0], "b1": [0],
        "c": [0]}))
    assert main(["--out", str(outdir), "simulate", "--system", str(doc),
                 "--lam", "0.02", "--eps", "0.0004", "--r-range", "1:2",
                 "--grid", "5"]) in (EXIT_OK, EXIT_NUMERICAL)
