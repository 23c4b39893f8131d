import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blochrate import (EnsembleTrace, KineticTrace, SystemParams, integrate_effective_bloch,
                       integrate_ere, run_ensemble)
import blochrate
from blochrate import cli
from blochrate.cli import (
    MODELS,
    TRACE_HEADER,
    ConfigError,
    RunConfig,
    _fmt,
    _write_trace,
    atomic_write_text,
    cmd_figure,
    load_config,
    main,
    parse_config_text,
)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(v)
    return cols


def floats(cols, key):
    return np.array([float(v) for v in cols[key]])


# ----------------------------------------------------------------------
# configuration

def test_parse_config_text():
    cfg = parse_config_text(
        "# a comment\n\nmodel = ere\ndelta = 5.0  # trailing\nn_traj=250\n",
        "inline")
    assert cfg.model == "ere"
    assert cfg.delta == 5.0
    assert cfg.n_traj == 250


@pytest.mark.parametrize("text,fragment", [
    ("delta = five", "inline:1"),
    ("\nwavelength = 3", "inline:2"),
    ("delta 5", "inline:1"),
    ("n_traj = 2.5", "inline:1"),
])
def test_parse_config_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text, "inline")


def test_set_overrides_beat_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("delta = 5\nomega0 = 1\n")
    cfg = load_config(str(cfg_file), ["delta=2"])
    assert cfg.delta == 2.0
    assert cfg.omega0 == 1.0
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"), [])
    with pytest.raises(ConfigError):
        load_config(None, ["delta"])


def test_seed_must_fit_64_bits(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, [f"seed={2 ** 64}"])
    rc = main(["analyze", "--seed", str(2 ** 64), "--out", str(tmp_path)])
    assert rc == 2
    with pytest.raises(ConfigError):
        load_config(None, ["seed=-1"])
    assert main(["analyze", "--seed=-1", "--out", str(tmp_path)]) == 2


# ----------------------------------------------------------------------
# simulate

def test_simulate_ere_round_trip(tmp_path):
    rc = main(["simulate", "--set", "model=ere", "--set", "delta=5",
               "--set", "omega0=2", "--set", "t_end=2", "--set", "dt=0.001",
               "--out", str(tmp_path)])
    assert rc == 0
    cols = read_csv(tmp_path / "ere_trace.csv")
    kin = integrate_ere(SystemParams(a=1.0, delta=5.0, omega0=2.0), 2.0, 1e-3)
    # %.17g formatting round-trips doubles exactly
    assert np.array_equal(floats(cols, "n_mean"), kin.n)
    assert np.array_equal(floats(cols, "t"), kin.t)
    assert np.all(floats(cols, "n_std") == 0.0)
    assert np.all(np.isnan(floats(cols, "q_mean")))
    assert set(cols["model"]) == {"ere"}
    assert set(cols["seed"]) == {"12345"}


def test_trace_rows_format_like_fmt(tmp_path):
    t = np.arange(6) * 0.1
    n = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1.0 / 3.0])
    q = n[::-1].copy()
    _write_trace(tmp_path / "x.csv", KineticTrace(t=t, n=n, q=q), "m%s", 7)
    want = [",".join([_fmt(t[k]), _fmt(n[k]), "0", "0", _fmt(q[k]), "m%s", "7"])
            for k in range(len(t))]
    assert (tmp_path / "x.csv").read_text() == "\n".join([TRACE_HEADER, *want]) + "\n"


@pytest.mark.parametrize("model", [m for m in MODELS if m != "sde"])
def test_kinetic_csv_bytes_match_per_value_formatting(tmp_path, monkeypatch, model):
    # the constant columns (zero spread, a missing q) sit in the row template;
    # the bytes must be those of formatting every value with _fmt
    runs = []
    write = cli._write_trace

    def capture(path, run, *args):
        runs.append(run)
        return write(path, run, *args)

    monkeypatch.setattr(cli, "_write_trace", capture)
    assert main(["simulate", "--set", f"model={model}", "--set", "delta=5",
                 "--set", "omega0=2", "--set", "t_end=0.5",
                 "--out", str(tmp_path)]) == 0
    (run,) = runs
    q = np.full(len(run.t), math.nan) if run.q is None else run.q
    want = [",".join([_fmt(t), _fmt(n), _fmt(0.0), _fmt(0.0), _fmt(qk), model,
                      "12345"]) for t, n, qk in zip(run.t, run.n, q)]
    got = (tmp_path / f"{model}_trace.csv").read_bytes()
    assert got == ("\n".join([TRACE_HEADER, *want]) + "\n").encode()


@pytest.mark.parametrize("model", MODELS)
def test_simulate_refuses_bad_initial_state(tmp_path, capsys, model):
    # the kinetic models used to run: ere wrote an all-NaN CSV, memory-kernel
    # failed its first step with exit 3, and sde ran from n0 = -1 whatever
    # n0 said; now all are configuration errors
    size = ["--set", "n_traj=4"] if model == "sde" else []
    for start in ("n0=nan", "n0=1.5", "n0=-inf"):
        rc = main(["simulate", "--set", f"model={model}", "--set", start,
                   "--set", "t_end=0.1", *size, "--out", str(tmp_path)])
        assert rc == 2
        assert "initial state" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_sde_starts_from_n0(tmp_path):
    assert main(["simulate", "--set", "model=sde", "--set", "n0=0.5",
                 "--set", "n_traj=10", "--set", "t_end=0.01",
                 "--out", str(tmp_path)]) == 0
    cols = read_csv(tmp_path / "sde_trace.csv")
    trace = run_ensemble(SystemParams(a=1.0, delta=0.0, omega0=0.0), 10, 0.01, 1e-3,
                         12345, n0=0.5)
    assert floats(cols, "n_mean")[0] == 0.5
    assert np.array_equal(floats(cols, "n_mean"), trace.n_mean)


@pytest.mark.parametrize("model", [m for m in MODELS if m != "effective-bloch"])
def test_simulate_refuses_q0_where_it_is_not_the_start(tmp_path, capsys, model):
    # only the effective Bloch equations start from q0; the ensemble starts
    # from sigma0 = 0 and the rate models carry no q, so q0 was ignored
    rc = main(["simulate", "--set", f"model={model}", "--set", "q0=0.1",
               "--set", "t_end=0.1", "--set", "n_traj=4", "--out", str(tmp_path)])
    assert rc == 2
    assert "q0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model,unread", [
    ("sde", ["spectrum_path=/nonexistent.txt", "gamma_21=3"]),
    ("effective-bloch", ["n_traj=7"]),
    ("ere", ["n_traj=7"]),
    ("modified-ere", ["spectrum_path=/nonexistent.txt"]),
    ("memory-kernel", ["gamma_12=0.5"]),
    ("generalized-ere", ["t_obs=3"]),
])
def test_simulate_refuses_keys_the_model_does_not_read(tmp_path, capsys, model,
                                                       unread):
    # each of these ran and ignored the key: sde never opened the table nor
    # applied the collision rate, and ere ran no ensemble of 7
    base = ["simulate", "--set", f"model={model}", "--set", "delta=5",
            "--set", "omega0=2", "--set", "t_end=0.01", "--out", str(tmp_path)]
    rc = main([*base, *[arg for item in unread for arg in ("--set", item)]])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(item.split("=")[0] in err for item in unread), err
    assert not list(tmp_path.iterdir())
    assert main(base) == 0


def test_simulate_bloch_writes_q_column(tmp_path):
    rc = main(["simulate", "--set", "model=effective-bloch",
               "--set", "delta=10", "--set", "omega0=2",
               "--set", "t_end=1", "--out", str(tmp_path),
               "--set", "out=eb.csv"])
    assert rc == 0
    cols = read_csv(tmp_path / "eb.csv")
    kin = integrate_effective_bloch(SystemParams(a=1.0, delta=10.0, omega0=2.0),
                                    1.0, 1e-3)
    assert np.array_equal(floats(cols, "q_mean"), kin.q)


def test_simulate_sde_q_is_scaled_coherence(tmp_path):
    args = ["--set", "model=sde", "--set", "delta=5",
            "--set", "omega0=2", "--set", "t_end=0.2", "--set", "n_traj=32",
            "--set", "seed=11", "--out", str(tmp_path)]
    assert main(["simulate", *args]) == 0
    cols = read_csv(tmp_path / "sde_trace.csv")
    p = SystemParams(a=1.0, delta=5.0, omega0=2.0)
    trace = run_ensemble(p, 32, 0.2, 1e-3, 11, with_coherence=True)
    q = -(p.delta + 2.0 * p.gamma_perp) / p.omega0 * trace.coherence_mean.imag
    assert np.array_equal(floats(cols, "n_mean"), trace.n_mean)
    assert np.array_equal(floats(cols, "q_mean"), q)
    assert np.array_equal(floats(cols, "n_stderr"), trace.n_stderr)


def test_simulate_rejects_bad_model(tmp_path):
    assert main(["simulate", "--set", "model=bogus", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    for model in ("ere", "sde"):
        assert main(["simulate", "--set", f"model={model}", "--set", "t_end=inf",
                     "--out", str(tmp_path)]) == 2


def test_simulate_step_guard_maps_to_exit_3(tmp_path, capsys):
    rc = main(["simulate", "--set", "model=effective-bloch",
               "--set", "delta=100", "--set", "omega0=2",
               "--set", "t_end=1", "--set", "dt=0.05", "--out", str(tmp_path)])
    assert rc == 3
    # the refusal names the model that was asked for
    for model in ("ere", "generalized-ere"):
        capsys.readouterr()
        rc = main(["simulate", "--set", f"model={model}", "--set", "t_end=2",
                   "--set", "dt=1", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            f"numerical failure: {model}: dt=1 ")
    rc = main(["simulate", "--set", "model=sde", "--set", "omega0=6",
               "--set", "t_end=1", "--set", "dt=0.01", "--out", str(tmp_path)])
    assert rc == 3


def test_simulate_monochromatic_rules(tmp_path):
    # zero linewidth: the kernel needs the spectrum and must refuse, while
    # the rate equation keeps its finite cancelled pumping rate
    base = ["--set", "delta=0", "--set", "omega0=2", "--set", "t_end=1",
            "--out", str(tmp_path)]
    assert main(["simulate", "--set", "model=memory-kernel", *base]) == 2
    assert main(["simulate", "--set", "model=ere", *base]) == 0


def test_simulate_byte_identity_and_env_threads(tmp_path, monkeypatch):
    args = ["simulate", "--set", "model=sde", "--set", "delta=5",
            "--set", "omega0=2", "--set", "t_end=0.1", "--set", "n_traj=16"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    monkeypatch.setenv("BLOCHRATE_THREADS", "2")
    assert main([*args, "--out", str(tmp_path / "c")]) == 0
    blob = (tmp_path / "a" / "sde_trace.csv").read_bytes()
    assert (tmp_path / "b" / "sde_trace.csv").read_bytes() == blob
    assert (tmp_path / "c" / "sde_trace.csv").read_bytes() == blob


def test_threads_validation(tmp_path, monkeypatch):
    args = ["simulate", "--set", "model=ere", "--set", "delta=5",
            "--set", "omega0=1", "--set", "t_end=0.1", "--out", str(tmp_path)]
    assert main([*args, "--threads", "0"]) == 2
    monkeypatch.setenv("BLOCHRATE_THREADS", "soon")
    assert main(args) == 2


def test_atomic_write_leaves_nothing_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "x.csv"
    # a lone surrogate cannot be encoded, so the write itself raises
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "a\udcff")
    assert not list(tmp_path.iterdir())

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr("blochrate.cli.os.replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_text(target, "a,b\n")
    assert not list(tmp_path.iterdir())
    monkeypatch.undo()

    def parts():                        # a streamed write failing after its first block
        yield "a,b\n"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        cli._atomic_write(target, parts())
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 12289])
def test_csv_blocks_match_per_row_formatting(tmp_path, monkeypatch, rows):
    # at 4095 rows a block, these are one short block, one full block, and
    # full blocks with tails of 1, 2 and 4 rows: each writes the rows that
    # one % per row would
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4095)
    t = np.arange(rows) * 1e-3
    n = np.sin(t) - 0.5
    _write_trace(tmp_path / "x.csv", KineticTrace(t=t, n=n, q=n[::-1]), "m", 3)
    want = [f"{_fmt(a)},{_fmt(b)},0,0,{_fmt(c)},m,3" for a, b, c in zip(t, n, n[::-1])]
    assert (tmp_path / "x.csv").read_text() == "\n".join([TRACE_HEADER, *want]) + "\n"


def test_trace_writer_memory_does_not_grow_with_rows(tmp_path):
    # rows are formatted and written a block at a time, and an ensemble's
    # sqrt(n_var) is taken a block at a time, so memory is one block's;
    # building the whole file took ~25 MB at 1e5 rows, and sqrt(n_var) over
    # the whole trace 1.6 MB at 2e5
    def kinetic(t):
        return KineticTrace(t=t, n=np.cos(t))

    def ensemble(t):
        return EnsembleTrace(t=t, n_mean=np.cos(t), n_var=t, n_stderr=np.sqrt(t / 4),
                             n_traj=4)

    for make in (kinetic, ensemble):
        peaks = {}
        for rows in (10_000, 200_000):
            run = make(np.arange(rows) * 1e-4)
            tracemalloc.start()
            try:
                _write_trace(tmp_path / "x.csv", run, "m", 1)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200_000] - peaks[10_000] < 1e6, (make.__name__, peaks)


def test_cli_import_leaves_scipy_out():
    # the CLI's cold start loads no scipy module: scipy.integrate was about
    # 0.5 s of import and scipy.fft the rest; only analysis.zeta_numeric
    # needs scipy, and imports it when called
    src = str(Path(blochrate.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, blochrate.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# figure

def test_figure_fig1b_file_set(tmp_path):
    rc = main(["figure", "fig1b", "--set", "n_traj=50", "--set", "t_end=0.5",
               "--out", str(tmp_path), "--plot"])
    assert rc == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"fig1b_sde.csv", "fig1b_effective-bloch.csv",
                     "fig1b_ere.csv", "fig1b_modified-ere.csv", "fig1b.svg"}
    svg = (tmp_path / "fig1b.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_figure_fig2_file_set(tmp_path):
    # the four ensembles are prefixes of one 1000-trajectory run, written
    # the same for any thread count
    for panel in ("fig2a", "fig2b"):
        for threads in (1, 2):
            out = tmp_path / f"{panel}_t{threads}"
            rc = main(["figure", panel, "--set", "t_end=0.02", "--out", str(out),
                       "--threads", str(threads)])
            assert rc == 0
            names = {p.name for p in out.iterdir()}
            assert names == {f"{panel}_{n}.csv"
                             for n in ("n1", "n10", "n100", "n1000", "bloch")}
            for name in names:
                assert len((out / name).read_text().splitlines()) == 1 + 21, name
        one = (tmp_path / f"{panel}_t1" / f"{panel}_n10.csv").read_bytes()
        assert (tmp_path / f"{panel}_t2" / f"{panel}_n10.csv").read_bytes() == one


def test_figure_fig3_schema(tmp_path):
    rc = main(["figure", "fig3a", "--set", "n_traj=100", "--set", "t_end=2",
               "--out", str(tmp_path)])
    assert rc == 0
    cols = read_csv(tmp_path / "fig3a.csv")
    sizes = [int(v) for v in cols["n_traj"]]
    assert sizes == sorted(sizes) and sizes[-1] == 100 and sizes[0] >= 10
    se = floats(cols, "n_stderr")
    sd = floats(cols, "n_std")
    assert np.allclose(se, sd / np.sqrt(sizes), rtol=1e-12)


def test_figure_fig3_refuses_one_trajectory(tmp_path, capsys):
    # one trajectory has no sample std: refused before the run, nothing written
    for panel in ("fig3a", "fig3b"):
        rc = main(["figure", panel, "--set", "n_traj=1", "--set", "t_end=0.1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "n_traj" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError):
        cmd_figure("fig9z", RunConfig(), tmp_path, threads=1, plot=False)
    with pytest.raises(SystemExit):
        main(["figure", "fig9z", "--out", str(tmp_path)])


# ----------------------------------------------------------------------
# analyze / decorrelate

def test_analyze_output(tmp_path, capsys):
    rc = main(["analyze", "--set", "delta=10", "--set", "omega0=2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a = 1" in out
    assert "regime oscillation: FAIL" in out
    assert "regime rate_eq_valid: PASS" in out
    assert "regime ere_regime: PASS" in out
    lines = (tmp_path / "analysis.csv").read_text().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split(",")) == len(lines[1].split(","))


def test_decorrelate_zero_drive(tmp_path, capsys):
    rc = main(["decorrelate", "--set", "omega0=0", "--set", "delta=5",
               "--set", "n_traj=50", "--set", "t_obs=0.5", "--set", "dt=0.01",
               "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "DECORRELATION HOLDS" in captured.out
    assert "unreliable" in captured.err       # low-statistics warning
    cols = read_csv(tmp_path / "decorrelation.csv")
    assert np.all(floats(cols, "residual") == 0.0)
    assert set(cols["low_statistics"]) == {"1"}


def test_decorrelate_rejects_off_grid_t_obs(tmp_path):
    rc = main(["decorrelate", "--set", "omega0=2", "--set", "delta=5",
               "--set", "n_traj=10", "--set", "t_obs=0.35", "--set", "dt=0.1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert main(["decorrelate", "--set", "dt=0", "--out", str(tmp_path)]) == 2


def test_decorrelate_tprime_count_past_the_grid(tmp_path):
    # t_obs/dt = 10 steps: any n_tprime above 11 names the same 11 grid points,
    # and memory must not grow with n_tprime
    base = ["decorrelate", "--set", "omega0=2", "--set", "delta=5",
            "--set", "n_traj=20", "--set", "t_obs=0.01", "--set", "dt=1e-3"]
    assert main([*base, "--set", "n_tprime=11", "--out", str(tmp_path / "a")]) == 0
    tracemalloc.start()
    try:
        rc = main([*base, "--set", f"n_tprime={10 ** 6}", "--out", str(tmp_path / "b")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    want = (tmp_path / "a" / "decorrelation.csv").read_bytes()
    assert (tmp_path / "b" / "decorrelation.csv").read_bytes() == want
    assert len(want.splitlines()) == 12
    assert peak < 1e6
