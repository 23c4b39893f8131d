import importlib.util
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


def fmt(x):
    """Python's own '%.17g' of one value, the reference for every CSV float."""
    return "%.17g" % x


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


# every run of the key table at smoke size: each key that is in the run's
# entry is overridden so the run stays small and leaves the closed regimes
SMOKE = {"delta": 5.0, "omega0": 2.0, "t_end": 0.02, "n_traj": 10, "t_obs": 0.01}


def _run(run, cfg, out_dir):
    """Call the command that runs ``run`` on an already resolved ``cfg``."""
    if run in MODELS:
        cli.cmd_simulate(cfg, out_dir, 1, False)
    elif run in cli.FIGURES:
        cmd_figure(run, cfg, out_dir, 1, False)
    elif run == "analyze":
        cli.cmd_analyze(cfg, out_dir)
    else:
        cli.cmd_decorrelate(cfg, out_dir, 1, False)


@pytest.mark.parametrize("run", list(cli.KEY_TABLE))
def test_key_table_lists_the_keys_each_run_reads(tmp_path, run):
    # a table that drifts from the code fails here: a key the code reads but
    # the table lacks would be refused, and one the table lists but the code
    # never reads would be accepted and ignored
    read = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if not name.startswith("__"):
                read.add(name)
            return super().__getattribute__(name)

    keys = cli.KEY_TABLE[run]
    _run(run, Recording(**{**keys, **{k: v for k, v in SMOKE.items() if k in keys}}),
         tmp_path)
    assert read == set(keys)


def test_key_types_agree_across_runs():
    # _TYPES takes each key's type from its defaults, so every run that
    # reads a key must default it to the same type
    for run, keys in cli.KEY_TABLE.items():
        for key, default in keys.items():
            assert type(default) is cli._TYPES[key], (run, key)
    assert len(cli._TYPES) == 17


@pytest.mark.parametrize("argv,unread", [
    pytest.param(["simulate", "--set", "model=sde"],
                 ["spectrum_path=/nonexistent.txt", "gamma_21=3"], id="simulate-sde"),
    pytest.param(["simulate", "--set", "model=effective-bloch"], ["n_traj=7"],
                 id="simulate-effective-bloch"),
    pytest.param(["simulate", "--set", "model=ere"], ["n_traj=7"], id="simulate-ere"),
    pytest.param(["simulate", "--set", "model=modified-ere"],
                 ["spectrum_path=/nonexistent.txt"], id="simulate-modified-ere"),
    pytest.param(["simulate", "--set", "model=memory-kernel"], ["gamma_12=0.5"],
                 id="simulate-memory-kernel"),
    pytest.param(["simulate", "--set", "model=generalized-ere"], ["t_obs=3"],
                 id="simulate-generalized-ere"),
    # a key set to its default value is set all the same
    pytest.param(["simulate", "--set", "model=ere"], ["q0=0"], id="simulate-ere-at-default"),
    pytest.param(["figure", "fig1a"], ["delta=3", "out=x.csv"], id="figure-fig1a"),
    pytest.param(["figure", "fig2a"],
                 ["model=ere", "spectrum_path=/nonexistent.txt", "omega0=9"],
                 id="figure-fig2a"),
    pytest.param(["figure", "fig2b"], ["n_traj=200"], id="figure-fig2b"),
    pytest.param(["figure", "fig3b"], ["n0=0"], id="figure-fig3b"),
    pytest.param(["analyze"], ["n_traj=5", "model=sde"], id="analyze"),
    pytest.param(["analyze"], ["seed=4", "dt=0.01"], id="analyze-seed"),
    pytest.param(["decorrelate", "--set", "n_traj=10", "--set", "t_obs=0.01"],
                 ["gamma_21=3", "model=ere"], id="decorrelate"),
])
def test_runs_refuse_keys_they_do_not_read(tmp_path, capsys, argv, unread):
    # each of these ran and ignored the key: sde never opened the table nor
    # applied the collision rate, ere ran no ensemble of 7, and fig2a wrote
    # its canned omega0 = 2; the refusal comes before the output directory
    out = tmp_path / "out"
    small = ["--set", "t_end=0.01"] if argv[0] in ("simulate", "figure") else []
    base = [*argv, *small, "--out", str(out)]
    rc = main([*base, *[arg for item in unread for arg in ("--set", item)]])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(item.split("=")[0] in err for item in unread), err
    assert not out.exists()
    assert main(base) == 0


@pytest.mark.parametrize("argv,solver", [
    (["simulate", "--set", "model=sde"], "run_ensemble"),
    (["simulate", "--set", "model=ere"], "kinetics.integrate_ere"),
    (["analyze"], "analysis.build_report"),
    (["decorrelate"], "decorrelation_residual"),
])
@pytest.mark.parametrize("name", ["missing/x.csv", "../x.csv", "/tmp/x.csv", "x/",
                                  "..", ".", ""])
def test_out_must_be_a_bare_file_name(tmp_path, capsys, monkeypatch, argv, solver, name):
    # sde ran its whole ensemble before the write failed on the missing
    # directory; now every such out is refused before any run
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    owner, _, attr = solver.rpartition(".")
    monkeypatch.setattr(getattr(cli, owner) if owner else cli, attr, refuse)
    out = tmp_path / "out"
    assert main([*argv, "--set", f"out={name}", "--out", str(out)]) == 2
    assert "bare file name" in capsys.readouterr().err
    assert not out.exists()


def test_file_and_seed_flag_keys_count_as_set(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("omega0 = 2\n")
    out = tmp_path / "out"
    assert main(["figure", "fig2a", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "omega0" in capsys.readouterr().err
    assert main(["analyze", "--seed", "4", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_parser_has_no_plot_or_threads(tmp_path):
    # analyze writes no plot and runs no ensemble; --plot was accepted and
    # did nothing
    for flag in (["--plot"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *flag, "--out", str(tmp_path)])
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_reproduce_figures_commands_resolve(tmp_path, monkeypatch):
    # the script's commands go through main up to the figure run, which is
    # stubbed out after resolution; --quick passes n_traj only to figures
    # that read it
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures",
        Path(__file__).parents[1] / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = {}

    def figure(name, cfg, *rest):
        seen[name] = cfg
        return []

    monkeypatch.setattr(cli, "cmd_figure", figure)
    for quick in ([], ["--quick"]):
        seen.clear()
        assert script.main([*quick, "--out", str(tmp_path)]) == 0
        assert tuple(seen) == cli.FIGURES
        for name, cfg in seen.items():
            want = cli.KEY_TABLE[name].get("n_traj")
            assert getattr(cfg, "n_traj", None) == (200 if quick and want else want)


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
    # one value or more of each formatting class, of both signs where it has
    # them: fixed notation at decimal exponent e >= 0 and at -4 <= e <= -1,
    # exponent notation below 1e-4 and from 1e17 up, the decades 1e-6, 1e-4,
    # 1e16 and 1e17 with both neighbouring doubles, and the special values
    edges = [x * s for x in (1e-6, 1e-4, 1e16, 1e17) for s in (1.0, -1.0)]
    n = np.array([
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300,
        2.2250738585072014e-308, 1.0 / 3.0, -2.0 / 3.0, 1.0, 7.0, 123.456,
        -98765.4321, 12345678901234567.0, 9.999999999999998e16, 0.1, -0.05,
        0.0123, 1.234e-4, 9.99e-5, -3e-7, 1.5e-200, 1.5e20, -1e300, 1.7e308,
        *edges, *np.nextafter(edges, np.inf), *np.nextafter(edges, -np.inf)])
    t = np.arange(len(n)) * 0.1
    q = n[::-1].copy()
    _write_trace(tmp_path / "x.csv", KineticTrace(t=t, n=n, q=q), "m%s", 7)
    want = [",".join([fmt(t[k]), fmt(n[k]), "0", "0", fmt(q[k]), "m%s", "7"])
            for k in range(len(t))]
    assert (tmp_path / "x.csv").read_text() == "\n".join([TRACE_HEADER, *want]) + "\n"


@pytest.mark.parametrize("model", [m for m in MODELS if m != "sde"])
def test_kinetic_csv_bytes_match_per_value_formatting(tmp_path, monkeypatch, model):
    # the constant columns (zero spread, a missing q) are text fields; the
    # bytes must be those of formatting every value with '%.17g'
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
    want = [",".join([fmt(t), fmt(n), fmt(0.0), fmt(0.0), fmt(qk), model,
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
    trace = run_ensemble(p, 32, 0.2, 1e-3, 11)
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


def test_simulate_memory_kernel_table_refusals(tmp_path, capsys):
    # a table with no rows is a config error; one whose kernel is gone within
    # the first step is a numerical failure, whatever its width
    run = ["simulate", "--set", "model=memory-kernel", "--set", "t_end=1",
           "--set", "dt=1e-3", "--out", str(tmp_path)]
    empty = tmp_path / "empty.dat"
    empty.write_text("# omega W\n")
    assert main([*run, "--set", f"spectrum_path={empty}"]) == 2
    assert "no rows" in capsys.readouterr().err
    for width in ("1e8", "1e10"):
        wide = tmp_path / f"wide{width}.dat"
        wide.write_text(f"-{width} 0\n0 1e-9\n{width} 0\n")
        assert main([*run, "--set", f"spectrum_path={wide}"]) == 3
        assert "under-resolves the kernel" in capsys.readouterr().err


def test_simulate_monochromatic_rules(tmp_path):
    # zero linewidth: the kernel needs the spectrum and must refuse, while
    # the rate equation keeps its finite cancelled pumping rate
    base = ["--set", "delta=0", "--set", "omega0=2", "--set", "t_end=1",
            "--out", str(tmp_path)]
    assert main(["simulate", "--set", "model=memory-kernel", *base]) == 2
    assert main(["simulate", "--set", "model=ere", *base]) == 0


def test_simulate_byte_identity_and_env_threads(tmp_path):
    args = ["simulate", "--set", "model=sde", "--set", "delta=5",
            "--set", "omega0=2", "--set", "t_end=0.1", "--set", "n_traj=16"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "c")]) == 0
    blob = (tmp_path / "a" / "sde_trace.csv").read_bytes()
    assert (tmp_path / "b" / "sde_trace.csv").read_bytes() == blob
    assert (tmp_path / "c" / "sde_trace.csv").read_bytes() == blob


def test_threads_validation(tmp_path):
    args = ["simulate", "--set", "model=ere", "--set", "delta=5",
            "--set", "omega0=1", "--set", "t_end=0.1", "--out", str(tmp_path)]
    assert main([*args, "--threads", "0"]) == 2


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
    want = [f"{fmt(a)},{fmt(b)},0,0,{fmt(c)},m,3" for a, b, c in zip(t, n, n[::-1])]
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
                             n_traj=4, coherence_mean=np.zeros(len(t), complex),
                             final_n=np.zeros(4))

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
    # the package runs on numpy alone: neither the CLI's cold start nor
    # zeta_numeric loads a scipy module (scipy.integrate was about 0.5 s of
    # import and scipy.fft the rest)
    src = str(Path(blochrate.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, blochrate.cli; "
             "from blochrate import TabulatedSpectrum, zeta_numeric; "
             "zeta_numeric(TabulatedSpectrum([-2.0, 0.0, 2.0], [0.0, 1.0, 0.0]), 0.5); "
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
