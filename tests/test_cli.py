import math
import tracemalloc

import numpy as np
import pytest

from blochrate import (KineticTrace, SystemParams, integrate_effective_bloch, integrate_ere,
                       run_ensemble)
from blochrate.cli import (
    TRACE_HEADER,
    ConfigError,
    RunConfig,
    _fmt,
    _write_trace,
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


def test_simulate_step_guard_maps_to_exit_3(tmp_path):
    rc = main(["simulate", "--set", "model=effective-bloch",
               "--set", "delta=100", "--set", "omega0=2",
               "--set", "t_end=1", "--set", "dt=0.05", "--out", str(tmp_path)])
    assert rc == 3
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
