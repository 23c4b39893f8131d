"""Command-line front end.

    blochrate simulate    one model, one CSV trace
    blochrate figure      canned parameter sets, one CSV per curve
    blochrate analyze     derived quantities and regime verdicts
    blochrate decorrelate two-time factorization residual

Configuration is a flat `key = value` file ('#' comments, lowercase snake
case keys, unknown keys rejected); `--set key=value` overrides individual
entries. KEY_TABLE lists, for each run (a simulate model, a figure, analyze
or decorrelate), the keys it reads and their defaults. A key set in the file,
by `--set` or by `--seed` that the run does not read is refused before the
run, whatever its value; the run's config is its defaults overlaid by the keys
that were set. Every command is deterministic given its configuration. Output
files are written atomically into --out; the ``out`` key is a bare file name,
refused before the run otherwise. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import _csvrows, analysis, figsvg, kinetics
from .fieldsim import (EnsembleTrace, IntegratorError, decorrelation_residual,
                       run_ensemble)
from .params import CoherentLimitError, SystemParams, check_seed, grid_steps
from .spectrum import SpectrumSupportError, load_tabulated

TRACE_HEADER = "t,n_mean,n_std,n_stderr,q_mean,model,seed"
FIG3_HEADER = "n_traj,n_mean,n_std,n_stderr,model,seed"
DECORR_HEADER = ("t,t_prime,k_mean,k_stderr,c_mean,c_stderr,"
                 "n_mean,n_stderr,residual,residual_stderr,low_statistics")


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, missing requirement."""


class RunConfig(SimpleNamespace):
    """Config keys as attributes: those that were set, or a run's resolved config."""


# The key table: each run, named by its simulate model, figure or command,
# maps the keys it reads to their defaults. A run refuses any other key that
# is set (see _resolve).
_RATES = {"a": 1.0, "delta": 0.0, "omega0": 0.0, "gamma_dc": 0.0}
_SEED = {"seed": 12345}


def _simulate(model: str, **keys) -> dict:
    """The keys a simulate model reads: those of every model, then its own."""
    return {"model": model, **_RATES, "n0": -1.0, "t_end": 6.0, "dt": 1e-3, **_SEED,
            "out": f"{model}_trace.csv", **keys}


_FIG1 = {"t_end": 6.0, "dt": 1e-3, "n_traj": 10000, **_SEED}
_FIG2 = {"t_end": 6.0, "dt": 1e-3, **_SEED}
KEY_TABLE = {
    "sde": _simulate("sde", n_traj=1000),
    # q0 starts effective-bloch only: the ensemble starts from sigma0 = 0,
    # and the rate models carry no q
    "effective-bloch": _simulate("effective-bloch", q0=0.0),
    "ere": _simulate("ere"),
    "modified-ere": _simulate("modified-ere"),
    "memory-kernel": _simulate("memory-kernel", spectrum_path=""),   # "": the Lorentzian
    "generalized-ere": _simulate("generalized-ere", gamma_21=0.0, gamma_12=0.0),
    "fig1a": _FIG1,
    "fig1b": _FIG1,
    "fig2a": _FIG2,
    "fig2b": _FIG2,
    "fig3a": {"t_end": 10.0, "dt": 2e-3, "n_traj": 10000, **_SEED},
    "fig3b": {"t_end": 15.0, "dt": 2e-3, "n_traj": 10000, **_SEED},
    "analyze": {**_RATES, "out": "analysis.csv"},
    "decorrelate": {**_RATES, "dt": 1e-3, "n_traj": 10000, **_SEED, "t_obs": 2.0,
                    "n_tprime": 21, "out": "decorrelation.csv"},
}
# a key's type is its default's, the same in every run that reads it
_TYPES = {key: type(default) for keys in KEY_TABLE.values()
          for key, default in keys.items()}
MODELS = tuple(run for run, keys in KEY_TABLE.items() if "model" in keys)
FIGURES = tuple(run for run in KEY_TABLE if run.startswith("fig"))


def _apply_key(cfg: RunConfig, key: str, value: str, where: str) -> None:
    kind = _TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        parsed = kind(value)
    except ValueError:
        need = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {key} needs {need}, got {value!r}") from None
    if key == "seed":
        try:
            parsed = check_seed(parsed)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    setattr(cfg, key, parsed)


def parse_config_text(text: str, source: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        _apply_key(cfg, key, value, f"{source}:{lineno}")
    return cfg


def load_config(path: str | None, overrides) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config_text(p.read_text(), str(p), cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        _apply_key(cfg, key, value, f"--set {key}")
    return cfg


def _resolve(run: str, cfg: RunConfig) -> RunConfig:
    """``run``'s config: its KEY_TABLE defaults overlaid by the keys set in ``cfg``.

    A key set in ``cfg`` that ``run`` does not read is refused, whatever its
    value, so that no output claims a value it was not run at.
    """
    defaults = KEY_TABLE[run]
    unread = [f"{key}={value!r}" for key, value in vars(cfg).items()
              if key not in defaults]
    if unread:
        raise ConfigError(f"{run} does not read " + ", ".join(unread)
                          + "; leave these keys unset")
    return RunConfig(**{**defaults, **vars(cfg)})


def _check_out_name(name: str) -> None:
    """Refuse an ``out`` key that is not a bare file name inside ``--out``."""
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"out must be a bare file name, written into --out; got {name!r}")


# ----------------------------------------------------------------------
# output plumbing

_BLOCK_ROWS = 4096   # rows formatted per block: bounds a CSV's text in memory


def _atomic_write(path: Path, parts) -> None:
    """Write the strings of ``parts`` in turn to a temp file, then move it onto ``path``."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.writelines(parts)        # drops each part before the next is made
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)     # a failed write leaves neither file
        raise


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, (text,))


def _csv_blocks(header: str, fields):
    """The header line, then the lines of ``fields`` (see ``_csvrows.blocks``).

    Only one block of _BLOCK_ROWS rows of text and values is ever held.
    """
    yield header + "\n"
    yield from _csvrows.blocks(fields, _BLOCK_ROWS)


def _write_csv(path: Path, header: str, fields) -> None:
    """Stream a CSV with one line per row of the columns in ``fields``."""
    _atomic_write(path, _csv_blocks(header, fields))


class _Sqrt:
    """The square root of an array, taken a slice at a time as _csv_blocks reads it."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, part):
        return np.sqrt(self.values[part])


def _write_trace(path: Path, run, model: str, seed: int, q=None) -> Path:
    """Write one TRACE_HEADER CSV from an EnsembleTrace or a KineticTrace.

    An ensemble passes its q column explicitly; a deterministic trace has
    zero spread and carries its own q. A missing q is written as NaN.
    """
    if isinstance(run, EnsembleTrace):
        fields = [run.t, run.n_mean, _Sqrt(run.n_var), run.n_stderr]
    else:
        fields, q = [run.t, run.n, "0", "0"], run.q
    _write_csv(path, TRACE_HEADER, [*fields, "nan" if q is None else q, model, str(seed)])
    return path


# ----------------------------------------------------------------------
# simulate

def _system_params(cfg: RunConfig) -> SystemParams:
    return SystemParams(a=cfg.a, delta=cfg.delta, omega0=cfg.omega0,
                        gamma_dc=cfg.gamma_dc)


def _q_column(params, trace):
    """The trace CSV's q column from an ensemble's coherence channel."""
    return (-(params.delta + 2.0 * params.gamma_perp) / params.omega0
            * trace.coherence_mean.imag) if params.omega0 > 0 else None


def _sde_trace(params, n_traj, t_end, dt, seed, threads, n0=-1.0):
    """Run the ensemble and map it onto the trace-CSV columns."""
    trace = run_ensemble(params, n_traj, t_end, dt, seed, n0=n0, threads=threads)
    return trace, _q_column(params, trace)


def cmd_simulate(cfg: RunConfig, out_dir: Path, threads: int,
                 plot: bool) -> Path:
    model, t_end, dt, seed = cfg.model, cfg.t_end, cfg.dt, cfg.seed
    params = _system_params(cfg)

    if model == "sde":
        run, q = _sde_trace(params, cfg.n_traj, t_end, dt, seed, threads, n0=cfg.n0)
        n = run.n_mean
    else:
        if model == "effective-bloch":
            run = kinetics.integrate_effective_bloch(params, t_end, dt,
                                                     n0=cfg.n0, q0=cfg.q0)
        elif model == "ere":
            run = kinetics.integrate_ere(params, t_end, dt, n0=cfg.n0)
        elif model == "modified-ere":
            run = kinetics.integrate_modified_ere(params, t_end, dt, n0=cfg.n0)
        elif model == "generalized-ere":
            coll = kinetics.CollisionParams(gamma_21=cfg.gamma_21,
                                            gamma_12=cfg.gamma_12)
            run = kinetics.integrate_generalized_ere(params, coll, t_end, dt,
                                                     n0=cfg.n0)
        else:
            spec = load_tabulated(cfg.spectrum_path) if cfg.spectrum_path else None
            run = kinetics.integrate_memory_kernel(spec, params, t_end, dt,
                                                   n0=cfg.n0)
        q, n = None, run.n

    out = _write_trace(out_dir / cfg.out, run, model, seed, q)
    if plot:
        svg = figsvg.render_line_plot(
            [figsvg.PlotSeries(model, run.t, n)],
            title=f"{model} trace", xlabel="t [1/A]", ylabel="mean inversion")
        atomic_write_text(out.with_suffix(".svg"), svg)
    return out


# ----------------------------------------------------------------------
# figures

def _fig1(out_dir, cfg, threads, panel: str):
    """Inversion vs time; panel a sweeps linewidth, panel b compares models."""
    t_end, dt, n_traj, seed = cfg.t_end, cfg.dt, cfg.n_traj, cfg.seed
    written = []
    series = []

    if panel == "a":
        omega0 = 4.0
        deltas = (1.0, 5.0, 25.0)
        for d in deltas:
            params = SystemParams(a=1.0, delta=d, omega0=omega0)
            trace, q = _sde_trace(params, n_traj, t_end, dt, seed, threads)
            written.append(_write_trace(out_dir / f"fig1a_sde_delta{d:g}.csv",
                                        trace, "sde", seed, q))
            series.append(figsvg.PlotSeries(f"sde delta={d:g}", trace.t, trace.n_mean))
            kin = kinetics.integrate_effective_bloch(params, t_end, dt)
            written.append(_write_trace(out_dir / f"fig1a_bloch_delta{d:g}.csv",
                                        kin, "effective-bloch", seed))
            series.append(figsvg.PlotSeries(f"bloch delta={d:g}", kin.t, kin.n,
                                            dash="6,3"))
        title = "inversion vs time, omega0=4"
    else:
        params = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
        trace, q = _sde_trace(params, n_traj, t_end, dt, seed, threads)
        written.append(_write_trace(out_dir / "fig1b_sde.csv", trace, "sde",
                                    seed, q))
        series.append(figsvg.PlotSeries("sde", trace.t, trace.n_mean))
        runs = [
            ("effective-bloch",
             kinetics.integrate_effective_bloch(params, t_end, dt)),
            ("ere", kinetics.integrate_ere(params, t_end, dt)),
            ("modified-ere", kinetics.integrate_modified_ere(params, t_end, dt)),
        ]
        for name, kin in runs:
            written.append(_write_trace(out_dir / f"fig1b_{name}.csv", kin,
                                        name, seed))
            series.append(figsvg.PlotSeries(name, kin.t, kin.n,
                                            dash=None if name == "effective-bloch" else "6,3"))
        title = "model hierarchy, omega0=sqrt(11), delta=5"
    return written, series, title, "t [1/A]", "mean inversion", False, False


def _fig2(out_dir, cfg, threads, panel: str):
    """Ensemble-size convergence of the SDE mean toward effective Bloch."""
    t_end, dt, seed = cfg.t_end, cfg.dt, cfg.seed
    delta, omega0 = (10.0, 2.0) if panel == "a" else (1.0, 6.0)
    params = SystemParams(a=1.0, delta=delta, omega0=omega0)
    written, series = [], []
    # the smaller ensembles are prefixes of the 1000-trajectory run
    full = run_ensemble(params, 1000, t_end, dt, seed, threads=threads,
                        prefixes=(1, 10, 100))
    for trace in (*full.prefix_traces, full):
        written.append(_write_trace(out_dir / f"fig2{panel}_n{trace.n_traj}.csv",
                                    trace, "sde", seed, _q_column(params, trace)))
        series.append(figsvg.PlotSeries(f"N={trace.n_traj}", trace.t, trace.n_mean))
    kin = kinetics.integrate_effective_bloch(params, t_end, dt)
    written.append(_write_trace(out_dir / f"fig2{panel}_bloch.csv", kin,
                                "effective-bloch", seed))
    series.append(figsvg.PlotSeries("effective-bloch", kin.t, kin.n, dash="6,3"))
    title = f"ensemble convergence, delta={delta:g}, omega0={omega0:g}"
    return written, series, title, "t [1/A]", "mean inversion", False, False


def _fig3_subsets(n_max: int):
    raw = [int(round(10.0 ** (k / 2.0))) for k in range(2, 2 * 10)]
    subset = sorted({m for m in raw if 10 <= m <= n_max} | {n_max})
    return subset


def _fig3(out_dir, cfg, threads, panel: str):
    """Steady-state estimate and its spread vs ensemble size."""
    delta, omega0 = (10.0, 2.0) if panel == "a" else (1.0, 6.0)
    n_traj, seed = cfg.n_traj, cfg.seed
    if n_traj < 2:
        raise ConfigError(f"fig3 needs n_traj >= 2 for a sample std, got {n_traj}")
    params = SystemParams(a=1.0, delta=delta, omega0=omega0)
    trace = run_ensemble(params, n_traj, cfg.t_end, cfg.dt, seed, threads=threads)
    subsets = _fig3_subsets(n_traj)
    means, stds, stderrs = [], [], []
    for m in subsets:
        head = trace.final_n[:m]       # prefix = the exact m-trajectory ensemble
        means.append(float(np.mean(head)))
        stds.append(float(np.std(head, ddof=1)))
        stderrs.append(stds[-1] / math.sqrt(m))
    path = out_dir / f"fig3{panel}.csv"
    _write_csv(path, FIG3_HEADER, [subsets, means, stds, stderrs, "sde", str(seed)])
    ns = np.array(subsets, dtype=float)
    series = [figsvg.PlotSeries("stderr of mean", ns, np.array(stderrs)),
              figsvg.PlotSeries("sample std", ns, np.array(stds), dash="6,3")]
    title = f"steady-state spread vs N, delta={delta:g}, omega0={omega0:g}"
    return [path], series, title, "N trajectories", "spread", True, True


def cmd_figure(name: str, cfg: RunConfig, out_dir: Path, threads: int,
               plot: bool):
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from: " + ", ".join(FIGURES))
    builder = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3}[name[:-1]]
    written, series, title, xlabel, ylabel, logx, logy = builder(
        out_dir, cfg, threads, name[-1])
    if plot:
        svg = figsvg.render_line_plot(series, title=title, xlabel=xlabel,
                                      ylabel=ylabel, logx=logx, logy=logy)
        svg_path = out_dir / f"{name}.svg"
        atomic_write_text(svg_path, svg)
        written.append(svg_path)
    return written


# ----------------------------------------------------------------------
# analyze / decorrelate

def cmd_analyze(cfg: RunConfig, out_dir: Path) -> Path:
    params = _system_params(cfg)
    report = analysis.build_report(params)
    sys.stdout.write(report.to_text())
    for flag in ("oscillation", "rate_eq_valid", "ere_regime", "coherent_limit"):
        verdict = "PASS" if getattr(report, flag) else "FAIL"
        sys.stdout.write(f"regime {flag}: {verdict}\n")
    out = out_dir / cfg.out
    _atomic_write(out, (report.csv_header() + "\n", report.csv_row() + "\n"))
    return out


def cmd_decorrelate(cfg: RunConfig, out_dir: Path, threads: int,
                    plot: bool) -> Path:
    params = _system_params(cfg)
    dt = cfg.dt
    if cfg.n_tprime < 2:
        raise ConfigError("n_tprime must be >= 2")
    total = grid_steps(cfg.t_obs, dt, "t_obs", positive=True)
    # past total + 1 points the spacing is below one step and rounding already
    # hits every grid index, so the clamp caps the t' count at the grid's steps
    # + 1 without changing idx; a running block still keeps 16 B per
    # trajectory and t' point (n and phi) up to that cap
    idx = np.unique(np.round(np.linspace(0, total, min(cfg.n_tprime, total + 1)))
                    .astype(int))
    t_prime = idx * dt

    result = decorrelation_residual(params, cfg.n_traj, cfg.t_obs, t_prime,
                                    cfg.seed, dt=dt, threads=threads)
    if result.low_statistics:
        sys.stderr.write(f"warning: only {result.n_traj} trajectories; "
                         "residual errors are unreliable\n")
    # the header's inner names are the result's per-t' fields, in column order
    columns = [getattr(result, name) for name in DECORR_HEADER.split(",")[1:-1]]
    low = "1" if result.low_statistics else "0"
    out = out_dir / cfg.out
    _write_csv(out, DECORR_HEADER, [f"{result.t:.17g}", *columns, low])
    verdict = "HOLDS" if result.holds_3sigma else "VIOLATED"
    sys.stdout.write(f"DECORRELATION {verdict} at 3σ "
                     f"(n_traj={result.n_traj}, t={result.t:g})\n")
    if plot:
        svg = figsvg.render_line_plot(
            [figsvg.PlotSeries("residual", result.t_prime, result.residual),
             figsvg.PlotSeries("+3 stderr", result.t_prime,
                               3.0 * result.residual_stderr, dash="4,3"),
             figsvg.PlotSeries("-3 stderr", result.t_prime,
                               -3.0 * result.residual_stderr, dash="4,3")],
            title=f"decorrelation residual at t={result.t:g}",
            xlabel="t' [1/A]", ylabel="residual")
        atomic_write_text(out.with_suffix(".svg"), svg)
    return out


# ----------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochrate",
        description="Two-level atoms in broadband light: simulation and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads_and_plot=True):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--set", dest="overrides", action="append",
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, metavar="U64")
        if threads_and_plot:
            p.add_argument("--threads", type=int, default=1, metavar="N")
            p.add_argument("--plot", action="store_true",
                           help="also write an SVG line plot")

    common(sub.add_parser("simulate", help="integrate one model, write a CSV trace"))
    fig = sub.add_parser("figure", help="reproduce a canned figure data set")
    fig.add_argument("name", choices=FIGURES)
    common(fig)
    common(sub.add_parser("analyze", help="derived quantities and regime flags"),
           threads_and_plot=False)
    common(sub.add_parser("decorrelate",
                          help="two-time factorization residual and verdict"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        if args.command == "simulate":
            run = getattr(cfg, "model", None)
            if run not in MODELS:
                raise ConfigError("simulate needs model = one of: " + ", ".join(MODELS)
                                  + ("" if run is None else f"; got {run!r}"))
        else:
            run = getattr(args, "name", args.command)     # a figure's run is its name
        cfg = _resolve(run, cfg)
        if hasattr(cfg, "out"):         # a figure names its own files
            _check_out_name(cfg.out)
        threads = getattr(args, "threads", 1)      # analyze takes no --threads
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "simulate":
            cmd_simulate(cfg, out_dir, threads, args.plot)
        elif args.command == "figure":
            cmd_figure(args.name, cfg, out_dir, threads, args.plot)
        elif args.command == "analyze":
            cmd_analyze(cfg, out_dir)
        else:
            cmd_decorrelate(cfg, out_dir, threads, args.plot)
        return 0
    except (kinetics.StepSizeError, IntegratorError, SpectrumSupportError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ConfigError, CoherentLimitError, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:            # pragma: no cover - safety net
        sys.stderr.write(f"internal failure: {exc}\n")
        return 3
