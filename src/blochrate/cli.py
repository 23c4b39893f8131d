"""Command-line front end.

    blochrate simulate    one model, one CSV trace
    blochrate figure      canned parameter sets, one CSV per curve
    blochrate analyze     derived quantities and regime verdicts
    blochrate decorrelate two-time factorization residual

Configuration is a flat `key = value` file ('#' comments, lowercase snake
case keys, unknown keys rejected); `--set key=value` overrides individual
entries. Every command is deterministic given its configuration. Output files
are written atomically. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, figsvg, kinetics
from .fieldsim import (EnsembleTrace, IntegratorError, decorrelation_residual,
                       run_ensemble)
from .params import CoherentLimitError, SystemParams, check_seed, grid_steps
from .spectrum import SpectrumSupportError, load_tabulated

ENV_THREADS = "BLOCHRATE_THREADS"
TRACE_HEADER = "t,n_mean,n_std,n_stderr,q_mean,model,seed"
FIG3_HEADER = "n_traj,n_mean,n_std,n_stderr,model,seed"
DECORR_HEADER = ("t,t_prime,k_mean,k_stderr,c_mean,c_stderr,"
                 "n_mean,n_stderr,residual,residual_stderr,low_statistics")

# the config keys `simulate` reads for each model; any other key must keep
# its default, so a key the chosen model would ignore is refused before the run
_RUN_KEYS = frozenset({"model", "a", "delta", "omega0", "gamma_dc", "n0",
                       "t_end", "dt", "seed", "out"})
_MODEL_KEYS = {
    "sde": _RUN_KEYS | {"n_traj"},
    # q0 starts effective-bloch only: the ensemble starts from sigma0 = 0,
    # and the rate models carry no q
    "effective-bloch": _RUN_KEYS | {"q0"},
    "ere": _RUN_KEYS,
    "modified-ere": _RUN_KEYS,
    "memory-kernel": _RUN_KEYS | {"spectrum_path"},
    "generalized-ere": _RUN_KEYS | {"gamma_21", "gamma_12"},
}
MODELS = tuple(_MODEL_KEYS)
FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b")


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, missing requirement."""


@dataclass
class RunConfig:
    """Flat bag of every recognized key. None means "not set"."""

    model: str | None = None
    a: float = 1.0
    delta: float = 0.0
    omega0: float = 0.0
    gamma_dc: float = 0.0
    gamma_21: float = 0.0
    gamma_12: float = 0.0
    n0: float = -1.0
    q0: float = 0.0
    t_end: float | None = None
    dt: float | None = None
    n_traj: int | None = None
    seed: int = 12345
    t_obs: float = 2.0
    n_tprime: int = 21
    out: str | None = None
    spectrum_path: str | None = None


_FLOAT_KEYS = {"a", "delta", "omega0", "gamma_dc", "gamma_21", "gamma_12",
               "n0", "q0", "t_end", "dt", "t_obs"}
_INT_KEYS = {"n_traj", "seed", "n_tprime"}
_STR_KEYS = {"model", "out", "spectrum_path"}


def _apply_key(cfg: RunConfig, key: str, value: str, where: str) -> None:
    if key in _FLOAT_KEYS:
        try:
            setattr(cfg, key, float(value))
        except ValueError:
            raise ConfigError(f"{where}: {key} needs a number, got {value!r}") from None
    elif key in _INT_KEYS:
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} needs an integer, got {value!r}") from None
        if key == "seed":
            try:
                parsed = check_seed(parsed)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        setattr(cfg, key, parsed)
    elif key in _STR_KEYS:
        setattr(cfg, key, value)
    else:
        raise ConfigError(f"{where}: unknown key {key!r}")


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


# ----------------------------------------------------------------------
# output plumbing

def _fmt(x: float) -> str:
    return f"{x:.17g}"


_BLOCK_ROWS = 4096   # rows formatted per block: bounds a CSV's text in memory


def _atomic_write(path: Path, parts) -> None:
    """Write the strings of ``parts`` in turn to a temp file, then move it onto ``path``."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", newline="\n") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)     # a failed write leaves neither file
        raise


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, (text,))


def _csv_blocks(header: str, row: str, columns):
    """The header line, then one %-formatted block of _BLOCK_ROWS rows at a time.

    ``row`` is a %-template with one field per column; a block applies the
    template repeated once per row to the block's values flattened row-major,
    so only one block of text and values is ever held. A column is only
    read by slices (the first also by length), so it may compute each slice.
    """
    yield header + "\n"
    row += "\n"
    full = row * _BLOCK_ROWS
    size = len(columns[0])
    block = np.empty((min(_BLOCK_ROWS, size), len(columns)))
    for lo in range(0, size, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, size - lo)
        for j, column in enumerate(columns):
            block[:m, j] = column[lo:lo + m]
        template = full if m == _BLOCK_ROWS else row * m
        yield template % tuple(block[:m].ravel().tolist())


def _write_csv(path: Path, header: str, row: str, columns) -> None:
    """Stream a CSV with one ``row``-template line per index of ``columns``."""
    _atomic_write(path, _csv_blocks(header, row, columns))


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
    # "%.17g" formats a float exactly as _fmt does, and a constant column is
    # written into the template as _fmt writes it (_fmt(0.0) == "0",
    # _fmt(nan) == "nan")
    if isinstance(run, EnsembleTrace):
        columns = [run.t, run.n_mean, _Sqrt(run.n_var), run.n_stderr]
        fields = ["%.17g"] * 4
    else:
        columns, fields, q = [run.t, run.n], ["%.17g", "%.17g", "0", "0"], run.q
    if q is None:
        fields.append("nan")
    else:
        columns.append(q)
        fields.append("%.17g")
    row = ",".join(fields) + "," + f"{model},{seed}".replace("%", "%%")
    _write_csv(path, TRACE_HEADER, row, columns)
    return path


# ----------------------------------------------------------------------
# simulate

def _require(cfg: RunConfig, key: str, default):
    value = getattr(cfg, key)
    return default if value is None else value


def _system_params(cfg: RunConfig) -> SystemParams:
    return SystemParams(a=cfg.a, delta=cfg.delta, omega0=cfg.omega0,
                        gamma_dc=cfg.gamma_dc)


def _q_column(params, trace):
    """The trace CSV's q column from an ensemble's coherence channel."""
    return (-(params.delta + 2.0 * params.gamma_perp) / params.omega0
            * trace.coherence_mean.imag) if params.omega0 > 0 else None


def _sde_trace(params, n_traj, t_end, dt, seed, threads, n0=-1.0):
    """Run the ensemble and map it onto the trace-CSV columns."""
    trace = run_ensemble(params, n_traj, t_end, dt, seed, n0=n0,
                         threads=threads, with_coherence=True)
    return trace, _q_column(params, trace)


def cmd_simulate(cfg: RunConfig, out_dir: Path, threads: int,
                 plot: bool) -> Path:
    model = cfg.model
    if model is None:
        raise ConfigError("simulate needs a model (set model = one of: "
                          + ", ".join(MODELS) + ")")
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from: " + ", ".join(MODELS))
    unread = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)
              if f.name not in _MODEL_KEYS[model] and getattr(cfg, f.name) != f.default]
    if unread:
        raise ConfigError(f"model {model} does not read " + ", ".join(unread)
                          + "; leave these keys unset")
    t_end = _require(cfg, "t_end", 6.0)
    dt = _require(cfg, "dt", 1e-3)
    seed = cfg.seed
    params = _system_params(cfg)

    if model == "sde":
        n_traj = _require(cfg, "n_traj", 1000)
        run, q = _sde_trace(params, n_traj, t_end, dt, seed, threads, n0=cfg.n0)
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

    out = _write_trace(out_dir / (cfg.out or f"{model}_trace.csv"), run, model,
                       seed, q)
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
    t_end = _require(cfg, "t_end", 6.0)
    dt = _require(cfg, "dt", 1e-3)
    n_traj = _require(cfg, "n_traj", 10000)
    seed = cfg.seed
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
    t_end = _require(cfg, "t_end", 6.0)
    dt = _require(cfg, "dt", 1e-3)
    seed = cfg.seed
    delta, omega0 = (10.0, 2.0) if panel == "a" else (1.0, 6.0)
    params = SystemParams(a=1.0, delta=delta, omega0=omega0)
    written, series = [], []
    # the smaller ensembles are prefixes of the 1000-trajectory run
    full = run_ensemble(params, 1000, t_end, dt, seed, threads=threads,
                        with_coherence=True, prefixes=(1, 10, 100))
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
    delta, omega0, t_end_def = ((10.0, 2.0, 10.0) if panel == "a"
                                else (1.0, 6.0, 15.0))
    t_end = _require(cfg, "t_end", t_end_def)
    dt = _require(cfg, "dt", 2e-3)
    n_traj = _require(cfg, "n_traj", 10000)
    if n_traj < 2:
        raise ConfigError(f"fig3 needs n_traj >= 2 for a sample std, got {n_traj}")
    seed = cfg.seed
    params = SystemParams(a=1.0, delta=delta, omega0=omega0)
    trace = run_ensemble(params, n_traj, t_end, dt, seed, threads=threads,
                         keep_final=True)
    subsets = _fig3_subsets(n_traj)
    means, stds, stderrs = [], [], []
    for m in subsets:
        head = trace.final_n[:m]       # prefix = the exact m-trajectory ensemble
        means.append(float(np.mean(head)))
        stds.append(float(np.std(head, ddof=1)))
        stderrs.append(stds[-1] / math.sqrt(m))
    path = out_dir / f"fig3{panel}.csv"
    _write_csv(path, FIG3_HEADER, f"%d,%.17g,%.17g,%.17g,sde,{seed}",
               [subsets, means, stds, stderrs])
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
    out = out_dir / (cfg.out or "analysis.csv")
    _atomic_write(out, (report.csv_header() + "\n", report.csv_row() + "\n"))
    return out


def cmd_decorrelate(cfg: RunConfig, out_dir: Path, threads: int,
                    plot: bool) -> Path:
    params = _system_params(cfg)
    dt = _require(cfg, "dt", 1e-3)
    n_traj = _require(cfg, "n_traj", 10000)
    if cfg.n_tprime < 2:
        raise ConfigError("n_tprime must be >= 2")
    total = grid_steps(cfg.t_obs, dt, "t_obs", positive=True)
    # past total + 1 points the spacing is below one step and rounding already
    # hits every grid index, so the clamp bounds memory without changing idx
    idx = np.unique(np.round(np.linspace(0, total, min(cfg.n_tprime, total + 1)))
                    .astype(int))
    t_prime = idx * dt

    result = decorrelation_residual(params, n_traj, cfg.t_obs, t_prime,
                                    cfg.seed, dt=dt, threads=threads)
    if result.low_statistics:
        sys.stderr.write(f"warning: only {result.n_traj} trajectories; "
                         "residual errors are unreliable\n")
    # the header's inner names are the result's per-t' fields, in column order
    columns = [getattr(result, name) for name in DECORR_HEADER.split(",")[1:-1]]
    low = "1" if result.low_statistics else "0"
    row = ",".join([_fmt(result.t), *["%.17g"] * len(columns), low])
    out = out_dir / (cfg.out or "decorrelation.csv")
    _write_csv(out, DECORR_HEADER, row, columns)
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

    def common(p, with_threads=True):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--set", dest="overrides", action="append",
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, metavar="U64")
        if with_threads:
            p.add_argument("--threads", type=int, default=None, metavar="N")
        p.add_argument("--plot", action="store_true",
                       help="also write an SVG line plot")

    common(sub.add_parser("simulate", help="integrate one model, write a CSV trace"))
    fig = sub.add_parser("figure", help="reproduce a canned figure data set")
    fig.add_argument("name", choices=FIGURES)
    common(fig)
    common(sub.add_parser("analyze", help="derived quantities and regime flags"),
           with_threads=False)
    common(sub.add_parser("decorrelate",
                          help="two-time factorization residual and verdict"))
    return parser


def _resolve_threads(value) -> int:
    if value is None:
        value = os.environ.get(ENV_THREADS, "1")
    try:
        threads = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"threads must be an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return threads


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        threads = _resolve_threads(getattr(args, "threads", None))

        if args.command == "simulate":
            cmd_simulate(cfg, out_dir, threads, args.plot)
        elif args.command == "figure":
            cmd_figure(args.name, cfg, out_dir, threads, args.plot)
        elif args.command == "analyze":
            cmd_analyze(cfg, out_dir)
        else:
            cmd_decorrelate(cfg, out_dir, threads, args.plot)
        return 0
    except (kinetics.StepSizeError, IntegratorError, analysis.QuadratureError,
            SpectrumSupportError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ConfigError, CoherentLimitError, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:            # pragma: no cover - safety net
        sys.stderr.write(f"internal failure: {exc}\n")
        return 3
