"""The four benchmark workloads: their operations, sizes and output checks.

Every workload is a list of operations that drive blochrate the way users do:
CLI commands through ``blochrate.cli.main(argv)`` in-process, and the
field-statistics flow through the public library functions. An operation
returns what its check needs; checks run outside the timed region and raise
``CheckFailed`` when an output is wrong.

Inputs come from the benchmark seed: it is the seed the program draws its
noise from, and it jitters the nodes of the tabulated spectrum. The
statistical checks therefore have to hold for any seed, so they use family-wise
bounds (5 sigma over thousands of correlated points) where the acceptance tests,
which pin one seed, use 3 sigma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import trapezoid

from blochrate import cli, fieldsim, kinetics, spectrum
from blochrate.params import SystemParams

WORKLOADS = ("ensemble-wide", "ensemble-narrow", "field-stats", "memory-kernel")

# A seed gives a false alarm on a point with probability 5.7e-7 at 5 sigma, so
# a correct program fails none of the checks below on any practical seed.
SIGMAS = 5.0
N_FLOOR = 0.01          # criterion 1's absolute allowance on the mean inversion


class CheckFailed(AssertionError):
    """An operation finished but its output is wrong."""


@dataclass
class Op:
    """One user-visible operation. ``run(threads)`` is timed; ``check`` is not."""

    name: str
    run: Callable[[int], object]
    check: Callable[[object], None]
    traj_steps: int
    threaded: bool = False      # has a --threads argument and a CSV to compare


@dataclass
class Workload:
    ops: list[Op]
    threads: int                # thread count of the timed passes

    @property
    def traj_steps(self) -> int:
        return sum(op.traj_steps for op in self.ops)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"blochrate {' '.join(argv[:2])} exited with code {code}")


def _read_trace(path: Path, rows: int) -> np.ndarray:
    """Columns t, n_mean, n_std, n_stderr, q_mean of a trace CSV."""
    _require(path.is_file(), f"{path.name} was not written")
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(5), ndmin=2)
    _require(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, want {rows}")
    return data


@functools.cache
def _effective_bloch(params: SystemParams, t_end: float, dt: float) -> np.ndarray:
    return kinetics.integrate_effective_bloch(params, t_end, dt).n


def _within_stderr(name: str, n_mean, n_stderr, reference) -> None:
    allow = np.maximum(SIGMAS * n_stderr, N_FLOOR)
    worst = float(np.max(np.abs(n_mean - reference) / allow))
    _require(worst <= 1.0, f"{name}: mean is {worst:.3f} allowances from effective-bloch")


# ----------------------------------------------------------------------
# ensemble-wide: two full trajectory blocks, arithmetic- and noise-bound

def _ensemble_wide(scale: str, seed: int, workdir: Path) -> Workload:
    # two blocks of the package's 8192 trajectories at either scale, so
    # --threads 2 has two blocks to share
    n_traj, t_end, dt = (16384, 1.0, 1e-3) if scale == "full" else (8200, 0.02, 1e-3)
    params = SystemParams(a=1.0, delta=5.0, omega0=2.0)
    steps = int(round(t_end / dt))
    out = workdir / "wide"
    argv = ["simulate", "--set", "model=sde", "--set", "delta=5", "--set", "omega0=2",
            "--set", f"n_traj={n_traj}", "--set", f"t_end={t_end}", "--set", f"dt={dt}",
            "--seed", str(seed), "--out", str(out)]
    csv = out / "sde_trace.csv"

    def run(threads: int) -> Path:
        _cli([*argv, "--threads", str(threads)])
        return csv

    def check(path: Path) -> None:
        data = _read_trace(path, steps + 1)
        _within_stderr("sde_trace.csv", data[:, 1], data[:, 3],
                       _effective_bloch(params, t_end, dt))

    op = Op("simulate-sde", run, check, n_traj * steps, threaded=True)
    return Workload([op], threads=2)


# ----------------------------------------------------------------------
# ensemble-narrow: fig2a, ensembles of 1..1000 where per-step overhead rules

def _ensemble_narrow(scale: str, seed: int, workdir: Path) -> Workload:
    # fig2a's 6-unit horizon cut to 2, for more timed passes per run
    t_end, dt = (2.0, 1e-3) if scale == "full" else (0.05, 1e-3)
    params = SystemParams(a=1.0, delta=10.0, omega0=2.0)   # fig2a's parameters
    steps = int(round(t_end / dt))
    sizes = (1, 10, 100, 1000)
    out = workdir / "narrow"
    argv = ["figure", "fig2a", "--set", f"t_end={t_end}", "--set", f"dt={dt}",
            "--seed", str(seed), "--out", str(out)]

    def run(threads: int) -> Path:
        _cli([*argv, "--threads", str(threads)])
        return out / "fig2a_n1000.csv"

    def check(biggest: Path) -> None:
        traces = {n: _read_trace(out / f"fig2a_n{n}.csv", steps + 1) for n in sizes}
        bloch = _read_trace(out / "fig2a_bloch.csv", steps + 1)
        want = _effective_bloch(params, t_end, dt)
        _require(np.array_equal(bloch[:, 1], want),
                 "fig2a_bloch.csv differs from integrate_effective_bloch")
        _within_stderr("fig2a_n1000.csv", traces[1000][:, 1], traces[1000][:, 3], want)

    op = Op("figure-fig2a", run, check, sum(sizes) * steps, threaded=True)
    return Workload([op], threads=1)


# ----------------------------------------------------------------------
# field-stats: acceptance criterion 6, with half its autocorrelation streams

def _width_stderr(wk, width: float) -> float:
    """Standard error of a line's FWHM, from the batch standard errors of the
    estimate at its two half-maximum crossings and at its peak, which sets the
    half-maximum level. At criterion 6's sizes it is about 1.3% of the width,
    so criterion 6's 5% allowance is only 3-4 standard errors; on a fresh seed
    per run the check takes the larger of 5% and 5 standard errors.
    """
    slope = np.abs(np.gradient(wk.values, wk.omega))
    peak = wk.stderr[np.argmax(wk.values)]
    var = 0.0
    for crossing in (-0.5 * width, 0.5 * width):     # the line is centred on 0
        k = int(np.argmin(np.abs(wk.omega - crossing)))
        var += (wk.stderr[k] ** 2 + (0.5 * peak) ** 2) / slope[k] ** 2
    return math.sqrt(var)


def _field_stats(scale: str, seed: int, workdir: Path) -> Workload:
    # bias_warning's 1% threshold is about 5 noise standard deviations of the
    # truncation estimate at 4096 paths, but under 3.5 at 2048, where a few
    # seeds in a thousand raise it. That noise depends on paths x t_end, not on
    # dt, so the smoke size keeps the paths and coarsens dt.
    n_streams, n_paths, dt = (50_000, 4096, 0.01) if scale == "full" else (2_000, 4096, 0.04)
    delta, omega0 = 2.0, 2.0
    tau = np.linspace(0.0, 5.0, 41)[1:]          # tau*delta covers (0, 10]
    t_end, max_lag = 40.0, 12.0
    omega = np.linspace(-8.0, 8.0, 321)
    phases = {}

    def autocorrelation(threads: int):
        return fieldsim.phase_autocorrelation(delta, n_streams, tau, seed)

    def check_autocorrelation(est) -> None:
        want = np.exp(-0.5 * delta * tau)
        worst = max(np.max(np.abs(est.mean.real - want) / est.stderr_re),
                    np.max(np.abs(est.mean.imag) / est.stderr_im))
        _require(worst <= SIGMAS, f"autocorrelation is {worst:.2f} sigma off exp(-delta tau/2)")

    def simulate(threads: int):
        _, phi = fieldsim.simulate_phases(delta, n_paths, t_end, dt, seed)
        phases["phi"] = phi
        return phi

    def check_phases(phi) -> None:
        _require(phi.shape == (n_paths, int(round(t_end / dt)) + 1),
                 f"simulate_phases returned shape {phi.shape}")
        _require(bool(np.all(phi[:, 0] == 0.0)), "phases do not start at 0")

    def estimate(threads: int):
        phi = phases.pop("phi")     # dropped here so the next pass starts without it
        return spectrum.wk_estimate(phi, dt, omega0=omega0, omega_grid=omega,
                                    max_lag=max_lag)

    def check_estimate(wk) -> None:
        _require(not wk.bias_warning, f"bias_warning (truncation {wk.truncation_estimate:.3g})")
        width = spectrum.fwhm_of(wk.omega, wk.values)
        allow = max(0.05 * delta, SIGMAS * _width_stderr(wk, width))
        _require(abs(width - delta) <= allow, f"WK FWHM {width:.4f}, want {delta} +- {allow:.4f}")

    paths = n_paths * int(round(t_end / dt))
    return Workload([
        Op("phase_autocorrelation", autocorrelation, check_autocorrelation,
           n_streams * len(tau)),
        Op("simulate_phases", simulate, check_phases, paths),
        Op("wk_estimate", estimate, check_estimate, 0),
    ], threads=1)


# ----------------------------------------------------------------------
# memory-kernel: the O(N^2) history sum, and a tabulated spectrum's kernel

def lorentzian_table(peak: float, fwhm: float, seed: int):
    """The Lorentzian sampled on 1201 nodes: uniform to |omega| = 10, then geometric to 3e4.

    The seed jitters every interior node by up to a quarter of its spacing; the
    node count, and so the memory the kernel needs, does not change.
    """
    inner = np.linspace(0.0, 10.0, 401)
    outer = np.geomspace(10.0, 3e4, 201)[1:]
    half = np.concatenate([inner, outer])
    omega = np.concatenate([-half[:0:-1], half])
    gaps = np.diff(omega)
    jitter = np.random.default_rng(seed).uniform(-0.25, 0.25, len(omega) - 2)
    omega[1:-1] += jitter * np.minimum(gaps[:-1], gaps[1:])
    hw = 0.5 * fwhm
    return omega, peak * hw ** 2 / (omega ** 2 + hw ** 2)


def table_kernel_error(peak: float, fwhm: float, omega: np.ndarray, values: np.ndarray) -> float:
    """Bound on |I_table(tau) - I_lorentzian(tau)| for every tau.

    Both kernels are (1/pi) Int W cos(omega tau) domega, so their difference is
    at most (1/pi) Int |W_table - W| domega: the Lorentzian mass outside the
    table (its truncated tail) plus the L1 error of linear interpolation inside.
    """
    hw = 0.5 * fwhm
    tail = peak * hw * (math.pi - math.atan(omega[-1] / hw) + math.atan(omega[0] / hw))
    frac = np.linspace(0.0, 1.0, 33)
    x = omega[:-1, None] + frac * np.diff(omega)[:, None]
    linear = values[:-1, None] + frac * np.diff(values)[:, None]
    exact = peak * hw ** 2 / (x ** 2 + hw ** 2)
    interp = float(np.sum(trapezoid(np.abs(linear - exact), x, axis=1)))
    return (tail + interp) / math.pi


def memory_kernel_bound(params: SystemParams, kernel_error: float) -> float:
    """Bound on |n_table(t) - n_lorentzian(t)| from a kernel error bound.

    The difference d solves d' = -a d - 2 (K * d) + f with K(tau) the Lorentzian
    kernel c exp(-gamma_eff tau), c = omega0^2/2, and |f| <= 2 E / gamma_perp for
    E = ``kernel_error`` (|n| <= 1). So |d| <= ||r||_1 * 2 E / gamma_perp, where
    r(t) = exp(-alpha t)(cos(w t) + (gamma_eff - alpha)/w sin(w t)) is the
    resolvent, alpha = (a + gamma_eff)/2 and w^2 = a gamma_eff + 2c - alpha^2 > 0.
    """
    a, g_eff, c = params.a, params.gamma_eff, 0.5 * params.omega0 ** 2
    alpha = 0.5 * (a + g_eff)
    w = math.sqrt(a * g_eff + 2.0 * c - alpha ** 2)
    resolvent_l1 = math.hypot(1.0, (g_eff - alpha) / w) / alpha
    return resolvent_l1 * 2.0 * kernel_error / params.gamma_perp


def _memory_kernel(scale: str, seed: int, workdir: Path) -> Workload:
    t_lor, t_tab = (10.0, 10.0) if scale == "full" else (1.0, 1.0)
    dt_lor, dt_tab = 1e-4, 1e-3
    params = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))   # criterion 5
    peak = params.omega0 ** 2 / params.delta
    omega, values = lorentzian_table(peak, params.delta, seed)
    out = workdir / "memory"
    out.mkdir(parents=True, exist_ok=True)
    table = out / "lorentzian_table.txt"
    np.savetxt(table, np.column_stack([omega, values]), fmt="%.17g",
               header="omega W (Lorentzian, delta=5, omega0=sqrt(11))")
    bound = memory_kernel_bound(params, table_kernel_error(peak, params.delta, omega, values))
    base = ["simulate", "--set", "model=memory-kernel", "--set", "delta=5",
            "--set", f"omega0={params.omega0!r}", "--seed", str(seed), "--out", str(out)]

    def lorentzian(threads: int) -> Path:
        _cli([*base, "--set", f"t_end={t_lor}", "--set", f"dt={dt_lor}",
              "--set", "out=lorentzian.csv"])
        return out / "lorentzian.csv"

    def check_lorentzian(path: Path) -> None:
        n = _read_trace(path, int(round(t_lor / dt_lor)) + 1)[:, 1]
        worst = float(np.max(np.abs(n - _effective_bloch(params, t_lor, dt_lor))))
        _require(worst <= 1e-5, f"Lorentzian memory kernel is {worst:.3g} from effective-bloch")

    def tabulated(threads: int) -> Path:
        _cli([*base, "--set", f"t_end={t_tab}", "--set", f"dt={dt_tab}",
              "--set", f"spectrum_path={table}", "--set", "out=tabulated.csv"])
        return out / "tabulated.csv"

    closed_form = functools.cache(
        lambda: kinetics.integrate_memory_kernel(None, params, t_tab, dt_tab).n)

    def check_tabulated(path: Path) -> None:
        n = _read_trace(path, int(round(t_tab / dt_tab)) + 1)[:, 1]
        worst = float(np.max(np.abs(n - closed_form())))
        _require(worst <= bound, f"tabulated run is {worst:.3g} from the closed form, "
                                 f"bound {bound:.3g}")

    return Workload([
        Op("memory-kernel-lorentzian", lorentzian, check_lorentzian,
           int(round(t_lor / dt_lor))),
        Op("memory-kernel-tabulated", tabulated, check_tabulated,
           int(round(t_tab / dt_tab))),
    ], threads=1)


_BUILDERS = {"ensemble-wide": _ensemble_wide, "ensemble-narrow": _ensemble_narrow,
             "field-stats": _field_stats, "memory-kernel": _memory_kernel}


def build(name: str, scale: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](scale, seed, workdir)
