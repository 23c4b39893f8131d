"""Bitwise pin of the CLI's figure, analyze and decorrelate outputs, and of
the values each command hands its solver when no key is set.

``test_bitwise_engine.py`` and ``test_bitwise_kinetics.py`` pin the
``simulate`` CSVs; this file pins the rest of the command line, so a change
to how a command resolves its configuration must leave it passing:

- the md5 of every CSV that ``figure`` fig1a-fig3b, ``analyze`` and
  ``decorrelate`` write at smoke sizes, each setting only keys it reads;
- the arguments each simulate model, figure and command passes to
  ``run_ensemble``, the ``kinetics`` integrators, ``decorrelation_residual``
  or ``analysis.build_report`` when no key but the model is set. The solver
  is stubbed out, so nothing runs at these full sizes.

Regenerate the digests (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_bitwise_cli.py``; then update CSV_MD5
from its printout.
"""

import hashlib
import inspect
from pathlib import Path

import pytest

from blochrate import SystemParams, analysis, kinetics
from blochrate import cli
from blochrate.cli import main

RUNS = {
    "fig1a": ["figure", "fig1a", "--set", "n_traj=20", "--set", "t_end=0.05",
              "--seed", "3"],
    "fig1b": ["figure", "fig1b", "--set", "n_traj=20", "--set", "t_end=0.05",
              "--set", "dt=2e-3", "--seed", "4"],
    "fig2a": ["figure", "fig2a", "--set", "t_end=0.02", "--seed", "5"],
    "fig2b": ["figure", "fig2b", "--set", "t_end=0.02", "--set", "dt=2e-3"],
    "fig3a": ["figure", "fig3a", "--set", "n_traj=30", "--set", "t_end=0.1",
              "--seed", "6"],
    "fig3b": ["figure", "fig3b", "--set", "n_traj=25", "--set", "t_end=0.1",
              "--set", "dt=5e-3"],
    "analyze": ["analyze", "--set", "a=1.5", "--set", "delta=10", "--set", "omega0=2",
                "--set", "gamma_dc=0.25", "--set", "out=an.csv"],
    "decorrelate": ["decorrelate", "--set", "a=1", "--set", "delta=5",
                    "--set", "omega0=2", "--set", "gamma_dc=0.5", "--set", "n_traj=30",
                    "--set", "t_obs=0.05", "--set", "dt=1e-3", "--set", "n_tprime=6",
                    "--set", "out=d.csv", "--seed", "9"],
}
CSV_MD5 = {
    "analyze": "4ec2cf25fccabcae4a61d967990e1f0e",
    "decorrelate": "c30ec63847cb5f6a51e7ed8fc0a5ca2f",
    "fig1a": "a1dc8f4014e73a28e11ee4419b0e75ee",
    "fig1b": "577d10f91fed6d003bb50a1bf71dd2cc",
    "fig2a": "bb7b829c66e1978b2eeaae705a411615",
    "fig2b": "7746122757b10c1ff08f8046686edde4",
    "fig3a": "5c4f9fd2a86496a496fc11bf9a1b8ac3",
    "fig3b": "4dd147e37bc234abf928d466c6b6d74d",
}

RATES = SystemParams(a=1.0, delta=0.0, omega0=0.0, gamma_dc=0.0)
# (solver, its arguments) that each run starts with at its defaults; the
# figures' rates are their canned sets, so only their sizes are listed
DEFAULTS = {
    "sde": ("run_ensemble", dict(params=RATES, n_traj=1000, t_end=6.0, dt=1e-3,
                                 seed=12345, n0=-1.0)),
    "effective-bloch": ("integrate_effective_bloch",
                        dict(params=RATES, t_end=6.0, dt=1e-3, n0=-1.0, q0=0.0)),
    "ere": ("integrate_ere", dict(params=RATES, t_end=6.0, dt=1e-3, n0=-1.0)),
    "modified-ere": ("integrate_modified_ere",
                     dict(params=RATES, t_end=6.0, dt=1e-3, n0=-1.0)),
    "memory-kernel": ("integrate_memory_kernel",
                      dict(spectrum=None, params=RATES, t_end=6.0, dt=1e-3, n0=-1.0)),
    "generalized-ere": ("integrate_generalized_ere",
                        dict(params=RATES, coll=kinetics.CollisionParams(0.0, 0.0),
                             t_end=6.0, dt=1e-3, n0=-1.0)),
    "fig1a": ("run_ensemble", dict(n_traj=10000, t_end=6.0, dt=1e-3, seed=12345)),
    "fig1b": ("run_ensemble", dict(n_traj=10000, t_end=6.0, dt=1e-3, seed=12345)),
    "fig2a": ("run_ensemble", dict(n_traj=1000, t_end=6.0, dt=1e-3, seed=12345)),
    "fig2b": ("run_ensemble", dict(n_traj=1000, t_end=6.0, dt=1e-3, seed=12345)),
    "fig3a": ("run_ensemble", dict(n_traj=10000, t_end=10.0, dt=2e-3, seed=12345)),
    "fig3b": ("run_ensemble", dict(n_traj=10000, t_end=15.0, dt=2e-3, seed=12345)),
    "analyze": ("build_report", dict(params=RATES)),
    # t_prime: 21 points, every 100th step of the 2000 to t = 2
    "decorrelate": ("decorrelation_residual",
                    dict(params=RATES, n_traj=10000, t=2.0, n_tprime=21,
                         t_prime_last=2.0, seed=12345, dt=1e-3)),
}


def csv_md5(out_dir: Path, run: str) -> str:
    """One md5 over the name and bytes of every CSV the run writes."""
    assert main([*RUNS[run], "--out", str(out_dir)]) == 0
    digest = hashlib.md5()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_command_csv_md5(tmp_path, run):
    assert csv_md5(tmp_path, run) == CSV_MD5[run]


class _Stop(BaseException):
    """Raised by a stubbed solver once it has its arguments; main does not catch it."""


def _argv(run: str) -> list[str]:
    if run in ("analyze", "decorrelate"):
        return [run]
    if run.startswith("fig"):
        return ["figure", run]
    return ["simulate", "--set", f"model={run}"]


@pytest.mark.parametrize("run", sorted(DEFAULTS))
def test_default_solver_arguments(tmp_path, monkeypatch, run):
    seen = {}

    def stub(owner, name):
        real = getattr(owner, name)

        def capture(*args, **kwargs):
            seen[name] = inspect.signature(real).bind(*args, **kwargs).arguments
            raise _Stop
        monkeypatch.setattr(owner, name, capture)

    for name in ("run_ensemble", "decorrelation_residual"):
        stub(cli, name)
    for name in ("integrate_effective_bloch", "integrate_ere", "integrate_modified_ere",
                 "integrate_memory_kernel", "integrate_generalized_ere"):
        stub(kinetics, name)
    stub(analysis, "build_report")

    with pytest.raises(_Stop):
        main([*_argv(run), "--out", str(tmp_path)])
    solver, want = DEFAULTS[run]
    (called,) = seen
    assert called == solver
    got = dict(seen[solver])
    if solver == "decorrelation_residual":
        t_prime = got.pop("t_prime_grid")
        got.update(n_tprime=len(t_prime), t_prime_last=float(t_prime[-1]))
    assert {key: got.get(key) for key in want} == want
    assert not list(tmp_path.iterdir())


if __name__ == "__main__":
    import tempfile

    digests = {}
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[run] = csv_md5(Path(tmp), run)
    print("CSV_MD5 =", digests)
