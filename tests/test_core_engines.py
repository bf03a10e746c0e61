"""The shared engine registry and its call sites.

``repro.core.engines.resolve_engine`` is the single place an engine
name is validated; every entry point that takes ``engine=`` must
reject an unknown name with the *same* ValueError, so an operator sees
one message whether the bad name arrived via the ensemble, a sweep,
a job spec, the CLI, the serve config, or the figure registry.
"""

import pytest

from repro.core import FirstPassageEnsemble, RouterTimingParameters
from repro.core.engines import ENGINES, resolve_engine
from repro.core.sweeps import time_to_synchronize
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import run_figure
from repro.parallel import SimulationJob
from repro.serve import ServeConfig

PARAMS = RouterTimingParameters(n_nodes=4, tp=20.0, tc=0.11, tr=0.1)
EXPECTED = "unknown engine 'warp'; known engines: des, cascade, batch"


def test_registry_contents():
    assert ENGINES == ("des", "cascade", "batch")
    for name in ENGINES:
        assert resolve_engine(name) == name


def test_resolve_engine_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        resolve_engine("warp")
    assert str(pytest.raises(ValueError, resolve_engine, "warp").value) == EXPECTED


def test_ensemble_uses_the_shared_error():
    with pytest.raises(ValueError) as err:
        FirstPassageEnsemble(
            params=PARAMS, horizon=100.0, seeds=(1,), engine="warp"
        )
    assert str(err.value) == EXPECTED


def test_sweeps_use_the_shared_error():
    with pytest.raises(ValueError) as err:
        time_to_synchronize(PARAMS, horizon=100.0, engine="warp")
    assert str(err.value) == EXPECTED


def test_simulation_job_uses_the_shared_error():
    with pytest.raises(ValueError) as err:
        SimulationJob.from_params(PARAMS, seed=1, horizon=100.0, engine="warp")
    assert str(err.value) == EXPECTED


def test_serve_config_uses_the_shared_error():
    with pytest.raises(ValueError) as err:
        ServeConfig(engine="warp")
    assert str(err.value) == EXPECTED


def test_run_figure_uses_the_shared_error():
    with pytest.raises(ValueError) as err:
        run_figure("fig10", fast=True, engine="warp")
    assert str(err.value) == EXPECTED


def test_cli_reports_the_shared_error(capsys):
    assert main(["fig10", "--engine", "warp"]) == 2
    assert EXPECTED in capsys.readouterr().err


def test_cli_accepts_every_engine_name(capsys):
    # Parse only, on a simulation-backed figure: an analytic one does
    # not take --engine at all.
    for name in ENGINES:
        args = build_parser("fig10").parse_args(["fig10", "--engine", name])
        assert args.engine == name
    assert main(["fig09", "--engine", "cascade"]) == 2
    assert "unrecognized arguments: --engine cascade" in capsys.readouterr().err
