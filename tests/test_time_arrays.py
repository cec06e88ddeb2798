"""Starvation and start-up CDFs at an array of times, and the CLI tables
that evaluate them in one inversion call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluidqoe
from fluidqoe import (DomainError, inversion, startup_delay_cdf, starvation_cdf,
                      validate_model)
from fluidqoe.cli import main
from fluidqoe.startup import startup_atoms
from fluidqoe.starvation import starvation_atoms

SOURCES = {
    "two_state": ([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0),
    "three_state": ([[-3.0, 2.0, 1.0], [1.0, -2.0, 1.0], [2.0, 2.0, -4.0]],
                    [5.0, 20.0, 40.0], 25.0),
    "four_state": ([[-3.0, 1.0, 1.0, 1.0], [1.0, -2.0, 0.5, 0.5],
                    [2.0, 1.0, -4.0, 1.0], [0.3, 0.3, 0.4, -1.0]],
                   [2.0, 15.0, 30.0, 45.0], 24.0),
    "zero_rate": ([[-1.0, 1.0], [4.0, -4.0]], [30.0, 0.0], 25.0),
}

# the support bound of each law is its earliest atom
CDFS = {
    "starvation": (starvation_cdf, lambda model, x: starvation_atoms(model, x)[0].min()),
    "startup": (startup_delay_cdf, lambda model, x: startup_atoms(model, x)[0].min()),
}


def straddling_grid(bound: float) -> np.ndarray:
    """Times on both sides of a support bound, the bound itself included."""
    return np.concatenate([np.linspace(0.3, 0.99, 5) * bound, [bound],
                           np.linspace(1.01, 6.0, 30) * bound])


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("which", CDFS)
def test_array_equals_per_time_calls(source, which):
    cdf, support = CDFS[which]
    model = validate_model(*SOURCES[source])
    L, x = model.n_states, 30.0
    bound = support(model, x)
    grid = straddling_grid(bound)
    batch = cdf(model, x, grid)
    assert batch.shape == (grid.size, L, L)
    single = np.array([cdf(model, x, float(t)) for t in grid])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)
    assert np.all(batch[grid < bound] == 0.0)
    assert np.any(batch[grid >= bound] > 0.0)


@pytest.mark.parametrize("which", CDFS)
def test_scalar_time_keeps_its_shape_and_errors(which, reference_model):
    cdf = CDFS[which][0]
    assert cdf(reference_model, 40.0, 3.0).shape == (2, 2)
    assert cdf(reference_model, 40.0, np.array([3.0])).shape == (1, 2, 2)
    with pytest.raises(DomainError, match=r"t must be > 0, got 0\.0$"):
        cdf(reference_model, 40.0, 0.0)
    # an array names its first offending time, as a loop over it would
    with pytest.raises(DomainError, match=r"got -2\.0$"):
        cdf(reference_model, 40.0, np.array([1.0, -2.0, 0.0]))


@pytest.mark.parametrize("which", CDFS)
def test_infinite_time_is_refused(which, reference_model):
    # refused before any transform is evaluated, so no RuntimeWarning (an
    # error under this suite's filter) can come from an infinite time
    with pytest.raises(DomainError, match=r"t must be finite, got inf$"):
        CDFS[which][0](reference_model, 40.0, np.inf)
    with pytest.raises(DomainError, match=r"t must be finite, got inf$"):
        CDFS[which][0](reference_model, 40.0, np.array([1.0, np.inf]))
    with pytest.raises(DomainError, match=r"t must be finite, got inf$"):
        inversion.invert(inversion.reference_transform, np.inf)


@pytest.mark.parametrize("x", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("which", CDFS)
def test_threshold_must_be_finite_and_nonnegative(which, x, reference_model):
    # the atom rule that both laws share refuses the threshold before any
    # time is compared with the support bound
    with pytest.raises(DomainError, match="^x must be finite and >= 0"):
        CDFS[which][0](reference_model, x, np.array([1.0, 3.0]))


@pytest.fixture()
def bursty_config(tmp_path):
    path = tmp_path / "bursty.json"
    path.write_text(json.dumps({"Q": [[-6, 6], [2, -2]], "lambda": [2, 30],
                                "mu": 25, "x": 40, "Z": 500}))
    return str(path)


@pytest.mark.parametrize("subcommand", ["starvation", "startup"])
def test_cli_table_is_one_inversion(subcommand, bursty_config, monkeypatch, capsys):
    calls = []
    real = inversion.invert_cdf

    def counted(lst, t, params=inversion.DEFAULT_PARAMS):
        calls.append(np.size(t))
        return real(lst, t, params)

    monkeypatch.setattr(inversion, "invert_cdf", counted)
    assert main([subcommand, "--config", bursty_config]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 51  # header + 50 rows
    assert len(calls) == 1


def test_table_reports_the_first_failing_time(tmp_path, capsys):
    # both states drain: starvation falls in a 0.03 s window whose CDF the
    # inverter cannot follow; the first time outside the band is t = 1.6
    path = tmp_path / "both_draining.json"
    path.write_text(json.dumps({"Q": [[-5.31, 5.31], [2.74, -2.74]],
                                "lambda": [12.32, 12.99], "mu": 25,
                                "x": 20, "Z": 500}))
    assert main(["starvation", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "OutOfRange: inverted CDF value -0.00630581 at t=1.6 is outside "
        "[-0.001, 1+0.001]\n")


def test_table_refuses_a_nan_probability(bursty_config, capsys):
    # the Euler prefactors divide by t last, so nothing overflows up to the
    # largest float time: no RuntimeWarning (the configured filter makes one
    # an error), and either rows of probabilities or one error line, never a
    # NaN printed as a probability
    for params in ("1,11,38,18.4", "2,11,38,18.4"):
        for t_max in ("1e308", "1.79e308"):
            argv = ["starvation", "--config", bursty_config, "--x", "40", "--Z", "500",
                    "--t-grid", f"1:{t_max}:2", "--params", params]
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 0:
                rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
                assert len(rows) == 2 and rows[1][0] == float(t_max)
                assert all(0.0 <= p <= 1.0 for row in rows for p in row[1:])
            else:
                assert code == 2 and err.count("\n") == 1


def test_package_imports_without_scipy():
    src = str(Path(fluidqoe.__file__).resolve().parents[1])
    code = ("import fluidqoe, fluidqoe.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
