import pathlib
import sys
import tracemalloc
from dataclasses import replace

import pytest

# Allow running the suite from a fresh checkout without installing.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from quantband import cli, noise, scaling  # noqa: E402
from quantband.errors import QuantbandError  # noqa: E402
from quantband.experiments import (  # noqa: E402
    DEFAULT_SEED,
    VALIDATION_PRESETS,
    run_noise_color_sweep,
    run_validation,
)
from quantband.scaling import NoiseColorConfig, find_n_min  # noqa: E402

# The expensive paper runs, computed once per session: the acceptance
# criteria and the golden reports read the same results.
N_MIN_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0)


def _validation_reports(**overrides) -> dict:
    out = {}
    for name, cfg in VALIDATION_PRESETS.items():
        try:
            out[name] = run_validation(replace(cfg, **overrides))
        except QuantbandError as exc:
            out[name] = exc
    return out


@pytest.fixture(scope="session")
def theoretical_reports():
    return _validation_reports()


@pytest.fixture(scope="session")
def empirical_reports():
    return _validation_reports(floor_method="empirical")


@pytest.fixture(scope="session")
def table2_sweep():
    return run_noise_color_sweep(
        NoiseColorConfig((2.0,), (4, 8), trials=20, master_seed=DEFAULT_SEED, n_samples=100_000)
    )


@pytest.fixture(scope="session")
def n_min_battery():
    """The five default N_min answers, and how many noise slopes they fitted."""
    calls = []
    fit = scaling.measure_noise_slope

    def counted(signal, cfg):
        calls.append(cfg)  # one atomic append per slope, whichever worker fits it
        return fit(signal, cfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scaling, "measure_noise_slope", counted)
        answers = {
            alpha: find_n_min(alpha, (4, 12), trials=20, master_seed=DEFAULT_SEED)
            for alpha in N_MIN_ALPHAS
        }
    return answers, len(calls)


@pytest.fixture(scope="session")
def n_min_answers(n_min_battery):
    return n_min_battery[0]


@pytest.fixture()
def synthesis_calls(monkeypatch):
    """The spec of every signal the runners and ``synth`` synthesize, in order.

    Patches ``noise.synthesize``, which ``noise.trial_signals`` and
    ``noise.trial_block``, the sources of every runner's trials, look up,
    and ``cli.synthesize``; each call still synthesizes.
    """
    calls = []

    def recorded(spec, *rest, f=noise.synthesize):
        calls.append(spec)
        return f(spec, *rest)

    monkeypatch.setattr(noise, "synthesize", recorded)
    monkeypatch.setattr(cli, "synthesize", recorded)
    return calls


@pytest.fixture()
def traced_peak():
    """``measure(fn, *args)``: the peak bytes ``tracemalloc`` sees while ``fn(*args)`` runs."""

    def measure(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
