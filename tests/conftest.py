from pathlib import Path

import numpy as np
import pytest

from flipreset import harness
from flipreset.flip_signal import FlipSignalState

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def planted_fault(monkeypatch):
    """A ValueError that the run loop's flip score raises on every step, as
    a shape or index bug in a step would."""
    fault = ValueError("planted shape fault")

    def observe_batch(*args, **kwargs):
        raise fault

    monkeypatch.setattr(harness, "observe_batch", observe_batch)
    return fault


def make_state(
    lf_ema=None,
    lf_min=None,
    t=0,
    t_min=None,
    steps_since_reset=None,
    alpha=0.5,
):
    """Signal state with fields set directly, bypassing the update path."""
    state = FlipSignalState(alpha=alpha)
    state.lf_ema = lf_ema
    state.lf_min = lf_min
    state.t = t
    state.t_min = t_min
    state.steps_since_reset = t if steps_since_reset is None else steps_since_reset
    return state


def drive(state, raws):
    """Feed a raw score sequence through the ema+min update path."""
    for raw in raws:
        state.update_ema(raw)
        state.update_min()
    return state
