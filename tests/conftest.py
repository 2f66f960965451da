import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ldp_expand as lx
from ldp_expand.model import EvaluationFrame

# CLI subprocesses import the same checkout as the test process
_SRC = str(Path(lx.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture(scope="session")
def gaussian():
    return lx.gaussian_baseline()


@pytest.fixture(scope="session")
def mathieu():
    return lx.mathieu_model()


@pytest.fixture(scope="session")
def gradient_drift():
    return lx.gradient_drift_model()


@pytest.fixture(scope="session")
def pm1_chain():
    return lx.two_state_pm1_chain()


@pytest.fixture(scope="session")
def frame():
    return EvaluationFrame()


@pytest.fixture(scope="session")
def grad_density_oracle():
    """Closed-form stationary density of the gradient-drift model on a grid:
    rho(x) proportional to exp(cos(2 pi x) / pi)."""
    def density(n):
        x = np.arange(n) / n
        rho = np.exp(np.cos(2 * np.pi * x) / np.pi)
        return rho / (rho.sum() / n)
    return density
