import numpy as np
import pytest
from scipy.integrate import quad

import ldp_expand as lx
from ldp_expand import fields
from ldp_expand.discretize import DiffusionOperators
from ldp_expand.errors import ModelValidationError
from ldp_expand.model import DiscreteChainSpec, EvaluationFrame, TorusDiffusionSpec


def test_degenerate_noise_is_flagged():
    spec = TorusDiffusionSpec(fields_v=(fields.constant(1.0),), drift_v0=fields.zero(),
                              obs_drift_b=fields.zero(), obs_noise_sigma=fields.zero())
    report = lx.validate_spec(spec)
    assert not report.ok
    assert any("degenerate observable noise" in v for v in report.violations)


def test_valid_baseline_reports_clean(gaussian):
    report = lx.validate_spec(gaussian)
    assert report.ok
    assert report.violations == ()


def test_chain_row_sum_violation_flagged():
    chain = DiscreteChainSpec(transition=((0.5, 0.49), (0.5, 0.5)),
                              increment_mean=(1.0, -1.0), increment_var=(0.0, 0.0))
    report = lx.validate_spec(chain)
    assert not report.ok
    assert any("stochasticity" in v for v in report.violations)


def test_chain_negative_entry_flagged():
    chain = DiscreteChainSpec(transition=((1.2, -0.2), (0.5, 0.5)),
                              increment_mean=(0.0, 0.0), increment_var=(0.0, 0.0))
    assert any("nonnegative" in v for v in lx.validate_spec(chain).violations)


def test_zero_entries_noted_not_fatal():
    chain = lx.checkerboard_chain()
    report = lx.validate_spec(chain)
    assert report.ok
    assert any("spectral-gap" in w for w in report.warnings)


def test_nonperiodic_tabulation_flagged():
    n = 64
    x = np.arange(n) / n
    ramp = fields.TabulatedField(tuple(x))  # value jump at the seam
    spec = TorusDiffusionSpec(fields_v=(fields.constant(1.0),), drift_v0=fields.zero(),
                              obs_drift_b=ramp, obs_noise_sigma=fields.constant(1.0))
    report = lx.validate_spec(spec, n=n)
    assert any("seam" in v for v in report.violations)


def test_center_observable_cos_unchanged(gaussian):
    spec = TorusDiffusionSpec(fields_v=gaussian.fields_v, drift_v0=gaussian.drift_v0,
                              obs_drift_b=fields.harmonic("cos", 1),
                              obs_noise_sigma=gaussian.obs_noise_sigma)
    rho = np.ones(256)
    centered = lx.center_observable(spec, rho)
    assert centered == spec  # cos already mean-zero under the uniform density


def test_center_observable_subtracts_constant(gaussian):
    spec = TorusDiffusionSpec(fields_v=gaussian.fields_v, drift_v0=gaussian.drift_v0,
                              obs_drift_b=fields.harmonic("cos", 1).shifted(1.0),
                              obs_noise_sigma=gaussian.obs_noise_sigma)
    centered = lx.center_observable(spec, np.ones(256))
    x = np.arange(256) / 256
    assert np.allclose(centered.obs_drift_b(x), np.cos(2 * np.pi * x), atol=1e-14)


def test_center_observable_gradient_drift(gradient_drift, grad_density_oracle):
    # oracle: m = int cos(2 pi x) rho(x) dx with rho from the closed form
    z = quad(lambda x: np.exp(np.cos(2 * np.pi * x) / np.pi), 0, 1)[0]
    m_oracle = quad(lambda x: np.cos(2 * np.pi * x)
                    * np.exp(np.cos(2 * np.pi * x) / np.pi), 0, 1)[0] / z
    n = 256
    rho = grad_density_oracle(n)
    centered = lx.center_observable(gradient_drift, rho)
    x = np.arange(n) / n
    shift = np.cos(2 * np.pi * x) - centered.obs_drift_b(x)
    assert np.allclose(shift, shift[0])
    assert abs(shift[0] - m_oracle) < 1e-6
    # post: recentered mean vanishes under the density used
    assert abs(np.sum(centered.obs_drift_b(x) * rho) / n) < 1e-12


def test_center_rejects_unnormalized_density(gaussian):
    with pytest.raises(ModelValidationError):
        lx.center_observable(gaussian, np.full(256, 0.9))


def test_center_chain():
    chain = DiscreteChainSpec(transition=((0.5, 0.5), (0.5, 0.5)),
                              increment_mean=(2.0, 0.0), increment_var=(0.0, 0.0))
    rho = np.array([0.5, 0.5])
    centered = lx.center_observable(chain, rho)
    assert centered.increment_mean == (1.0, -1.0)


def test_frame_index_resolution():
    f = EvaluationFrame(x0=0.5)
    assert f.index_on(64) == 32
    g = EvaluationFrame(x0=3)
    assert g.index_on(64) == 3
    with pytest.raises(ModelValidationError):
        EvaluationFrame(x0=70).index_on(64)
    with pytest.raises(ModelValidationError):
        EvaluationFrame(x0=0, v=(0.0,) * 8).vector_on(8)


def test_dim2_is_rejected():
    spec = TorusDiffusionSpec(fields_v=(fields.constant(1.0),), drift_v0=fields.zero(),
                              obs_drift_b=fields.zero(), obs_noise_sigma=fields.constant(1.0),
                              dim=2)
    report = lx.validate_spec(spec)
    assert not report.ok and any("dim must be 1" in v for v in report.violations)
    with pytest.raises(ModelValidationError, match="dim must be 1"):
        DiffusionOperators(spec, 16)
