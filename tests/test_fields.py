import numpy as np
import pytest

from ldp_expand import fields
from ldp_expand.errors import ConfigError


def test_constant_and_zero():
    c = fields.constant(2.5)
    x = np.linspace(0, 1, 7)
    assert np.allclose(c(x), 2.5)
    assert np.allclose(c.derivative(x), 0.0)
    assert c.is_constant and c.max_harmonic == 0
    assert fields.zero()(x).max() == 0.0


def test_harmonic_matches_closed_form():
    f = fields.harmonic("cos", k=2, amplitude=1.5, phase=0.3)
    x = np.linspace(0, 1, 33)
    assert np.allclose(f(x), 1.5 * np.cos(2 * np.pi * 2 * x + 0.3), atol=1e-14)
    assert np.allclose(f.derivative(x), -1.5 * 4 * np.pi * np.sin(4 * np.pi * x + 0.3), atol=1e-12)
    g = fields.harmonic("sin", k=1)
    assert np.allclose(g(x), np.sin(2 * np.pi * x), atol=1e-14)


def test_fourier_field_mean_and_shift():
    f = fields.FourierField(const=1.0, cos=(0.5,), sin=(0.0, 0.25))
    assert f.const == 1.0
    assert f.max_harmonic == 2
    shifted = f.shifted(-1.0)
    assert shifted.const == 0.0
    x = np.linspace(0, 1, 11)
    assert np.allclose(shifted(x), f(x) - 1.0)


def test_tabulated_interpolation_periodicity():
    n = 32
    x = np.arange(n) / n
    tab = fields.TabulatedField(tuple(np.sin(2 * np.pi * x)))
    xs = np.array([0.0, 0.5, 0.25, 0.999, 1.25, -0.25])
    assert np.allclose(tab(xs), tab(xs + 1.0), atol=1e-14)
    fine = np.linspace(0, 1, 200)
    assert np.max(np.abs(tab(fine) - np.sin(2 * np.pi * fine))) < 5e-3
    # central-difference derivative tracks the closed form at O(dx^2)
    assert np.max(np.abs(tab.derivative(x) - 2 * np.pi * np.cos(2 * np.pi * x))) < 0.05


def test_field_config_round_trip():
    cases = (({"type": "constant", "value": 2.0}, fields.constant(2.0)),
             ({"type": "fourier", "const": 0.0, "cos": [1.0], "sin": []},
              fields.harmonic("cos", 1)),
             ({"type": "fourier", "const": 0.1, "cos": [1.0], "sin": [0.0, -0.5]},
              fields.FourierField(const=0.1, cos=(1.0,), sin=(0.0, -0.5))),
             ({"type": "tabulated", "values": list(np.arange(8) * 0.1)},
              fields.TabulatedField(tuple(np.arange(8) * 0.1))))
    for config, f in cases:
        back = fields.field_from_config(config)
        x = np.linspace(0, 1, 13)
        assert np.allclose(back(x), f(x), atol=1e-14)


def test_field_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        fields.field_from_config({"type": "harmonic", "kind": "cos", "k": 1, "ampl": 2})
    with pytest.raises(ConfigError):
        fields.field_from_config({"type": "unknown_kind"})
    with pytest.raises(ConfigError):
        fields.field_from_config({"type": "tabulated"})


def test_field_errors_name_the_key_path():
    with pytest.raises(ConfigError, match=r"model.observable.b: unknown key\(s\) ampl"):
        fields.field_from_config({"type": "harmonic", "kind": "cos", "ampl": 2},
                                 "model.observable.b")
    with pytest.raises(ConfigError, match=r"model.fields.V\[1\]: missing key\(s\) values"):
        fields.field_from_config({"type": "tabulated"}, "model.fields.V[1]")


def test_number_shorthand_is_constant():
    f = fields.field_from_config(3)
    assert f.is_constant and f.const == 3.0
