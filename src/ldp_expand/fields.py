"""Periodic scalar fields on the unit torus.

Model coefficients are declared through a small catalog (constants, single
harmonics, finite Fourier sums) or as tabulated grid values.  Closed forms
evaluate and differentiate exactly; tabulated fields interpolate linearly
and differentiate by periodic central differences.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FourierField:
    """Finite Fourier sum ``const + sum_k [cos_k cos(2 pi k x) + sin_k sin(2 pi k x)]``.

    Coefficient tuples are indexed from k = 1.  Period is fixed to 1.
    """

    const: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, float(self.const))
        for k, c in enumerate(self.cos, start=1):
            if c:
                out += c * np.cos(_TWO_PI * k * x)
        for k, c in enumerate(self.sin, start=1):
            if c:
                out += c * np.sin(_TWO_PI * k * x)
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for k, c in enumerate(self.cos, start=1):
            if c:
                out -= c * _TWO_PI * k * np.sin(_TWO_PI * k * x)
        for k, c in enumerate(self.sin, start=1):
            if c:
                out += c * _TWO_PI * k * np.cos(_TWO_PI * k * x)
        return out

    @property
    def max_harmonic(self) -> int:
        k = 0
        for i, c in enumerate(self.cos, start=1):
            if c:
                k = max(k, i)
        for i, c in enumerate(self.sin, start=1):
            if c:
                k = max(k, i)
        return k

    @property
    def is_constant(self) -> bool:
        return self.max_harmonic == 0

    def shifted(self, offset: float) -> "FourierField":
        """Return the field plus a constant."""
        return replace(self, const=float(self.const) + float(offset))

    def uniform_mean(self) -> float:
        return float(self.const)


@dataclass(frozen=True)
class TabulatedField:
    """Grid values at ``x_i = i / n`` for one period, linearly interpolated."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 4:
            raise ConfigError("tabulated field needs at least 4 samples")

    @property
    def n(self) -> int:
        return len(self.values)

    def _table(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __call__(self, x):
        return _periodic_interp(np.asarray(x, dtype=float), self._table())

    def derivative(self, x):
        return _periodic_interp(np.asarray(x, dtype=float), periodic_slope(self._table()))

    @property
    def max_harmonic(self) -> int:
        # resolved content is bounded by the table's own Nyquist frequency
        return self.n // 2

    @property
    def is_constant(self) -> bool:
        tab = self._table()
        return bool(np.ptp(tab) == 0.0)

    def shifted(self, offset: float) -> "TabulatedField":
        return TabulatedField(tuple(v + float(offset) for v in self.values))

    def uniform_mean(self) -> float:
        return float(np.mean(self._table()))


Field = FourierField | TabulatedField


def periodic_slope(u: np.ndarray) -> np.ndarray:
    """Periodic central difference (u_{i+1} - u_{i-1}) n / 2 of the values
    u_i at x_i = i / n on the unit torus."""
    return (np.roll(u, -1) - np.roll(u, 1)) * (0.5 * u.size)


def _periodic_interp(x, table):
    n = table.shape[0]
    pos = (x - np.floor(x)) * n
    i0 = np.floor(pos).astype(np.intp)
    frac = pos - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    return (1.0 - frac) * table[i0] + frac * table[i1]


def constant(value: float) -> FourierField:
    return FourierField(const=float(value))


def zero() -> FourierField:
    return FourierField()


def harmonic(kind: str, k: int = 1, amplitude: float = 1.0, phase: float = 0.0) -> FourierField:
    """``amplitude * cos(2 pi k x + phase)`` or the sine analogue."""
    if kind not in ("cos", "sin"):
        raise ConfigError(f"harmonic kind must be 'cos' or 'sin', got {kind!r}")
    if k < 1:
        raise ConfigError("harmonic index k must be >= 1")
    a, p = float(amplitude), float(phase)
    coef_cos = np.zeros(k)
    coef_sin = np.zeros(k)
    if kind == "cos":
        coef_cos[k - 1] = a * np.cos(p)
        coef_sin[k - 1] = -a * np.sin(p)
    else:
        coef_sin[k - 1] = a * np.cos(p)
        coef_cos[k - 1] = a * np.sin(p)
    return FourierField(const=0.0, cos=tuple(coef_cos), sin=tuple(coef_sin))


def field_from_config(obj, key: str = "field") -> Field:
    """Parse a field descriptor from a config value (number or typed dict);
    a malformed entry raises ConfigError naming it under ``key``."""
    if isinstance(obj, numbers.Number):
        return constant(config_number(obj, key))
    if not isinstance(obj, dict):
        raise ConfigError(f"{key}: field descriptor must be a number or an object, "
                          f"got {type(obj).__name__}")
    kind = obj.get("type")

    def num(name, default=None):
        return config_number(obj.get(name, default), f"{key}.{name}")

    def nums(name):
        return config_numbers(obj.get(name, ()), f"{key}.{name}")

    if kind == "constant":
        _require_keys(obj, {"type", "value"})
        return constant(num("value"))
    if kind == "zero":
        _require_keys(obj, {"type"})
        return zero()
    if kind == "harmonic":
        _require_keys(obj, {"type", "kind", "k", "amplitude", "phase"}, optional={"k", "amplitude", "phase"})
        return harmonic(obj["kind"], config_integer(obj.get("k", 1), f"{key}.k"),
                        num("amplitude", 1.0), num("phase", 0.0))
    if kind == "fourier":
        _require_keys(obj, {"type", "const", "cos", "sin"}, optional={"const", "cos", "sin"})
        return FourierField(const=num("const", 0.0), cos=nums("cos"), sin=nums("sin"))
    if kind == "tabulated":
        _require_keys(obj, {"type", "values"})
        return TabulatedField(nums("values"))
    raise ConfigError(f"unknown field type {kind!r}")


def config_number(value, key: str) -> float:
    """A config entry as a float; ConfigError naming ``key`` otherwise."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def config_numbers(values, key: str) -> tuple[float, ...]:
    """A config list of numbers; ConfigError naming ``key`` otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(config_number(v, key) for v in values)


def config_integer(value, key: str) -> int:
    """A config entry as an int; an integral float such as 64.0 is accepted,
    a non-integral one (64.7) is a ConfigError naming ``key``."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if isinstance(value, numbers.Number) and i != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return i


def field_to_config(f: Field) -> dict:
    if isinstance(f, FourierField):
        if f.is_constant:
            return {"type": "constant", "value": f.const}
        return {"type": "fourier", "const": f.const, "cos": list(f.cos), "sin": list(f.sin)}
    return {"type": "tabulated", "values": list(f.values)}


def _require_keys(obj: dict, allowed: set, optional: set = frozenset()):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown field key(s): {', '.join(sorted(unknown))}")
    missing = (allowed - optional - {"type"}) - set(obj)
    if missing:
        raise ConfigError(f"missing field key(s): {', '.join(sorted(missing))}")
