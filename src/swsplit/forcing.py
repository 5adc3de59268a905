"""Time-dependent boundary forcing: tidal elevation and uniform wind.

File formats (whitespace separated, `#` comments, at least two finite
samples, strictly increasing t):

    tide:  t eta          two columns
    wind:  t v1 v2        three columns

Values are interpolated linearly in time; requests outside the sampled
range are a fault, never extrapolated.
"""
from __future__ import annotations

import bisect

import numpy as np


class ForcingError(ValueError):
    """Malformed forcing file or time outside the sampled range."""


class TimeSeries:
    """Piecewise-linear series of one or more columns over time."""

    def __init__(self, times, values, name="series"):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        self.name = name
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or times.shape[0] != values.shape[0]:
            raise ForcingError(f"{name}: times/values length mismatch")
        if times.size == 0:
            raise ForcingError(f"{name}: empty series")
        bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values).all(axis=1)))
        if bad.size:
            raise ForcingError(f"{name}: sample {bad[0]} is not finite")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ForcingError(f"{name}: times must be strictly increasing")
        # a lookup reads Python floats: no array dispatch per call
        self.times = times.tolist()
        self.rows = [tuple(row) for row in values.tolist()]
        self.constant = len(self.times) == 1

    @classmethod
    def constant_value(cls, values, name="constant"):
        return cls([0.0], [np.atleast_1d(values)], name=name)

    def require(self, t_first: float, t_last: float):
        """Raise ForcingError unless [t_first, t_last] is sampled."""
        self.at(t_first)
        self.at(t_last)

    def at(self, t: float) -> tuple:
        """Column values at time ``t``, a tuple of floats."""
        times = self.times
        if self.constant:
            return self.rows[0]
        if not (times[0] <= t <= times[-1]):
            raise ForcingError(
                f"{self.name}: t={t:g} s outside sampled range "
                f"[{times[0]:g}, {times[-1]:g}]")
        k = min(bisect.bisect_right(times, t) - 1, len(times) - 2)
        t0, t1 = times[k], times[k + 1]
        w = (t - t0) / (t1 - t0)
        return tuple([(1.0 - w) * a + w * b for a, b in zip(self.rows[k], self.rows[k + 1])])


def _load_columns(path, ncols, name):
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != ncols:
                raise ForcingError(f"{path}:{lineno}: expected {ncols} columns")
            try:
                rows.append([float(tok) for tok in toks])
            except ValueError:
                raise ForcingError(f"{path}:{lineno}: bad number") from None
    if not rows:
        raise ForcingError(f"{path}: no samples")
    if len(rows) < 2:   # one sample would read as a constant: no extrapolation
        raise ForcingError(f"{path}: need at least two samples")
    data = np.array(rows)
    return TimeSeries(data[:, 0], data[:, 1:], name=name)


def load_tide(path) -> TimeSeries:
    """Two-column `t eta` series for the open boundary."""
    return _load_columns(path, 2, f"tide {path}")


def load_wind(path) -> TimeSeries:
    """Three-column `t v1 v2` spatially uniform wind velocity."""
    return _load_columns(path, 3, f"wind {path}")


class Forcings:
    """Bundle of optional tide/wind series with quiet-zero defaults."""

    def __init__(self, tide: TimeSeries | None = None, wind: TimeSeries | None = None):
        self.tide = tide if tide is not None else TimeSeries.constant_value(0.0, "tide=0")
        self.wind = wind if wind is not None else TimeSeries.constant_value((0.0, 0.0), "wind=0")

    def tide_at(self, t) -> float:
        return self.tide.at(t)[0]

    def wind_at(self, t):
        return self.wind.at(t)
