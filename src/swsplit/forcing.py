"""Time-dependent boundary forcing: tidal elevation and uniform wind.

File formats (whitespace separated, `#` comments, read by the mesh's
:func:`swsplit.mesh.parse_rows`; at least two finite samples, strictly
increasing t):

    tide:  t eta          two columns
    wind:  t v1 v2        three columns

Values are interpolated linearly in time; requests outside the sampled
range are a fault, never extrapolated.
"""
from __future__ import annotations

import numpy as np

from .mesh import data_lines, parse_rows


class ForcingError(ValueError):
    """Malformed forcing file or time outside the sampled range."""


class TimeSeries:
    """Piecewise-linear series of one or more columns over two or more times."""

    def __init__(self, times, values, name="series"):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        self.name = name
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or times.shape[0] != values.shape[0]:
            raise ForcingError(f"{name}: times/values length mismatch")
        if times.size < 2:   # one sample would hold its value at every time
            raise ForcingError(f"{name}: need at least two samples")
        bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values).all(axis=1)))
        if bad.size:
            raise ForcingError(f"{name}: sample {bad[0]} is not finite")
        if np.any(np.diff(times) <= 0.0):
            raise ForcingError(f"{name}: times must be strictly increasing")
        self.times = times
        self.values = values

    def at(self, t) -> np.ndarray:
        """Column values at time ``t``: one row, or one row per time of an array."""
        t = np.asarray(t, dtype=float)
        times = self.times
        outside = ~((times[0] <= t) & (t <= times[-1]))
        if outside.any():
            raise ForcingError(
                f"{self.name}: t={t[outside][0]:g} s outside sampled range "
                f"[{times[0]:g}, {times[-1]:g}]")
        k = np.minimum(np.searchsorted(times, t, side="right") - 1, times.size - 2)
        t0, t1 = times[k], times[k + 1]
        w = ((t - t0) / (t1 - t0))[..., None]
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


def _load_columns(path, ncols, kind):
    lines = data_lines(path)
    if not lines:
        raise ForcingError(f"{path}: no samples")
    data = parse_rows(path, lines, 0, len(lines), (float,) * ncols, f"{kind} line",
                      ForcingError).view(float).reshape(-1, ncols)
    return TimeSeries(data[:, 0], data[:, 1:], name=f"{kind} {path}")


def load_tide(path) -> TimeSeries:
    """Two-column `t eta` series for the open boundary."""
    return _load_columns(path, 2, "tide")


def load_wind(path) -> TimeSeries:
    """Three-column `t v1 v2` spatially uniform wind velocity."""
    return _load_columns(path, 3, "wind")


class Forcings:
    """Optional tide and wind series; an absent one is still water or calm.

    A tide has one value column (eta) and a wind two (v1, v2); any other
    count is refused here, before a run reads either.
    """

    def __init__(self, tide: TimeSeries | None = None, wind: TimeSeries | None = None):
        for kind, series, ncols in (("tide", tide, 1), ("wind", wind, 2)):
            if series is not None and series.values.shape[1] != ncols:
                raise ForcingError(f"{series.name}: a {kind} needs {ncols} value column(s), "
                                   f"got {series.values.shape[1]}")
        self.tide = tide
        self.wind = wind

    def tide_at(self, t) -> float:
        return 0.0 if self.tide is None else float(self.tide.at(t)[0])

    def wind_at(self, times) -> np.ndarray:
        """One (v1, v2) row per time of ``times``."""
        if self.wind is None:
            return np.zeros(np.shape(times) + (2,))
        return self.wind.at(times)
