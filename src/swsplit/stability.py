"""Convergence analysis of the explicit source update.

The source half of the splitting advances the velocities with a frozen
drag rate D = g|u| / (k1^2 H).  On a spatially uniform field the update
reduces to a 2x2 damping/rotation recursion with coefficients

    alpha = -tau^2 k0^2 / 2 - tau D + tau^2 D^2 / 2
    beta  =  tau k0 - tau^2 D

and the full three-field amplification matrix is block triangular, so
convergence is governed by the modulus sqrt((1+alpha)^2 + beta^2) of the
velocity eigenpair alone.  The paper's criterion is the cubic
a tau^3 - b tau^2 + c tau - d < 0, whose real root is the critical step
tau_c.  It is not exact for the sub-step the code runs
(:func:`source_update_matrix`), the map z = 1 - tau lam + tau^2 lam^2 / 2
with lam = D + i k0, whose |z| < 1 is a second cubic with the same c, d
(:func:`map_cubic_coefficients`).  The gate takes the smaller of the two
roots (:func:`critical_time_step_for_drag`): at k0 = 1e-4 the paper's
passes steps the map amplifies above D = 2.83 1/s (2.58 against 0.340 s
at D = 5.89) and below 5.9e-8 1/s (8890 against 930 s at D = 1e-8).
:func:`build_report` gives the paper's verdict next to the gate's.  With
the drag off (D = 0) neither can pass.

Every formula here is finite, and every root accurate, on one range:
0 <= k0 < K0_MAX = sqrt(8), where a = k0^4 + D^2 (8 - k0^2) > 0 at every
D; D = 0 or D_MIN <= D <= D_MAX, above where a underflows or the
bisection loses the root at k0 = 0, and below the overflow of the
Cardano terms, which grow like D^18 (near 1e17 1/s); and tau max(1, D) <= TAU_MAX, so that tau^2 D^2 and tau^2 k0^2
are finite.  :class:`PhysicalParams` holds k0 to it, :func:`build_report`
refuses a point outside it, and the gate rates a node whose drag rate is
outside it as failing: past D_MAX the map's root is below 2 / D_MAX.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DEFAULT_H_MIN

K0_MAX = math.sqrt(8.0)   # 1/s, exclusive: sqrt(8) rounds up
D_MIN, D_MAX = 1e-40, 1e16   # 1/s
TAU_MAX = 1e150           # s times max(1, D in 1/s)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the model."""

    g: float = 9.81          # gravity, m/s^2
    k0: float = 1e-4         # Coriolis coefficient, 1/s
    k1: float = 40.0         # Chezy coefficient, m^(1/2)/s
    xi: float = 3.2e-6       # wind drag coefficient, dimensionless
    h_min: float = DEFAULT_H_MIN  # depth clamp, m

    def __post_init__(self):
        if not (0 < self.g < math.inf and 0 < self.k1 < math.inf):
            raise ValueError("g and k1 must be positive and finite")
        if not (0 <= self.k0 < math.inf and 0 <= self.xi < math.inf
                and 0 < self.h_min < math.inf):
            raise ValueError("k0, xi must be finite and >= 0, h_min finite and > 0")
        if not self.k0 < K0_MAX:
            raise ValueError(f"k0 must be below sqrt(8) 1/s: k0={self.k0!r}")
        # the drag rate per unit speed peaks at the clamped depth h_min
        if not (0.0 < self.k1 * self.k1 * self.h_min < math.inf
                and 0.0 < drag_coefficient(1.0, self.h_min, self) < math.inf):
            raise ValueError(f"k1 must give a finite drag factor g / (k1^2 h_min) > 0: "
                             f"k1={self.k1!r}, h_min={self.h_min!r}")


@dataclass(frozen=True)
class StabilityReport:
    """All quantities of one stability evaluation."""

    tau: float
    speed: float
    depth: float
    drag: float                       # D, 1/s
    alpha: float
    beta: float
    modulus: float                    # |velocity eigenpair| of the update
    cubic_a: float                    # a t^3 - b t^2 + c t - d
    cubic_b: float
    cubic_c: float
    cubic_d: float
    tau_c_cubic: float                # nan when D == 0 (never convergent)
    tau_c_gate: float                 # the gate's root; nan when D == 0
    convergent_cubic: bool
    convergent_gate: bool


def drag_coefficient(speed, H, params: PhysicalParams):
    """Linearized Chezy drag rate D = g|u| / (k1^2 H), 1/s."""
    return params.g * speed / (params.k1 ** 2 * H)


def step_coefficients(tau, k0, D):
    """Damping/rotation pair (alpha, beta) used by the convergence analysis."""
    alpha = -tau ** 2 * k0 ** 2 / 2.0 - tau * D + tau ** 2 * D ** 2 / 2.0
    beta = tau * k0 - tau ** 2 * D
    return alpha, beta


def source_update_matrix(tau, k0, D):
    """Exact velocity map of one explicit sub-step on a uniform field.

    With the drag rate frozen the source term is linear, R(u) = G u with
    G = [[-D, k0], [-k0, -D]], and the two-stage update applies exactly

        I + tau G + tau^2/2 G^2.

    The diagonal reproduces ``step_coefficients``' alpha; the rotation
    entry is tau*k0 - tau^2*D*k0, which the analysis pair approximates by
    tau*k0 - tau^2*D.  This matrix is the oracle the uniform-field
    equivalence tests compare the assembled solver against.
    """
    # G^2 = [[D^2 - k0^2, -2 D k0], [2 D k0, D^2 - k0^2]]; the polynomial
    # keeps the scaled-rotation form [[p, q], [-q, p]] exactly
    p = 1.0 - tau * D + 0.5 * tau ** 2 * (D * D - k0 * k0)
    q = tau * k0 - tau ** 2 * D * k0
    return np.array([[p, q], [-q, p]])


def source_amplification_matrix(alpha, beta):
    """3x3 update matrix of the source sub-step on (eta, u1, u2)."""
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0 + alpha, beta],
        [0.0, -beta, 1.0 + alpha],
    ])


def coupled_amplification_matrix(alpha, beta, tau_tilde, theta1, grad_h):
    """Amplification matrix with the elevation row coupled to a bed slope.

    ``grad_h`` is the local bed gradient (dH/dx1, dH/dx2).  The velocity
    block is identical to :func:`source_amplification_matrix`, so the
    eigenvalue moduli do not depend on tau_tilde, theta1 or the slope.
    """
    hx, hy = grad_h
    row0 = [
        1.0,
        -tau_tilde * (hx + hy * theta1 * alpha - hy * theta1 * beta),
        -tau_tilde * (hy + hx * theta1 * beta - hy * theta1 * alpha),
    ]
    J = source_amplification_matrix(alpha, beta)
    J[0, :] = row0
    return J


def velocity_mode_modulus(alpha, beta):
    """Modulus of the velocity eigenpair (1 + alpha) +/- i beta."""
    return math.hypot(1.0 + alpha, beta)


def cubic_coefficients(k0, D):
    """Coefficients (a, b, c, d) of the convergence cubic a t^3 - b t^2 + c t - d."""
    a = k0 ** 4 + D ** 2 * (4.0 - k0 ** 2) + 4.0 * D ** 2
    b = 4.0 * D * (D ** 2 + 2.0 * k0 - k0 ** 2)
    c = 8.0 * D ** 2
    d = 8.0 * D
    return a, b, c, d


def map_cubic_coefficients(k0, D):
    """Coefficients of the running map's criterion: for the eigenvalue z of
    :func:`source_update_matrix`, |z|^2 - 1 is tau/4 times the cubic with
    a = (D^2 + k0^2)^2, b = 4 D (D^2 + k0^2) and the c, d of :func:`cubic_coefficients`."""
    s = D * D + k0 * k0
    return s * s, 4.0 * D * s, 8.0 * D * D, 8.0 * D


def _bisect_cubic(a, b, c, d):
    f = lambda t: ((a * t - b) * t + c) * t - d
    # f(0) = -d < 0: a local maximum t_max > 0 with f(t_max) > 0 brackets
    # the smallest positive root; without one f changes sign once on t > 0
    p = b * b - 3.0 * a * c
    t_max = (b - math.sqrt(p)) / (3.0 * a) if p > 0.0 else 0.0
    # past 1 + (|b| + c + d) / a the term a t^3 outgrows the others: f > 0
    lo, hi = 0.0, (t_max if t_max > 0.0 and f(t_max) > 0.0 else 1.0 + (abs(b) + c + d) / a)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    # below 2^-200 of the bracket, or with underflowed coefficients, the
    # bisection stops at a point where f does not change sign
    if not f(t * (1.0 - 1e-9)) < 0.0 < f(t * (1.0 + 1e-9)):
        raise ValueError(f"no positive root resolved in floating point: a={a:.17g}, "
                         f"b={b:.17g}, c={c:.17g}, d={d:.17g} lie outside the stated range")
    return t


_CBRT2 = 2.0 ** (1.0 / 3.0)


def critical_time_step(a, b, c, d):
    """Real positive root of a t^3 - b t^2 + c t - d = 0 in closed form.

    Uses the Cardano resolvent

        q = 2 b^3 - 9 a b c + 27 a^2 d + sqrt(4 (-b^2 + 3 a c)^3 + (...)^2)
        tau_c = b/(3a) - 2^(1/3) (-b^2 + 3 a c) / (3 a q^(1/3))
                + q^(1/3) / (2^(1/3) 3 a)

    with real cube roots.  A triple root (q = 0 = -b^2 + 3ac) is b/(3a).
    A negative discriminant (three real roots), a vanishing resolvent or a
    failed residual check, the triple root's included, falls back to
    bisection for the smallest positive root.

    The coefficients may be scalars or broadcastable numpy arrays: scalar
    inputs return a float, array inputs an array of roots, one per entry,
    and only the entries that need it are bisected.

    Raises ``ValueError``, naming the condition, when any entry has
    a <= 0 or d <= 0 (the D = 0 regime: the scheme is never convergent),
    either of which leaves no positive root, or when the bisected root is
    not a sign change of the cubic.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
    shape = a.shape
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    if (a <= 0.0).any():
        raise ValueError("no positive root: a <= 0, the leading coefficient is not positive")
    if (d <= 0.0).any():
        raise ValueError("no positive root: d <= 0, the drag rate D = d/8 is not positive")
    p0 = -b * b + 3.0 * a * c
    # x * x * x, not x ** 3: numpy's power is some 100 times slower on a negative base
    p1 = 2.0 * (b * b * b) - 9.0 * a * b * c + 27.0 * a * a * d
    with np.errstate(invalid="ignore", divide="ignore"):
        q = p1 + np.sqrt(4.0 * (p0 * p0 * p0) + p1 * p1)
        cr = np.copysign(np.abs(q) ** (1.0 / 3.0), q)
        tau_c = b / (3.0 * a) - _CBRT2 * p0 / (3.0 * a * cr) + cr / (_CBRT2 * 3.0 * a)
        tau_c = np.where((q == 0.0) & (p0 == 0.0), b / (3.0 * a), tau_c)
        residual = ((a * tau_c - b) * tau_c + c) * tau_c - d
    # a negative discriminant leaves tau_c nan and a vanishing resolvent
    # an infinite one, which fail; underflowed terms can fake a triple root
    ok = (tau_c > 0.0) & (np.abs(residual) < 1e-9 * d)
    for i in np.flatnonzero(~ok):
        tau_c[i] = _bisect_cubic(a[i], b[i], c[i], d[i])
    return float(tau_c[0]) if shape == () else tau_c.reshape(shape)


def is_convergent_cubic(tau, k0, D):
    """Cubic criterion verdict: a tau^3 - b tau^2 + c tau - d < 0 (strict)."""
    a, b, c, d = cubic_coefficients(k0, D)
    return ((a * tau - b) * tau + c) * tau - d < 0.0


def critical_time_step_for_drag(k0, D):
    """The gate's tau_c: the smaller of the paper's root and the running map's.

    ``D`` is a scalar (returns a float) or an array (returns an array, one
    tau_c per entry); ``k0`` is a scalar.  A drag rate outside [D_MIN, D_MAX]
    gets tau_c = 0, which no step passes; a zero one raises as in
    :func:`critical_time_step` (:func:`build_report` handles D = 0 itself).
    """
    D = np.asarray(D, dtype=float)
    flat = D.ravel()
    inside = (D_MIN <= flat) & (flat <= D_MAX)
    D_in = np.where(inside | (flat <= 0.0), flat, 1.0)   # D <= 0 raises below
    tau_c = critical_time_step(*cubic_coefficients(k0, D_in))
    # the map's root is the smaller where the map's cubic is >= 0 at the
    # paper's root tau_c; the cubics share c and d and the paper's is 0 there,
    # so that is (a' - a) tau_c >= b' - b: D (D^2 + 3 k0^2 - 8) tau_c >= 8 k0 (k0 - 1)
    sel = np.flatnonzero(D_in * (D_in * D_in + (3.0 * k0 * k0 - 8.0)) * tau_c
                         >= 8.0 * k0 * (k0 - 1.0))
    if sel.size:
        map_root = critical_time_step(*map_cubic_coefficients(k0, D_in[sel]))
        tau_c[sel] = np.minimum(tau_c[sel], map_root)
    tau_c[~inside] = 0.0
    return float(tau_c[0]) if D.ndim == 0 else tau_c.reshape(D.shape)


def build_report(tau, speed, depth, params: PhysicalParams) -> StabilityReport:
    """Evaluate every analysis quantity for one (tau, |u|, H) operating point;
    a point outside the module's range is refused by a ValueError naming it.

    The gate's fields rate the speed given; the gate itself floors each
    node's speed at ``simulator.U_FLOOR`` first."""
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if not 0.0 < depth < math.inf:
        raise ValueError("depth must be positive and finite")
    if not 0.0 <= speed < math.inf:
        raise ValueError("speed must be finite and >= 0")
    with np.errstate(all="ignore"):   # an overflow or a zero divisor is out of range
        D = float(drag_coefficient(speed, np.float64(depth), params))
    if not ((D == 0.0 or D_MIN <= D <= D_MAX) and tau * max(1.0, D) <= TAU_MAX):
        raise ValueError(f"operating point tau={tau!r} s, speed={speed!r} m/s, depth={depth!r} m "
                         f"is out of range: its drag rate D={D!r} 1/s must be 0 or in "
                         f"[{D_MIN:g}, {D_MAX:g}], and tau max(1, D) <= {TAU_MAX:g}")
    alpha, beta = step_coefficients(tau, params.k0, D)
    a, b, c, d = cubic_coefficients(params.k0, D)
    if D == 0.0:
        tau_c_cubic = tau_c_gate = math.nan
    else:
        tau_c_cubic = critical_time_step(a, b, c, d)
        tau_c_gate = critical_time_step_for_drag(params.k0, D)
    return StabilityReport(
        tau=tau, speed=speed, depth=depth, drag=D, alpha=alpha, beta=beta,
        modulus=velocity_mode_modulus(alpha, beta),
        cubic_a=a, cubic_b=b, cubic_c=c, cubic_d=d,
        tau_c_cubic=tau_c_cubic, tau_c_gate=tau_c_gate,
        convergent_cubic=is_convergent_cubic(tau, params.k0, D),
        convergent_gate=tau < tau_c_gate,
    )
