"""Convergence analysis of the explicit source update.

The source half of the splitting advances the velocities with a frozen
drag rate D = g|u| / (k1^2 H).  On a spatially uniform field the update
reduces to a 2x2 damping/rotation recursion with coefficients

    alpha = -tau^2 k0^2 / 2 - tau D + tau^2 D^2 / 2
    beta  =  tau k0 - tau^2 D

and the full three-field amplification matrix is block triangular, so
convergence is governed by the modulus sqrt((1+alpha)^2 + beta^2) of the
velocity eigenpair alone.  :func:`build_report` gives two verdicts:

* the cubic criterion: a tau^3 - b tau^2 + c tau - d < 0 with the
  closed-form coefficients below, whose real root is the critical step
  tau_c (the one the simulator gate uses);
* the modulus criterion: the modulus of the velocity eigenpair < 1.

The two disagree because the cubic is not the exact expansion of the
modulus condition.  They share b, c, d, so the cubic is the stricter
bound only while its leading coefficient is the larger: D^2 < 4 + k0^2,
about 2 1/s (k0 = 1e-4, tau_c 10.0 against 12.6 s at D = 1e-3); past
that its root grows like D/2 (4.80 against 0.193 s at D = 10).  The
modulus criterion is exact for the paper's (alpha, beta) pair only: the
sub-step the code runs (:func:`source_update_matrix`) has the rotation
entry tau k0 - tau^2 D k0, not beta = tau k0 - tau^2 D.  With the Chezy
drag off (D = 0) the recursion has modulus >= 1 for every tau, so
neither verdict can ever pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DEFAULT_H_MIN


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
        # the formulas divide by k1 ** 2 and take k0 ** 4 on Python floats,
        # where a zero divisor or a ** past the largest float raises
        if not 0 < self.k1 * self.k1 < math.inf:
            raise ValueError(f"k1 must have a finite, positive square: k1={self.k1!r}")
        if not self.k0 * self.k0 * self.k0 * self.k0 < math.inf:
            raise ValueError(f"k0 must have a finite fourth power: k0={self.k0!r}")
        try:   # the drag rate per unit speed peaks at the clamped depth h_min
            finite_drag = drag_coefficient(1.0, self.h_min, self) < math.inf
        except ZeroDivisionError:   # k1^2 h_min underflows to 0
            finite_drag = False
        if not finite_drag:
            raise ValueError(f"k1 must give a finite drag factor g / (k1^2 h_min): "
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
    tau_c_modulus: float
    convergent_cubic: bool
    convergent_modulus: bool


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


def modulus_cubic_coefficients(k0, D):
    """Exact-expansion variant of the cubic; only the t^3 coefficient differs.

    Expanding (1+alpha)^2 + beta^2 < 1 and dividing by tau gives the same
    b, c, d as :func:`cubic_coefficients` with leading coefficient
    (D^2 - k0^2)^2 + 4 D^2.
    """
    a = (D ** 2 - k0 ** 2) ** 2 + 4.0 * D ** 2
    _, b, c, d = cubic_coefficients(k0, D)
    return a, b, c, d


def _bisect_cubic(a, b, c, d):
    f = lambda t: ((a * t - b) * t + c) * t - d
    # f(0) = -d < 0: a local maximum t_max > 0 with f(t_max) > 0 brackets
    # the smallest positive root; without one f changes sign once on t > 0
    p = b * b - 3.0 * a * c
    t_max = (b - math.sqrt(p)) / (3.0 * a) if p > 0.0 else 0.0
    # past 1 + (|b| + c + d) / a the term a t^3 outgrows the others: f > 0
    lo, hi = 0.0, (t_max if t_max > 0.0 and f(t_max) > 0.0 else 1.0 + (abs(b) + c + d) / a)
    if not (f(lo) < 0.0 < f(hi)):
        raise ValueError("cubic has no sign change on the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_CBRT2 = 2.0 ** (1.0 / 3.0)


def _cardano_terms(a, b, c, d):
    """The Cardano resolvent's terms (p0, p1, disc) of a t^3 - b t^2 + c t - d:
    p0 = -b^2 + 3ac, p1 = 2b^3 - 9abc + 27a^2 d, disc = 4 p0^3 + p1^2."""
    p0 = -b * b + 3.0 * a * c
    # x * x * x, not x ** 3: numpy's power is some 100 times slower on a negative base
    p1 = 2.0 * (b * b * b) - 9.0 * a * b * c + 27.0 * a * a * d
    return p0, p1, 4.0 * (p0 * p0 * p0) + p1 * p1


def critical_time_step(a, b, c, d):
    """Real positive root of a t^3 - b t^2 + c t - d = 0 in closed form.

    Uses the Cardano resolvent

        q = 2 b^3 - 9 a b c + 27 a^2 d + sqrt(4 (-b^2 + 3 a c)^3 + (...)^2)
        tau_c = b/(3a) - 2^(1/3) (-b^2 + 3 a c) / (3 a q^(1/3))
                + q^(1/3) / (2^(1/3) 3 a)

    with real cube roots.  A negative discriminant (three real roots), a
    vanishing resolvent or a failed residual check falls back to bisection
    for the smallest positive root; a triple root (q = 0 = -b^2 + 3ac) is b/(3a).

    The coefficients may be scalars or broadcastable numpy arrays: scalar
    inputs return a float, array inputs an array of roots, one per entry,
    and only the entries that need it are bisected.

    Raises ``ValueError``, naming the condition, when any entry has
    a <= 0 or d <= 0 (the D = 0 regime: the scheme is never convergent);
    either leaves no positive root.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
    shape = a.shape
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    if (a <= 0.0).any():
        raise ValueError("no positive root: a <= 0, the leading coefficient is not positive")
    if (d <= 0.0).any():
        raise ValueError("no positive root: d <= 0, the drag rate D = d/8 is not positive")
    p0, p1, disc = _cardano_terms(a, b, c, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = p1 + np.sqrt(disc)
        cr = np.copysign(np.abs(q) ** (1.0 / 3.0), q)
        tau_c = b / (3.0 * a) - _CBRT2 * p0 / (3.0 * a * cr) + cr / (_CBRT2 * 3.0 * a)
        residual = ((a * tau_c - b) * tau_c + c) * tau_c - d
    triple = (q == 0.0) & (p0 == 0.0)
    tau_c = np.where(triple, b / (3.0 * a), tau_c)
    # a negative discriminant leaves tau_c nan, which fails tau_c > 0
    ok = triple | ((q != 0.0) & (tau_c > 0.0) & (np.abs(residual) < 1e-9 * d))
    for i in np.flatnonzero(~ok):
        tau_c[i] = _bisect_cubic(a[i], b[i], c[i], d[i])
    return float(tau_c[0]) if shape == () else tau_c.reshape(shape)


def is_convergent_cubic(tau, k0, D):
    """Cubic criterion verdict: a tau^3 - b tau^2 + c tau - d < 0 (strict)."""
    a, b, c, d = cubic_coefficients(k0, D)
    return ((a * tau - b) * tau + c) * tau - d < 0.0


def critical_time_step_for_drag(k0, D):
    """tau_c of the cubic criterion for drag rates D > 0.

    ``D`` is a scalar (returns a float) or an array (returns an array,
    one tau_c per entry, all evaluated in one pass of
    :func:`critical_time_step`); ``k0`` is a scalar.  A zero drag rate
    has no critical step and raises :func:`critical_time_step`'s
    ``ValueError``; :func:`build_report` handles D = 0 itself.
    """
    return critical_time_step(*cubic_coefficients(k0, D))


def build_report(tau, speed, depth, params: PhysicalParams) -> StabilityReport:
    """Evaluate every analysis quantity for one (tau, |u|, H) operating point."""
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if not 0.0 < depth < math.inf:
        raise ValueError("depth must be positive and finite")
    if not 0.0 <= speed < math.inf:
        raise ValueError("speed must be finite and >= 0")
    try:
        D = drag_coefficient(speed, depth, params)
        alpha, beta = step_coefficients(tau, params.k0, D)   # tau ** 2 may overflow
        a, b, c, d = cubic_coefficients(params.k0, D)
        modulus_cubic = modulus_cubic_coefficients(params.k0, D)
        finite = all(map(math.isfinite, (D, a, b, c, d, *modulus_cubic)))
        if finite and D != 0.0:   # the Cardano terms of both roots' cubics too
            finite = all(math.isfinite(_cardano_terms(*cubic)[2])
                         for cubic in ((a, b, c, d), modulus_cubic))
    except (OverflowError, ZeroDivisionError):   # a ** past the largest float, or / by 0
        finite = False
    point = f"operating point tau={tau!r} s, speed={speed!r} m/s, depth={depth!r} m"
    if not finite:
        raise ValueError(f"{point} is out of range: its drag rate, tau^2 or cubic coefficients "
                         "are not finite")
    if D != 0.0 and a <= 0.0:   # k0^4 + D^2 (8 - k0^2) turns negative once k0^2 > 8
        raise ValueError(f"{point} is out of range: its cubic's leading coefficient "
                         f"a={a!r} is not positive")
    if D == 0.0:
        tau_c_cubic = math.nan
        tau_c_modulus = math.nan
    else:
        tau_c_cubic = critical_time_step(a, b, c, d)
        tau_c_modulus = critical_time_step(*modulus_cubic)
    modulus = velocity_mode_modulus(alpha, beta)
    return StabilityReport(
        tau=tau,
        speed=speed,
        depth=depth,
        drag=D,
        alpha=alpha,
        beta=beta,
        modulus=modulus,
        cubic_a=a, cubic_b=b, cubic_c=c, cubic_d=d,
        tau_c_cubic=tau_c_cubic,
        tau_c_modulus=tau_c_modulus,
        convergent_cubic=is_convergent_cubic(tau, params.k0, D),
        convergent_modulus=modulus < 1.0,
    )
