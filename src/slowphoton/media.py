"""Absorber models: complex spectral response A(nu)*l and EIT filter numbers.

Three media are supported, all specified by rates plus a dimensionless
effective thickness (the resonant optical depth alpha0*l divided by the
relevant linewidth); the product alpha0*l is recovered as
thickness * linewidth and the absorption coefficient and physical length
are never needed separately.

MatchedLine  -- Lorentzian line of halfwidth gamma, thickness T = alpha0*l/gamma
BroadLine    -- Lorentzian line of total halfwidth Gamma (natural plus
                inhomogeneous), thickness T_b = alpha0*l/Gamma
EitMedium    -- three-level absorber: g-e line of halfwidth Gamma with the
                excited state coupled (strength Omega) to a metastable state
                of half decay rate gamma_m, cutting a transparency window of
                halfwidth ~ Omega**2/Gamma into the line center
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidityError
from .waveforms import _nu_array, _s_plus

__all__ = [
    "MatchedLine",
    "BroadLine",
    "EitMedium",
    "AbsorberSpec",
    "EitParams",
    "spectral_response",
    "eit_params",
    "fe57_siderite",
]


def _positive(x, name):
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"{name} must be a positive finite rate, got {x}")


def _thickness(a):
    if not (a.thickness >= 0 and math.isfinite(a.thickness)):
        raise ValueError(f"effective thickness must be >= 0, got {a.thickness}")
    if not math.isfinite(a.alpha0_l):
        raise ValueError(f"alpha0*l = {a.thickness} * {a.linewidth} overflows")


class _Medium:
    @property
    def alpha0_l(self) -> float:
        """Resonant optical depth alpha0*l = thickness * linewidth."""
        return self.thickness * self.linewidth


@dataclass(frozen=True)
class MatchedLine(_Medium):
    """Single Lorentzian line whose halfwidth matches the source photon."""

    gamma: float
    thickness: float  # T = alpha0*l / gamma

    def __post_init__(self):
        _positive(self.gamma, "gamma")
        _thickness(self)

    @property
    def linewidth(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class BroadLine(_Medium):
    """Lorentzian line of total halfwidth Gamma (>= the photon width)."""

    gamma_total: float
    thickness: float  # T_b = alpha0*l / Gamma

    def __post_init__(self):
        _positive(self.gamma_total, "gamma_total")
        _thickness(self)

    @property
    def linewidth(self) -> float:
        return self.gamma_total


@dataclass(frozen=True)
class EitMedium(_Medium):
    """Broad g-e line with a coupled metastable state opening an EIT window."""

    gamma_total: float  # halfwidth Gamma of the unperturbed g-e line
    gamma_m: float      # half decay rate of the metastable state
    omega: float        # coupling strength between excited and metastable
    thickness: float    # T_b = alpha0*l / Gamma, without the coupling

    def __post_init__(self):
        _positive(self.gamma_total, "gamma_total")
        _positive(self.gamma_m, "gamma_m")
        _positive(self.omega, "omega")
        _thickness(self)
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(f"omega**2 must be finite (got omega = {self.omega})")
        if not self.gamma_total > self.gamma_m:
            raise ValueError(
                "EitMedium requires gamma_total > gamma_m "
                f"(got Gamma={self.gamma_total}, gamma_m={self.gamma_m})"
            )

    @property
    def linewidth(self) -> float:
        return self.gamma_total

    @property
    def delta_eit(self) -> float:
        """Nominal halfwidth Omega**2/Gamma of the transparency window."""
        return self.omega**2 / self.gamma_total


AbsorberSpec = Union[MatchedLine, BroadLine, EitMedium]


@dataclass(frozen=True)
class EitParams:
    """Quadratic-expansion filter numbers of an EIT medium.

    t_eit is the residual thickness at the window bottom, t_d the group
    delay, delta_eff the thickness-narrowed effective window halfwidth and
    delta_eit the nominal window halfwidth Omega**2/Gamma.
    """

    t_eit: float
    t_d: float
    delta_eff: float
    delta_eit: float


def spectral_response(a: AbsorberSpec, nu):
    """Complex spectral response A(nu)*l of the absorber.

    The real part is the absorption exponent (>= 0 for every passive
    medium here); the imaginary part carries the dispersion.
    """
    nv = _nu_array(nu)
    if isinstance(a, (MatchedLine, BroadLine)):  # alpha0*l/(Gamma + s), s = -i*nu
        out = _s_plus(a.linewidth, nv)
        np.divide(a.alpha0_l, out, out=out)
    elif isinstance(a, EitMedium):  # alpha0*l*(gamma_m + s)/((Gamma + s)*(gamma_m + s) + Omega**2)
        out = _s_plus(a.gamma_m, nv)
        den = _s_plus(a.gamma_total, nv)
        den *= out
        den += a.omega**2
        part = out.view(float)  # alpha0*l times a complex number is alpha0*l times each part
        part *= a.alpha0_l
        np.divide(out, den, out=out)
    else:
        raise TypeError(f"not an absorber spec: {a!r}")
    return out if np.ndim(nu) else complex(out[0])


def _require_adiabatic(a: EitMedium):
    if not isinstance(a, EitMedium):
        raise TypeError(f"eit_params needs an EitMedium, got {a!r}")
    if a.omega**2 < a.gamma_m * a.gamma_total:
        raise ValidityError(
            "adiabatic expansion invalid: requires Omega**2 >= gamma_m*Gamma "
            f"(got Omega**2={a.omega**2:g}, gamma_m*Gamma="
            f"{a.gamma_m * a.gamma_total:g})"
        )


def eit_params(a: EitMedium) -> EitParams:
    """Residual thickness, group delay and effective window halfwidth.

    Exact rational expressions from the expansion of the EIT response to
    second order around line center; valid when the transparency hole is
    actually open, Omega**2 >= gamma_m*Gamma, in a medium of nonzero
    thickness whose numbers are finite floats.
    """
    _require_adiabatic(a)
    g, gm, om2, tb = a.gamma_total, a.gamma_m, a.omega**2, a.thickness
    if tb == 0.0:
        raise ValidityError("EIT filter numbers need thickness > 0 (delta_eff ~ 1/sqrt(T_b))")
    q = om2 + gm * g
    try:  # float ** raises OverflowError where * gives inf
        t_eit = tb * gm * g / q
        t_d = tb * g * (om2 - gm**2) / q**2
        delta_eff = math.sqrt(q**3 / (tb * g * (om2 * (g + 2 * gm) - gm**3)))
    except OverflowError:
        t_eit = t_d = delta_eff = math.inf
    if not (all(map(math.isfinite, (t_eit, t_d, delta_eff))) and delta_eff > 0.0):
        raise ValidityError(
            f"EIT filter numbers overflow (Omega**2 = {om2:g}, alpha0*l = {a.alpha0_l:g})"
        )
    return EitParams(
        t_eit=t_eit, t_d=t_d, delta_eff=delta_eff, delta_eit=a.delta_eit
    )


def fe57_siderite() -> EitMedium:
    """Named preset for the 57Fe level-mixing scenario in siderite.

    The g-e line is broadened by electron-spin fluctuations while the g-m
    line keeps its natural width; no measured Gamma/gamma_m ratio is
    available for FeCO3, so the ratio 10 is a documented placeholder
    (same as the worked EIT example), with the mixing Omega = 2*Gamma and
    thickness 30.  Rates are in units of gamma_m.
    """
    gamma_m = 1.0
    gamma_total = 10.0 * gamma_m
    return EitMedium(gamma_total=gamma_total, gamma_m=gamma_m, omega=2.0 * gamma_total, thickness=30.0)


def medium_system(a: AbsorberSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, B, C) with A(s)*l = C @ inv(s*I - M) @ B, s = -i*nu.

    M holds only the medium's own rates: [[-Gamma]] for a line and
    [[-Gamma, -Omega], [Omega, -gamma_m]] for EIT, so coincident poles (the
    critical EIT coupling Omega = (Gamma - gamma_m)/2) need no special case.
    B = e_1 is a column and C = alpha0_l * e_1 a row.  Used by the numeric
    propagator's closed-form subtraction.
    """
    if isinstance(a, (MatchedLine, BroadLine)):
        m = np.array([[-a.linewidth]])
    elif isinstance(a, EitMedium):
        m = np.array([[-a.gamma_total, -a.omega], [a.omega, -a.gamma_m]])
    else:
        raise TypeError(f"not an absorber spec: {a!r}")
    b = np.eye(len(m), 1)
    return m, b, a.alpha0_l * b.T
