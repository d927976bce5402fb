"""Single-photon wave packets in resonant two-level and EIT absorbers.

Library plus CLI for computing the transmitted probability amplitude of a
causal single-photon envelope behind matched, broad and EIT media, both by
a numerical spectral propagator and by the closed-form solutions, with the
integral observables (pulse area, transmitted energy, thickness scans)
needed to study Beer's-law violation and EIT reshaping.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    TruncatedSupportWarning,
    UnsupportedWaveformError,
    ValidityError,
)
from .media import (
    AbsorberSpec,
    BroadLine,
    EitMedium,
    EitParams,
    MatchedLine,
    adiabatic_response,
    eit_params,
    fe57_siderite,
    spectral_response,
)
from .observables import (
    ThicknessScan,
    integrated_intensity,
    pulse_area,
    thickness_scan,
    u_broad,
    u_eit_adiabatic,
    u_gaussian,
    u_matched,
)
from .propagate import (
    adiabatic_eit,
    analytic_matched,
    analytic_parts_broad,
    analytic_parts_matched,
    approx_broad,
    gaussian_broad,
    phi_plus,
    propagate_numeric,
    total_eit,
)
from .waveforms import (
    PhotonWaveform, TimeGrid, TimeSeries, WaveformKind, sample, spectral_amplitude, time_amplitude,
)

__version__ = "0.1.0"
