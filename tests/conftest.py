import numpy as np
import pytest

from slowphoton import EitMedium, PhotonWaveform, cli, media, observables, propagate, waveforms
from slowphoton.waveforms import WaveformKind

# every kept result of the package: each functools.lru_cache in its modules
KEPT = {f for module in (cli, media, observables, propagate, waveforms)
        for f in vars(module).values() if hasattr(f, "cache_clear")}


@pytest.fixture(autouse=True)
def nothing_kept():
    """Each test starts with nothing kept, so none passes on a result an earlier test computed."""
    for f in KEPT:
        f.cache_clear()


@pytest.fixture
def eit_example():
    """EIT medium of the worked example: Gamma=10*gamma_m, Omega=2*Gamma, T_b=30."""
    return EitMedium(gamma_total=10.0, gamma_m=1.0, omega=20.0, thickness=30.0)


@pytest.fixture
def causal_unit():
    return PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 1.0)


@pytest.fixture
def sym_unit():
    return PhotonWaveform(WaveformKind.SYMMETRIC_PART, 1.0)


@pytest.fixture
def anti_unit():
    return PhotonWaveform(WaveformKind.ANTISYMMETRIC_PART, 1.0)


def mask_near_zero(tau, spacing, steps=2):
    """Boolean mask excluding +-`steps` grid steps around tau = 0."""
    return np.abs(tau) > steps * spacing + 1e-12
