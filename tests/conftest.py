import pytest

from netcoh import netfreq


@pytest.fixture
def exact_sums(monkeypatch):
    """Counts exact harmonic means, through the bindings the library calls."""
    calls = []
    real = netfreq.harmonic_mean

    def counting(gs):
        calls.append(1)
        return real(gs)

    monkeypatch.setattr(netfreq, "harmonic_mean", counting)
    return calls
