import pytest

from netcoh.ratfun import RationalFunction


@pytest.fixture
def exact_additions(monkeypatch):
    """Counts RationalFunction additions; an exact sum of n terms makes n - 1."""
    calls = []
    real = RationalFunction.__add__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(RationalFunction, "__add__", counting)
    return calls
