import random

import pytest

from ncmotives.corpus import corpus_algebra


@pytest.fixture(scope="session")
def q():
    return corpus_algebra("Q")


@pytest.fixture(scope="session")
def qxq():
    return corpus_algebra("QxQ")


@pytest.fixture(scope="session")
def a2():
    return corpus_algebra("A2")


@pytest.fixture(scope="session")
def a3():
    return corpus_algebra("A3")


@pytest.fixture(scope="session")
def kronecker():
    return corpus_algebra("Kronecker")


@pytest.fixture()
def rng():
    return random.Random(20240501)


@pytest.fixture()
def max_length(monkeypatch):
    """Set MAX_RESOLUTION_LENGTH for one test, in every module that reads
    it.  No memo is keyed by the bound, so apply it to algebras built in the
    test, which hold no resolution made under another bound."""
    from ncmotives import derived, resolutions

    def set_length(n):
        for module in (derived, resolutions):
            monkeypatch.setattr(module, "MAX_RESOLUTION_LENGTH", n)

    return set_length
