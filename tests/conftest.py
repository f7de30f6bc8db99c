import pytest

from sasm.corpus import corpus_benchmarks


@pytest.fixture(scope="session")
def corpus():
    return corpus_benchmarks()
