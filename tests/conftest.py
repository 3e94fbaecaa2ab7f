import pytest

from _oracles import enumerate_gl
from plurican.evenclass import enumerate_totally_even, verify_lemma_ev


@pytest.fixture(scope="session")
def gl4():
    return enumerate_gl(4)


@pytest.fixture(scope="session")
def gl3():
    return enumerate_gl(3)


@pytest.fixture(scope="session")
def te8():
    return enumerate_totally_even(8)


@pytest.fixture(scope="session")
def lemma_report():
    return verify_lemma_ev()
