import pytest

from moufang import linalg, models, octonion


def same_span(a, b) -> bool:
    """Do the two lists of vectors span one subspace?  They do exactly when
    rank A = rank B = rank of A and B stacked."""
    def rank(vectors):
        return len(linalg.rref([list(v) for v in vectors])[1])

    return rank(a) == rank(b) == rank([*a, *b])


@pytest.fixture(scope="session")
def o16():
    return octonion.o16_loop()


@pytest.fixture(scope="session")
def loop_o16(o16):
    return models.loop_bialgebra(o16)


@pytest.fixture(scope="session")
def fn_o16(o16):
    return models.function_bialgebra(o16)


@pytest.fixture(scope="session")
def binomial6():
    return models.truncated_binomial_bialgebra(6)
