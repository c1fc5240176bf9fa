import pytest

from ybx import quadset

# r(x,y) = (f(y), y) for the 3-cycle f
CYCLE3_F = [1, 2, 0]

# a left-nondegenerate idempotent braided set on 3 elements whose left
# actions are the three transpositions
MIXED3_TABLE = {
    (0, 0): (0, 0), (1, 1): (0, 0), (2, 2): (0, 0),
    (1, 0): (1, 0), (0, 2): (1, 0), (2, 1): (1, 0),
    (2, 0): (2, 0), (0, 1): (2, 0), (1, 2): (2, 0),
}


def mixed3_solution():
    return quadset.QuadraticSet(3, [MIXED3_TABLE[i, j]
                                    for i in range(3) for j in range(3)])


@pytest.fixture
def cycle3():
    return quadset.make_permutation_solution(CYCLE3_F)


@pytest.fixture
def mixed3():
    return mixed3_solution()


@pytest.fixture
def rid2():
    return quadset.make_permutation_solution([0, 1])
