import pytest

from ends_splitter.ends import make_end_function
from ends_splitter.groups import (
    Presentation,
    build_net,
    build_truncation,
    path_truncation,
)
from ends_splitter.harmonic import solve_dirichlet


@pytest.fixture(scope="session")
def f2():
    return Presentation.free(2)


@pytest.fixture(scope="session")
def z23():
    return Presentation.free_product_of_cyclics([2, 3])


@pytest.fixture(scope="session")
def t_f2_r4(f2):
    return build_truncation(f2, 4)


@pytest.fixture(scope="session")
def t_f2_r6(f2):
    return build_truncation(f2, 6)


@pytest.fixture(scope="session")
def t_f2_r8(f2):
    return build_truncation(f2, 8)


@pytest.fixture(scope="session")
def t_z23_r8(z23):
    return build_truncation(z23, 8)


@pytest.fixture(scope="session")
def t_z23_r10(z23):
    return build_truncation(z23, 10)


@pytest.fixture(scope="session")
def chi_first_letter_r8(t_f2_r8):
    return make_end_function(t_f2_r8, 1, rule="first_letter:a")


@pytest.fixture(scope="session")
def h_first_letter_r8(t_f2_r8, chi_first_letter_r8):
    return solve_dirichlet(t_f2_r8, chi_first_letter_r8)


@pytest.fixture(scope="session")
def net1_f2_r8(t_f2_r8):
    return build_net(t_f2_r8, 1)


@pytest.fixture(scope="session")
def net2_f2_r8(t_f2_r8):
    return build_net(t_f2_r8, 2)


# every kind of syllable the layout and the word renderer meet: free
# letters (two ranks), Z factors, odd and even finite orders (Z/4 and Z/6
# have an antipode with two parents), three factors, and no presentation
_STREAM_CASES = {
    "F2-r6": lambda: build_truncation(Presentation.free(2), 6),
    "F3-r5": lambda: build_truncation(Presentation.free(3), 5),
    "Z3*Z-r7": lambda: build_truncation(
        Presentation.free_product_of_cyclics([3, 0]), 7),
    "Z2*Z3-r12": lambda: build_truncation(
        Presentation.free_product_of_cyclics([2, 3]), 12),
    "Z4*Z5-r7": lambda: build_truncation(
        Presentation.free_product_of_cyclics([4, 5]), 7),
    "Z6*Z*Z2-r5": lambda: build_truncation(
        Presentation.free_product_of_cyclics([6, 0, 2]), 5),
    "path": lambda: path_truncation(20),
}


@pytest.fixture(scope="session", params=sorted(_STREAM_CASES))
def stream_truncation(request):
    return _STREAM_CASES[request.param]()
