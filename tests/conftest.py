import pytest

from loopscope import model


@pytest.fixture
def two_blas_threads():
    """NumPy's OpenBLAS at 2 threads during the test, so that a call which
    holds it at 1 and does not give the count back shows; yields the
    thread-count getter."""
    if model._OPENBLAS is None:
        pytest.skip("NumPy does not run on its bundled OpenBLAS")
    get_threads, set_threads = model._OPENBLAS
    threads = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(threads)
