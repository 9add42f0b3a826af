import pytest
from hypothesis import settings

from featmod import tensors

settings.register_profile("deterministic", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the test, as perfbench runs it,
    and back to its thread count after; tensors.matmul_cols splits only
    there."""
    get, set_threads = tensors._openblas("get_num_threads"), tensors._openblas("set_num_threads")
    if set_threads is None:
        pytest.skip("numpy carries no OpenBLAS whose thread count can be set")
    before = get()
    set_threads(1)
    yield
    set_threads(before)
