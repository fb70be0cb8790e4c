"""logistic.one_blas_thread, and the bits it makes independent of the BLAS thread count."""

import numpy as np
import pytest

from mlcascade import logistic
from mlcascade.data import Dataset, SynthNetSpec, gen_synthetic
from mlcascade.logistic import TrainConfig, one_blas_thread
from mlcascade.transforms import fit_layer, train_br


@pytest.fixture
def blas():
    """numpy's OpenBLAS (get, set) thread-count functions, set to 2 threads
    for the test and reset to the count found before it afterwards."""
    calls = logistic._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread functions not found")
    get, set_ = calls
    found = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not run 2 threads here")
        yield get, set_
    finally:
        set_(found)


def test_restores_the_thread_count_after_the_block(blas):
    get, _ = blas
    with one_blas_thread():
        assert get() == 1
    assert get() == 2


def test_restores_the_thread_count_after_an_exception(blas):
    get, _ = blas
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="unit 0: training diverged"):
        fit_layer(X, np.array([[0], [1], [1], [1]]), [2], ["unit 0"],
                  TrainConfig(learning_rate=1e30))
    assert get() == 2


def test_does_nothing_without_the_thread_functions(blas, monkeypatch):
    get, _ = blas
    monkeypatch.setattr(logistic, "_blas_thread_calls", lambda: None)
    ran = False
    with one_blas_thread():
        assert get() == 2
        ran = True
    assert ran and get() == 2


def test_fits_and_generated_data_do_not_depend_on_the_thread_count(blas):
    _, set_ = blas
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5000, 100))
    Y = (X[:, :3] > 0).astype(np.int64)
    t = 0.5 - Y[:, 0]  # the error a fit's first epoch multiplies by X.T
    raw = {}
    for threads in (2, 1):
        set_(threads)
        raw[threads] = X.T.dot(t)
    assert not np.array_equal(raw[2], raw[1]), \
        "X.T.dot gives the same bits on 1 and 2 threads here, so this test shows nothing"

    def outputs():
        model = train_br(Dataset(X, Y), TrainConfig(epochs=3))
        data = gen_synthetic(SynthNetSpec(D=10, L=10, N=7000, hidden_units=100, seed=1))
        return [m.weights.tobytes() for m in model.models] + [data.X.tobytes(),
                                                             data.Y.tobytes()]

    set_(2)
    two = outputs()
    set_(1)
    assert outputs() == two
