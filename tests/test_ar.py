"""Unit tests for AR models (Yule-Walker and OLS)."""

import numpy as np
import pytest

from repro.timeseries.ar import (
    ARModel,
    _solve_symmetric_toeplitz,
    autocovariance,
    fit_ar_ols,
    fit_ar_yule_walker,
)


def make_ar2(n=5000, phi=(0.6, 0.2), sigma=0.5, mu=10.0, seed=1):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = phi[0] * x[t - 1] + phi[1] * x[t - 2] + rng.normal(0, sigma)
    return x + mu


class TestEstimators:
    def test_autocovariance_lag0_is_variance(self):
        x = make_ar2()
        gamma = autocovariance(x, 3)
        assert gamma[0] == pytest.approx(np.var(x), rel=1e-6)

    def test_autocovariance_invalid_lag(self):
        with pytest.raises(ValueError):
            autocovariance(np.zeros(5) + 1.0, 5)

    def test_yule_walker_recovers_coefficients(self):
        x = make_ar2()
        phi, variance = fit_ar_yule_walker(x, 2)
        assert phi[0] == pytest.approx(0.6, abs=0.06)
        assert phi[1] == pytest.approx(0.2, abs=0.06)
        assert np.sqrt(variance) == pytest.approx(0.5, abs=0.05)

    def test_ols_recovers_coefficients(self):
        x = make_ar2()
        phi, intercept, variance = fit_ar_ols(x, 2)
        assert phi[0] == pytest.approx(0.6, abs=0.06)
        assert phi[1] == pytest.approx(0.2, abs=0.06)

    def test_constant_series_gives_zero_dynamics(self):
        phi, variance = fit_ar_yule_walker(np.full(100, 5.0), 2)
        assert np.allclose(phi, 0.0)
        assert variance == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fit_ar_yule_walker(make_ar2(100), 0)


# fit_ar_yule_walker(make_ar2(n=400, seed=100 + order), order) as computed by
# scipy.linalg.solve_toeplitz, as float.hex: (coefficients, variance).
PINNED_YULE_WALKER = {
    1: (("0x1.4e06f6549192cp-1",), "0x1.01b2ea52ab889p-2"),
    2: (("0x1.4f85decc9e75ap-1", "0x1.e25b2887697a4p-4"), "0x1.08e5a247be7cfp-2"),
    3: (
        ("0x1.1ade56f208e47p-1", "0x1.1bce63b90dea4p-2", "-0x1.dbacb290bc1a3p-6"),
        "0x1.f46fc7a441ad4p-3",
    ),
    4: (
        (
            "0x1.4ccb132b5cc5cp-1",
            "0x1.1a13b9ce92b0cp-3",
            "-0x1.984e999ab607dp-5",
            "0x1.bd5de0507fcd5p-7",
        ),
        "0x1.fc732cb8fb83ep-3",
    ),
    5: (
        (
            "0x1.4909312e6dee6p-1",
            "0x1.9e4adeff40e8bp-3",
            "0x1.90a620109b2c0p-12",
            "-0x1.1a394b168a677p-4",
            "-0x1.57b8d78c9b3f0p-6",
        ),
        "0x1.fc730913c6b3ep-3",
    ),
    6: (
        (
            "0x1.129449d8faf0bp-1",
            "0x1.547f0b220d2a4p-3",
            "0x1.9947f42a926a4p-4",
            "-0x1.a331211744114p-7",
            "0x1.3fb29b14795c0p-11",
            "0x1.0c95791006440p-5",
        ),
        "0x1.02f41dceb3dc7p-2",
    ),
    7: (
        (
            "0x1.1a6f8953933d8p-1",
            "0x1.1a82921217a7bp-3",
            "-0x1.32bd366468106p-7",
            "0x1.97335db8db368p-4",
            "-0x1.8c6eee71668e2p-5",
            "0x1.fe6ecfd0c26f2p-7",
            "-0x1.2f611363e3420p-4",
        ),
        "0x1.e9a3abb36c688p-3",
    ),
    8: (
        (
            "0x1.3fdb3ce1f129ep-1",
            "0x1.9ba7674e987abp-3",
            "-0x1.8ec70d0c13477p-5",
            "0x1.c86c7ef77acabp-5",
            "-0x1.0ce24222a2d81p-6",
            "-0x1.dcc0fa8cf2a94p-9",
            "-0x1.6c578208db664p-5",
            "0x1.b05423c1d9b93p-6",
        ),
        "0x1.1a561da96e2cbp-2",
    ),
}


def yule_walker_system(rng):
    """A random Yule–Walker system (autocovariance column, rhs) of order 1-8."""
    order = int(rng.integers(1, 9))
    n = int(rng.integers(order + 2, 200))
    series = rng.standard_normal(n).cumsum() * rng.uniform(0.1, 10.0)
    gamma = autocovariance(series, order)
    return gamma[:order], gamma[1 : order + 1]


class TestToeplitzSolver:
    @pytest.mark.parametrize("order", sorted(PINNED_YULE_WALKER))
    def test_yule_walker_matches_pinned_bits(self, order):
        phi, variance = fit_ar_yule_walker(make_ar2(n=400, seed=100 + order), order)
        coeffs_hex, variance_hex = PINNED_YULE_WALKER[order]
        assert tuple(float(c).hex() for c in phi) == coeffs_hex
        assert float(variance).hex() == variance_hex

    def test_bit_identical_to_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            column, rhs = yule_walker_system(rng)
            expected = scipy_linalg.solve_toeplitz(column, rhs)
            assert np.array_equal(_solve_symmetric_toeplitz(column, rhs), expected)

    def test_singular_minor_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="Singular principal minor"):
            _solve_symmetric_toeplitz(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_singular_minor_matches_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        column, rhs = np.array([1.0, 1.0]), np.array([1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _solve_symmetric_toeplitz(column, rhs)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            scipy_linalg.solve_toeplitz(column, rhs)
        assert str(ours.value) == str(theirs.value)


class TestARModel:
    def test_one_step_prediction_beats_mean(self):
        x = make_ar2()
        model = ARModel(order=2).fit(x[:4000])
        errors_model = []
        errors_mean = []
        mean = np.mean(x[:4000])
        for value in x[4000:4500]:
            errors_model.append(abs(model.predict_next() - value))
            errors_mean.append(abs(mean - value))
            model.observe(value)
        assert np.mean(errors_model) < 0.8 * np.mean(errors_mean)

    def test_stationarity_detected(self):
        model = ARModel(order=2).fit(make_ar2())
        assert model.is_stationary()

    def test_forecast_converges_to_mean(self):
        x = make_ar2(mu=10.0)
        model = ARModel(order=2).fit(x)
        forecast = model.forecast(500)
        assert forecast.mean[-1] == pytest.approx(np.mean(x), abs=0.5)

    def test_forecast_std_grows_then_saturates(self):
        model = ARModel(order=2).fit(make_ar2())
        forecast = model.forecast(200)
        assert forecast.std[0] < forecast.std[10]
        assert forecast.std[-1] == pytest.approx(forecast.std[-20], rel=0.05)

    def test_forecast_std_first_step_is_sigma(self):
        model = ARModel(order=2).fit(make_ar2())
        forecast = model.forecast(5)
        assert forecast.std[0] == pytest.approx(model.residual_std, rel=1e-9)

    def test_replica_equivalence(self):
        import copy

        model = ARModel(order=3).fit(make_ar2())
        a, b = copy.deepcopy(model), copy.deepcopy(model)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert a.predict_next() == pytest.approx(b.predict_next(), abs=1e-12)
            value = float(rng.normal(10, 1))
            a.observe(value)
            b.observe(value)

    def test_too_short_window_rejected(self):
        with pytest.raises(ValueError):
            ARModel(order=5).fit(np.arange(5.0) + 1)

    def test_ols_method(self):
        model = ARModel(order=2, method="ols").fit(make_ar2())
        assert model.residual_std == pytest.approx(0.5, abs=0.1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ARModel(order=2, method="magic")

    def test_spec_and_bytes(self):
        model = ARModel(order=4)
        assert model.spec().family == "ar"
        assert model.parameter_bytes == 4 * 6 + 2
        assert model.check_cycles < 500

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            ARModel(order=2).predict_next()
