"""Tests for the per-arm runtime models."""

import numpy as np
import pytest

from repro.core.models import (
    LeastSquaresModel,
    RecursiveLeastSquaresModel,
    RidgeModel,
)


def _generate_linear_data(rng, n=60, w=(2.0, 1.0), b=5.0, noise=0.01):
    """Noise-free-ish linear runtimes with positive slopes (never clipped)."""
    X = rng.uniform(0, 10, size=(n, len(w)))
    y = X @ np.asarray(w) + b + rng.normal(0, noise, size=n)
    y = np.clip(y, 0, None)
    return X, y


class TestLeastSquaresModel:
    def test_unfitted_predicts_zero(self):
        model = LeastSquaresModel(2)
        assert model.predict([1.0, 2.0]) == 0.0
        assert not model.is_fitted

    def test_recovers_known_coefficients(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)
        assert model.intercept == pytest.approx(5.0, abs=0.2)

    def test_incremental_updates_match_batch_fit(self, rng):
        X, y = _generate_linear_data(rng, n=30)
        online = LeastSquaresModel(2)
        for xi, yi in zip(X, y):
            online.update(xi, yi)
        batch = LeastSquaresModel(2).fit(X, y)
        assert online.coefficients == pytest.approx(batch.coefficients)
        assert online.intercept == pytest.approx(batch.intercept)
        assert online.n_observations == 30

    def test_prediction_matches_manual_formula(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        x = np.array([3.0, 4.0])
        assert model.predict(x) == pytest.approx(model.coefficients @ x + model.intercept)

    def test_predict_batch_matches_per_row_predict(self, rng):
        X, y = _generate_linear_data(rng)
        for model in (
            LeastSquaresModel(2).fit(X, y),
            RidgeModel(2, alpha=0.5).fit(X, y),
        ):
            batch = model.predict_batch(X[:10])
            scalar = np.asarray([model.predict(row) for row in X[:10]])
            assert np.allclose(batch, scalar, rtol=1e-12)

    def test_rls_predict_batch_matches_per_row_predict(self, rng):
        X, y = _generate_linear_data(rng)
        model = RecursiveLeastSquaresModel(2)
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        batch = model.predict_batch(X[:10])
        scalar = np.asarray([model.predict(row) for row in X[:10]])
        assert np.allclose(batch, scalar, rtol=1e-12)

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(2, solver="bogus")
        clone = LeastSquaresModel(2, solver="full").clone_unfitted()
        assert clone.solver == "full"

    def test_no_intercept_mode(self, rng):
        X, y = _generate_linear_data(rng, b=0.0)
        model = LeastSquaresModel(2, fit_intercept=False).fit(X, y)
        assert model.intercept == 0.0
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)

    def test_underdetermined_is_still_usable(self):
        model = LeastSquaresModel(3)
        model.update([1.0, 2.0, 3.0], 10.0)
        assert np.isfinite(model.predict([1.0, 2.0, 3.0]))

    def test_rejects_bad_runtime(self):
        model = LeastSquaresModel(1)
        with pytest.raises(ValueError):
            model.update([1.0], -5.0)
        with pytest.raises(ValueError):
            model.update([1.0], float("nan"))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(2).update([1.0], 1.0)

    def test_fit_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(1).fit([[1.0], [2.0]], [1.0])

    def test_uncertainty_inf_until_overdetermined(self):
        model = LeastSquaresModel(2)
        model.update([1.0, 0.0], 1.0)
        assert model.uncertainty([1.0, 0.0]) == float("inf")

    def test_uncertainty_shrinks_with_data(self, rng):
        X, y = _generate_linear_data(rng, n=10, noise=0.5)
        few = LeastSquaresModel(2).fit(X, y)
        X2, y2 = _generate_linear_data(rng, n=200, noise=0.5)
        many = LeastSquaresModel(2).fit(X2, y2)
        q = np.array([5.0, 5.0])
        assert many.uncertainty(q) < few.uncertainty(q)

    def test_coefficient_dict(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        named = model.coefficient_dict(["a", "b"])
        assert set(named) == {"w_a", "w_b", "b"}

    def test_coefficient_dict_wrong_length(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(2).coefficient_dict(["only_one"])

    def test_clone_unfitted(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2, fit_intercept=False).fit(X, y)
        clone = model.clone_unfitted()
        assert not clone.is_fitted
        assert clone.fit_intercept is False

    def test_invalid_n_features(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(0)


class TestRidgeModel:
    def test_recovers_coefficients_with_small_penalty(self, rng):
        X, y = _generate_linear_data(rng, n=200)
        model = RidgeModel(2, alpha=1e-6).fit(X, y)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)

    def test_shrinkage_reduces_coefficient_norm(self, rng):
        X, y = _generate_linear_data(rng, n=50)
        weak = RidgeModel(2, alpha=1e-6).fit(X, y)
        strong = RidgeModel(2, alpha=1e4).fit(X, y)
        assert np.linalg.norm(strong.coefficients) < np.linalg.norm(weak.coefficients)

    def test_update_path(self, rng):
        X, y = _generate_linear_data(rng, n=20)
        model = RidgeModel(2, alpha=0.1)
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        assert model.n_observations == 20
        assert np.isfinite(model.predict([1.0, 1.0]))

    def test_well_conditioned_when_underdetermined(self):
        model = RidgeModel(5, alpha=1.0)
        model.update([1, 2, 3, 4, 5], 10.0)
        assert np.isfinite(model.predict([1, 2, 3, 4, 5]))

    def test_uncertainty_decreases_with_data(self, rng):
        model = RidgeModel(2, alpha=1.0)
        q = [1.0, 1.0]
        assert model.uncertainty(q) == float("inf")
        X, y = _generate_linear_data(rng, n=100)
        model.fit(X, y)
        first = model.uncertainty(q)
        X2, y2 = _generate_linear_data(rng, n=100)
        for xi, yi in zip(X2, y2):
            model.update(xi, yi)
        assert model.uncertainty(q) < first

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RidgeModel(2, alpha=0.0)

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            RidgeModel(1).update([1.0], -1.0)

    def test_clone_preserves_alpha(self):
        clone = RidgeModel(2, alpha=3.0).clone_unfitted()
        assert clone.alpha == 3.0


class TestRecursiveLeastSquaresModel:
    def test_matches_ridge_on_same_stream(self, rng):
        X, y = _generate_linear_data(rng, n=80)
        rls = RecursiveLeastSquaresModel(2, regularization=1.0)
        ridge = RidgeModel(2, alpha=1.0)
        for xi, yi in zip(X, y):
            rls.update(xi, yi)
            ridge.update(xi, yi)
        # Ridge penalises only the slopes while RLS regularises the full
        # augmented vector, so allow a loose tolerance on the coefficients but
        # require close predictions.
        q = np.array([5.0, 5.0])
        assert rls.predict(q) == pytest.approx(ridge.predict(q), rel=0.05)

    def test_recovers_known_coefficients(self, rng):
        X, y = _generate_linear_data(rng, n=300)
        model = RecursiveLeastSquaresModel(2, regularization=1e-3)
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)
        assert model.intercept == pytest.approx(5.0, abs=0.3)

    def test_constant_time_update_keeps_no_history(self, rng):
        model = RecursiveLeastSquaresModel(2)
        X, y = _generate_linear_data(rng, n=10)
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        assert model.n_observations == 10
        assert not hasattr(model, "_X")

    def test_uncertainty_shrinks_with_observations(self, rng):
        model = RecursiveLeastSquaresModel(2, noise_std=1.0)
        q = [1.0, 1.0]
        before = model.uncertainty(q)
        X, y = _generate_linear_data(rng, n=50)
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        assert model.uncertainty(q) < before

    def test_covariance_is_symmetric_positive(self, rng):
        model = RecursiveLeastSquaresModel(3)
        X, y = _generate_linear_data(rng, n=40, w=(1.0, 2.0, 3.0))
        for xi, yi in zip(X, y):
            model.update(xi, yi)
        cov = model.covariance
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_sample_prediction_varies_but_centres(self, rng):
        model = RecursiveLeastSquaresModel(1, regularization=1e-3, noise_std=1.0)
        for x in np.linspace(0, 10, 100):
            model.update([x], 3.0 * x + 2.0)
        samples = [model.sample_prediction([5.0], rng) for _ in range(200)]
        assert np.mean(samples) == pytest.approx(model.predict([5.0]), abs=0.5)
        assert np.std(samples) > 0

    def test_rejects_bad_inputs(self):
        model = RecursiveLeastSquaresModel(1)
        with pytest.raises(ValueError):
            model.update([1.0], -1.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquaresModel(1, regularization=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquaresModel(1, noise_std=0.0)

    def test_clone_unfitted_preserves_hyperparameters(self):
        clone = RecursiveLeastSquaresModel(2, regularization=2.0, noise_std=3.0).clone_unfitted()
        assert clone.regularization == 2.0
        assert clone.noise_std == 3.0
        assert not clone.is_fitted
