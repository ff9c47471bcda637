"""Interface shared by all per-arm runtime models."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_feature_matrix

__all__ = ["ArmModel"]


class ArmModel(abc.ABC):
    """A runtime model for one hardware configuration (one bandit arm).

    Implementations estimate ``R(x) ≈ wᵀ x + b`` from the ``(x, runtime)``
    observations assigned to the arm, and expose:

    * :meth:`update` -- incorporate one observation.
    * :meth:`predict` -- point estimate of the runtime for a context.
    * :meth:`uncertainty` -- (optional) standard-error-style score used by
      optimism/posterior-sampling policies; models that do not track
      uncertainty return ``inf`` until fitted and ``0`` afterwards.

    Parameters
    ----------
    n_features:
        Dimensionality of the context vector ``x``.
    """

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        self.n_features = int(n_features)
        self._n_observations = 0

    # ------------------------------------------------------------------ #
    @property
    def n_observations(self) -> int:
        """Number of observations the model has been updated with."""
        return self._n_observations

    @property
    def is_fitted(self) -> bool:
        """Whether the model has seen at least one observation."""
        return self._n_observations > 0

    def _check_context(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = check_feature_matrix(x, name="x", n_features=self.n_features)
        if arr.shape[0] != 1:
            raise ValueError(f"expected a single context vector, got {arr.shape[0]} rows")
        return arr[0]

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def update(self, x: Sequence[float] | np.ndarray, runtime: float) -> None:
        """Incorporate one ``(context, observed runtime)`` pair."""

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        """Hot-path :meth:`update` for an already-validated context/runtime.

        Callers (the BanditWare façade) guarantee ``context`` is a finite 1-D
        float array of length :attr:`n_features` and ``runtime`` a finite
        non-negative float.  The default simply delegates to :meth:`update`.
        """
        self.update(context, runtime)

    @abc.abstractmethod
    def predict(self, x: Sequence[float] | np.ndarray) -> float:
        """Point estimate of the runtime for context ``x`` (seconds)."""

    def predict_vector(self, context: np.ndarray) -> float:
        """Point estimate for an already-validated 1-D context vector.

        This is the hot path used by the policies (the façade validates the
        context once); overrides must stay numerically identical to
        :meth:`predict`.  The default delegates to :meth:`predict` so custom
        (possibly non-linear) models stay correct; the built-in linear models
        override it with validation-free arithmetic.
        """
        return float(self.predict(context))

    def uncertainty(self, x: Sequence[float] | np.ndarray) -> float:
        """A non-negative uncertainty score for the prediction at ``x``.

        The default implementation knows nothing about uncertainty: it returns
        ``inf`` before the first observation (forcing optimistic policies to
        try the arm) and ``0`` afterwards.
        """
        self._check_context(x)
        return float("inf") if not self.is_fitted else 0.0

    @property
    @abc.abstractmethod
    def coefficients(self) -> np.ndarray:
        """Current slope estimates ``w`` (length ``n_features``)."""

    @property
    @abc.abstractmethod
    def intercept(self) -> float:
        """Current intercept estimate ``b``."""

    # ------------------------------------------------------------------ #
    def predict_batch(self, X: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Vectorised point estimates over the rows of an ``(n, m)`` design matrix.

        Every model in the library is linear in the context, so the default
        implementation evaluates ``X @ w + b`` in one matrix product.
        Subclasses with extra structure override this (and must stay
        numerically consistent with calling :meth:`predict` row by row).
        """
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        return X @ self.coefficients + self.intercept

    def update_batch(
        self,
        X: Sequence[Sequence[float]] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> None:
        """Incorporate many ``(context, runtime)`` pairs at once.

        The default implementation loops over :meth:`update`; models whose
        refit cost does not depend on the number of new rows (e.g. batch
        least squares) override this to defer the solve until all rows are
        ingested, which is exactly equivalent to sequential updates because
        only the final coefficients are observable.
        """
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
        for row, value in zip(X, y):
            self.update(row, float(value))

    def coefficient_dict(self, feature_names: Sequence[str]) -> Dict[str, float]:
        """Named coefficients ``{"w_<feature>": ..., "b": ...}``."""
        if len(feature_names) != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature names, got {len(feature_names)}"
            )
        out = {f"w_{name}": float(w) for name, w in zip(feature_names, self.coefficients)}
        out["b"] = float(self.intercept)
        return out

    def clone_unfitted(self) -> "ArmModel":
        """A fresh, unfitted model with the same hyper-parameters."""
        return type(self)(self.n_features)  # pragma: no cover - overridden where needed
