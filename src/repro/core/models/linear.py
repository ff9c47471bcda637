"""Batch ordinary-least-squares per-arm model (the paper's Algorithm 1, line 11).

Algorithm 1 literally re-stacks the arm's full data store and re-solves the
least-squares problem after every observation, which is O(n·m²) per round.
This implementation keeps the same observable behaviour while maintaining the
normal equations ``XᵀX`` and ``Xᵀy`` incrementally (a rank-1 update per
observation), so once the system is over-determined each refit is an O(m³)
solve of an m×m system instead of a decomposition of the full n×m design.
The under-determined early rounds still use :func:`numpy.linalg.lstsq` on the
stored design, reproducing the seed implementation's minimum-norm solution
bit for bit; ``solver="full"`` forces that literal re-solve on every update
and is kept as the reference baseline for the engine benchmark.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.models.base import ArmModel
from repro.utils.validation import check_feature_matrix

try:  # Raw LAPACK fast paths; the numpy wrappers remain as fallbacks.
    from scipy.linalg.lapack import dgelsd as _dgelsd
    from scipy.linalg.lapack import dgelsd_lwork as _dgelsd_lwork
    from scipy.linalg.lapack import dposv as _dposv
except ImportError:  # pragma: no cover - scipy is present in the dev image
    _dgelsd = _dgelsd_lwork = _dposv = None

#: Workspace sizes for dgelsd, keyed by (n_rows, n_params).
_GELSD_WORKSPACE: Dict[Tuple[int, int], Tuple[int, int]] = {}

__all__ = ["LeastSquaresModel"]


class LeastSquaresModel(ArmModel):
    """Refit ``w, b = argmin Σ (R - (wᵀx + b))²`` over all stored observations.

    Parameters
    ----------
    n_features:
        Context dimensionality.
    fit_intercept:
        When false the intercept is pinned to zero and only slopes are fitted.
    solver:
        ``"incremental"`` (default) maintains the normal equations across
        updates and solves the m×m system once the fit is over-determined;
        ``"full"`` re-solves :func:`numpy.linalg.lstsq` on the stacked design
        after every update (the seed implementation's literal behaviour).
        Both store the full data so :attr:`observations` and
        :meth:`uncertainty` are identical.
    """

    def __init__(self, n_features: int, fit_intercept: bool = True, solver: str = "incremental"):
        super().__init__(n_features)
        if solver not in ("incremental", "full"):
            raise ValueError(f"solver must be 'incremental' or 'full', got {solver!r}")
        self.fit_intercept = bool(fit_intercept)
        self.solver = solver
        self._w = np.zeros(self.n_features)
        self._b = 0.0
        p = self._n_params
        self._gram = np.zeros((p, p))
        self._xty = np.zeros(p)
        # Stored data: rows of the *augmented* design [x | 1] (or just x when
        # fit_intercept is off) in a capacity-doubling buffer, so refits never
        # re-stack Python lists.
        self._capacity = 8
        self._design = np.empty((self._capacity, p))
        self._targets = np.empty(self._capacity)
        self._outer_buf = np.empty((p, p))

    # ------------------------------------------------------------------ #
    @property
    def _n_params(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    @property
    def coefficients(self) -> np.ndarray:
        return self._w.copy()

    @property
    def intercept(self) -> float:
        return float(self._b)

    @property
    def observations(self) -> tuple:
        """The stored ``(X, y)`` data as arrays (copies)."""
        n = self._n_observations
        return (
            self._design[:n, : self.n_features].copy(),
            self._targets[:n].copy(),
        )

    # ------------------------------------------------------------------ #
    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        while self._capacity < needed:
            self._capacity *= 2
        design = np.empty((self._capacity, self._n_params))
        targets = np.empty(self._capacity)
        n = self._n_observations
        design[:n] = self._design[:n]
        targets[:n] = self._targets[:n]
        self._design = design
        self._targets = targets

    def _set_solution(self, solution: np.ndarray) -> None:
        if self.fit_intercept:
            self._w = solution[:-1]
            self._b = float(solution[-1])
        else:
            self._w = solution
            self._b = 0.0

    def _refit_full(self) -> None:
        """The seed behaviour: minimum-norm lstsq on the stacked design.

        Uses the dgelsd LAPACK driver directly when scipy is available --
        dgelsd with numpy's default cutoff is bit-identical to
        ``numpy.linalg.lstsq(..., rcond=None)`` (same routine, same inputs)
        without the wrapper overhead.
        """
        n = self._n_observations
        p = self._n_params
        if _dgelsd is not None:
            key = (n, p)
            workspace = _GELSD_WORKSPACE.get(key)
            if workspace is None:
                lwork, iwork, _ = _dgelsd_lwork(n, p, 1)
                workspace = (int(lwork), int(iwork))
                _GELSD_WORKSPACE[key] = workspace
            rhs = np.zeros(max(n, p))
            rhs[:n] = self._targets[:n]
            rcond = np.finfo(np.float64).eps * max(n, p)
            solution, _, _, info = _dgelsd(
                self._design[:n], rhs, workspace[0], workspace[1], rcond, False, True
            )
            if info == 0:
                self._set_solution(solution[:p])
                return
        solution, *_ = np.linalg.lstsq(self._design[:n], self._targets[:n], rcond=None)
        self._set_solution(solution)

    def _resolve(self) -> None:
        """Recompute coefficients after the data store / gram changed."""
        if not self._n_observations:
            self._w = np.zeros(self.n_features)
            self._b = 0.0
            return
        if self.solver == "full" or self._n_observations < self._n_params:
            # Under-determined rounds keep the minimum-norm solution the
            # normal equations cannot express.
            self._refit_full()
            return
        if _dposv is not None:
            # Cholesky solve of the SPD normal equations; info > 0 flags a
            # (semi-)singular gram, e.g. repeated contexts.
            _, solution, info = _dposv(self._gram, self._xty, lower=0)
            if info == 0 and np.all(np.isfinite(solution)):
                self._set_solution(solution)
                return
            self._refit_full()
            return
        try:
            solution = np.linalg.solve(self._gram, self._xty)
        except np.linalg.LinAlgError:
            # Singular gram (e.g. repeated contexts): fall back to lstsq.
            self._refit_full()
            return
        if not np.all(np.isfinite(solution)):
            self._refit_full()
            return
        self._set_solution(solution)

    def _ingest(self, context: np.ndarray, runtime: float) -> None:
        n = self._n_observations
        self._grow(n + 1)
        row = self._design[n]
        row[: self.n_features] = context
        if self.fit_intercept:
            row[-1] = 1.0
        self._targets[n] = runtime
        np.multiply(row[:, None], row[None, :], out=self._outer_buf)
        self._gram += self._outer_buf
        self._xty += row * runtime
        self._n_observations = n + 1

    def update(self, x: Sequence[float] | np.ndarray, runtime: float) -> None:
        context = self._check_context(x)
        runtime = float(runtime)
        if not np.isfinite(runtime) or runtime < 0:
            raise ValueError(f"runtime must be a finite non-negative number, got {runtime}")
        self._ingest(context, runtime)
        self._resolve()

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        self._ingest(context, runtime)
        self._resolve()

    def update_batch(
        self,
        X: Sequence[Sequence[float]] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> None:
        """Ingest many rows with a single refit at the end.

        Equivalent to sequential :meth:`update` calls (rank-1 gram updates are
        applied in row order, so the final state is identical); only the
        intermediate solves are skipped.
        """
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
        if y.size and (not np.all(np.isfinite(y)) or np.any(y < 0)):
            raise ValueError("y must contain finite non-negative runtimes")
        self.update_vectors(X, y)

    def update_vectors(
        self, rows: Sequence[np.ndarray] | np.ndarray, targets: Sequence[float] | np.ndarray
    ) -> None:
        for row, value in zip(rows, targets):
            self._ingest(row, float(value))
        if len(targets):
            self._resolve()

    def fit(self, X: Sequence[Sequence[float]] | np.ndarray, y: Sequence[float] | np.ndarray) -> "LeastSquaresModel":
        """Replace the stored data with ``(X, y)`` and refit in one shot."""
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
        if y.size and (not np.all(np.isfinite(y)) or np.any(y < 0)):
            raise ValueError("y must contain finite non-negative runtimes")
        n = X.shape[0]
        p = self._n_params
        self._n_observations = 0
        self._grow(max(n, 8))
        self._n_observations = n
        self._design[:n, : self.n_features] = X
        if self.fit_intercept:
            self._design[:n, -1] = 1.0
        self._targets[:n] = y
        if n:
            design = self._design[:n]
            self._gram = design.T @ design
            self._xty = design.T @ y
            self._resolve()
        else:
            self._gram = np.zeros((p, p))
            self._xty = np.zeros(p)
            self._w = np.zeros(self.n_features)
            self._b = 0.0
        return self

    def predict(self, x: Sequence[float] | np.ndarray) -> float:
        context = self._check_context(x)
        return float(self._w @ context + self._b)

    def predict_vector(self, context: np.ndarray) -> float:
        return float(self._w @ context + self._b)

    def predict_batch(self, X: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        return X @ self._w + self._b

    def uncertainty(self, x: Sequence[float] | np.ndarray) -> float:
        """Standard error of the prediction under a homoscedastic-noise OLS model.

        Returns ``inf`` until the arm has strictly more observations than
        parameters (so residual variance is estimable).
        """
        context = self._check_context(x)
        n_params = self._n_params
        if self._n_observations <= n_params:
            return float("inf")
        n = self._n_observations
        design = self._design[:n]
        y = self._targets[:n]
        if self.fit_intercept:
            query = np.concatenate([context, [1.0]])
            theta = np.concatenate([self._w, [self._b]])
        else:
            query = context
            theta = self._w
        residuals = y - design @ theta
        dof = max(n - n_params, 1)
        sigma2 = float(residuals @ residuals) / dof
        # pseudo-inverse guards against collinear contexts in early rounds.
        cov = np.linalg.pinv(design.T @ design) * sigma2
        return float(np.sqrt(max(query @ cov @ query, 0.0)))

    def clone_unfitted(self) -> "LeastSquaresModel":
        return LeastSquaresModel(
            self.n_features, fit_intercept=self.fit_intercept, solver=self.solver
        )
