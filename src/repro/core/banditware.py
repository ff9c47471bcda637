"""The BanditWare recommender façade.

:class:`BanditWare` is the public entry point of the library: it owns the
hardware catalog (the arm space), one runtime model per arm, and an
arm-selection policy, and exposes the online loop the paper describes --
``recommend`` a hardware configuration for an incoming workflow, schedule the
workflow, then ``observe`` the measured runtime so the per-arm model is
refined (Algorithm 1).

A typical online session::

    from repro import BanditWare, ndp_catalog

    bw = BanditWare(catalog=ndp_catalog(), feature_names=["area", "wind_speed"], seed=7)
    for workflow in stream:
        rec = bw.recommend(workflow.features)
        runtime = run_on_cluster(workflow, rec.hardware)      # user-provided
        bw.observe(workflow.features, rec.hardware, runtime)

Historical data can seed the models before going online via
:meth:`BanditWare.warm_start`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.models import ArmModel, LeastSquaresModel
from repro.core.policies import BanditPolicy, DecayingEpsilonGreedyPolicy, PolicyDecision
from repro.core.rewards import RewardConfig
from repro.core.selection import ToleranceConfig
from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import SeedLike, as_generator

__all__ = ["Recommendation", "ObservationRecord", "ModelSnapshot", "BanditWare"]


@dataclass(frozen=True)
class Recommendation:
    """What :meth:`BanditWare.recommend` returns.

    Attributes
    ----------
    hardware:
        The recommended hardware configuration.
    decision:
        The underlying policy decision with its audit trail (estimates,
        whether the round explored, the tolerance threshold used, ...).
    """

    hardware: HardwareConfig
    decision: PolicyDecision

    @property
    def explored(self) -> bool:
        return self.decision.explored

    @property
    def estimates(self) -> Dict[str, float]:
        return dict(self.decision.estimates)


@dataclass(frozen=True)
class ObservationRecord:
    """One observation fed back to the recommender.

    ``queue_seconds`` is the capacity-wait the workflow reported alongside
    its runtime (0 for contention-free observations); ``slowdown`` is the
    observed/planned runtime ratio an interference-aware cluster measured
    (``None`` when the substrate does not report one).
    """

    features: Dict[str, float]
    hardware: str
    runtime_seconds: float
    queue_seconds: float = 0.0
    slowdown: Optional[float] = None


@dataclass(frozen=True)
class ModelSnapshot:
    """An immutable copy of a recommender's per-arm linear models.

    The serving layer publishes one snapshot per application so read-only
    queries (runtime predictions, dashboards) never touch the live models
    while an ``observe`` batch is refitting them: writers build a *new*
    snapshot after mutating and swap the reference (copy-on-write); a reader
    holding an old snapshot keeps a consistent view forever.

    Attributes
    ----------
    feature_names:
        Context feature order, as in :attr:`BanditWare.feature_names`.
    arm_names:
        Hardware names in catalog (arm) order.
    coefficients:
        ``(n_arms, n_features)`` slope matrix (read-only array).
    intercepts:
        Per-arm intercepts (read-only array).
    observation_counts:
        Per-arm observation counts at snapshot time.
    version:
        The recommender's mutation counter when the snapshot was taken;
        two snapshots of one recommender with equal versions are identical.
    """

    feature_names: tuple
    arm_names: tuple
    coefficients: np.ndarray
    intercepts: np.ndarray
    observation_counts: tuple
    version: int

    def context_vector(self, features: Dict[str, float]) -> np.ndarray:
        missing = [name for name in self.feature_names if name not in features]
        if missing:
            raise KeyError(
                f"features missing {missing}; snapshot expects {list(self.feature_names)}"
            )
        return np.asarray([float(features[name]) for name in self.feature_names])

    def predict_runtimes(self, features: Dict[str, float]) -> Dict[str, float]:
        """Estimated runtime on every arm, from the frozen coefficients."""
        values = self.coefficients @ self.context_vector(features) + self.intercepts
        return {name: float(v) for name, v in zip(self.arm_names, values)}

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """``(n_rows, n_arms)`` estimates for an already-ordered design matrix."""
        X = np.asarray(X, dtype=float)
        return X @ self.coefficients.T + self.intercepts


class BanditWare:
    """Online hardware recommendation with per-hardware linear runtime models.

    Parameters
    ----------
    catalog:
        The hardware configurations to choose among (the arm space).
    feature_names:
        Ordered names of the workflow features forming the context vector.
    policy:
        Arm-selection policy; defaults to the paper's decaying contextual
        ε-greedy strategy (``epsilon0 = 1``, ``decay = 0.99``) with the given
        ``tolerance``.
    tolerance:
        Convenience shortcut for the default policy's
        ``(tolerance_ratio, tolerance_seconds)``; ignored when an explicit
        ``policy`` instance is supplied.
    arm_model_factory:
        Callable returning a fresh :class:`~repro.core.models.ArmModel` given
        the number of features; defaults to the paper's batch least-squares
        model.
    seed:
        Seed for the policy's exploration randomness.
    track_history:
        When true (default) every observation is appended to :attr:`history`.
        The evaluation engine disables this to avoid per-round bookkeeping it
        never reads; decisions are unaffected.
    reward:
        Observation shaping (:class:`~repro.core.rewards.RewardConfig`).  The
        default ``runtime`` mode trains on observed runtimes exactly as the
        paper does; the opt-in ``queue_inclusive`` mode folds reported
        queueing delay into the training target so the bandit learns to
        avoid contended hardware.
    """

    def __init__(
        self,
        catalog: HardwareCatalog,
        feature_names: Sequence[str],
        policy: Optional[BanditPolicy] = None,
        tolerance: Optional[ToleranceConfig] = None,
        arm_model_factory: Optional[Callable[[int], ArmModel]] = None,
        seed: SeedLike = None,
        track_history: bool = True,
        reward: Optional[RewardConfig] = None,
    ):
        if not feature_names:
            raise ValueError("feature_names must contain at least one feature")
        names = [str(n) for n in feature_names]
        if len(set(names)) != len(names):
            raise ValueError(f"feature_names contains duplicates: {names}")
        self.catalog = catalog
        self.feature_names: List[str] = names
        # The class itself is the default factory (not a lambda) so the
        # recommender stays picklable for checkpoints and worker processes.
        self._factory = arm_model_factory or LeastSquaresModel
        self.policy = policy or DecayingEpsilonGreedyPolicy(tolerance=tolerance)
        self._rng = as_generator(seed)
        self._models: List[ArmModel] = [self._factory(len(names)) for _ in catalog]
        self._history: List[ObservationRecord] = []
        self.track_history = bool(track_history)
        self.reward = reward or RewardConfig()
        self._version = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def models(self) -> List[ArmModel]:
        """Per-arm runtime models, in catalog (arm) order."""
        return list(self._models)

    @property
    def history(self) -> List[ObservationRecord]:
        """All observations fed to :meth:`observe` / :meth:`warm_start`, in order."""
        return list(self._history)

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every observation batch and reset.

        Snapshot caches key on this -- equal versions guarantee the per-arm
        coefficients are unchanged.
        """
        return self._version

    def snapshot(self) -> ModelSnapshot:
        """An immutable copy-on-write view of the current per-arm models.

        The returned arrays are frozen copies: subsequent observations build
        new model state without touching any published snapshot, so readers
        never block on (or observe half of) an in-flight update.
        """
        W = np.vstack([model.coefficients for model in self._models]) \
            if self._models else np.empty((0, self.n_features))
        b = np.asarray([model.intercept for model in self._models], dtype=float)
        W.setflags(write=False)
        b.setflags(write=False)
        return ModelSnapshot(
            feature_names=tuple(self.feature_names),
            arm_names=tuple(hw.name for hw in self.catalog),
            coefficients=W,
            intercepts=b,
            observation_counts=tuple(m.n_observations for m in self._models),
            version=self._version,
        )

    def model_for(self, hardware: Union[str, HardwareConfig]) -> ArmModel:
        """The runtime model of one hardware configuration."""
        return self._models[self.catalog.index_of(hardware)]

    def coefficients(self) -> Dict[str, Dict[str, float]]:
        """Named coefficients of every arm: ``{hardware: {"w_<feat>": .., "b": ..}}``."""
        return {
            hw.name: model.coefficient_dict(self.feature_names)
            for hw, model in zip(self.catalog, self._models)
        }

    def observation_counts(self) -> Dict[str, int]:
        """Number of observations each arm's model has seen."""
        return {hw.name: model.n_observations for hw, model in zip(self.catalog, self._models)}

    # ------------------------------------------------------------------ #
    # Feature handling
    # ------------------------------------------------------------------ #
    def context_vector(self, features: Dict[str, float]) -> np.ndarray:
        """Order the ``features`` dict into the context vector ``x``."""
        missing = [name for name in self.feature_names if name not in features]
        if missing:
            raise KeyError(
                f"features missing {missing}; BanditWare expects {self.feature_names}"
            )
        return np.asarray([float(features[name]) for name in self.feature_names])

    # ------------------------------------------------------------------ #
    # The online loop
    # ------------------------------------------------------------------ #
    def recommend(self, features: Dict[str, float]) -> Recommendation:
        """Recommend a hardware configuration for one incoming workflow."""
        return self.recommend_vector(self.context_vector(features))

    def recommend_vector(self, context: np.ndarray) -> Recommendation:
        """Recommend for an already-ordered context vector.

        This is the fast path behind :meth:`recommend`; ``context`` must be a
        1-D array in :attr:`feature_names` order.  It produces exactly the
        same decision stream as the dict-based API.
        """
        decision = self.policy.select(context, self._models, self.catalog, self._rng)
        return Recommendation(hardware=decision.hardware, decision=decision)

    def recommend_batch(self, features_batch: Sequence[Dict[str, float]]) -> List[Recommendation]:
        """Recommend for a batch of incoming workflows.

        Decisions are identical to calling :meth:`recommend` once per element
        in order: the policy state (ε schedule, random stream) advances one
        step per workflow, and no observation happens in between.
        """
        contexts = [self.context_vector(features) for features in features_batch]
        return [self.recommend_vector(context) for context in contexts]

    def observe(
        self,
        features: Dict[str, float],
        hardware: Union[str, HardwareConfig],
        runtime_seconds: float,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> None:
        """Feed back the observed runtime of a workflow run on ``hardware``.

        ``queue_seconds`` reports how long the workflow waited for cluster
        capacity; it only shapes the learning signal when the recommender's
        :attr:`reward` is in ``queue_inclusive`` mode.  ``slowdown`` reports
        the observed/planned runtime ratio an interference-aware cluster
        measured; it only shapes the signal in ``slowdown_inclusive`` mode.
        """
        context = self.context_vector(features)
        self.observe_vector(
            context,
            hardware,
            runtime_seconds,
            features=features,
            queue_seconds=queue_seconds,
            slowdown=slowdown,
        )

    def observe_vector(
        self,
        context: np.ndarray,
        hardware: Union[str, HardwareConfig, int],
        runtime_seconds: float,
        features: Optional[Dict[str, float]] = None,
        validate: bool = True,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> None:
        """Feed back one observation given an already-ordered context vector.

        ``hardware`` may also be an arm index.  ``features`` is only used for
        the history record; when omitted it is reconstructed from the context
        vector and :attr:`feature_names`.  ``validate=False`` skips the
        context/runtime checks -- only for callers (the evaluation engine)
        whose inputs were validated once up front.
        """
        if validate:
            runtime_seconds = float(runtime_seconds)
            if not np.isfinite(runtime_seconds) or runtime_seconds < 0:
                raise ValueError(
                    f"runtime_seconds must be finite and non-negative, got {runtime_seconds}"
                )
            context = np.asarray(context, dtype=float)
            if context.shape != (self.n_features,):
                raise ValueError(
                    f"context must have shape ({self.n_features},), got {context.shape}"
                )
            if not np.all(np.isfinite(context)):
                raise ValueError("context contains non-finite values")
        if isinstance(hardware, int):
            if not 0 <= hardware < len(self.catalog):
                raise IndexError(
                    f"arm index {hardware} out of range for {len(self.catalog)} arms"
                )
            arm = hardware
        else:
            arm = self.catalog.index_of(hardware)
        # In the default "runtime" mode this is runtime_seconds, untouched.
        target = self.reward.effective_runtime(runtime_seconds, queue_seconds, slowdown)
        self._models[arm].update_vector(context, target)
        self.policy.observe(arm, context, target)
        self._version += 1
        if self.track_history:
            if features is None:
                features = dict(zip(self.feature_names, map(float, context)))
            self._history.append(
                ObservationRecord(
                    features={k: float(v) for k, v in features.items()},
                    hardware=self.catalog[arm].name,
                    runtime_seconds=runtime_seconds,
                    queue_seconds=float(queue_seconds),
                    slowdown=float(slowdown) if slowdown is not None else None,
                )
            )

    def observe_batch(
        self,
        features_batch: Sequence[Dict[str, float]],
        hardware: Sequence[Union[str, HardwareConfig]],
        runtimes_seconds: Sequence[float],
        queues_seconds: Optional[Sequence[float]] = None,
        slowdowns: Optional[Sequence[Optional[float]]] = None,
    ) -> None:
        """Feed back a batch of observations in one call.

        The final recommender state is exactly what a sequence of
        :meth:`observe` calls in the same order would leave behind: per-arm
        model data is ingested in arrival order and the policy hook runs once
        per observation.  Only the intermediate per-row model refits are
        skipped (via :meth:`ArmModel.update_vectors`), which is where the batch
        path earns its speedup.  All rows are validated before any state
        changes.

        ``queues_seconds`` optionally reports each workflow's capacity wait;
        like :meth:`observe`, it only shapes the learning signal in
        ``queue_inclusive`` reward mode.  ``slowdowns`` optionally reports
        each workflow's observed/planned ratio (entries may be ``None``);
        it only shapes the signal in ``slowdown_inclusive`` mode.
        """
        if not (len(features_batch) == len(hardware) == len(runtimes_seconds)):
            raise ValueError(
                f"batch length mismatch: {len(features_batch)} feature dicts, "
                f"{len(hardware)} hardware entries, {len(runtimes_seconds)} runtimes"
            )
        if queues_seconds is not None and len(queues_seconds) != len(runtimes_seconds):
            raise ValueError(
                f"batch length mismatch: {len(runtimes_seconds)} runtimes but "
                f"{len(queues_seconds)} queue delays"
            )
        if slowdowns is not None and len(slowdowns) != len(runtimes_seconds):
            raise ValueError(
                f"batch length mismatch: {len(runtimes_seconds)} runtimes but "
                f"{len(slowdowns)} slowdowns"
            )
        contexts = [self.context_vector(features) for features in features_batch]
        if contexts and not np.all(np.isfinite(np.vstack(contexts))):
            raise ValueError("context contains non-finite values")
        arms = [self.catalog.index_of(hw) for hw in hardware]
        runtimes = [float(r) for r in runtimes_seconds]
        for runtime in runtimes:
            if not np.isfinite(runtime) or runtime < 0:
                raise ValueError(
                    f"runtime_seconds must be finite and non-negative, got {runtime}"
                )
        queues = [0.0] * len(runtimes) if queues_seconds is None else [float(q) for q in queues_seconds]
        ratios = (
            [None] * len(runtimes)
            if slowdowns is None
            else [None if s is None else float(s) for s in slowdowns]
        )
        # effective_runtime validates queue delays and slowdowns (and is the
        # identity in the default "runtime" mode).
        targets = [
            self.reward.effective_runtime(runtime, queue, ratio)
            for runtime, queue, ratio in zip(runtimes, queues, ratios)
        ]
        per_arm_X: Dict[int, List[np.ndarray]] = {}
        per_arm_y: Dict[int, List[float]] = {}
        for context, arm, target in zip(contexts, arms, targets):
            per_arm_X.setdefault(arm, []).append(context)
            per_arm_y.setdefault(arm, []).append(target)
        for arm, rows in per_arm_X.items():
            self._models[arm].update_vectors(rows, per_arm_y[arm])
        self._version += len(runtimes)
        for features, context, arm, target, runtime, queue, ratio in zip(
            features_batch, contexts, arms, targets, runtimes, queues, ratios
        ):
            self.policy.observe(arm, context, target)
            if self.track_history:
                self._history.append(
                    ObservationRecord(
                        features={k: float(v) for k, v in features.items()},
                        hardware=self.catalog[arm].name,
                        runtime_seconds=runtime,
                        queue_seconds=queue,
                        slowdown=ratio,
                    )
                )

    def step(
        self,
        features: Dict[str, float],
        runtime_callback: Callable[[HardwareConfig], float],
    ) -> tuple:
        """Run one full round: recommend, execute via ``runtime_callback``, observe.

        Returns ``(recommendation, observed_runtime)``.
        """
        rec = self.recommend(features)
        runtime = float(runtime_callback(rec.hardware))
        self.observe(features, rec.hardware, runtime)
        return rec, runtime

    # ------------------------------------------------------------------ #
    # Prediction / offline use
    # ------------------------------------------------------------------ #
    def predict_runtimes(self, features: Dict[str, float]) -> Dict[str, float]:
        """Estimated runtime of ``features`` on every hardware configuration."""
        context = self.context_vector(features)
        return {
            hw.name: float(model.predict(context))
            for hw, model in zip(self.catalog, self._models)
        }

    def predict_runtimes_batch(
        self, features_batch: Sequence[Dict[str, float]]
    ) -> np.ndarray:
        """Estimated runtimes for a batch of workflows on every configuration.

        Returns an ``(n_workflows, n_arms)`` array in catalog arm order,
        evaluated with each arm's :meth:`~repro.core.models.ArmModel.predict_batch`.
        """
        X = np.vstack([self.context_vector(features) for features in features_batch]) \
            if features_batch else np.empty((0, self.n_features))
        out = np.empty((X.shape[0], len(self.catalog)))
        for j, model in enumerate(self._models):
            out[:, j] = model.predict_batch(X)
        return out

    def best_hardware(
        self, features: Dict[str, float], tolerance: Optional[ToleranceConfig] = None
    ) -> HardwareConfig:
        """The hardware tolerant selection would pick right now (no exploration)."""
        from repro.core.selection import TolerantSelector

        selector = TolerantSelector(tolerance=tolerance or ToleranceConfig())
        outcome = selector.select(self.catalog, self.predict_runtimes(features))
        return outcome.chosen

    # ------------------------------------------------------------------ #
    # Warm starting from historical data
    # ------------------------------------------------------------------ #
    def warm_start(
        self,
        frame: DataFrame,
        hardware_column: str = "hardware",
        runtime_column: str = "runtime_seconds",
    ) -> int:
        """Seed the per-arm models from a run-history table.

        The frame must contain one column per feature in
        :attr:`feature_names`, plus the hardware name and runtime columns.
        Rows whose hardware is not in the catalog are skipped.  Returns the
        number of rows ingested.

        Ingestion goes through :meth:`observe_batch`, so each arm's model is
        refit once for the whole table rather than once per row.
        """
        for column in (hardware_column, runtime_column, *self.feature_names):
            if column not in frame:
                raise KeyError(
                    f"warm_start frame is missing column {column!r}; columns: {frame.columns}"
                )
        features_batch: List[Dict[str, float]] = []
        hardware: List[str] = []
        runtimes: List[float] = []
        for row in frame.iterrows():
            hw_name = str(row[hardware_column])
            if hw_name not in self.catalog:
                continue
            features_batch.append({name: float(row[name]) for name in self.feature_names})
            hardware.append(hw_name)
            runtimes.append(float(row[runtime_column]))
        self.observe_batch(features_batch, hardware, runtimes)
        return len(runtimes)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget everything: fresh arm models, reset policy state, empty history."""
        self._models = [self._factory(self.n_features) for _ in self.catalog]
        self.policy.reset()
        self._history.clear()
        self._version += 1
