"""Pluggable interference models: co-located pods slow each other down.

The paper's datasets record each run executing *alone* on its hardware, but a
shared cluster rarely grants that luxury: co-resident tenants compete for the
caches, memory bandwidth and I/O paths that resource *requests* do not
reserve.  This module describes that contention as a **progress rate**: a pod
holding a node with co-residents advances its work at ``speed`` work-seconds
per wall-clock second, where ``speed`` is 1.0 alone and drops as neighbours
pile on.

The :class:`~repro.cluster.simulator.ClusterSimulator` consults the model on
every topology change (pod start/finish, preemption, autoscale provision or
drain), re-integrates each running pod's progress at its previous rate, and
reschedules its tentative finish event at the new rate -- see the simulator's
progress-based execution engine.  Models therefore only need to answer one
pure question: *given this node and the pods running on it, how fast does
each of them run right now?*  :meth:`InterferenceModel.node_speeds` is that
question and the whole contract.

Invariants every model must satisfy (validated by the simulator):

* ``0 < speed <= 1`` -- interference can only slow a pod down;
* a pod running **alone** must report ``speed == 1.0`` exactly, so
  contention-free executions reproduce the paper's per-run runtimes
  bit-for-bit (this is what keeps the zero-contention parity suite exact
  even under non-null models).

All models are frozen dataclasses, so scenarios embedding them stay
picklable and sweep-able over process pools.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import Node
from repro.cluster.pod import Pod

#: Pre-extracted resident requests for :meth:`InterferenceModel.node_speeds`:
#: ``(cpus, memory_gb, gpus)`` arrays aligned with the pod sequence, gathered
#: from the cluster's flat state so evaluation needs no per-pod attribute
#: walks.
RequestArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

__all__ = [
    "InterferenceModel",
    "NoInterference",
    "LinearSlowdown",
    "CapacityContention",
]


def _request_arrays(pods: Sequence[Pod]) -> RequestArrays:
    """Extract request arrays from pod objects (fallback when no state)."""
    cpus = np.array([p.request.cpus for p in pods], dtype=np.int64)
    mem = np.array([p.request.memory_gb for p in pods], dtype=np.float64)
    gpus = np.array([p.request.gpus for p in pods], dtype=np.int64)
    return cpus, mem, gpus


class InterferenceModel(abc.ABC):
    """How co-located pods perturb each other's progress rate."""

    @abc.abstractmethod
    def node_speeds(
        self,
        node: Node,
        pods: Sequence[Pod],
        requests: Optional[RequestArrays] = None,
    ) -> np.ndarray:
        """Progress rates of **all** of ``node``'s residents ``pods`` at once.

        Returns one rate per pod, aligned with ``pods``, each in ``(0, 1]``
        work-seconds per wall-clock second.  A pod running alone
        (``len(pods) == 1``) must get exactly ``1.0``.

        ``requests`` optionally carries the residents' pre-extracted
        ``(cpus, memory_gb, gpus)`` arrays (from
        :meth:`~repro.cluster.state.ClusterState.resident_requests`);
        models that only need request totals can then skip touching the pod
        objects entirely.
        """


@dataclass(frozen=True)
class NoInterference(InterferenceModel):
    """Co-located pods do not perturb each other (the pre-interference engine).

    Every pod always runs at full speed, so observed runtimes equal the
    drawn ground truth bit-for-bit -- the parity suite pins this.
    """

    def node_speeds(
        self,
        node: Node,
        pods: Sequence[Pod],
        requests: Optional[RequestArrays] = None,
    ) -> np.ndarray:
        return np.ones(len(pods), dtype=np.float64)


@dataclass(frozen=True)
class LinearSlowdown(InterferenceModel):
    """Slowdown growing linearly with co-resident utilisation.

    ``speed = 1 / (1 + alpha_node * u)`` where ``u`` is the co-residents'
    bottleneck utilisation fraction of the node (their allocated share of
    the most contended resource dimension).  ``alpha`` is the slowdown per
    unit of neighbour utilisation: with ``alpha=0.5`` a pod sharing a node
    whose other tenants fill 80% of it runs at ``1/1.4 ~ 71%`` speed.

    Heterogeneous clusters can weight the slowdown per node tier:
    ``class_weights`` maps a node's
    :attr:`~repro.cluster.node.Node.interference_class` to a multiplier on
    ``alpha`` (``alpha_node = alpha * weight``; classes absent from the map
    weigh 1.0).  A NUMA-partitioned tier might weigh 0.25 while an
    oversubscribed-I/O tier weighs 2.5 -- same request, very different
    noisy-neighbour damage, which is exactly what interference-aware
    placement exploits.  The solo invariant is unaffected: ``u = 0`` alone,
    so every class runs solo pods at full speed.

    This is the classic linear interference fit used for co-located
    batch workloads: cheap, monotone, and exact in the solo case.
    """

    alpha: float = 0.5
    #: Optional per-interference-class multiplier on ``alpha``.  Accepts a
    #: mapping (or an items tuple) at construction; *stored* normalised as a
    #: sorted tuple of ``(class, weight)`` pairs so the frozen dataclass
    #: stays hashable and picklable -- read it back as a mapping via
    #: :attr:`weight_map`.
    class_weights: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.class_weights is not None:
            items = tuple(
                sorted((str(k), float(v)) for k, v in dict(self.class_weights).items())
            )
            for name, weight in items:
                if weight < 0:
                    raise ValueError(
                        f"class weight for {name!r} must be non-negative, got {weight}"
                    )
            object.__setattr__(self, "class_weights", items)
            object.__setattr__(self, "_weight_map", dict(items))

    @property
    def weight_map(self) -> Mapping[str, float]:
        """The per-class multipliers as a plain mapping (empty when unset)."""
        if self.class_weights is None:
            return {}
        return dict(getattr(self, "_weight_map", dict(self.class_weights)))

    def node_alpha(self, node: Node) -> float:
        """The effective slowdown coefficient for one node's tier."""
        if self.class_weights is None:
            return self.alpha
        return self.alpha * getattr(self, "_weight_map", {}).get(
            node.interference_class, 1.0
        )

    def node_speeds(
        self,
        node: Node,
        pods: Sequence[Pod],
        requests: Optional[RequestArrays] = None,
    ) -> np.ndarray:
        """Each pod's co-resident total is the node total minus its own request.

        That subtraction is exact for the integer-valued requests catalogs
        use; the bottleneck fraction and the linear slowdown are then one
        elementwise expression.
        """
        k = len(pods)
        if k == 0:
            return np.empty(0, dtype=np.float64)
        if k == 1:
            # Solo pods short-circuit to exactly 1.0 (u = 0 -> 1/(1 + a*0)).
            return np.ones(1, dtype=np.float64)
        cpus, mem, gpus = requests if requests is not None else _request_arrays(pods)
        co_cpus = (int(cpus.sum()) - cpus) / node.cpus
        co_mem = (float(mem.sum()) - mem) / node.memory_gb
        u = np.maximum(co_cpus, co_mem)
        if node.gpus:
            u = np.maximum(u, (int(gpus.sum()) - gpus) / node.gpus)
        return 1.0 / (1.0 + self.node_alpha(node) * u)


@dataclass(frozen=True)
class CapacityContention(InterferenceModel):
    """Per-resource contention: shared capacity delivers less than nominal.

    Resource *requests* reserve cores and bytes, but the shared paths behind
    them (last-level cache, memory bandwidth, NIC) do not scale to the full
    nominal capacity once multiple tenants run side by side.  This model
    says each resource dimension of a **shared** node only sustains a
    ``usable_fraction`` of its nominal capacity: when the residents'
    combined allocation of resource ``r`` exceeds
    ``usable_fraction_r * capacity_r``, every resident is throttled by the
    ratio, and a pod's speed is the factor of its most-contended resource::

        speed = min over r of min(1, usable_r / allocated_r)

    A pod running alone gets the whole machine (no sharing, no throttle), so
    solo executions stay exact.

    Parameters
    ----------
    cpu_fraction, memory_fraction, gpu_fraction:
        Usable fraction of each dimension's nominal capacity under sharing,
        in ``(0, 1]``.  The defaults model CPU as the contended path
        (caches/bandwidth) while memory capacity and GPUs partition cleanly.
    """

    cpu_fraction: float = 0.75
    memory_fraction: float = 1.0
    gpu_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cpu_fraction", "memory_fraction", "gpu_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def node_speeds(
        self,
        node: Node,
        pods: Sequence[Pod],
        requests: Optional[RequestArrays] = None,
    ) -> np.ndarray:
        """The throttle depends only on the node-wide allocation totals.

        Those totals include the pod itself, so all k residents share one
        speed: compute it once and broadcast it.
        """
        k = len(pods)
        if k == 0:
            return np.empty(0, dtype=np.float64)
        if k == 1:
            return np.ones(1, dtype=np.float64)
        cpus, mem, gpus = requests if requests is not None else _request_arrays(pods)
        factors = []
        for capacity, fraction, total in (
            (node.cpus, self.cpu_fraction, int(cpus.sum())),
            (node.memory_gb, self.memory_fraction, float(mem.sum())),
            (node.gpus, self.gpu_fraction, int(gpus.sum())),
        ):
            if capacity and total:
                factors.append(min(1.0, (fraction * capacity) / total))
        shared = min(factors) if factors else 1.0
        return np.full(k, shared, dtype=np.float64)
