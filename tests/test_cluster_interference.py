"""Progress-based execution and pluggable interference models."""

import numpy as np
import pytest

from repro.cluster import (
    AutoscalingNodePool,
    CapacityContention,
    ClusterSimulator,
    FIFOScheduler,
    InterferenceModel,
    LinearSlowdown,
    Node,
    NoInterference,
    Pod,
    PodPhase,
    PriorityScheduler,
)
from repro.evaluation.contention import CONTENTION_SCENARIOS, build_scenario
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.workloads import LinearRuntimeWorkload

from conftest import constant_workload as _constant_workload, resident_speed

_CATALOG = HardwareCatalog(
    [
        HardwareConfig("small", cpus=2, memory_gb=8),
        HardwareConfig("big", cpus=4, memory_gb=8),
    ]
)


def _cluster(runtimes=None, interference=None, nodes=None, scheduler=None, autoscaler=None, workload=None):
    return ClusterSimulator(
        workload=workload or _constant_workload(runtimes or {"small": 10.0, "big": 10.0}),
        catalog=_CATALOG,
        nodes=nodes or [Node("n", cpus=8, memory_gb=32)],
        scheduler=scheduler,
        seed=0,
        autoscaler=autoscaler,
        interference=interference,
    )


def _noisy_workload(name="noisy"):
    return LinearRuntimeWorkload(
        feature_ranges={"x": (0.0, 1.0)},
        coefficients={
            "small": ({"x": 5.0}, 20.0),
            "big": ({"x": 3.0}, 12.0),
        },
        noise_sigma=2.0,
        name=name,
    )


class TestInterferenceModels:
    def _pod(self, hw="small", name="p"):
        return Pod(name, _CATALOG[hw])

    def test_solo_pod_runs_at_full_speed_in_every_model(self):
        node = Node("n", cpus=8, memory_gb=32)
        for model in (NoInterference(), LinearSlowdown(0.7), CapacityContention(0.5)):
            assert resident_speed(model, self._pod(), node, []) == 1.0

    def test_no_interference_ignores_neighbours(self):
        node = Node("n", cpus=8, memory_gb=32)
        others = [self._pod("big", "q"), self._pod("big", "r")]
        assert resident_speed(NoInterference(), self._pod(), node, others) == 1.0

    def test_linear_slowdown_scales_with_co_resident_utilisation(self):
        node = Node("n", cpus=8, memory_gb=32)
        one = [self._pod("small", "q")]  # 2/8 cpus = 0.25
        two = [self._pod("small", "q"), self._pod("big", "r")]  # 6/8 = 0.75
        model = LinearSlowdown(alpha=1.0)
        with_one = resident_speed(model, self._pod(), node, one)
        with_two = resident_speed(model, self._pod(), node, two)
        assert with_one == pytest.approx(1 / 1.25)
        assert with_two == pytest.approx(1 / 1.75)
        assert with_two < with_one

    def test_linear_slowdown_uses_bottleneck_dimension(self):
        # Memory is the contended resource here: 24/32 GiB vs 4/16 CPUs.
        node = Node("n", cpus=16, memory_gb=32)
        hog = Pod("q", HardwareConfig("memhog", cpus=4, memory_gb=24))
        expected = 1 / (1 + 0.5 * (24 / 32))
        speed = resident_speed(LinearSlowdown(0.5), self._pod(), node, [hog])
        assert speed == pytest.approx(expected)

    def test_capacity_contention_throttles_past_usable_fraction(self):
        node = Node("n", cpus=8, memory_gb=64)
        model = CapacityContention(cpu_fraction=0.5)  # 4 usable CPUs shared
        others = [self._pod("big", "q")]  # total 2 + 4 = 6 > 4
        assert resident_speed(model, self._pod(), node, others) == pytest.approx(4 / 6)

    def test_capacity_contention_below_threshold_is_free(self):
        node = Node("n", cpus=8, memory_gb=64)
        model = CapacityContention(cpu_fraction=0.75)  # 6 usable CPUs
        others = [self._pod("small", "q")]  # total 4 <= 6
        assert resident_speed(model, self._pod(), node, others) == 1.0

    def test_node_speeds_is_the_required_contract(self):
        class NoRates(InterferenceModel):
            """A model that forgot to say how fast its pods run."""

        with pytest.raises(TypeError, match="node_speeds"):
            NoRates()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearSlowdown(alpha=-0.1)
        with pytest.raises(ValueError):
            CapacityContention(cpu_fraction=0.0)
        with pytest.raises(ValueError):
            CapacityContention(memory_fraction=1.5)

    def test_simulator_rejects_out_of_range_speed(self):
        class Bogus(NoInterference):
            def node_speeds(self, node, pods, requests=None):
                return np.full(len(pods), 2.0 if len(pods) > 1 else 1.0)

        sim = _cluster(interference=Bogus())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        with pytest.raises(ValueError, match="rates must be in"):
            sim.run_until_idle()

    def test_simulator_rejects_slowed_solo_pod(self):
        class Sluggish(NoInterference):
            def node_speeds(self, node, pods, requests=None):
                return np.full(len(pods), 0.5)

        sim = _cluster(interference=Sluggish())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        with pytest.raises(ValueError, match="solo pods"):
            sim.run_until_idle()


# --------------------------------------------------------------------- #
# node_speeds against a per-pod oracle
# --------------------------------------------------------------------- #
def _oracle_speed(model, node, pods, i):
    """Pod ``i``'s rate recomputed pod by pod from the documented formula.

    Plain Python over the pod objects, sharing no code with the models'
    vectorised ``node_speeds``: it is the independent second copy of each
    formula that pins what the single contract computes.
    """
    if len(pods) == 1 or isinstance(model, NoInterference):
        return 1.0
    if isinstance(model, LinearSlowdown):
        others = [p.request for j, p in enumerate(pods) if j != i]
        u = max(
            sum(r.cpus for r in others) / node.cpus,
            sum(r.memory_gb for r in others) / node.memory_gb,
        )
        if node.gpus:
            u = max(u, sum(r.gpus for r in others) / node.gpus)
        weight = dict(model.class_weights or ()).get(node.interference_class, 1.0)
        return 1.0 / (1.0 + model.alpha * weight * u)
    if isinstance(model, CapacityContention):
        speed = 1.0
        for capacity, fraction, attr in (
            (node.cpus, model.cpu_fraction, "cpus"),
            (node.memory_gb, model.memory_fraction, "memory_gb"),
            (node.gpus, model.gpu_fraction, "gpus"),
        ):
            allocated = sum(getattr(p.request, attr) for p in pods)
            if capacity and allocated:
                speed = min(speed, min(1.0, (fraction * capacity) / allocated))
        return speed
    raise TypeError(f"no oracle for {type(model).__name__}")


_ORACLE_MODELS = {
    "none": NoInterference(),
    "linear": LinearSlowdown(alpha=0.5),
    "linear-weighted": LinearSlowdown(alpha=1.3, class_weights={"io": 2.5, "numa": 0.25}),
    "capacity": CapacityContention(),
    "capacity-all-dims": CapacityContention(
        cpu_fraction=0.5, memory_fraction=0.6, gpu_fraction=0.5
    ),
}

_ORACLE_NODES = (
    Node("cpu", cpus=8, memory_gb=32),
    Node("gpu", cpus=16, memory_gb=64, gpus=4),
    Node("io", cpus=8, memory_gb=32, interference_class="io"),
    Node("numa", cpus=16, memory_gb=64, interference_class="numa"),
)

_ORACLE_CONFIGS = (
    HardwareConfig("c2", cpus=2, memory_gb=8),
    HardwareConfig("c4", cpus=4, memory_gb=12),
    HardwareConfig("m1", cpus=1, memory_gb=24),
    HardwareConfig("g1", cpus=4, memory_gb=16, gpus=1),
    HardwareConfig("g2", cpus=2, memory_gb=8, gpus=2),
)


def _resident_sets(configs):
    """Resident lists of 0 to 6 pods cycling through ``configs``."""
    configs = list(configs)
    for k in range(7):
        for start in range(len(configs)):
            yield [
                Pod(f"p{j}", configs[(start + j) % len(configs)]) for j in range(k)
            ]


def _assert_matches_oracle(model, node, pods):
    speeds = model.node_speeds(node, pods)
    assert speeds.shape == (len(pods),)
    expected = [_oracle_speed(model, node, pods, i) for i in range(len(pods))]
    # Integer-valued requests keep every sum exact, so the vectorised
    # formula and the per-pod one agree bit for bit.
    assert speeds.tolist() == expected
    assert all(0.0 < s <= 1.0 for s in expected)
    if len(pods) == 1:
        assert speeds[0] == 1.0


class TestNodeSpeedsOracle:
    @pytest.mark.parametrize("key", sorted(_ORACLE_MODELS))
    def test_matches_per_pod_oracle(self, key):
        model = _ORACLE_MODELS[key]
        for node in _ORACLE_NODES:
            for pods in _resident_sets(_ORACLE_CONFIGS):
                _assert_matches_oracle(model, node, pods)

    @pytest.mark.parametrize("key", sorted(_ORACLE_MODELS))
    def test_prefetched_requests_match_pod_attributes(self, key):
        """The simulator's flat-state arrays and the pod objects agree."""
        model = _ORACLE_MODELS[key]
        for node in _ORACLE_NODES:
            for pods in _resident_sets(_ORACLE_CONFIGS):
                requests = (
                    np.array([p.request.cpus for p in pods], dtype=np.int64),
                    np.array([p.request.memory_gb for p in pods], dtype=np.float64),
                    np.array([p.request.gpus for p in pods], dtype=np.int64),
                )
                assert (
                    model.node_speeds(node, pods, requests).tolist()
                    == model.node_speeds(node, pods).tolist()
                )

    @pytest.mark.parametrize("key", sorted(_ORACLE_MODELS))
    def test_reordering_residents_reorders_speeds(self, key):
        """A pod's rate depends on who shares its node, not on list order."""
        model = _ORACLE_MODELS[key]
        for node in _ORACLE_NODES:
            for pods in _resident_sets(_ORACLE_CONFIGS):
                forward = model.node_speeds(node, pods).tolist()
                backward = model.node_speeds(node, pods[::-1]).tolist()
                assert backward == forward[::-1]

    @pytest.mark.parametrize("name", sorted(CONTENTION_SCENARIOS))
    def test_registered_scenario_model_matches_oracle(self, name):
        """Each scenario's own model, nodes and catalog obey the contract."""
        scenario = build_scenario(name)
        model = scenario.interference or NoInterference()
        for node in scenario.nodes:
            for pods in _resident_sets(scenario.union_catalog()):
                _assert_matches_oracle(model, node, pods)


class TestProgressExecution:
    def test_no_interference_observed_equals_planned_bit_for_bit(self):
        sim = _cluster(workload=_noisy_workload())
        for x in (0.1, 0.5, 0.9):
            sim.submit({"x": x}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        for run in runs:
            assert run.record.runtime_seconds == run.planned_runtime_seconds
            assert run.slowdown == 1.0

    def test_two_co_resident_pods_slow_each_other_down(self):
        # Two 10s pods sharing the node under alpha=1: each runs at
        # 1/(1+0.25) while the other is present.
        sim = _cluster(interference=LinearSlowdown(alpha=1.0))
        a = sim.submit({"x": 0.0}, "small", at_time=0.0)
        b = sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        assert len(runs) == 2
        # Both progress at 0.8 until the first finishes at t=12.5; the
        # survivor then needs no further slowdown.  First: 10/0.8 = 12.5.
        first, second = sorted(runs, key=lambda r: r.finish_time)
        assert first.finish_time == pytest.approx(12.5)
        assert first.record.runtime_seconds == pytest.approx(12.5)
        # Second: progressed 10 work-seconds' worth at 0.8 over 12.5s, so
        # remaining 0 work... identical pods tie; both finish at 12.5.
        assert second.finish_time == pytest.approx(12.5)
        assert a.slowdown == pytest.approx(1.25)
        assert b.slowdown == pytest.approx(1.25)

    def test_departure_speeds_up_the_survivor(self):
        # A 5s pod and a 20s pod co-reside under alpha=1 (u=0.25 -> 0.8).
        sim = _cluster(
            runtimes={"small": 5.0, "big": 20.0},
            interference=LinearSlowdown(alpha=1.0),
        )
        short = sim.submit({"x": 0.0}, "small", at_time=0.0)
        long = sim.submit({"x": 0.0}, "big", at_time=0.0)
        runs = sim.run_until_idle()
        # short: 5 work at 1/(1+4/8)=2/3 -> finishes at 7.5.
        assert short.finish_time == pytest.approx(7.5)
        # long: at t=7.5 progressed 7.5 * (1/(1+2/8)) = 6 of 20; the
        # remaining 14 run at full speed -> finishes at 21.5.
        assert long.finish_time == pytest.approx(21.5)
        assert long.observed_runtime_seconds == pytest.approx(21.5)
        assert long.slowdown == pytest.approx(21.5 / 20.0)

    def test_arrival_slows_down_a_running_pod(self):
        sim = _cluster(
            runtimes={"small": 10.0, "big": 30.0},
            interference=LinearSlowdown(alpha=2.0),
        )
        early = sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=5.0)
        sim.run_until_idle()
        # early ran alone for 5s (5 work done), then at 1/(1+2*0.25)=2/3:
        # remaining 5 work takes 7.5s -> finish at 12.5.
        assert early.finish_time == pytest.approx(12.5)
        assert early.slowdown == pytest.approx(1.25)

    def test_queueing_is_not_interference(self):
        # A pod waiting for capacity has zero progress and zero slowdown:
        # only co-residency inflates observed runtime.
        sim = _cluster(
            nodes=[Node("tiny", cpus=2, memory_gb=16)],
            interference=LinearSlowdown(alpha=5.0),
        )
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        waiting = sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.run_until_idle()
        assert waiting.queue_seconds == pytest.approx(10.0)
        assert waiting.slowdown == pytest.approx(1.0)  # it always ran alone

    def test_completed_run_slowdown_property(self):
        sim = _cluster(interference=LinearSlowdown(alpha=1.0))
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        for run in runs:
            assert run.slowdown == pytest.approx(
                run.record.runtime_seconds / run.planned_runtime_seconds
            )
            assert run.slowdown > 1.0


class TestDrawAtSubmitDeterminism:
    """Regression: the ground-truth draw must not depend on scheduling order."""

    def _submissions(self, sim, priorities):
        pods = []
        for i, priority in enumerate(priorities):
            pods.append(
                sim.submit({"x": 0.3 + 0.1 * i}, "big", at_time=float(i), priority=priority)
            )
        sim.run_until_idle()
        return pods

    def test_planned_runtimes_identical_across_schedulers(self):
        # Same submission order, different service order (FIFO vs priority
        # with preemption): the draws must be identical pod for pod.
        fifo = _cluster(workload=_noisy_workload(), scheduler=FIFOScheduler(),
                        nodes=[Node("n", cpus=4, memory_gb=32)])
        prio = _cluster(workload=_noisy_workload(), scheduler=PriorityScheduler(preemption=True),
                        nodes=[Node("n", cpus=4, memory_gb=32)])
        priorities = [0, 5, 10, 0, 7]
        fifo_pods = self._submissions(fifo, priorities)
        prio_pods = self._submissions(prio, priorities)
        assert [p.work_seconds for p in fifo_pods] == [p.work_seconds for p in prio_pods]

    def test_preempted_pod_does_not_redraw(self):
        # The preempted pod restarts with the SAME drawn runtime, and later
        # pods' draws are unaffected by the restart.
        sim = _cluster(workload=_noisy_workload(),
                       scheduler=PriorityScheduler(preemption=True),
                       nodes=[Node("n", cpus=4, memory_gb=32)])
        low = sim.submit({"x": 0.5}, "big", at_time=0.0, priority=0)
        drawn = low.work_seconds
        sim.submit({"x": 0.5}, "big", at_time=2.0, priority=10)
        runs = sim.run_until_idle()
        assert low.preemptions == 1
        assert low.work_seconds == drawn
        (run,) = [r for r in runs if r.pod_name == low.name]
        assert run.record.runtime_seconds == drawn  # NoInterference: observed == draw
        assert run.planned_runtime_seconds == drawn


class TestWorkConservation:
    """Property: the integral of the progress rate over the completed
    attempt equals the drawn work, across preemption and autoscale
    boundaries."""

    def _integral(self, pod):
        # progress_log holds (time, speed) changepoints of the final
        # attempt; integrate the piecewise-constant rate to finish_time.
        points = list(pod.progress_log) + [(pod.finish_time, 0.0)]
        total = 0.0
        for (t0, s0), (t1, _) in zip(points, points[1:]):
            total += (t1 - t0) * s0
        return total

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "interference", [NoInterference(), LinearSlowdown(1.3), CapacityContention(0.6)]
    )
    def test_completed_progress_integrates_to_drawn_work(self, seed, interference):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0.0, 1.0)},
            coefficients={"small": ({"x": 8.0}, 15.0), "big": ({"x": 4.0}, 9.0)},
            noise_sigma=1.5,
            name="prop",
        )
        sim = ClusterSimulator(
            workload=workload,
            catalog=_CATALOG,
            nodes=[Node("base", cpus=4, memory_gb=16)],
            scheduler=PriorityScheduler(preemption=True),
            seed=seed,
            autoscaler=AutoscalingNodePool(
                node_cpus=4,
                node_memory_gb=16,
                max_nodes=2,
                provision_delay_seconds=12.0,
                scale_down_idle_seconds=40.0,
            ),
            interference=interference,
        )
        import numpy as np

        rng = np.random.default_rng(seed)
        pods = []
        for i in range(14):
            hw = "big" if rng.random() < 0.4 else "small"
            pods.append(
                sim.submit(
                    {"x": float(rng.random())},
                    hw,
                    at_time=float(i * 3),
                    priority=int(rng.integers(0, 3)) * 5,
                )
            )
        runs = sim.run_until_idle()
        assert len(runs) == len(pods)
        for pod in pods:
            assert pod.phase is PodPhase.SUCCEEDED
            assert self._integral(pod) == pytest.approx(pod.work_seconds, rel=1e-9)
            assert pod.observed_runtime_seconds >= pod.work_seconds - 1e-9
            # Observed wall time spans the final attempt exactly.
            assert pod.observed_runtime_seconds == pytest.approx(
                pod.finish_time - pod.start_time, abs=1e-6
            )

    def test_preempted_and_restarted_pod_conserves_work_with_changing_co_residents(self):
        """Directed preemption x interference case: the victim's final
        attempt runs amid *different* co-residents than its first attempt,
        and its progress integral must still equal the drawn work."""
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 30.0, "big": 30.0}),
            catalog=_CATALOG,
            nodes=[Node("n", cpus=6, memory_gb=32)],
            scheduler=PriorityScheduler(preemption=True),
            seed=0,
            interference=LinearSlowdown(1.3),
        )
        victim = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
        # A small low-priority neighbour shares the first attempt...
        neighbour = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        # ...then a high-priority big request evicts the victim mid-run.
        preemptor = sim.submit({"x": 0.0}, "big", at_time=10.0, priority=10)
        runs = sim.run_until_idle()
        assert len(runs) == 3
        assert victim.preemptions == 1
        # The restart shared the node with a different mix (the preemptor
        # finishes at a different time than the original neighbour), so the
        # final attempt's rate changepoints differ from the first attempt's.
        assert len(victim.progress_log) >= 2
        # Work conservation across the restart: integrate the final
        # attempt's piecewise-constant rate.
        points = list(victim.progress_log) + [(victim.finish_time, 0.0)]
        integral = sum((t1 - t0) * s for (t0, s), (t1, _) in zip(points, points[1:]))
        assert integral == pytest.approx(victim.work_seconds, rel=1e-9)
        assert victim.observed_runtime_seconds == pytest.approx(
            victim.finish_time - victim.start_time, abs=1e-9
        )
        # The discarded first attempt is charged as waste, not progress.
        assert victim.wasted_runtime_seconds > 0.0
        (victim_run,) = [r for r in runs if r.pod_name == victim.name]
        assert victim_run.preemptions == 1
        assert victim_run.planned_runtime_seconds == victim.work_seconds
        assert victim_run.record.runtime_seconds >= victim.work_seconds - 1e-9


class TestProratedUtilisation:
    def test_base_node_busy_fraction_integrates_over_time(self):
        sim = _cluster(nodes=[Node("n", cpus=4, memory_gb=32)])
        sim.submit({"x": 0.0}, "big", at_time=0.0)  # 4 CPUs for 10s
        sim.run_until(10.0)
        sim.run_until(20.0)
        util = sim.utilisation()["n"]
        assert util["cpus"] == 0.0  # instantaneous: idle now
        assert util["busy_cpus"] == pytest.approx(0.5)  # 10 busy of 20s window

    def test_pool_node_prorated_by_provision_window_not_full_duration(self):
        # Pool node provisioned at t=30 runs a 10s pod then idles: at t=50
        # its busy fraction is 10/20 over ITS window, not 10/50.
        pool = AutoscalingNodePool(
            node_cpus=4,
            node_memory_gb=32,
            max_nodes=1,
            provision_delay_seconds=30.0,
            scale_down_idle_seconds=100.0,
        )
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=pool)
        sim.submit({"x": 0.0}, "small", at_time=0.0)   # occupies base 0..10
        sim.submit({"x": 0.0}, "big", at_time=0.0)     # needs the pool node
        sim.run_until(50.0)
        (pool_name,) = [n.name for n in sim.nodes if n.name.startswith("autoscale-")]
        util = sim.utilisation()[pool_name]
        assert util["busy_cpus"] == pytest.approx(0.5)
        # Base node: 2 CPUs busy for 10s of a 50s life.
        assert sim.utilisation()["base"]["busy_cpus"] == pytest.approx(10.0 / 50.0)

    def test_zero_window_reports_zero(self):
        sim = _cluster()
        util = sim.utilisation()["n"]
        assert util["busy_cpus"] == 0.0
        assert util["busy_memory_gb"] == 0.0
