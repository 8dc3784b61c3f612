"""The Deployment facade is the batch runner, byte for byte.

The refactor contract of the serving layer: ``run_experiment`` became a
thin driver over :class:`repro.service.Deployment`, and the facade must
reproduce the pre-facade monolith's trial trajectories exactly —
``_legacy_run`` below *is* that monolith (inlined verbatim from the
pre-facade runner, built from the public builders), and the differential
test asserts full ``deterministic_dict`` identity on the E13 smoke spec.

Also covers the facade's incremental-driving guarantee (many small
``advance`` steps ≡ one big run) and the E16 load-driver's determinism
(service metrics are a pure function of the spec).
"""

import dataclasses
import hashlib
import json

from repro.experiments.runner import (
    _collect,
    build_failure_schedule,
    build_motes,
    build_topology,
    build_workload,
    run_experiment,
)
from repro.experiments.scenarios import query_service, scale_spec, scaling_xl
from repro.service import Deployment
from repro.sim.failure import FailureInjector
from repro.sim.network import Network
from repro.workloads.queries import QueryGenerator

SMOKE_SCALE = 0.15


def e13_smoke_spec(seed: int):
    series = scaling_xl(seed=seed, sizes=(64,))
    spec = series[0][1][0]  # (n, [scoop, local]) -> the scoop trial
    unscaled = dataclasses.replace(
        spec,
        scoop=dataclasses.replace(spec.scoop, duration=2400.0, stabilization=600.0),
    )
    return scale_spec(unscaled, SMOKE_SCALE)


def e16_smoke_spec(seed: int, qps: float = 0.6):
    series = query_service(seed=seed, loads=(qps,))
    return series[0][1][0]  # (qps, [scoop, local]) -> the scoop trial


def _legacy_run(spec):
    """The pre-facade ``run_experiment`` body, verbatim: every simulator
    call in the exact order the monolith made them."""
    config = spec.scoop
    topo = build_topology(spec)
    if topo.n != config.n_nodes:
        raise ValueError(
            f"topology has {topo.n} nodes but config expects {config.n_nodes}"
        )
    net = Network(topo, seed=spec.seed)
    workload = build_workload(spec, topo)
    base, nodes = build_motes(spec, net, workload)

    schedule = build_failure_schedule(spec)
    if schedule is not None:
        FailureInjector(net, schedule).arm()

    net.boot_all(within=config.beacon_interval)
    net.run(config.stabilization)

    for node in nodes:
        node.start_sampling()
    base.start_scoop()

    generator = QueryGenerator(
        spec.query_plan,
        config.domain,
        list(config.sensor_ids),
        rng=net.sim.rng,
        attribute_domains=[config.domain_of(a) for a in config.attribute_ids],
    )
    queries_issued = 0

    def query_tick() -> None:
        nonlocal queries_issued
        if net.sim.now >= config.stabilization + config.duration:
            return
        base.issue_query(generator.next_query(net.sim.now))
        queries_issued += 1
        net.sim.schedule(config.query_interval, query_tick)

    net.sim.schedule(config.query_interval, query_tick)
    net.run(config.stabilization + config.duration)

    for node in nodes:
        if node.booted:
            node.stop_sampling()
    net.run(net.sim.now + config.query_reply_window + 5.0)

    return _collect(spec, net, base, queries_issued)


class TestFacadeIdentity:
    def test_facade_trial_bit_identical_to_legacy_runner(self):
        spec = e13_smoke_spec(seed=1)
        legacy = _legacy_run(spec).deterministic_dict()
        facade = run_experiment(spec).deterministic_dict()
        assert facade == legacy

    def test_chunked_advance_identical_to_single_run(self):
        spec = e13_smoke_spec(seed=2)
        reference = run_experiment(spec).deterministic_dict()

        dep = Deployment.create(spec)
        dep.boot()
        dep.stabilize()
        dep.start_query_stream()
        config = spec.scoop
        end = config.stabilization + config.duration
        # Drive the measured phase in ragged little steps — a resident
        # deployment advanced on demand must tick every timer in the same
        # order as one big run.
        for step in (7.0, 31.0, 3.5, 97.0, 13.0):
            if dep.now + step < end:
                dep.advance(step)
        dep.run_until(end)
        dep.drain()
        assert dep.collect().deterministic_dict() == reference


class TestLifecycleGuards:
    def test_lifecycle_misuse_raises_with_phase_message(self):
        spec = e16_smoke_spec(seed=1)
        dep = Deployment.create(spec)
        assert dep.phase == "created"
        for doing in (dep.stabilize, dep.drain, dep.start_query_stream):
            try:
                doing()
                raise AssertionError("expected RuntimeError")
            except RuntimeError as exc:
                assert "'created'" in str(exc)
                assert "lifecycle" in str(exc)
        try:
            dep.query()
            raise AssertionError("expected RuntimeError")
        except RuntimeError as exc:
            assert "query()" in str(exc)

    def test_create_rejects_overwide_query_plan(self):
        spec = e13_smoke_spec(seed=1)
        bad = dataclasses.replace(
            spec, query_plan=dataclasses.replace(spec.query_plan, n_attributes=3)
        )
        try:
            Deployment.create(bad)
            raise AssertionError("expected ValueError")
        except ValueError as exc:
            assert "query plan names 3 attributes" in str(exc)


class TestExternalQueries:
    def test_external_query_returns_closed_structured_result(self):
        spec = e16_smoke_spec(seed=3)
        dep = Deployment.create(spec)
        dep.boot()
        dep.stabilize()
        dep.advance(60.0)
        result = dep.query(attr=0, lo=10, hi=40)
        assert result.closed
        assert result.query.value_range == (10, 40)
        assert all(10 <= value <= 40 for value, _ts, _origin in result.readings)
        assert dep.queries_issued == 1

    def test_out_of_domain_query_errors(self):
        spec = e16_smoke_spec(seed=3)
        dep = Deployment.create(spec)
        dep.boot()
        dep.stabilize()
        try:
            dep.query(attr=0, lo=-5, hi=10)
            raise AssertionError("expected ValueError")
        except ValueError as exc:
            assert "outside attribute 0's domain" in str(exc)
        try:
            dep.query(attr=7)
            raise AssertionError("expected ValueError")
        except ValueError as exc:
            assert "attribute id 7" in str(exc)

    def test_force_remap_bumps_index_epoch(self):
        spec = e16_smoke_spec(seed=4)
        dep = Deployment.create(spec)
        dep.boot()
        dep.stabilize()
        # Let enough statistics accumulate that a remap accepts an index.
        dep.advance(2 * spec.scoop.summary_interval)
        before = dep.index_epoch
        dep.force_remap()
        assert dep.index_epoch > before


class TestServiceTrialDeterminism:
    def test_e16_trial_deterministic_and_exports_service_metrics(self):
        spec = e16_smoke_spec(seed=1, qps=0.6)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.deterministic_dict() == second.deterministic_dict()
        service = first.metrics.service
        assert service["requests_offered"] > 0
        assert service["requests_served"] > 0
        assert service["latency_p95_s"] >= service["latency_p50_s"] > 0
        assert service["cache_hit_rate"] > 0
        # The serving layer never fabricates readings: the oracle's
        # precision check stays clean under external query traffic.
        assert first.metrics.oracle["precision_violations"] == 0

    def test_e16_scorecards_are_pinned(self):
        """The ``service`` and ``service_shards`` scorecards of one E16
        trial, bit for bit. The digest was recorded when the gateway kept
        latency and staleness as per-request lists (means from a
        left-to-right float ``sum``); the exact tallies must reproduce it
        on every Python version, including those whose ``sum`` is
        compensated."""
        metrics = run_experiment(e16_smoke_spec(seed=1, qps=1.5)).metrics
        body = json.dumps(
            {"service": metrics.service, "service_shards": metrics.service_shards},
            sort_keys=True,
        )
        assert metrics.service["requests_served"] == 455.0
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "9d746534056ca1f692c66761b3af3ef47ce024284e9f57d33483d1163dadd9fe"
        )

    def test_offered_load_does_not_touch_simulation_rng(self):
        # Arrival traces come from a dedicated RNG stream; two loads give
        # different serving scorecards but both runs stay deterministic.
        low = run_experiment(e16_smoke_spec(seed=2, qps=0.05))
        high = run_experiment(e16_smoke_spec(seed=2, qps=1.5))
        assert (
            high.metrics.service["requests_offered"]
            > low.metrics.service["requests_offered"]
        )
