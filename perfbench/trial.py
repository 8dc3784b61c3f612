"""Workload ``trial-e13``: back-to-back simulated SCOOP trials.

The researcher's path: spec -> topology -> motes -> kernel -> radio ->
Scoop protocol -> oracle -> metrics, at the E13 point (the 64-node
scaling-grid testbed on the REAL trace) pinned at time scale 0.15, the
point ``benchmarks/bench_kernel.py`` calls E13-smoke. No service layer
runs. Trials call :func:`run_experiment` directly, never the campaign
result cache, so a warm cache can never read as a speed-up.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from util import median, metric, peak_rss_mb, percentile

#: Time scale of the E13 smoke point, pinned (the environment is ignored).
E13_SCALE = 0.15
#: Trial seeds 1..TRIAL_POOL: consecutive E13 seeds, each its own
#: testbed topology and trace offset.
TRIAL_POOL = 8
#: Fresh-interpreter launches whose median is ``setup_s``.
SETUP_LAUNCHES = 3
#: The seed whose trajectory counts the traced run reports: the E13-smoke
#: trajectory the repository already pins (8,440 messages, 45,496 events).
TRAJECTORY_SEED = 1


def e13_spec(seed: int):
    """The scaling grid's 64-node SCOOP trial at the pinned smoke scale."""
    from repro.experiments.runner import scale_spec
    from repro.experiments.scenarios import scaling_xl

    spec = scaling_xl(seed=seed, sizes=(64,))[0][1][0]
    unscaled = dataclasses.replace(
        spec,
        scoop=dataclasses.replace(spec.scoop, duration=2400.0, stabilization=600.0),
    )
    return scale_spec(unscaled, E13_SCALE)


def trial_seeds(seed: int) -> Iterator[int]:
    """Endless trial seeds: the pool cycled from an offset drawn from
    ``seed``. Every run of a few dozen trials then covers nearly the
    same mix of topologies, so its throughput does not hinge on which
    block of seeds it drew; runs differ in order and in the few trials
    past a whole cycle."""
    offset = random.Random(f"trial-e13/{seed}").randrange(TRIAL_POOL)
    return (1 + (offset + i) % TRIAL_POOL for i in itertools.count())


def setup_probe() -> None:
    """Child entry of one set-up launch: everything a fresh process does
    before its first timed trial, then report readiness."""
    import repro.service.deployment  # noqa: F401  (run_experiment's import)

    e13_spec(1)
    print("ready", flush=True)


def measure_setup() -> float:
    """Median wall time from launching a fresh interpreter to readiness."""
    script = Path(__file__).resolve().parent / "run.py"
    times = []
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - started
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return median(times)


def _violations(result) -> int:
    return int(result.metrics.oracle.get("precision_violations", 0))


def run(seed: int, seconds: float) -> Tuple[bool, int, int, Dict, List[str]]:
    """The untraced measurement: trials until ``seconds`` have passed."""
    from repro.experiments.runner import run_experiment

    errors: List[str] = []
    setup_s = measure_setup()
    walls: List[float] = []
    first: Dict[int, dict] = {}
    failed = 0
    seeds = trial_seeds(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        trial_seed = next(seeds)
        spec = e13_spec(trial_seed)
        started = time.perf_counter()
        result = run_experiment(spec)
        walls.append(time.perf_counter() - started)
        if _violations(result):
            failed += 1
            errors.append(f"trial seed {trial_seed}: oracle precision violations")
        # A repeated seed must reproduce its trial exactly.
        if trial_seed in first:
            if result.deterministic_dict() != first[trial_seed]:
                errors.append(f"trial seed {trial_seed} is not deterministic")
        else:
            first[trial_seed] = result.deterministic_dict()
    if len(first) == len(walls):  # no seed came round twice
        again = next(iter(first))
        if run_experiment(e13_spec(again)).deterministic_dict() != first[again]:
            errors.append(f"trial seed {again} is not deterministic")
    total = sum(walls)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(os.getpid()), "MB"),
        "ops_per_s": metric(len(walls) / total, "1/s"),
        "lat_p50_ms": metric(1000.0 * median(walls), "ms"),
        "lat_p99_ms": metric(1000.0 * percentile(walls, 0.99), "ms"),
        "ok_frac": metric((len(walls) - failed) / len(walls), "frac"),
    }
    return not errors, len(walls), failed, metrics, errors


def _traced_trial(tracer, spec):
    """One trial driven phase by phase, exactly as ``run_experiment``
    orders them, with a span around each phase."""
    from repro.experiments.runner import build_topology
    from repro.service.deployment import Deployment

    with tracer.span("trial"):
        with tracer.span("topology.build"):
            topology = build_topology(spec)
        with tracer.span("deployment.create"):
            dep = Deployment.create(spec, topology=topology)
        with tracer.span("deployment.boot_stabilize"):
            dep.boot()
            dep.stabilize()
        with tracer.span("deployment.measure"):
            dep.start_query_stream()
            dep.run_until(spec.scoop.stabilization + spec.scoop.duration)
        with tracer.span("deployment.drain"):
            dep.drain()
        with tracer.span("deployment.collect"):
            result = dep.collect()
    return dep, result


def run_traced(seed: int, seconds: float) -> Tuple[bool, int, int, Dict, List[str]]:
    """The traced run: pairs of an untraced and a traced trial of one
    seed, until ``seconds`` have passed. The pair gives the tracing
    overhead and proves tracing left the trajectory alone."""
    from repro.experiments.runner import run_experiment
    from tracing import add_sim_counts, layer_metrics, layer_tracer, phase_metrics

    errors: List[str] = []
    tracer = layer_tracer()
    counts: Dict[str, float] = {}
    n = 0
    plain_s = traced_s = 0.0
    failed = 0
    trajectory = None
    seeds = itertools.chain([TRAJECTORY_SEED], trial_seeds(seed))
    deadline = time.perf_counter() + seconds
    while not n or time.perf_counter() < deadline:
        trial_seed = next(seeds)
        spec = e13_spec(trial_seed)
        started = time.perf_counter()
        plain = run_experiment(spec)
        plain_s += time.perf_counter() - started
        started = time.perf_counter()
        with tracer:
            dep, traced = _traced_trial(tracer, spec)
        traced_s += time.perf_counter() - started
        add_sim_counts(counts, dep)
        n += 1
        traced_path = (traced.total_messages, traced.metrics.timing["events_processed"])
        plain_path = (plain.total_messages, plain.metrics.timing["events_processed"])
        if traced_path != plain_path:
            errors.append(f"trial seed {trial_seed}: tracing changed the trajectory")
        if _violations(traced):
            failed += 1
            errors.append(f"trial seed {trial_seed}: oracle precision violations")
        if trajectory is None:
            trajectory = traced_path
    values = dict(layer_metrics(tracer, counts, per=n))
    values.update(phase_metrics(tracer, per=n))
    values["trace.wall_s"] = (tracer.total_s["trial"] / n, "s")
    values["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    values["trajectory.messages"] = (float(trajectory[0]), "count")
    values["trajectory.events"] = (float(trajectory[1]), "count")
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
    return not errors, n, failed, metrics, errors

