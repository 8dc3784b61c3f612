"""E13-scale trajectory pin and serial ≡ parallel campaign identity.

The unit suite pins jobs=1 ≡ jobs=4 bit-identity on 14-node trials; this
integration test re-asserts it at the scaling grid's 64-node point (the
E13 smoke configuration the perf benchmark measures), where the radio's
batched RNG stream, the vectorized reception fan-out, and the process-pool
fan-out all interact at realistic densities.

It also pins that trial's trajectory as integer counts — messages and
kernel events (the figures ``benchmarks/BENCH_kernel.json`` records) and
the radio's frame, collision and loss tallies — so any change to event
ordering, the RNG draw discipline or the reception fan-out shows up as a
changed count.
"""

import dataclasses

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.runner import scale_spec
from repro.experiments.scenarios import scaling_xl
from repro.service.deployment import Deployment

#: The committed E13 smoke time scale (matches benchmarks/bench_kernel.py).
SMOKE_SCALE = 0.15


def e13_smoke_spec(seed: int):
    series = scaling_xl(seed=seed, sizes=(64,))
    spec = series[0][1][0]  # (n, [scoop, local]) -> the scoop trial
    unscaled = dataclasses.replace(
        spec,
        scoop=dataclasses.replace(spec.scoop, duration=2400.0, stabilization=600.0),
    )
    return scale_spec(unscaled, SMOKE_SCALE)


def test_jobs1_and_jobs4_bit_identical_at_e13_scale(tmp_path):
    specs = [e13_smoke_spec(seed) for seed in (1, 2)]
    campaign = Campaign.from_specs("e13_parallel_identity", specs)
    serial = run_campaign(campaign, jobs=1, cache=ResultCache(tmp_path / "serial"))
    parallel = run_campaign(campaign, jobs=4, cache=ResultCache(tmp_path / "par"))
    assert serial.executed == parallel.executed == len(specs)
    for s, p in zip(serial.trials, parallel.trials):
        assert s.trial.key == p.trial.key
        assert s.result.deterministic_dict() == p.result.deterministic_dict()
        # The deterministic view still carries the kernel's event count —
        # a pure function of the spec, so it must survive the pool fan-out.
        assert s.result.metrics.timing["events_processed"] > 0


def test_e13_smoke_trajectory_is_pinned():
    spec = e13_smoke_spec(1)
    dep = Deployment.create(spec)
    dep.boot()
    dep.stabilize()
    dep.start_query_stream()
    dep.run_until(spec.scoop.stabilization + spec.scoop.duration)
    dep.drain()
    result = dep.collect()
    assert result.total_messages == 8440
    assert result.metrics.timing["events_processed"] == 45496
    radio = dep.net.radio.stats
    assert (
        radio.frames_sent,
        radio.frames_delivered,
        radio.collisions,
        radio.bernoulli_losses,
    ) == (12406, 133562, 23928, 109047)
