"""Span tracing from outside the program: wrap each layer's entry points.

:class:`Tracer` replaces chosen methods on their classes with timing
wrappers while it is entered as a context manager. Every wrapped call is a span;
spans nest through one stack, so a span's *self* time is its duration
minus the time of the spans it caused (a receive that re-evaluates the
routing tree charges the tree's time to ``routing.on_beacon``, not to the
mote). Install the tracer before the deployments it should see are
created: the radio and timers bind methods when they are wired.

Nothing here touches the simulation's clocks or RNG streams, so a traced
trial follows the same trajectory as an untraced one; the benchmark
checks that by comparing message and event counts.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple


class Tracer:
    """Per-span-name call counts, total and self times, and samples."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: per-call durations, kept only for names passed to ``sample``.
        self.samples: Dict[str, List[float]] = {}
        # one child-time accumulator per open span
        self._stack: List[float] = [0.0]
        self._wraps: List[Tuple[type, str, str]] = []
        self._patched: List[Tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------
    def _close(self, name: str, elapsed: float) -> None:
        stack = self._stack
        child = stack.pop()
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child
        stack[-1] += elapsed
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(elapsed)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - started)

    def sample(self, *names: str) -> None:
        """Keep every call's duration for ``names`` (for medians)."""
        for name in names:
            self.samples.setdefault(name, [])

    # -- patching ------------------------------------------------------
    def add(self, owner: type, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name`` while the
        tracer is installed."""
        self._wraps.append((owner, attr, name))

    def _wrap(self, owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        stack = self._stack
        close = self._close
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                close(name, perf_counter() - started)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self._wraps:
            self._wrap(owner, attr, name)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_tracer() -> Tracer:
    """A tracer over the public entry points of every simulator and
    protocol layer the per-layer metrics name."""
    from repro.core.basestation import Basestation
    from repro.core.node import ScoopNode
    from repro.service.deployment import Deployment
    from repro.sim.linkest import LinkEstimator
    from repro.sim.mote import Mote
    from repro.sim.network import Network
    from repro.sim.radio import Radio
    from repro.sim.routing_tree import RoutingTree

    tracer = Tracer()
    tracer.add(Network, "run", "kernel.run")
    tracer.add(Radio, "broadcast", "radio.send")
    tracer.add(Radio, "unicast", "radio.send")
    # The kernel event that fans one transmission out to its receivers:
    # private, but it is where the radio spends its time.
    tracer.add(Radio, "_finish_transmission", "radio.deliver")
    tracer.add(Mote, "on_receive", "mote.rx")
    tracer.add(Mote, "on_snoop", "mote.rx")
    tracer.add(LinkEstimator, "hear", "linkest.hear")
    tracer.add(RoutingTree, "on_beacon", "routing.on_beacon")
    tracer.add(ScoopNode, "handle_frame", "core.handle_frame")
    tracer.add(Basestation, "issue_query", "core.issue_query")
    tracer.add(Basestation, "_remap", "core.remap")
    tracer.add(Deployment, "advance", "deployment.advance")
    return tracer


def add_sim_counts(counts: Dict[str, float], deployment) -> None:
    """Add a finished deployment's work counters to ``counts``."""
    net = deployment.net
    for name, value in (
        ("kernel.events", net.sim.events_executed),
        ("radio.tx_frames", net.radio.stats.frames_sent),
        ("radio.rx_deliveries", net.radio.stats.frames_delivered),
        (
            "routing.parent_changes",
            sum(mote.tree.parent_changes for mote in net.motes.values()),
        ),
    ):
        counts[name] = counts.get(name, 0.0) + value


def layer_metrics(
    tracer: Tracer, counts: Dict[str, float], per: float
) -> Dict[str, Tuple[float, str]]:
    """The simulator/core per-layer metrics from the tracer and the summed
    ``add_sim_counts``, each divided by ``per`` (the number of trials for
    the trial workload, 1 for a replay)."""
    calls = tracer.calls
    selfs = tracer.self_s
    tx = counts["radio.tx_frames"]
    beacons = calls.get("routing.on_beacon", 0)
    values: Dict[str, Tuple[float, str]] = {
        "kernel.events": (counts["kernel.events"] / per, "count"),
        "radio.tx_frames": (tx / per, "count"),
        "radio.rx_deliveries": (counts["radio.rx_deliveries"] / per, "count"),
        "radio.fanout": (
            counts["radio.rx_deliveries"] / tx if tx else 0.0,
            "count",
        ),
        "mote.rx_calls": (calls.get("mote.rx", 0) / per, "count"),
        "linkest.hear_calls": (calls.get("linkest.hear", 0) / per, "count"),
        "routing.on_beacon_calls": (beacons / per, "count"),
        "routing.parent_changes": (counts["routing.parent_changes"] / per, "count"),
        "routing.useful_frac": (
            counts["routing.parent_changes"] / beacons if beacons else 0.0,
            "frac",
        ),
        "core.remaps": (calls.get("core.remap", 0) / per, "count"),
    }
    self_times: List[Tuple[str, str]] = [
        ("radio.send_s", "radio.send"),
        ("radio.deliver_s", "radio.deliver"),
        ("mote.rx_self_s", "mote.rx"),
        ("linkest.hear_s", "linkest.hear"),
        ("routing.on_beacon_s", "routing.on_beacon"),
        ("kernel.run_self_s", "kernel.run"),
        ("core.handle_frame_s", "core.handle_frame"),
        ("core.issue_query_s", "core.issue_query"),
        ("core.remap_s", "core.remap"),
    ]
    for metric_name, span in self_times:
        values[metric_name] = (selfs.get(span, 0.0) / per, "s")
    return values


def phase_metrics(tracer: Tracer, per: float) -> Dict[str, Tuple[float, str]]:
    """Inclusive wall time of the deployment phases the benchmark drove."""
    names = [
        ("topology.build_s", "topology.build"),
        ("deployment.create_s", "deployment.create"),
        ("deployment.boot_stabilize_s", "deployment.boot_stabilize"),
        ("deployment.measure_s", "deployment.measure"),
        ("deployment.drain_s", "deployment.drain"),
        ("deployment.collect_s", "deployment.collect"),
    ]
    return {m: (tracer.total_s.get(s, 0.0) / per, "s") for m, s in names}
