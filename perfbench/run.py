"""The repository benchmark: simulated trials and served queries.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trial-e13 --seed 1 --seconds 45 --trace 0

Workloads: ``trial-e13`` (back-to-back simulated SCOOP trials) and
``serve-hot`` (closed-loop cache hits through the socket stack). ``--trace 0``
measures the end-to-end metrics with nothing instrumented; ``--trace 1``
makes a separate traced run and reports the per-layer metrics. Both print
each metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. A run whose
outputs fail their checks exits non-zero. The metric names are read from
``BENCHMARK.json``; ``perfbench/METRICS.md`` defines each of them.
"""

from __future__ import annotations

import argparse
import json
import sys

import util

WORKLOADS = ("trial-e13", "serve-hot")

#: Per-layer metrics of serving layers, which the trials never call; the
#: trial workload reports them as 0.
SERVING_ONLY = {
    "gateway.submit_us",
    "gateway.process_batch_ms",
    "deployment.advance_ms",
    "gateway.snapshot_ms_first",
    "gateway.snapshot_ms_last",
    "gateway.cache_hit_rate",
    "gateway.batches",
    "gateway.coalesced",
    "gateway.shed",
    "protocol.codec_us",
    "client.hit_p50_ms_first",
    "client.hit_p50_ms_last",
    "client.miss_p50_ms",
    "transport.hit_ms",
    "server.frames_in",
    "server.sheds_socket",
    "shard.worker_rss_mb",
}


def declared(kind: str) -> dict:
    with open(util.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not util.sources_present():
        print(f"error: no program sources under {util.SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import trial

        trial.setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload == "trial-e13":
        import trial as workload
    else:
        import serve as workload
    measure = workload.run_traced if args.trace else workload.run
    correct, attempted, failed, metrics, errors = measure(args.seed, args.seconds)

    expected = declared("per_layer" if args.trace else "end_to_end")
    if args.trace and args.workload == "trial-e13":
        for name in SERVING_ONLY:
            metrics[name] = util.metric(0.0, expected[name])
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print(f"error: metrics missing {missing}, undeclared {extra}", file=sys.stderr)
        return 2
    for name in expected:
        if metrics[name]["unit"] != expected[name]:
            print(f"error: {name} measured in {metrics[name]['unit']}", file=sys.stderr)
            return 2

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name in expected:
        print(f"{name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: metrics[name] for name in expected},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
