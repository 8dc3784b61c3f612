"""The system under test for the serve workloads, in its own process.

Reads one JSON line from stdin — ``{"spec": <spec dict>, "tenants": N,
"workers": W}`` — then runs a :class:`~repro.service.ShardedGateway`
behind :func:`~repro.service.serve_framed` on an ephemeral localhost
port, prints ``{"port": P}`` once the socket is bound, and serves until
stdin closes. Client hellos block until every shard is ready, so the
WELCOME a client receives marks the end of set-up. Closing the gateway
joins every shard worker before this process exits.

Spawn-safe: shard workers re-import this file as a non-main module, so
everything that runs lives under the ``__main__`` check.
"""

from __future__ import annotations

import asyncio
import json
import sys

import util  # noqa: F401  (puts the checkout's src/ on sys.path)


async def serve(config: dict) -> None:
    from repro.experiments.runner import ExperimentSpec
    from repro.service import ShardedGateway, serve_framed

    spec = ExperimentSpec.from_dict(config["spec"])
    gateway = ShardedGateway(
        spec, tenants=config["tenants"], workers=config["workers"]
    )
    await gateway.start()
    try:
        server = await serve_framed(gateway, host="127.0.0.1", port=0)
        try:
            print(json.dumps({"port": server.port}), flush=True)
            # Serve until the benchmark closes our stdin.
            await asyncio.get_running_loop().run_in_executor(
                None, sys.stdin.readline
            )
        finally:
            await server.close()
    finally:
        await gateway.close()


if __name__ == "__main__":
    asyncio.run(serve(json.loads(sys.stdin.readline())))
