"""Shared helpers: locating the checkout's sources, statistics, /proc reads.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and drops every ``REPRO_*`` environment variable, so neither an
installed copy of the package nor a scale/radio/scheduler/cache override
in the caller's environment can change what the benchmark measures.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def sources_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``values`` must be non-empty."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tenth(values: List[float], last: bool) -> List[float]:
    """The first or last tenth of a sequence (at least one element)."""
    k = max(1, len(values) // 10)
    return values[-k:] if last else values[:k]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
