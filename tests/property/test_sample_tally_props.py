"""Property tests for the serving telemetry's exact tallies.

:class:`~repro.service.gateway.SampleTally` replaces per-request sample
lists, so it must reproduce the list figures exactly: its nearest-rank
percentiles equal :func:`~repro.service.gateway.percentile` over the
same samples, and its mean equals the arrival-order sum over the count,
bit for bit — which is ``sum(list) / len(list)`` wherever Python's float
``sum`` adds left to right (before 3.12).
"""

import sys
from functools import reduce
from operator import add

from hypothesis import given
from hypothesis import strategies as st

from repro.service.gateway import SampleTally, percentile

# Few distinct values, many repeats: the shape of simulated-clock
# latencies, where every cache hit at one clock reading ties.
_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=1,
    max_size=12,
    unique=True,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300))


@given(_samples, st.floats(min_value=0.0, max_value=1.0))
def test_tally_matches_the_list_figures(values, q):
    tally = SampleTally()
    for value in values:
        tally.add(value)
    assert tally.count == len(values)
    assert tally.distinct == len(set(values))
    for rank_q in (0.50, 0.95, 0.99, q):
        assert tally.percentile(rank_q) == percentile(values, rank_q)
    mean = tally.mean()
    assert mean == reduce(add, values, 0.0) / len(values)
    if sys.version_info < (3, 12):
        assert mean == sum(values) / len(values)
