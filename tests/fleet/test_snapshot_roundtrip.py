"""Property: the transfer-snapshot round trip is a fixed point.

``transfer_snapshot`` / ``absorb_transfer`` are the substrate under
process-mode sync, crash recovery, and durable checkpoints — so they
must be *idempotent in the limit*: absorbing a snapshot and snapshotting
again yields byte-identical pickles from then on (the first round trip
may canonicalise pickle memo layout; every later one must be exact),
and the absorbed context must be behaviorally indistinguishable — the
remaining bins run bit-identically to a context that was never pickled.

Hypothesis drives the seeds; examples are few because each builds a
fleet, but the property is seed-independent by construction and any
counterexample shrinks to a reportable seed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import build_fleet

BINS = 3
ROWS = 1_200


def _built(seed):
    fleet = build_fleet(2, seed=seed, bins=BINS, rows=ROWS)
    fleet.run(2)  # warm state: indexes, guard ledgers, predictor history
    return fleet


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_snapshot_absorb_snapshot_is_a_fixed_point(seed):
    fleet = _built(seed)
    ctx = fleet.tenants[0]

    def round_trip():
        blob = ctx.transfer_snapshot()
        ctx.absorb_transfer(blob)
        return blob

    round_trip()  # first absorb canonicalises the pickle layout
    stable = round_trip()
    for _ in range(2):
        assert round_trip() == stable


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_absorbed_context_continues_bit_identically(seed):
    control = _built(seed)
    pickled = _built(seed)
    for ctx in pickled.tenants:
        ctx.absorb_transfer(ctx.transfer_snapshot())

    control.run()
    pickled.run()
    # compare the tenants' own registries/logs directly: the property
    # under test is the context round trip itself (the driver-integrated
    # path is covered by test_checkpoint)
    for a, b in zip(control.tenants, pickled.tenants):
        assert list(a.records) == list(b.records)
        assert (
            a.telemetry.registry.snapshot_counters()
            == b.telemetry.registry.snapshot_counters()
        )
        assert [
            (e.at_ms, e.kind, e.message) for e in a.events.events()
        ] == [(e.at_ms, e.kind, e.message) for e in b.events.events()]
