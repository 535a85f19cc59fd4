"""Golden pin: serial-fleet fingerprints against recorded digests.

``test_parallel.py`` holds process mode equal to serial mode, which
cannot catch a change that moves both modes together. This file pins
the serial fleet's fingerprint (bin records, normalized event streams,
final configurations, rollup counters, arbitration totals) to SHA-256
digests recorded before the fleet bin loop was unified, so any change
to the fleet's host protocol is checked against the old loop's output
rather than against itself.

The fingerprint is canonicalized before hashing (``tests/digest.py``),
so the digests do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import pytest

from repro.fleet import build_fleet
from tests.digest import digest
from tests.fleet.test_parallel import BINS, ROWS, TENANTS, _fingerprint

#: seed -> digest of the 3-tenant x 8-bin serial fleet (test_parallel's)
SMALL_FLEET_DIGESTS = {
    1: "18de8bf73ec9b79bdbca1933afb780dd"
    "fbd87405f305c9ef95844d730d13d485",
    2: "d73d4c14e93563005a128acea2ca8969"
    "c3dfc40223c8d4ccea716df0d594f2a5",
    3: "b37d007c41c6159daaa88c5bdc10a0e3"
    "d39218bdabf15bd4af2843398409b0e8",
}
#: the 8-tenant, skew-0.8 layout of E18 ``--quick`` (seed 7, 10 bins,
#: 3000 rows, default fleet config)
E18_QUICK_DIGEST = (
    "8824ca6654aac7892d8431d3e7024ea4"
    "4acc68748e94dc0d61ff5b5d587dde1a"
)


def fingerprint_digest(fleet, report) -> str:
    return digest(_fingerprint(fleet, report))


@pytest.mark.parametrize("seed", sorted(SMALL_FLEET_DIGESTS))
def test_serial_fleet_matches_recorded_digest(seed):
    fleet = build_fleet(TENANTS, seed=seed, bins=BINS, rows=ROWS)
    report = fleet.run()
    assert fingerprint_digest(fleet, report) == SMALL_FLEET_DIGESTS[seed]


def test_e18_quick_layout_matches_recorded_digest():
    fleet = build_fleet(8, skew=0.8, seed=7, bins=10, rows=3_000)
    report = fleet.run()
    assert fingerprint_digest(fleet, report) == E18_QUICK_DIGEST
