"""Regression: the forecast-miss distance must not depend on hash order.

``total_variation`` sums one term per template key over a set of keys,
and a set of strings iterates in ``PYTHONHASHSEED``-dependent order.
A plain left-to-right float sum then differs in the last bit between
hash seeds, which moved logged distances (and so run fingerprints)
from one interpreter to the next.
"""

from repro.guard import total_variation

P = [70.0, 110.0, 1300.0, 1300.0, 1100.0]
Q = [10.0, 13.0, 11.0, 2.0, 30.0]


class _Key(str):
    """A template name whose hash, and so its set position, is chosen."""

    def __new__(cls, text: str, slot: int) -> "_Key":
        key = super().__new__(cls, text)
        key.slot = slot
        return key

    def __hash__(self) -> int:
        return self.slot


def _distance(slots: list[int]) -> float:
    keys = [_Key(f"t{i}", slot) for i, slot in enumerate(slots)]
    return total_variation(dict(zip(keys, P)), dict(zip(keys, Q)))


def test_total_variation_is_independent_of_key_iteration_order():
    forward = _distance([0, 1, 2, 3, 4])
    backward = _distance([4, 3, 2, 1, 0])
    assert forward == backward
