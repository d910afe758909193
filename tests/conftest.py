"""Shared test helpers."""

import pytest

from nilstab.words import lyndon_factor_positions


def _on_p(series: dict, r: int, c: int) -> dict:
    """A series keyed by word, cut to P(r, c) and keyed by position there."""
    position = lyndon_factor_positions(r, c).position
    return {position[w]: x for w, x in series.items() if w in position}


@pytest.fixture
def on_p():
    """The cut of a word-keyed series to P(r, c), keyed by position: on_p(series, r, c)."""
    return _on_p
