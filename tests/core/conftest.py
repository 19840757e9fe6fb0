"""Helpers shared by the AMPoM core tests."""

from __future__ import annotations

from typing import Sequence

from repro.core.incremental import IncrementalWindow
from repro.core.zone import readahead_fallback, select_from_streams


def filled_window(pages: Sequence[int], dmax: int = 4) -> IncrementalWindow:
    """A window long enough to hold all of ``pages``, recorded in order
    one time unit apart (a consecutive repeat is dropped, as on a fault)."""
    window = IncrementalWindow(max(len(pages), 2), dmax)
    for i, vpn in enumerate(pages):
        window.record(vpn, float(i), 1.0)
    return window


def select_pages(
    pages: Sequence[int], n: int, address_limit: int, dmax: int = 4
) -> list[int]:
    """The prefetcher's page selection on a window holding ``pages``
    (non-empty): the stream pivots' quotas, else read-ahead."""
    window = filled_window(pages, dmax)
    streams = window.outstanding_streams()
    if streams:
        return select_from_streams(streams, n, address_limit)
    return readahead_fallback(window.last_page, n, address_limit)
