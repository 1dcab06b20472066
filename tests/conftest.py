import sys

import pytest

from occukit import core


@pytest.fixture(autouse=True)
def int_digit_limit():
    """Restore Python's limit on the digits of printed ints, which
    ``cli.main`` lifts for its process, after a test that calls it."""
    get = getattr(sys, "get_int_max_str_digits", None)
    limit = get() if get else None
    yield
    if get:
        sys.set_int_max_str_digits(limit)


@pytest.fixture(params=["int64", "list"])
def table_route(request, monkeypatch):
    """Force every dense table walk onto one route, and fail any walk that
    takes the other. ``int64`` batches plans of any size (it is exact on
    every instance of the tests that use this fixture); ``list`` moves the
    int64 bound to 0, so no walk counts as exact in int64."""

    def other_route(*args):
        raise AssertionError(f"a table walk left the {request.param} route")

    if request.param == "int64":
        monkeypatch.setattr(core, "_MIN_BATCH_VECTORS", 1)
        monkeypatch.setattr(core, "_list_tables", other_route)
    else:
        monkeypatch.setattr(core, "_INT64_BOUND", 0)
        monkeypatch.setattr(core, "_int64_tables", other_route)
    return request.param
