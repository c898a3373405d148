import sys

import pytest

from mmsfair import engine


class TooManyNodes(Exception):
    """A search expanded more nodes than its pinned bound allows."""


def count_dfs_calls(search, bound, *args):
    """Run `search(*args)` and return how often the search kernel's `dfs`
    (inside `engine._search`) was entered.

    A profile hook counts the calls of that one code object and raises
    TooManyNodes once they pass `bound`, so a search that prunes too little
    fails at once instead of running to the end. Counts are deterministic.
    """
    dfs = next(c for c in engine._search.__code__.co_consts if getattr(c, "co_name", "") == "dfs")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is dfs:
            calls += 1
            if calls > bound:
                raise TooManyNodes(f"{search.__name__} passed {bound} nodes")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        search(*args)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture
def dfs_calls():
    return count_dfs_calls
