import pytest

from zdgraph import finite_ring


@pytest.fixture
def fresh_tables(monkeypatch):
    """install(budget) puts an empty ring-table cache with that byte budget
    in place for the rest of the test and returns it; its charged_after list
    records the charged bytes after every insertion and every charge."""

    def install(budget=finite_ring.TABLE_BUDGET):
        cache = finite_ring._TableCache()
        cache.charged_after = []
        evict = cache._evict

        def recording_evict():
            evict()
            cache.charged_after.append(cache.charged)

        monkeypatch.setattr(cache, "_evict", recording_evict)
        monkeypatch.setattr(finite_ring, "_TABLES", cache)
        monkeypatch.setattr(finite_ring, "TABLE_BUDGET", budget)
        return cache

    return install
