"""The array-backed embedding cache against the OrderedDict store it
replaced."""

from collections import OrderedDict

import numpy as np
import pytest

import textgraph.features as ft
from textgraph.errors import ContractError


class DictCache:
    """The reference store: one OrderedDict entry per key, served and
    written one key at a time."""

    def __init__(self, capacity: int, staleness_limit: int):
        self.capacity = capacity
        self.staleness_limit = staleness_limit
        self._store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0
        self.version = 0

    def __len__(self):
        return len(self._store)

    def get(self, key):
        entry = self._store.get(key)
        if entry is not None:
            value, stamp = entry
            if self.version - stamp <= self.staleness_limit:
                self._store.move_to_end(key)
                self.hits += 1
                return value
            del self._store[key]
            self.stale_drops += 1
        self.misses += 1
        return None

    def put(self, key, value: np.ndarray):
        if self.capacity == 0:
            return
        self._store[key] = (value, self.version)
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def advance(self):
        self.version += 1

    def clear(self):
        self._store.clear()


COUNTERS = ("hits", "misses", "stale_drops", "evictions")


def lru_order(cache) -> list:
    """Held ids, least recently used first: the order they would be evicted."""
    meta = cache._meta[cache._meta[:, 0] >= 0]
    return meta[np.argsort(meta[:, 2]), 0].tolist()


# (capacity, staleness_limit, ids drawn from range(ids)); capacity 40 over
# 60 ids grows the pool several times before it evicts
@pytest.mark.parametrize("capacity,staleness,ids", [
    (0, 3, 20), (1, 0, 6), (1, 2, 6), (3, 0, 10), (5, 2, 12), (40, 4, 60),
    (1000, 1, 50)])
@pytest.mark.parametrize("seed", range(3))
def test_pool_serves_counts_and_evicts_as_the_dict_store(capacity, staleness,
                                                         ids, seed):
    draw = np.random.default_rng([capacity, staleness, seed])
    pool = ft.EmbeddingCache(capacity, staleness)
    ref = DictCache(capacity, staleness)
    for _ in range(400):
        op = draw.choice(["get", "put", "advance", "clear"],
                         p=[0.45, 0.35, 0.15, 0.05])
        keys = draw.choice(ids, size=draw.integers(0, min(ids, 12) + 1),
                           replace=False)
        if op == "get":
            out = np.full((keys.size, 4), np.nan)
            missed = pool.get_many(keys, out)
            served = [ref.get(int(k)) for k in keys]
            assert missed.tolist() == [i for i, v in enumerate(served)
                                       if v is None]
            for i, v in enumerate(served):
                if v is not None:
                    assert out[i].tobytes() == v.tobytes()
        elif op == "put":
            values = draw.normal(size=(keys.size, 4))
            values[draw.random(values.shape) < 0.1] = -0.0
            pool.put_many(keys, values)
            for k, v in zip(keys.tolist(), values.copy()):
                ref.put(k, v)
        else:
            getattr(pool, op)()
            getattr(ref, op)()
        assert [getattr(pool, c) for c in COUNTERS] == \
            [getattr(ref, c) for c in COUNTERS]
        assert len(pool) == len(ref)
        assert lru_order(pool) == list(ref._store)
    assert len(pool._meta) <= capacity


def test_keys_of_one_call_must_be_distinct_ids():
    cache = ft.EmbeddingCache(4, 0)
    for keys in ([1, 2, 1], [-1]):
        with pytest.raises(ContractError):
            cache.put_many(np.array(keys), np.zeros((len(keys), 2)))
        with pytest.raises(ContractError):
            cache.get_many(np.array(keys), np.zeros((len(keys), 2)))
