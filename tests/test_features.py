"""The array-backed embedding cache against the OrderedDict store it
replaced, and against that store writing a whole block before it evicts."""

from collections import OrderedDict

import numpy as np
import pytest

import textgraph.features as ft
from textgraph.errors import ContractError
from tests.test_eval_setup import SLACK, textgraph_calls


class DictCache:
    """The reference store: one OrderedDict entry per key, served one key at
    a time and written one key (put) or one block (put_many) at a time."""

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
        self.put_many([key], [value])

    def put_many(self, keys, values):
        if self.capacity == 0:
            return
        for key, value in zip(keys, values):
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


def served_bytes(ref: DictCache, keys) -> list:
    """What ref serves for each key, as bytes, None where it misses."""
    return [None if v is None else v.tobytes()
            for v in (ref.get(int(k)) for k in keys)]


def evicts_own_key(ref: DictCache, keys) -> bool:
    """Whether the block's overflow, taken from the least recent entries
    before any row of the block is written, would reach one of its cached
    keys: the case in which one put per key may evict such a key and then
    put it back, counting two evictions for it."""
    order = list(ref._store)
    cached = [order.index(k) for k in keys if k in ref._store]
    overflow = len(order) + len(keys) - len(cached) - ref.capacity
    return ref.capacity > 0 and bool(cached) and min(cached) < overflow


# (capacity, staleness_limit, ids drawn from range(ids)); capacity 40 over
# 60 ids grows the pool several times before it evicts
@pytest.mark.parametrize("capacity,staleness,ids", [
    (0, 3, 20), (1, 0, 6), (1, 2, 6), (3, 0, 10), (5, 2, 12), (40, 4, 60),
    (1000, 1, 50)])
@pytest.mark.parametrize("seed", range(3))
def test_pool_serves_counts_and_evicts_as_the_dict_store(capacity, staleness,
                                                         ids, seed):
    """The pool against the block store on everything, and against one put
    per key on everything but evictions."""
    draw = np.random.default_rng([capacity, staleness, seed])
    pool = ft.EmbeddingCache(capacity, staleness)
    block = DictCache(capacity, staleness)
    per_key = DictCache(capacity, staleness)
    reached = 0
    for _ in range(400):
        op = draw.choice(["get", "put", "advance", "clear"],
                         p=[0.45, 0.35, 0.15, 0.05])
        keys = draw.choice(ids, size=draw.integers(0, min(ids, 12) + 1),
                           replace=False)
        if op == "get":
            out = np.full((keys.size, 4), np.nan)
            missed = pool.get_many(keys, out)
            served = served_bytes(block, keys)
            assert served_bytes(per_key, keys) == served
            assert missed.tolist() == [i for i, v in enumerate(served)
                                       if v is None]
            assert [row.tobytes() for row in np.delete(out, missed, 0)] == \
                [v for v in served if v is not None]
        elif op == "put":
            values = draw.normal(size=(keys.size, 4))
            values[draw.random(values.shape) < 0.1] = -0.0
            reached += evicts_own_key(per_key, keys.tolist())
            pool.put_many(keys, values)
            block.put_many(keys.tolist(), values.copy())
            for k, v in zip(keys.tolist(), values.copy()):
                per_key.put(k, v)
        else:
            for cache in (pool, block, per_key):
                getattr(cache, op)()
        assert [getattr(pool, c) for c in COUNTERS] == \
            [getattr(block, c) for c in COUNTERS]
        assert [getattr(pool, c) for c in COUNTERS[:3]] == \
            [getattr(per_key, c) for c in COUNTERS[:3]]
        assert len(pool) == len(block) == len(per_key)
        assert lru_order(pool) == list(block._store) == list(per_key._store)
    assert len(pool._meta) <= capacity
    # every case that evicts stores blocks that reach one of their own keys
    assert (reached > 0) == (0 < capacity < ids), reached


def test_keys_of_one_call_must_be_distinct_ids():
    cache = ft.EmbeddingCache(4, 0)
    for keys in ([1, 2, 1], [-1]):
        with pytest.raises(ContractError):
            cache.put_many(np.array(keys), np.zeros((len(keys), 2)))
        with pytest.raises(ContractError):
            cache.get_many(np.array(keys), np.zeros((len(keys), 2)))


def test_a_block_that_refreshes_the_least_recent_key_is_stored_whole():
    """On a full pool, a block whose one cached key is the least recent entry
    costs as many textgraph calls as a block of new keys: no row goes alone."""
    calls = {}
    for name, first in (("refreshes", 0), ("new", 4096)):
        pool = ft.EmbeddingCache(4096, 0)
        pool.put_many(np.arange(4096), np.zeros((4096, 4)))
        keys = np.concatenate([[first], np.arange(4097, 4160)])
        calls[name] = textgraph_calls(
            lambda: pool.put_many(keys, np.ones((64, 4))))
        assert len(pool) == 4096 and pool.evictions == 63 + (first > 0)
    assert calls["new"] > 0
    assert calls["refreshes"] <= calls["new"] + SLACK, calls
