"""Concurrent-access stress tests for LRUCache / CacheBank.

The serve dispatcher runs batches on worker threads against one shared
bank, so every cache operation — including ``__len__``, ``keys`` and
``stats`` — must hold the lock.  These tests hammer the structures from
many threads and then check the invariants the lock is supposed to keep:
size never exceeds capacity, the counters add up, and a bank hands every
thread the same cache object for the same name.
"""

import threading

from repro.engine.cache import CacheBank, LRUCache


def hammer(threads, worker):
    errors = []

    def wrapped(worker_id):
        try:
            worker(worker_id)
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    pool = [threading.Thread(target=wrapped, args=(n,)) for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors


class TestLRUCacheConcurrency:
    def test_mixed_operations_keep_invariants(self):
        cache = LRUCache("stress", capacity=32)

        def worker(worker_id):
            for i in range(500):
                key = (worker_id % 4, i % 48)  # more keys than capacity
                op = i % 5
                if op == 0:
                    cache.put(key, i)
                elif op == 1:
                    cache.get(key)
                elif op == 2:
                    cache.get_or_compute(key, lambda: i)
                elif op == 3:
                    cache.invalidate(key)
                else:
                    assert len(cache) <= cache.capacity
                    key in cache  # noqa: B015 — exercising __contains__
                    cache.keys()

        hammer(8, worker)
        stats = cache.stats()
        assert stats.size == len(cache) <= cache.capacity
        assert stats.requests == stats.hits + stats.misses
        # get + get_or_compute each count once: 2 ops × 500 iterations × 8 threads / 5
        assert stats.requests == 8 * 500 * 2 // 5

    def test_get_or_compute_same_key_from_many_threads(self):
        cache = LRUCache("dogpile", capacity=8)
        computed = []

        def compute():
            computed.append(1)
            return "value"

        def worker(_worker_id):
            for _ in range(200):
                assert cache.get_or_compute("key", compute) == "value"

        hammer(8, worker)
        # The lock is released during compute (by design), so a few threads
        # may compute concurrently on first miss — but never per call.
        assert 1 <= len(computed) <= 8
        assert cache.get("key") == "value"

    def test_eviction_under_pressure_never_overflows(self):
        cache = LRUCache("evict", capacity=4)

        def worker(worker_id):
            for i in range(1000):
                cache.put((worker_id, i), i)
                assert len(cache) <= cache.capacity

        hammer(8, worker)
        stats = cache.stats()
        assert stats.size <= 4
        assert stats.evictions >= 8 * 1000 - 4

    def test_clear_races_with_puts(self):
        cache = LRUCache("clear", capacity=16)

        def worker(worker_id):
            for i in range(500):
                if worker_id == 0 and i % 50 == 0:
                    cache.clear()
                else:
                    cache.put(i % 24, i)
                    cache.get(i % 24)

        hammer(8, worker)
        assert len(cache) <= cache.capacity


class TestCacheBankConcurrency:
    def test_same_name_yields_one_cache_object(self):
        bank = CacheBank()
        seen = []
        lock = threading.Lock()

        def worker(_worker_id):
            for name in ("alpha", "beta", "alpha"):
                cache = bank.cache(name)
                with lock:
                    seen.append((name, id(cache)))

        hammer(16, worker)
        alphas = {obj for name, obj in seen if name == "alpha"}
        betas = {obj for name, obj in seen if name == "beta"}
        assert len(alphas) == 1
        assert len(betas) == 1

    def test_stats_and_clear_race_with_use(self):
        bank = CacheBank()

        def worker(worker_id):
            cache = bank.cache("shared", capacity=16)
            for i in range(300):
                cache.put((worker_id, i % 20), i)
                cache.get((worker_id, i % 20))
                if i % 60 == 0:
                    bank.stats()
                if worker_id == 0 and i % 150 == 0:
                    bank.clear()

        hammer(8, worker)
        stats = bank.stats()["shared"]
        assert stats.size <= 16
