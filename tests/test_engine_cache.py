"""The engine's LRU caches: semantics, statistics, invalidation, wrappers."""

import pytest

from repro.core import classify_formula, formula_to_automaton
from repro.engine.cache import (
    CacheBank,
    LRUCache,
    automaton_key,
    cached_classify_formula,
    cached_formula_chain,
    cached_formula_to_automaton,
    cached_nonempty_states,
    dfa_key,
    formula_key,
)
from repro.finitary.dfa import random_dfa
from repro.logic import parse_formula
from repro.omega.emptiness import nonempty_states
from repro.words import Alphabet

AB = Alphabet.from_letters("ab")
PQ = Alphabet.powerset_of_propositions(["p", "q"])


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache("t", capacity=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_capacity_evicts_least_recently_used(self):
        cache = LRUCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_get_or_compute_computes_once(self):
        cache = LRUCache("t", capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.stats().hits == 2

    def test_invalidate_and_clear(self):
        cache = LRUCache("t", capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache("t", capacity=0)


class TestBank:
    def test_named_caches_are_singletons(self):
        bank = CacheBank()
        assert bank.cache("formula_automaton") is bank.cache("formula_automaton")

    def test_clear_resets_entries_and_stats(self):
        bank = CacheBank()
        cache = bank.cache("classification")
        cache.put("k", 1)
        cache.get("k")
        bank.clear()
        stats = bank.stats()["classification"]
        assert (stats.size, stats.hits, stats.misses) == (0, 0, 0)

    def test_report_lists_all_caches(self):
        bank = CacheBank()
        bank.cache("formula_nba")
        bank.cache("nonempty")
        report = bank.report()
        assert "formula_nba" in report and "nonempty" in report


class TestKeys:
    def test_formula_key_is_structural(self):
        f1 = parse_formula("G (p -> F q)")
        f2 = parse_formula("G (p -> F q)")
        assert formula_key(f1, PQ) == formula_key(f2, PQ)
        assert formula_key(f1, PQ) != formula_key(parse_formula("G p"), PQ)

    def test_automaton_key_is_structural(self):
        a1 = formula_to_automaton(parse_formula("G p"), PQ)
        a2 = formula_to_automaton(parse_formula("G p"), PQ)
        assert a1 is not a2
        assert automaton_key(a1) == automaton_key(a2)

    def test_dfa_key_distinguishes_accepting_sets(self):
        dfa = random_dfa(AB, 5, 3)
        assert dfa_key(dfa) != dfa_key(dfa.complement())


class TestCachedWrappers:
    def test_cached_automaton_matches_direct_and_hits(self):
        bank = CacheBank()
        formula = parse_formula("G (p -> F q)")
        first = cached_formula_to_automaton(formula, PQ, bank=bank)
        second = cached_formula_to_automaton(parse_formula("G (p -> F q)"), PQ, bank=bank)
        assert second is first  # structurally equal request → same object
        direct = formula_to_automaton(formula, PQ)
        assert first.equivalent_to(direct)
        assert bank.stats()["formula_automaton"].hits == 1

    def test_cached_classification_matches_direct(self):
        bank = CacheBank()
        formula = parse_formula("G (p -> F q)")
        report = cached_classify_formula(formula, PQ, bank=bank)
        direct = classify_formula(formula, PQ)
        assert report.canonical_class is direct.canonical_class
        assert report.semantic.membership == direct.semantic.membership
        assert report.streett_index == direct.streett_index
        # The classification warmed the automaton cache too.
        assert bank.stats()["formula_automaton"].misses == 1

    def test_classification_reuses_warm_automaton_cache(self):
        bank = CacheBank()
        formula = parse_formula("F G p")
        cached_formula_to_automaton(formula, PQ, bank=bank)
        cached_classify_formula(formula, PQ, bank=bank)
        assert bank.stats()["formula_automaton"].hits == 1

    def test_formula_chain_matches_uncached_pipeline_and_hits(self):
        from repro.logic.translate import formula_to_nba
        from repro.omega.reduce import quotient_reduce
        from repro.omega.safra import determinize

        bank = CacheBank()
        formula = parse_formula("G F p -> G F q")
        entry = cached_formula_chain(formula, PQ, bank=bank)
        nba = formula_to_nba(formula, PQ)
        dra = determinize(nba)
        assert (entry.nba_states, entry.dra_states) == (nba.num_states, dra.num_states)
        assert entry.quotient_states == entry.automaton.num_states
        assert automaton_key(entry.automaton) == automaton_key(quotient_reduce(dra))
        assert cached_formula_chain(parse_formula("G F p -> G F q"), PQ, bank=bank) is entry
        assert bank.stats()["formula_nba"].hits == 1

    def test_cached_general_route_reads_the_chain_in_its_bank(self):
        from repro.engine.cache import CACHES

        formula = parse_formula("G F p -> G F q")
        CACHES.clear()
        bank = CacheBank()
        automaton = cached_formula_to_automaton(formula, PQ, bank=bank)
        assert cached_formula_chain(formula, PQ, bank=bank).automaton is automaton
        assert bank.stats()["formula_nba"].hits == 1
        # Neither the bank-local wrapper nor the uncached classifier touches
        # the process-wide bank.
        formula_to_automaton(formula, PQ)
        assert len(CACHES.cache("formula_nba")) == 0

    def test_cached_nonempty_states(self):
        bank = CacheBank()
        automaton = formula_to_automaton(parse_formula("G p"), PQ)
        live = cached_nonempty_states(automaton, bank=bank)
        assert live == nonempty_states(automaton)
        # A structurally equal automaton hits the same cache line.
        clone = formula_to_automaton(parse_formula("G p"), PQ)
        assert cached_nonempty_states(clone, bank=bank) is live
