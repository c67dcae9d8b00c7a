"""The dense fastpath kernels: differential parity, the vectorized SCC
backend, the pair-product numpy handover, route selection, and the
benchmark harness plumbing.

The headline test drives the qa ``fastpath`` oracle over enough generated
subjects that well over 200 automata/DFAs are cross-checked reference vs
dense per run — the parity contract (structural identity for constructions,
set/verdict identity for emptiness) is enforced object by object.
"""

import os
import random

import pytest

from repro.bench.fastpath import (
    BENCHMARKS,
    KernelResult,
    regressions_against,
    render_table,
    report_json,
    run_benchmarks,
)
from repro.engine.metrics import METRICS
from repro.errors import AutomatonError
from repro.fastpath import product, scc
from repro.fastpath.bitset import pack_mask, unpack_positions
from repro.fastpath.config import VECTOR_ENV, forced, vector_enabled
from repro.fastpath.vector import HAVE_VECTOR
from repro.qa.generate import GeneratorConfig
from repro.qa.oracles import oracle_named


class TestFastpathOracleSweep:
    def test_two_hundred_objects_agree(self):
        """≥200 generated automata/DFAs cross-checked per run, zero
        disagreements."""
        oracle = oracle_named("fastpath")
        rng = random.Random(1990)
        config = GeneratorConfig()
        generated = 0
        for _ in range(55):
            subject = oracle.generate(rng, config)
            generated += 4  # two NFAs + two ω-automata per subject
            detail = oracle.check(subject)
            assert detail is None, detail
        assert generated >= 200

    def test_artifact_round_trip_preserves_verdict(self):
        oracle = oracle_named("fastpath")
        rng = random.Random(7)
        subject = oracle.generate(rng, GeneratorConfig())
        restored = oracle.from_artifact(oracle.to_artifact(subject))
        assert oracle.check(restored) is None
        assert "NFAs" in oracle.describe(restored)


def _random_graph(rng, n, k):
    return tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))


def _random_mask(rng, n, density):
    return pack_mask([s for s in range(n) if rng.random() < density], n)


@pytest.mark.skipif(not HAVE_VECTOR, reason="numpy/scipy not installed")
class TestVectorBackendParity:
    """The scipy-backed SCC/BFS twins must match the pure kernels bit for
    bit on graphs above the vector threshold."""

    @staticmethod
    def _both_backends(monkeypatch, call):
        monkeypatch.setenv(VECTOR_ENV, "off")
        pure = call()
        monkeypatch.delenv(VECTOR_ENV)
        return pure, call()

    def test_streett_rabin_and_closures_agree(self, monkeypatch):
        rng = random.Random(2026)
        for _ in range(25):
            n = rng.randrange(scc.VECTOR_MIN_STATES, 3 * scc.VECTOR_MIN_STATES)
            adjacency = _random_graph(rng, n, rng.randrange(1, 4))
            pairs = [
                (_random_mask(rng, n, 0.05), _random_mask(rng, n, 0.25))
                for _ in range(rng.randrange(1, 4))
            ]
            full = (1 << n) - 1
            target = _random_mask(rng, n, 0.03)
            initial = rng.randrange(n)
            pure, vec = self._both_backends(
                monkeypatch,
                lambda: (
                    sorted(scc.streett_good_masks(n, full, adjacency, pairs)),
                    scc.rabin_cycle_mask(n, full, adjacency, pairs),
                    scc.reachable_mask(n, initial, adjacency),
                    scc.can_reach_mask(n, target, adjacency),
                ),
            )
            assert pure == vec

    def test_small_graphs_never_route_to_vector(self):
        # Below the threshold the pure Tarjan runs even when scipy exists;
        # identical results either way, so just pin the selection logic.
        assert scc._vector_delta(scc.VECTOR_MIN_STATES - 1, ((0,),)) is None

    def test_vector_env_off_disables_backend(self, monkeypatch):
        monkeypatch.setenv(VECTOR_ENV, "off")
        assert not vector_enabled()
        assert scc._vector_delta(scc.VECTOR_MIN_STATES, ((0,),)) is None
        monkeypatch.delenv(VECTOR_ENV)
        assert vector_enabled()

    def test_oracle_restores_callers_vector_setting(self, monkeypatch):
        monkeypatch.setenv(VECTOR_ENV, "off")
        oracle = oracle_named("fastpath")
        subject = oracle.generate(random.Random(3), GeneratorConfig())
        assert oracle.check(subject) is None
        assert os.environ.get(VECTOR_ENV) == "off"


def _pair_product_near(rng, discovered: int):
    """Random pair-product tables whose BFS discovers exactly
    ``discovered`` states (drawn by search, with the pure route)."""
    while True:
        k = rng.randrange(2, 4)
        n_a, n_b = rng.randrange(12, 40), rng.randrange(8, 24)
        table_a = [rng.randrange(n_a) for _ in range(n_a * k)]
        table_b = [rng.randrange(n_b) for _ in range(n_b * k)]
        args = (table_a, n_a, table_b, n_b, k, 0, 0)
        _, order = product.explore_pair_dense(*args)
        if len(order) == discovered:
            return args


@pytest.mark.skipif(not HAVE_VECTOR, reason="numpy/scipy not installed")
class TestPairProductHandover:
    """The pair BFS restarts on numpy past ``_VECTOR_HANDOVER`` discovered
    states; the output and the state-limit error must not change."""

    # At +2 a limit of handover + 1 lets the exploration hand over and then
    # makes the numpy route raise.
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_handover_matches_pure_route(self, monkeypatch, offset):
        handover = product._VECTOR_HANDOVER
        count = handover + offset
        monkeypatch.setenv(VECTOR_ENV, "off")
        args = _pair_product_near(random.Random(2026 + offset), count)
        pure = product.explore_pair_dense(*args)
        monkeypatch.delenv(VECTOR_ENV)

        vector_bfs = product._explore_pair_vector
        handed_over = []

        def spy(*call_args):
            handed_over.append(True)
            return vector_bfs(*call_args)

        monkeypatch.setattr(product, "_explore_pair_vector", spy)
        assert product.explore_pair_dense(*args) == pure
        assert bool(handed_over) == (offset > 0)

        table_a, n_a, table_b, n_b, k, _, _ = args
        scaled_a = [target * n_b for target in table_a]
        assert vector_bfs(scaled_a, table_b, n_b, k, 0, n_a * n_b, 10**9) == pure

        for limit in (handover - 1, count - 1, count):
            outcomes = []
            for setting in ("off", "auto"):
                monkeypatch.setenv(VECTOR_ENV, setting)
                try:
                    product.explore_pair_dense(*args, state_limit=limit)
                    outcomes.append("ok")
                except AutomatonError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] == "ok") == (count <= limit)


class TestSccKernels:
    def test_restricted_sccs_masked_matches_pure_decomposition(self):
        rng = random.Random(11)
        n = 40
        adjacency = _random_graph(rng, n, 2)
        mask = _random_mask(rng, n, 0.8)
        components = scc.restricted_sccs_masked(n, mask, adjacency)
        union = 0
        for component_mask, members in components:
            assert component_mask == pack_mask(members, n)
            assert union & component_mask == 0  # disjoint
            union |= component_mask
        assert union == mask  # partition covers exactly the candidate

    def test_pack_unpack_round_trip(self):
        rng = random.Random(5)
        for n in (1, 7, 64, 200, 1000):
            states = sorted(rng.sample(range(n), rng.randrange(n)) if n > 1 else [0])
            mask = pack_mask(states, n)
            assert unpack_positions(mask) == states


class TestKernelRouting:
    def test_forced_on_selects_dense_and_counts(self):
        from repro.finitary.nfa import NFA
        from repro.words.alphabet import Alphabet

        alphabet = Alphabet(("a", "b"))
        nfa = NFA(alphabet, 2, {(0, "a"): {1}, (1, "b"): {1}}, [0], [1])
        before = METRICS.counter("fastpath.subset.hit").value
        with forced("on"):
            dense = nfa.determinize()
        with forced("off"):
            reference = nfa.determinize()
        assert METRICS.counter("fastpath.subset.hit").value == before + 1
        assert dense._delta == reference._delta
        assert dense.accepting == reference.accepting


class TestBenchHarness:
    def test_registry_names_cover_acceptance_kernels(self):
        assert {"subset", "product_emptiness"} <= set(BENCHMARKS)

    def test_run_benchmark_single_kernel(self):
        results = run_benchmarks(quick=True, repeat=1, kernels=["subset"])
        assert len(results) == 1
        result = results[0]
        assert result.kernel == "subset"
        assert result.reference_ms > 0 and result.fastpath_ms > 0
        assert result.kernel in render_table(results)

    def test_report_json_schema(self):
        result = KernelResult("subset", "workload", 10.0, 2.5)
        import json

        payload = json.loads(report_json([result], quick=True, repeat=3))
        assert payload["schema"].startswith("repro-bench-fastpath/")
        assert payload["kernels"]["subset"]["speedup"] == 4.0

    def test_regression_gate(self):
        baseline = {"kernels": {"subset": {"speedup": 4.0}, "minimize": {"speedup": 8.0}}}
        healthy = [KernelResult("subset", "w", 10.0, 3.0)]  # 3.3x > 4.0/2
        assert regressions_against(healthy, baseline) == []
        regressed = [KernelResult("subset", "w", 10.0, 6.0)]  # 1.67x < 2.0
        failures = regressions_against(regressed, baseline)
        assert len(failures) == 1 and "subset" in failures[0]
        unknown = [KernelResult("brand-new", "w", 10.0, 9.0)]
        assert regressions_against(unknown, baseline) == []
