"""Differential tier: the census is a *view* of the engine, never a fourth
opinion.

A ≥150-formula sample of the committed corpus runs through ``run_census``
and every row is diffed, field by field, against

* a direct single-formula classification through the engine's own entry
  point (``cached_classify_formula``), with the size columns recomputed by
  the uncached GPVW → Safra → quotient route so the oracle never reads the
  memoized chain it checks — the exact columns the CSV serializes;
* the qa formula-class oracle's invariants — syntactic soundness, literal
  normal forms, and (for the per-class generated families) membership of
  the class the family was drawn from;
* the Dwyer pattern catalog's ``expected`` class for the pattern corpus.
"""

from pathlib import Path

import pytest

from repro.census.corpus import load_corpus
from repro.census.run import run_census
from repro.core.classes import TemporalClass

FORMULAS_DIR = Path(__file__).resolve().parent.parent / "formulas"

#: Every _STRIDE-th unique corpus formula → ≥150 sampled formulas.
_STRIDE = 7
_MINIMUM_SAMPLE = 150


@pytest.fixture(scope="module")
def sample():
    entries = load_corpus(FORMULAS_DIR)[:: _STRIDE]
    assert len(entries) >= _MINIMUM_SAMPLE
    return entries


@pytest.fixture(scope="module")
def census_rows(sample):
    report = run_census(sample, serial=True)
    assert report.ok
    return report.rows


def test_sample_is_big_enough(sample):
    assert len(sample) >= _MINIMUM_SAMPLE


def test_census_rows_bit_match_engine_classification(sample, census_rows):
    from repro.core.classifier import default_alphabet
    from repro.engine.cache import cached_classify_formula
    from repro.logic.translate import formula_to_nba
    from repro.omega.reduce import quotient_reduce
    from repro.omega.safra import determinize

    for entry, row in zip(sample, census_rows):
        formula = entry.formula
        alphabet = default_alphabet(formula)
        report = cached_classify_formula(formula, alphabet)
        membership = report.semantic.membership
        assert row.formula == repr(formula)
        assert row.class_ == report.canonical_class.value, row.formula
        for temporal_class in TemporalClass:
            assert (
                getattr(row, temporal_class.value) == membership[temporal_class]
            ), f"{row.formula}: {temporal_class.value}"
        assert row.liveness == report.is_liveness
        assert row.uniform_liveness == report.is_uniform_liveness
        assert row.streett_index == report.streett_index
        assert row.obligation_degree == report.obligation_degree
        assert row.syntactic == report.syntactic.fragment_class.value
        assert row.automaton_states == report.automaton.num_states
        nba = formula_to_nba(formula, alphabet)
        assert row.nba_states == nba.num_states
        dra = determinize(nba)
        assert row.dra_states == dra.num_states
        assert row.quotient_states == quotient_reduce(dra).num_states


def test_census_agrees_with_formula_class_oracle(sample):
    """The oracle's invariants (syntactic soundness, literal normal forms,
    negation duality) hold on a sub-sample of the committed corpus."""
    from repro.qa.oracles import FormulaClassOracle

    oracle = FormulaClassOracle()
    for entry in sample[::4]:  # duality doubles the work: sub-sample
        assert oracle.check(entry.formula) is None, entry.text


def test_generated_class_families_are_members(census_rows):
    """A row drawn from the κ-family of class κ must carry κ membership —
    the generator, the oracle and the census agree on what was generated."""
    by_class = {t.value: t for t in TemporalClass}
    checked = 0
    for row in census_rows:
        family = Path(row.source.rsplit(":", 1)[0]).stem
        temporal_class = by_class.get(family)
        if temporal_class is None:
            continue
        assert getattr(row, temporal_class.value) is True, (
            f"{row.formula} (from {row.source}) is not {family}"
        )
        assert row.normal_form == family, row.formula
        checked += 1
    assert checked >= 50  # the stride leaves plenty of per-class rows


def test_pattern_corpus_matches_expected_classes():
    """Every Dwyer pattern row carries its catalog's ``expected`` class."""
    from repro.core.classifier import classify_formula, default_alphabet
    from repro.logic.ast import Prop

    from repro.logic.patterns import catalog

    patterns = catalog(Prop("p"), Prop("s"), Prop("q"), Prop("r"))[::3]
    entries = load_corpus(FORMULAS_DIR / "patterns.ltl")
    texts = {entry.text for entry in entries}
    for pattern in patterns:
        text = repr(pattern.formula)
        assert text in texts, f"{pattern.name}/{pattern.scope} missing from corpus"
        verdict = classify_formula(
            pattern.formula, default_alphabet(pattern.formula)
        )
        assert verdict.semantic.membership[pattern.expected], (
            f"{pattern.name}/{pattern.scope}: not in {pattern.expected.value}"
        )


# ---------------------------------------------------------------------------
# The committed baseline as a regression gate
# ---------------------------------------------------------------------------


def test_smoke_subcorpus_checks_against_committed_baseline():
    """Tier-1 fast gate: a slice of the smoke sub-corpus must match the
    committed baseline (the CI census-smoke job runs the full smoke file)."""
    from repro.__main__ import main

    code = main(
        [
            "census",
            str(FORMULAS_DIR / "smoke.ltl"),
            "--serial",
            "--limit",
            "40",
            "--check",
            str(FORMULAS_DIR / "census_baseline.csv"),
        ]
    )
    assert code == 0


@pytest.mark.perf
def test_full_corpus_checks_against_committed_baseline():
    """The acceptance criterion itself: the whole committed corpus, through
    the crash-isolated pool, matches the committed baseline byte for byte
    on every semantic column."""
    from repro.__main__ import main

    code = main(
        [
            "census",
            str(FORMULAS_DIR),
            "--timeout",
            "120",
            "--check",
            str(FORMULAS_DIR / "census_baseline.csv"),
        ]
    )
    assert code == 0
