"""The census runner, its CSV persistence, the poison hook and the CLI.

Everything here runs on a tiny in-line corpus — the full committed corpus
is exercised by the perf-marked smoke test and the CI census-smoke job.
"""

import pytest

from repro.__main__ import main
from repro.census.check import check_against_baseline, summary_json
from repro.census.corpus import load_corpus
from repro.census.run import (
    CENSUS_COLUMNS,
    POISON_ENV,
    read_census_csv,
    run_census,
    write_census_csv,
)

CORPUS = "G p\nF q\np U q\nG (p -> F q)\nF (G p)\nG p\n"

# Canonical spellings (row keys are the canonical ``repr``, not the input).
UNTIL = "(p U q)"
RESPONSE = "G (!p | F q)"
PERSIST = "F G p"


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "tiny.ltl"
    path.write_text(CORPUS, encoding="utf-8")
    return load_corpus(path)


def _strip_wall(cells):
    return [c for i, c in enumerate(cells) if CENSUS_COLUMNS[i] != "wall_ms"]


def test_serial_run_classifies_everything(corpus):
    report = run_census(corpus, serial=True)
    assert report.ok
    assert report.jobs == 0
    assert [row.formula for row in report.rows] == [e.text for e in corpus]
    by_formula = {row.formula: row for row in report.rows}
    assert by_formula["G p"].class_ == "safety"
    assert by_formula["G p"].count == 2
    assert by_formula["F q"].class_ == "guarantee"
    assert by_formula[UNTIL].class_ == "guarantee"
    assert by_formula[RESPONSE].class_ == "recurrence"
    assert by_formula[PERSIST].class_ == "persistence"
    assert by_formula[RESPONSE].liveness is True
    assert by_formula["G p"].liveness is False
    for row in report.rows:
        assert row.nba_states >= 1
        assert row.dra_states >= 1
        assert row.quotient_states <= row.dra_states


def test_measure_runs_the_chain_once_per_formula():
    """The size columns read the memoized chain the classification filled:
    one GPVW translation and one Safra determinization, not two."""
    from repro.census.run import _measure
    from repro.engine.cache import CACHES
    from repro.engine.metrics import METRICS

    CACHES.clear()
    translate = METRICS.timer("gpvw.translate")
    safra = METRICS.timer("safra.determinize")
    before = translate.count, safra.count
    fields = _measure("(G F p -> G F q)")
    assert (translate.count - before[0], safra.count - before[1]) == (1, 1)
    assert (fields["nba_states"], fields["dra_states"], fields["quotient_states"]) == (
        13,
        135,
        123,
    )


def test_pool_rows_match_serial_rows_modulo_wall(corpus):
    serial = run_census(corpus, serial=True)
    pooled = run_census(corpus, jobs=2, timeout=60.0)
    assert pooled.ok
    assert [_strip_wall(r.as_cells()) for r in serial.rows] == [
        _strip_wall(r.as_cells()) for r in pooled.rows
    ]


def test_on_row_streams_in_corpus_order(corpus):
    seen = []
    run_census(corpus, serial=True, on_row=seen.append)
    assert [row.formula for row in seen] == [e.text for e in corpus]


def test_csv_round_trip_is_deterministic(corpus, tmp_path):
    report = run_census(corpus, serial=True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert write_census_csv(report.rows, a) == len(corpus)
    write_census_csv(run_census(corpus, serial=True).rows, b)
    strip = lambda p: [
        _strip_wall(line.split(",")) for line in p.read_text().splitlines()
    ]
    assert strip(a) == strip(b)
    parsed = read_census_csv(a)
    assert [row["formula"] for row in parsed] == [e.text for e in corpus]
    assert parsed[0]["status"] == "ok"


def test_read_census_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("formula,verdict\nG p,safety\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected columns"):
        read_census_csv(path)
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_census_csv(tmp_path / "empty.csv")


def test_check_against_baseline_pass_and_fail(corpus, tmp_path):
    report = run_census(corpus, serial=True)
    baseline_path = tmp_path / "baseline.csv"
    write_census_csv(report.rows, baseline_path)
    baseline = read_census_csv(baseline_path)
    assert check_against_baseline(report.rows, baseline).ok
    # A sub-corpus checks cleanly against a superset baseline…
    assert check_against_baseline(report.rows[:2], baseline).ok
    # …but a formula missing from the baseline is a failure,
    extra = run_census(load_corpus_text(tmp_path, "G (q U p)\n"), serial=True)
    missing = check_against_baseline(extra.rows, baseline)
    assert not missing.ok and "not in baseline" in missing.failures[0]
    # …and a flipped semantic column names formula, column and both values.
    doctored = [dict(cells) for cells in baseline]
    doctored[0]["class"] = "reactivity"
    flipped = check_against_baseline(report.rows, doctored)
    assert not flipped.ok
    assert "class baseline='reactivity'" in flipped.failures[0]


def load_corpus_text(tmp_path, text):
    path = tmp_path / "extra.ltl"
    path.write_text(text, encoding="utf-8")
    return load_corpus(path)


def test_summary_json_is_deterministic(corpus):
    a = summary_json(run_census(corpus, serial=True), ["tiny.ltl"])
    b = summary_json(run_census(corpus, serial=True), ["tiny.ltl"])
    assert a == b
    assert '"schema": "repro-census/1"' in a
    assert "wall" not in a  # no timing leaks into the committed summary


# ---------------------------------------------------------------------------
# The poison hook: one poisoned formula flips exactly one row
# ---------------------------------------------------------------------------


def _poison_run(corpus, monkeypatch, poison, **kwargs):
    monkeypatch.setenv(POISON_ENV, poison)
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("start_method", "fork")  # env propagates to forked workers
    return run_census(corpus, **kwargs)


@pytest.mark.parametrize(
    "mode,expected_status",
    [("raise", "error"), ("crash", "crashed")],
)
def test_poison_flips_exactly_one_row(corpus, monkeypatch, mode, expected_status):
    report = _poison_run(corpus, monkeypatch, f"{mode}:{UNTIL}", timeout=60.0)
    statuses = {row.formula: row.status for row in report.rows}
    assert statuses.pop(UNTIL) == expected_status
    assert set(statuses.values()) == {"ok"}
    # Clear the poison before the serial reference run — serial mode runs
    # the worker in *this* process, and `crash` mode would take pytest down.
    monkeypatch.delenv(POISON_ENV)
    clean = run_census(corpus, serial=True)
    poisoned_cells = {r.formula: _strip_wall(r.as_cells()) for r in report.rows}
    for row in clean.rows:  # every other row is bit-identical to a clean run
        if row.formula != UNTIL:
            assert poisoned_cells[row.formula] == _strip_wall(row.as_cells())


def test_poison_hang_times_out(corpus, monkeypatch):
    report = _poison_run(corpus, monkeypatch, f"hang:{UNTIL}", timeout=1.5)
    statuses = {row.formula: row.status for row in report.rows}
    assert statuses.pop(UNTIL) == "timeout"
    assert set(statuses.values()) == {"ok"}


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


def _cli(*argv):
    return main(["census", *argv])


def test_cli_validation_exit_codes(tmp_path, capsys):
    path = tmp_path / "a.ltl"
    path.write_text("G p\n", encoding="utf-8")
    assert _cli() == 2  # no paths
    assert _cli(str(path), "--jobs", "0") == 2
    assert _cli(str(path), "--timeout", "0") == 2
    assert _cli(str(path), "--limit", "0") == 2
    assert _cli(str(tmp_path / "missing.ltl")) == 2  # CorpusError → exit 2
    capsys.readouterr()


def test_cli_parse_error_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.ltl"
    path.write_text("G p\nG (p ->\n", encoding="utf-8")
    assert _cli(str(path), "--serial") == 2
    err = capsys.readouterr().err
    assert f"{path}:2:" in err


def test_cli_census_check_cycle(tmp_path, capsys):
    corpus_path = tmp_path / "a.ltl"
    corpus_path.write_text("G p\nF q\n", encoding="utf-8")
    baseline = tmp_path / "baseline.csv"
    assert _cli(str(corpus_path), "--serial", "--out", str(baseline)) == 0
    assert _cli(str(corpus_path), "--serial", "--check", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "census matches baseline on all 2 formulas" in out
    # Doctor the baseline: the gate must fail with a named column.
    doctored = baseline.read_text().replace("ok,safety", "ok,reactivity", 1)
    baseline.write_text(doctored)
    assert _cli(str(corpus_path), "--serial", "--check", str(baseline)) == 1
    out = capsys.readouterr().out
    assert "deviates from baseline" in out


def test_cli_limit(tmp_path, capsys):
    corpus_path = tmp_path / "a.ltl"
    corpus_path.write_text("G p\nF q\np U q\n", encoding="utf-8")
    assert _cli(str(corpus_path), "--serial", "--limit", "2") == 0
    out = capsys.readouterr().out
    assert "formulas:   2" in out


def test_cli_summary_out(tmp_path, capsys):
    corpus_path = tmp_path / "a.ltl"
    corpus_path.write_text("G p\n", encoding="utf-8")
    summary = tmp_path / "summary.json"
    assert _cli(str(corpus_path), "--serial", "--summary-out", str(summary)) == 0
    assert '"schema": "repro-census/1"' in summary.read_text()
    capsys.readouterr()
