"""The vector backend is pay-per-use: numpy and scipy stay unimported on
the CLI and census paths, and load only once a kernel crosses its
crossover.

Each check runs in a fresh interpreter, because the test process itself
has usually imported numpy already.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None
    or importlib.util.find_spec("scipy") is None,
    reason="numpy/scipy not installed",
)

ROOT = Path(__file__).resolve().parents[1]

#: Prints, as the last stdout line, which of the watched modules loaded.
_REPORT = """
import json, sys
watched = ("numpy", "scipy", "repro.fastpath.vector")
print(json.dumps(sorted(name for name in watched if name in sys.modules)))
"""


def _loaded_after(body: str) -> list[str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_FASTPATH")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", body + _REPORT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _cli(*argv: str) -> str:
    return (
        "from repro.__main__ import main\n"
        f"assert main({list(argv)!r}) == 0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "G p"),
        ("classify", "!G F (p & q) | G F (s | r)"),
        ("census", "formulas/smoke.ltl", "--serial"),
    ],
    ids=["classify-safety", "classify-reactivity", "census-smoke-serial"],
)
def test_cold_paths_import_no_vector_backend(argv):
    assert _loaded_after(_cli(*argv)) == []


def test_large_streett_emptiness_loads_the_backend():
    body = """
import random
from repro.fastpath.scc import VECTOR_MIN_STATES
from repro.omega.acceptance import Acceptance
from repro.omega.automaton import DetAutomaton
from repro.omega.emptiness import nonempty_states
from repro.words.alphabet import Alphabet

rng = random.Random(5)
n = VECTOR_MIN_STATES + 8
rows = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
pair = ([s for s in range(n) if s % 7 == 0], [s for s in range(n) if s % 3])
aut = DetAutomaton(Alphabet.of("a", "b"), rows, 0, Acceptance.streett([pair]))
nonempty_states(aut)
"""
    assert "repro.fastpath.vector" in _loaded_after(body)
