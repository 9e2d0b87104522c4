"""Replay the checked-in kv regression corpus.

``tests/service/corpus/`` holds fixed generator outputs picked so the
set covers both access paths and all four kv op kinds.  Each program
must replay cleanly across the quick matrix against the oracle's flat
dicts.
"""

import glob
import os

import pytest

from repro.testing import (
    Program,
    QUICK_MATRIX,
    run_differential,
    run_oracle,
    validate,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
IDS = [os.path.basename(p) for p in CORPUS]


def _load(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        program = Program.loads(fh.read())
    validate(program)
    return program


def test_corpus_is_not_empty():
    assert CORPUS, f"no programs in {CORPUS_DIR}"


def test_corpus_covers_both_paths_and_all_kv_ops():
    kinds, accesses = set(), set()
    for path in CORPUS:
        for op in _load(path).iter_ops():
            kinds.add(op.kind)
            if op.kind == "kv_create":
                accesses.add(op.args["access"])
    assert {"kv_get", "kv_put", "kv_del", "kv_mget"} <= kinds
    assert accesses == {"onesided", "rpc"}


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_program_replays_clean(path):
    program = _load(path)
    divs = run_differential(program, configs=list(QUICK_MATRIX))
    assert not divs, "\n\n".join(d.describe() for d in divs)


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_json_roundtrip(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    program = Program.loads(text)
    assert program.dumps() == Program.loads(program.dumps()).dumps()


def test_corpus_has_live_kv_state_to_check():
    """Guard the guard: at least one corpus program must end with a
    live kv store, or the replay's final-state comparison never looks
    at a kv image."""
    total = sum(isinstance(v, dict)
                for path in CORPUS
                for v in run_oracle(_load(path)).final.values())
    assert total > 0
