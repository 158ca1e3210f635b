"""Malformed AIQL raises the front end's own error classes, never a bare
``KeyError``/``ValueError`` from a helper."""
import random
import re

import pytest

from repro.core.analyzer import AIQLSemanticError
from repro.core.dependency import analyze_text
from repro.core.lexer import AIQLSyntaxError
from repro.workload.conciseness import strip_comments
from repro.workload.queries import QUERIES


@pytest.mark.parametrize("text, cls", [
    # a keyword where the object entity type belongs
    ('proc p read with f["x"] as e\nreturn p', AIQLSyntaxError),
    # an operation/object pair the data model does not contain
    ("proc p start file f as e\nreturn p", AIQLSemanticError),
    # an unparseable time literal
    ('(at "x")\nproc p read file f as e\nreturn p', AIQLSyntaxError),
], ids=["keyword-as-entity", "op-object-mismatch", "bad-time-literal"])
def test_error_class(text, cls):
    with pytest.raises(ValueError) as info:
        analyze_text(text)
    assert type(info.value) is cls


# ----------------------------------------------------------------- fuzzing
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|\w+|\S')
FUZZ_MUTANTS = 6000


def _mutants(n: int, seed: int = 0):
    """``n`` workload queries, each with one or two token deletions,
    insertions (of a token of the same query) or swaps; the same every
    run."""
    rng = random.Random(seed)
    corpus = [_TOKEN.findall(strip_comments(q.aiql)) for q in QUERIES]
    for _ in range(n):
        toks = list(rng.choice(corpus))
        pool = list(toks)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(toks))
            kind = rng.choice(("delete", "insert", "swap"))
            if kind == "delete" and len(toks) > 1:
                del toks[i]
            elif kind == "insert":
                toks.insert(i, rng.choice(pool))
            else:
                j = rng.randrange(len(toks))
                toks[i], toks[j] = toks[j], toks[i]
        yield " ".join(toks)


def test_mutated_workload_raises_only_aiql_errors():
    accepted = 0
    for text in _mutants(FUZZ_MUTANTS):
        try:
            analyze_text(text)
            accepted += 1
        except (AIQLSyntaxError, AIQLSemanticError):
            pass
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} escaped on {text!r}") from e
    # The mutants reach past the parser: some still analyze cleanly.
    assert 0 < accepted < FUZZ_MUTANTS
