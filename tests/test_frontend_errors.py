"""Malformed AIQL raises the front end's own error classes, never a bare
``KeyError``/``ValueError`` from a helper."""
import pytest

from repro.core.analyzer import AIQLSemanticError
from repro.core.dependency import analyze_text
from repro.core.lexer import AIQLSyntaxError


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
