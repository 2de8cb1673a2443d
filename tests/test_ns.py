"""IRI reference resolution, which every IRI in a document, query, update
or rule file goes through."""

import pytest

from ldsim.ns import resolve

RFC_BASE = "http://a/b/c/d;p?q"

# RFC 3986 §5.4.1 (normal) and §5.4.2 (abnormal), strict parsing.
RFC_EXAMPLES = [
    ("g:h", "g:h"), ("g", "http://a/b/c/g"), ("./g", "http://a/b/c/g"),
    ("g/", "http://a/b/c/g/"), ("/g", "http://a/g"), ("//g", "http://g"),
    ("?y", "http://a/b/c/d;p?y"), ("g?y", "http://a/b/c/g?y"),
    ("#s", "http://a/b/c/d;p?q#s"), ("g#s", "http://a/b/c/g#s"),
    ("g?y#s", "http://a/b/c/g?y#s"), (";x", "http://a/b/c/;x"),
    ("g;x", "http://a/b/c/g;x"), ("g;x?y#s", "http://a/b/c/g;x?y#s"),
    ("", "http://a/b/c/d;p?q"), (".", "http://a/b/c/"), ("./", "http://a/b/c/"),
    ("..", "http://a/b/"), ("../", "http://a/b/"), ("../g", "http://a/b/g"),
    ("../..", "http://a/"), ("../../", "http://a/"), ("../../g", "http://a/g"),
    ("../../../g", "http://a/g"), ("../../../../g", "http://a/g"),
    ("/./g", "http://a/g"), ("/../g", "http://a/g"), ("g.", "http://a/b/c/g."),
    (".g", "http://a/b/c/.g"), ("g..", "http://a/b/c/g.."), ("..g", "http://a/b/c/..g"),
    ("./../g", "http://a/b/g"), ("./g/.", "http://a/b/c/g/"),
    ("g/./h", "http://a/b/c/g/h"), ("g/../h", "http://a/b/c/h"),
    ("g;x=1/./y", "http://a/b/c/g;x=1/y"), ("g;x=1/../y", "http://a/b/c/y"),
    ("g?y/./x", "http://a/b/c/g?y/./x"), ("g?y/../x", "http://a/b/c/g?y/../x"),
    ("g#s/./x", "http://a/b/c/g#s/./x"), ("g#s/../x", "http://a/b/c/g#s/../x"),
    ("http:g", "http:g"),
]


@pytest.mark.parametrize("ref, expected", RFC_EXAMPLES)
def test_rfc3986_reference_resolution(ref, expected):
    assert resolve(ref, RFC_BASE) == expected


def test_an_empty_fragment_is_kept():
    assert resolve("vocab/sim#", "http://localhost:8080/") == "http://localhost:8080/vocab/sim#"
    assert resolve("#", RFC_BASE) == "http://a/b/c/d;p?q#"


@pytest.mark.parametrize("base", [None, ""])
def test_a_relative_reference_without_a_base_is_refused(base):
    with pytest.raises(ValueError, match="without a base"):
        resolve("g", base)


def test_an_absolute_reference_needs_no_base():
    assert resolve("urn:x:y", None) == "urn:x:y"
