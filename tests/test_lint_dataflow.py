"""Tests for ``dotted``, the attribute-chain renderer of the
worker-determinism rule."""

import ast

from repro.lint.determinism import dotted


class TestDotted:
    def test_attribute_chain(self):
        assert dotted(ast.parse("a.b.c", mode="eval").body) == "a.b.c"

    def test_plain_name(self):
        assert dotted(ast.parse("x", mode="eval").body) == "x"

    def test_computed_target_is_none(self):
        assert dotted(ast.parse("a[0].b", mode="eval").body) is None
