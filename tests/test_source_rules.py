"""Rules every module of the package keeps, checked on its syntax tree.

- No ``assert`` statement: self-checks raise ``SelfCheckError`` so that
  they survive ``python -O``.
- No float or complex literal: the kernel is exact.  ``float("-inf")`` is a
  call, not a literal.
- Only standard-library absolute imports, matching ``dependencies = []``.
- ``verify`` states its identities through ``binomial``, ``falling`` and
  ``raising_ratio``, the values it checks, and never reads the factorial
  pairs, the quotient behind them or the cofactors the other modules
  scale by, so each check compares routes that share no such reader.
- Every top-level private function is used somewhere in the package
  outside its own body, so a helper merged away cannot linger.
- Every member of ``verify.SUITES`` is a public ``check_*`` function of
  ``verify``: the benchmark's tracer wraps public names only, so a private
  member would charge its checks' time to its suite's span.
- No underscore attribute of ``argparse.ArgumentParser`` or of an
  ``argparse.Action``, and no underscore name of the ``argparse`` module,
  is defined or read: they change between Python versions, and the
  command line must read one argv one way on all of them.
- Every operator name of the expression parser's name table is listed in
  README's "Command line" section and in the ``exprparse`` docstring,
  written with ``[...]`` exactly where the table says it takes a
  parameter.
"""

import argparse
import ast
import re
import sys
from pathlib import Path

import pytest

from psi_umbral import verify
from psi_umbral.exprparse import _NAMES

SRC = Path(__file__).resolve().parent.parent / "src" / "psi_umbral"
MODULES = sorted(SRC.glob("*.py"))


def _nodes(path):
    return list(ast.walk(ast.parse(path.read_text(), str(path))))


def _where(path, node):
    return "%s:%d" % (path.name, node.lineno)


def test_the_package_has_modules():
    # an empty glob would leave the rules below with nothing to check
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    found = [_where(path, n) for n in _nodes(path) if isinstance(n, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_literal(path):
    found = [_where(path, n) for n in _nodes(path)
             if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex))]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    names = []
    for n in _nodes(path):
        if isinstance(n, ast.Import):
            names += [(alias.name, n) for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            names.append((n.module, n))
    found = [_where(path, n) + " " + name for name, n in names
             if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _identifier(node):
    """The name an attribute, a name, an import alias or a definition
    carries, or None."""
    for field in ("attr", "id", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_verify_reads_no_factorial_pairs():
    path = SRC / "verify.py"
    found = [_where(path, n) for n in _nodes(path)
             if _identifier(n) in ("factorial_pairs", "_quotient",
                                   "cofactors")]
    assert found == []


def _argparse_private_names():
    """The underscore attributes of a parser, of its subparsers action and
    of a plain action, on the running Python."""
    parser = argparse.ArgumentParser()
    objects = (parser, parser.add_subparsers(), argparse.Action(["-x"], "x"))
    return {name for obj in objects for name in dir(obj)
            if name.startswith("_") and not name.endswith("__")}


ARGPARSE_PRIVATE = _argparse_private_names()


def test_argparse_private_names_are_found():
    # an empty set would leave the rule below with nothing to check
    assert {"_parse_optional", "_get_values",
            "_option_string_actions"} <= ARGPARSE_PRIVATE


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_argparse_name(path):
    found = [_where(path, n) + " " + _identifier(n) for n in _nodes(path)
             if isinstance(n, (ast.Attribute, ast.Name, ast.FunctionDef))
             and (_identifier(n) in ARGPARSE_PRIVATE
                  or isinstance(n, ast.Attribute) and n.attr.startswith("_")
                  and isinstance(n.value, ast.Name) and n.value.id == "argparse")]
    assert found == []


def _private_helpers():
    """(path, def node) for each top-level ``def _name`` of the package."""
    return [(path, node) for path in MODULES
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")]


def _uses(tree):
    """The names and attributes in a syntax tree, import aliases aside."""
    return [_identifier(n) for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]


HELPERS = _private_helpers()
USES = [name for path in MODULES
        for name in _uses(ast.parse(path.read_text(), str(path)))]


def test_the_package_has_private_helpers():
    assert len(HELPERS) >= 50


@pytest.mark.parametrize("path,node", HELPERS,
                         ids=["%s:%s" % (p.name, n.name) for p, n in HELPERS])
def test_every_private_helper_is_used(path, node):
    # a use inside the helper's own body, a recursive call, does not count
    assert USES.count(node.name) > _uses(node).count(node.name), \
        _where(path, node)


def test_every_verify_suite_member_is_a_public_check():
    members = [fn for checks in verify.SUITES.values() for fn in checks]
    found = [fn.__qualname__ for fn in members
             if not fn.__name__.startswith("check_")
             or fn.__module__ != verify.__name__
             or getattr(verify, fn.__name__) is not fn]
    assert members and found == []


def _operator_list():
    """README's paragraph on the expression language, from "Operators are
    written" to "Examples:", as the text of its code spans."""
    readme = (SRC.parent.parent / "README.md").read_text()
    start = readme.index("Operators are written")
    para = readme[start:readme.index("Examples:", start)]
    return " ".join(re.findall(r"`([^`]*)`", para))


DOCS = {"README": _operator_list(),
        "exprparse": ast.get_docstring(ast.parse((SRC / "exprparse.py")
                                                 .read_text()))}


@pytest.mark.parametrize("doc", list(DOCS))
@pytest.mark.parametrize("name", list(_NAMES))
def test_every_operator_name_is_documented_as_the_table_says(name, doc):
    parametric = _NAMES[name][1]
    uses = re.findall(r"(?<!\w)%s(?!\w)(\[?)" % re.escape(name), DOCS[doc])
    assert uses, "%s is not listed in %s" % (name, doc)
    assert all(bool(bracket) == parametric for bracket in uses), uses
