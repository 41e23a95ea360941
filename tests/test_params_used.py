"""Every parameter of every hallperm function is read in the function's body.

Read with ast alone, so a change that stops reading a parameter cannot leave
it in the signature.  The one exemption is the certificate verifiers, which
share a (cert, caps) signature through certificates._VERIFIERS; they are
read from that table.
"""

import ast
import pathlib

import pytest

import hallperm
from hallperm import certificates

_MODULES = sorted(pathlib.Path(hallperm.__file__).parent.glob("*.py"))
_SHARED_SIGNATURE = {("certificates.py", f.__name__) for f in certificates._VERIFIERS.values()}


def _unread_parameters(path):
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (path.name, getattr(node, "name", None)) in _SHARED_SIGNATURE:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p.arg}) line {node.lineno}" for p in params if p.arg not in read]
    return unread


def test_the_exemption_is_read_from_the_verifier_table():
    assert ("certificates.py", "_verify_hall_classes") in _SHARED_SIGNATURE


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []
