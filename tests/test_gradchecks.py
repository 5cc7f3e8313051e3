import ast
import inspect

import pytest

from seqrouter import attention, autodiff, layers
from seqrouter.gradchecks import OP_CHECKS


def _records(node: ast.AST) -> bool:
    """A call of ``_op``, or a nested ``band_vjp``: a band's part of attend's one op."""
    if isinstance(node, ast.Call):
        return "_op" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return isinstance(node, ast.FunctionDef) and node.name == "band_vjp"


def op_callers() -> set[str]:
    """"module.function" of every module-level function of autodiff,
    attention and layers whose body calls ``_op`` or defines a ``band_vjp``,
    found in their source."""
    found = set()
    for module in (autodiff, attention, layers):
        for fn in ast.parse(inspect.getsource(module)).body:
            if isinstance(fn, ast.FunctionDef) and any(_records(node) for node in ast.walk(fn)):
                found.add(f"{module.__name__.rsplit('.', 1)[-1]}.{fn.name}")
    return found


def test_every_op_caller_has_a_per_op_check():
    assert op_callers() == set(OP_CHECKS)


@pytest.mark.parametrize("op", sorted(OP_CHECKS))
def test_per_op_checks_read_below_1e_9(op):
    for name, check in OP_CHECKS[op].items():
        err = check()
        assert err < 1e-9, f"{name}: {err:.3e}"
