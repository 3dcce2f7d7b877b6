"""The hot simulation paths read enum members through module bindings.

On CPython 3.11 reading ``SMState.X`` or ``AccessType.X`` inside a
function costs several times a module-global read, and these modules
make such reads per simulated request (docs/ARCHITECTURE.md,
"Performance notes").  Each binds the members it needs once at import
(``_WRITE = AccessType.WRITE``); this test keeps a new handler from
bringing the attribute read back.  Module-level code and class bodies
run once and may name members directly.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

HOT_MODULES = [
    "cache/bank.py",
    "cache/store_gather.py",
    "common/records.py",
    "cpu/core_model.py",
    "cpu/smt.py",
    "system/batch_kernel.py",
]

ENUMS = {"SMState", "AccessType"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_reads_in_functions(source: str):
    """(line, ``Enum.MEMBER``) for every enum member read that executes
    inside a function or lambda body."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                ):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_member_read_in_a_function_body(module):
    reads = member_reads_in_functions((SRC / module).read_text())
    assert not reads, (
        f"{module} reads enum members inside functions; bind them at "
        f"module level instead: "
        + ", ".join(f"line {line}: {name}" for line, name in reads)
    )


def test_the_check_sees_methods_and_lambdas_but_not_class_bodies():
    source = (
        "_READ = AccessType.READ\n"
        "class Machine:\n"
        "    state: SMState = SMState.TAG_WAIT\n"
        "    def step(self):\n"
        "        return self.state is SMState.DONE\n"
        "pick = lambda request: request.access is AccessType.WRITE\n"
    )
    assert member_reads_in_functions(source) == [
        (5, "SMState.DONE"), (6, "AccessType.WRITE"),
    ]
