"""Every module-level name of the package is used somewhere in `src/`.

A function, class or assigned name at the top level of a module of
``src/plurican`` whose name occurs in ``src/`` (as a whole word, in any
``.py`` file, comments and docstrings included) only at its own definition
is dead code, or a helper that only tests use and that belongs in
``tests/``.  The package's own hooks, ``__version__``, ``__getattr__`` and
``__dir__``, are the only exceptions.  Structural only: nothing is run.
"""

import ast
import re
from pathlib import Path

import plurican

PACKAGE = Path(plurican.__file__).parent
SRC = PACKAGE.parent
ALLOWED = {"__version__", "__getattr__", "__dir__"}


def defined_names(source: str) -> list[str]:
    """The names a module's top-level statements define: functions,
    classes and the names bound by an assignment (not an item or attribute
    of one)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [sub.id for target in targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
    return names


def dead_names(modules: dict[str, str], text: str) -> list[str]:
    """``module.name`` for each name defined at the top level of one of
    ``modules`` (name -> source) that occurs once in ``text``, aside from
    ``ALLOWED``."""
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in defined_names(source)
        if name not in ALLOWED and len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1
    )


def test_every_module_level_name_is_used_in_src():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py")))
    assert dead_names(modules, text) == []


def test_dead_name_guard_finds_every_kind_of_definition():
    source = '''
def dead_function(): pass
async def dead_coroutine(): pass
class DeadClass: pass
DEAD = 1
DEAD_ANNOTATED: int = 2
dead_a, (dead_b, *dead_c) = 1, (2, 3)
USED = 3
def uses(): return USED
uses()
table = {}
table["key"] = 1
__version__ = "0"
def __getattr__(name): pass
'''
    assert dead_names({"m": source}, source) == [
        "m.DEAD", "m.DEAD_ANNOTATED", "m.DeadClass", "m.dead_a", "m.dead_b", "m.dead_c",
        "m.dead_coroutine", "m.dead_function",
    ]
