"""The README's Library block runs as written, and every public function of
the package is called by a golden command line or by that block, or is
allowlisted here with its reason.

The python block of the README's ``## Library`` section is executed exactly
as written.  Each golden command line (``test_golden.CASES``), and then the
block, runs in process under ``sys.setprofile``, which records the code
object of every Python call into ``src/plurican``.  The walk covers the
module-level functions of each module (private modules and
``plurican.commands`` included) and the functions, classmethods,
staticmethods and property getters of its classes, operator dunders among
them; a name is public when no part of it starts with ``_``, a walked dunder
aside.  Construction dunders, the ``Record`` protocol and what a class
inherits from outside its module (Enum's methods) stay out.  A public name
that no case and not the block calls, and that is not in ``ALLOWLIST``,
fails, and so does an allowlist entry that is gone or reached.  A mention
in the README's prose keeps nothing alive.  Nothing is timed.
"""

import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import plurican
from test_golden import CASES, run

PACKAGE = Path(plurican.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# public name -> why it stays although neither a command nor the Library
# block calls it
ALLOWLIST = {
    "errors.digit_limit_error":
        "only an error path reaches it: the digit-limit cases of tests/test_cli.py",
}

# dunders the walk leaves out: construction, and the Record protocol that
# every value class shares
SKIPPED_DUNDERS = {"__new__", "__init__", "__post_init__", "__init_subclass__",
                   "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


def library_block() -> str:
    """The python block of the README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.M | re.S).group(1)
    return re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)


def run_library_block() -> None:
    exec(compile(library_block(), str(README), "exec"), {"__name__": "readme_library"})


def walked(attr: str) -> bool:
    """True if the walk takes a class member of this name."""
    if attr.startswith("__") and attr.endswith("__"):
        return attr not in SKIPPED_DUNDERS
    return not attr.startswith("_")


def walk(module) -> dict[str, tuple[str, int]]:
    """``qualname`` -> (co_filename, co_firstlineno) of every public function
    and method that ``module`` defines."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = {name: obj} if inspect.isfunction(inspect.unwrap(obj)) else {}
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if (walked(attr) and inspect.isfunction(member)
                        and member.__module__ == module.__name__):
                    members[f"{name}.{attr}"] = member
        for qualname, fn in members.items():
            code = inspect.unwrap(fn).__code__
            found[qualname] = (code.co_filename, code.co_firstlineno)
    return found


def public_functions() -> dict[str, tuple[str, int]]:
    """``module.qualname`` -> (co_filename, co_firstlineno) of every public
    function and method defined in a module of the package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        name = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        module = importlib.import_module(f"plurican.{name}")
        found.update({f"{name}.{qualname}": where for qualname, where in walk(module).items()})
    return found


@pytest.fixture(scope="module")
def reached() -> set[tuple[str, int]]:
    """(co_filename, co_firstlineno) of every package function that the
    golden cases and the Library block call."""
    prefix = str(PACKAGE)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def traced(call):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return call()
        finally:
            sys.setprofile(previous)

    for case, (argv, expected_code) in sorted(CASES.items()):
        code, _ = traced(lambda: run(argv))
        assert code == expected_code, case
    traced(run_library_block)
    return seen


def test_library_block_runs():
    run_library_block()


def test_every_public_function_is_reached_or_allowlisted(reached):
    unreached = sorted(
        name for name, where in public_functions().items()
        if where not in reached and name not in ALLOWLIST
    )
    assert unreached == []


def test_allowlist_is_current(reached):
    functions = public_functions()
    stale = {}
    for name in ALLOWLIST:
        if name not in functions:
            stale[name] = "gone"
        elif functions[name] in reached:
            stale[name] = "reached"
    assert stale == {}


def test_walk_finds_every_member_kind():
    assert {
        "f2geom.num_points",  # module-level function
        "f2geom.F2Point.from_coords",  # classmethod
        "f2geom.Hyperplane.coords",  # property getter
        "glgroup.F2Matrix.apply_code",  # method
    } <= set(public_functions())


PROBE = '''
from enum import Enum


class Tag(str, Enum):
    A = "a"


class Probe:
    def __init__(self):
        pass

    def __repr__(self):
        return "Probe()"

    def __xor__(self, other):
        return self

    def _helper(self):
        pass

    def method(self):
        pass


class _Hidden:
    def method(self):
        pass


def _private():
    pass
'''


def test_walk_takes_operator_dunders_and_leaves_the_rest_out():
    # construction and Record protocol dunders, private names and Enum's
    # inherited methods stay out; an operator dunder is walked
    module = types.ModuleType("probe")
    exec(compile(PROBE, "probe.py", "exec"), vars(module))
    assert set(walk(module)) == {"Probe.__xor__", "Probe.method"}
