"""Every public function of the package is reached by a command, named in
the README's Library section, or allowlisted here with its reason.

Each golden command line (``test_golden.CASES``) runs in process under
``sys.setprofile``, which records the code object of every Python call into
``src/plurican``.  The walk covers the module-level functions of each module
and the functions, classmethods, staticmethods and property getters of its
classes, dunders aside; a name is public when no part of it starts with
``_``.  A public name that no case calls, that the Library section does not
name in backticks and that is not in ``ALLOWLIST`` fails, and so does an
allowlist entry that is gone, reached or named.  Nothing is timed.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import plurican
from test_golden import CASES, run

PACKAGE = Path(plurican.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# public name -> why it stays although no command reaches it and the README
# does not name it
ALLOWLIST = {
    "errors.digit_limit_error":
        "only an error path reaches it: the digit-limit cases of tests/test_cli.py",
    "glgroup.F2Matrix.point_permutation":
        "perfbench/tracing.py METHODS wraps it by name",
    "glgroup.F2Matrix.apply_code":
        "the basis-image step that F2Matrix.point_permutation calls",
}


def public_functions() -> dict[str, tuple[str, int]]:
    """``module.qualname`` -> (co_filename, co_firstlineno) of every public
    function and method defined in a module of the package."""
    found = {}

    def add(name, fn):
        code = inspect.unwrap(fn).__code__
        found[name] = (code.co_filename, code.co_firstlineno)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):  # __init__, __main__ and private modules
            continue
        module = importlib.import_module(f"plurican.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                add(f"{path.stem}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        add(f"{path.stem}.{name}.{attr}", member)
    return found


def library_names() -> set[str]:
    """Every dotted name in an inline code span of the README's Library
    section (fenced blocks aside)."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.M | re.S).group(1)
    section = re.sub(r"^```.*?^```", "", section, flags=re.M | re.S)
    return {
        name
        for span in re.findall(r"`([^`\n]+)`", section)
        for name in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span)
    }


def named(name: str, names: set[str]) -> bool:
    """True if the README names ``module.qualname`` with or without its module."""
    qualname = name.split(".", 1)[1]
    return bool({qualname, name, f"plurican.{name}"} & names)


@pytest.fixture(scope="module")
def reached() -> set[tuple[str, int]]:
    """(co_filename, co_firstlineno) of every package function that the
    golden cases call."""
    prefix = str(PACKAGE)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    for case, (argv, expected_code) in sorted(CASES.items()):
        sys.setprofile(profile)
        try:
            code, _ = run(argv)
        finally:
            sys.setprofile(previous)
        assert code == expected_code, case
    return seen


def test_every_public_function_is_reached_named_or_allowlisted(reached):
    names = library_names()
    unreached = sorted(
        name for name, where in public_functions().items()
        if where not in reached and not named(name, names) and name not in ALLOWLIST
    )
    assert unreached == []


def test_allowlist_is_current(reached):
    functions = public_functions()
    names = library_names()
    stale = {}
    for name in ALLOWLIST:
        if name not in functions:
            stale[name] = "gone"
        elif functions[name] in reached:
            stale[name] = "reached"
        elif named(name, names):
            stale[name] = "named in the README"
    assert stale == {}


def test_library_names_come_from_inline_spans():
    names = library_names()
    assert {"orbit_census", "glgroup.burnside_orbit_count", "ProjLine.coeffs"} <= names
    assert named("arrangements.ProjLine.coeffs", names)
    assert not named("glgroup.F2Matrix.apply_code", names)


def test_walk_finds_every_member_kind():
    functions = public_functions()
    assert {
        "f2geom.num_points",  # module-level function
        "f2geom.F2Point.from_coords",  # classmethod
        "f2geom.Hyperplane.coords",  # property getter
        "glgroup.F2Matrix.apply_code",  # method
    } <= set(functions)
    # dunders, private names and private modules stay out
    assert not any(
        part.startswith("_") for name in functions for part in name.split(".")
    )
