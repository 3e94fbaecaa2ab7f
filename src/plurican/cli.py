"""Command-line entry point: JSON in, JSON out, deterministic output.

Exit codes: 0 on success, 1 when a mathematical hypothesis or validity check
fails (a machine-readable error object is still printed), 2 on malformed
input, and 3 on an internal error: any other exception, a fault of the
program rather than of its input, printed as one JSON error document of kind
``internal`` with the exception's type as witness.  Malformed input includes
command-line errors (an unknown command, a missing or unparsable option),
which print a JSON error document on stdout like any other, a result with an
integer too long to print (more digits than the interpreter's int/str
conversion limit) and an ``--out`` file that cannot be written; an error
document that cannot be written to ``--out`` goes to stdout.  A stdout that
cannot be written (a full device, a closed descriptor, a reader that exits
early) ends the command with exit 2 (``STDOUT_UNWRITABLE``): nothing more is
written and nothing goes to stderr.  Identical inputs produce byte-identical
output: the text of ``json.dumps(indent=2, sort_keys=True)``, made by that
one call in `_emit` and written to stdout or to ``--out``.  The ``points``
array of ``incidences`` is an iterator of text chunks from
`arrangements._points_json`, which has checked that its numbers print;
`_emit` makes the rest of the document before the first write and writes
the array's chunks in its place as they are made.  Every command runs in
one process, with the cyclic collector paused (a command makes many
containers and next to no cycles) and restored after; ``--workers N`` is
accepted and validated (N < 1 is malformed input) and does not change the
output.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
from collections import deque
from collections.abc import Iterator
from functools import cache
from itertools import chain
from pathlib import Path

# each handler imports the modules it runs, so a command loads only those
from .errors import DomainError, MalformedInputError, ValidationError, digit_limit_error

SCHEMA = "plurican/1"

# Digits an integer option, or a group's orders in all, may have (see `_decimal`).
MAX_DIGITS = 700


def _decimal(text: str, signed: bool = True) -> int | None:
    """The value of an optional minus sign (when ``signed``) and at most
    ``MAX_DIGITS`` ASCII digits, or None for any other text (``int`` also
    takes ``_``, ``+``, whitespace and non-ASCII digits).

    The cap keeps every integer a command prints, in its result or in an
    error message, under Python's 4300-digit int/str conversion limit.
    With |x| < 10^700 for every option, the largest such integer,
    d(d-1)m((2d-1)m+3)K2 in `invariants.covering_invariants`, is below
    10^700 * 10^700 * 10^700 * 3*10^1400 * 10^700 = 3*10^4200: at most 4201
    digits.  K2, e and p_a of the cover, the branch curve genus and the
    moduli dimensions are smaller products of the same inputs.  A group's
    order is the product of its factors, so `_parse_group` caps their digits
    in all; every other `components` number is d, at most 2, or at most the
    order.
    """
    if len(text.lstrip("-")) > MAX_DIGITS:
        return None
    if not re.fullmatch("-?[0-9]+" if signed else "[0-9]+", text):
        return None
    return int(text)


def _integer(text: str) -> int:
    """argparse type of the integer options."""
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are malformed input, printed as
    one JSON error document, instead of usage text on stderr; subparsers
    are built from the same class."""

    def error(self, message):
        raise MalformedInputError(f"{self.prog}: {message}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (its subparsers
    hold hundreds of objects in reference cycles) and shared by every
    call: `parse_args` leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers", type=_integer, default=1,
        help="accepted for compatibility and validated (must be >= 1); the "
             "work is single-process and the output is identical for every value",
    )
    common.add_argument("--out", type=Path, default=None, help="write JSON here instead of stdout")

    parser = _Parser(
        prog="plurican",
        description="Exact computations for cyclic coverings of surfaces of "
                    "general type: covering invariants, totally even point "
                    "sets, torsion component counts, line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "verify-lemma-ev", parents=[common],
        help="census of totally even 8-point sets in PG(3, F2) under GL(4, 2)",
    )

    inv = sub.add_parser(
        "invariants", parents=[common],
        help="invariants of a degree-d covering branched in a d*m-canonical curve",
    )
    inv.add_argument("--d", type=_integer, required=True, help="covering degree")
    inv.add_argument("--m", type=_integer, required=True, help="canonical multiple")
    inv.add_argument("--surface", help="catalogue surface name (see 'catalog')")
    inv.add_argument("--pa", type=_integer, help="arithmetic genus of the base")
    inv.add_argument("--k2", type=_integer, help="canonical self-intersection of the base")
    inv.add_argument("--q", type=_integer, default=0, help="irregularity of the base")

    comp = sub.add_parser(
        "components", parents=[common],
        help="torsion-group covering counts and component bounds",
    )
    comp.add_argument("--group", required=True,
                      help="cyclic factor orders, e.g. 2,2,2 (empty string = trivial)")
    comp.add_argument("--d", type=_integer, required=True, help="covering degree")
    comp.add_argument("--m", type=_integer, help="canonical multiple (enables the orbit criterion)")
    comp.add_argument("--aut", type=Path,
                      help="JSON file with automorphism generators of the group")

    chk = sub.add_parser(
        "check-arrangement", parents=[common],
        help="validate labeled line-arrangement covering data",
    )
    chk.add_argument("file", type=Path)
    chk.add_argument("--mode", choices=["campedelli", "extension"],
                     help="default: campedelli for 7 lines, extension for 8")

    inc = sub.add_parser(
        "incidences", parents=[common],
        help="exact intersection points and multiplicities of an arrangement",
    )
    inc.add_argument("file", type=Path)

    sub.add_parser("catalog", parents=[common], help="list the embedded base surfaces")

    rep = sub.add_parser(
        "reproduce", parents=[common],
        help="run a named headline computation end to end",
    )
    rep.add_argument("recipe", choices=RECIPES)
    rep.add_argument("--d", type=_integer, help="covering degree (cplus)")
    rep.add_argument("--m", type=_integer, help="canonical multiple (cplus)")

    return parser


def _cannot_read(path: Path, exc: OSError) -> MalformedInputError:
    return MalformedInputError(f"cannot read {path}: {exc}")


def _read_text(path: Path, fh=None) -> str:
    """The text of ``path`` as text-mode `open` reads it: UTF-8, with
    universal newlines.  A caller that holds the file open passes it,
    ``fh``, and it is read from its start."""
    try:
        if fh is None:
            with open(path, "rb") as fh:
                data = fh.read()
        else:
            fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise _cannot_read(path, exc) from exc
    try:
        text = data.decode("utf-8")
    except ValueError as exc:  # UnicodeDecodeError
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_json(path: Path, fh=None):
    """The parsed document of ``path``; a caller that holds the file open
    passes it, ``fh``."""
    text = _read_text(path, fh)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's int/str digit limit; RecursionError, nesting
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def _parse_group(spec: str) -> FiniteAbelianGroup:
    """Comma-separated decimal orders, each ASCII digits only, with at most
    ``MAX_DIGITS`` digits in all; "" is trivial."""
    from .torsion import FiniteAbelianGroup

    if not spec:
        return FiniteAbelianGroup(())
    parts = spec.split(",")
    orders = tuple(_decimal(part, signed=False) for part in parts)
    if None in orders:
        raise MalformedInputError(
            f"cannot parse group {spec!r}: expected comma-separated decimal orders"
        )
    digits = sum(map(len, parts))
    if digits > MAX_DIGITS:
        raise MalformedInputError(
            f"group orders have {digits} digits in all, above the limit {MAX_DIGITS}",
            digits=digits, limit=MAX_DIGITS,
        )
    return FiniteAbelianGroup(orders)


def _load_generators(G: FiniteAbelianGroup, path: Path) -> list[AutAction]:
    """The automorphisms of an ``--aut`` file.  A file whose generators
    would hold more than ``torsion.MAX_ACTION_ENTRIES`` entries in all is
    refused before any action is built; on a group of order above
    ``torsion.MAX_ACTION_ORDER`` the first spec meets that cap instead.
    The file is opened once.  On a group within that cap, a file of
    permutation tables of the common shape is walked by
    `_lanes.table_positions`, which reads it a window at a time; any other
    file is read again whole from its start, decoded by `_read_text` and
    parsed by `_load_json`, with the same results and errors.  A file that
    cannot be read twice, such as a pipe, is read once into memory for
    both."""
    from .torsion import MAX_ACTION_ENTRIES, MAX_ACTION_ORDER, AutAction

    def check_entries(count: int) -> None:
        entries = count * G.order
        if G.order <= MAX_ACTION_ORDER and entries > MAX_ACTION_ENTRIES:
            raise ValidationError(
                f"{count} automorphisms of a group of order {G.order} need {entries} "
                f"action entries, above the limit {MAX_ACTION_ENTRIES}",
                entries=entries, limit=MAX_ACTION_ENTRIES,
            )

    tables = None
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():  # held, for the parser to read again
                fh = io.BytesIO(fh.read())
            if G.order <= MAX_ACTION_ORDER:
                from . import _lanes

                tables = _lanes.table_positions(fh, G.cyclic_orders)
            if tables is None:
                parsed = _load_json(path, fh)
    except OSError as exc:
        raise _cannot_read(path, exc) from exc
    if tables is not None:
        check_entries(len(tables))
        return [AutAction._from_positions(G, pos) for pos in tables]
    if isinstance(parsed, dict):
        raw = parsed.get("generators")
    else:
        raw = parsed
    if not isinstance(raw, list):
        raise MalformedInputError(
            f"{path}: expected a 'generators' array of automorphism specs"
        )
    check_entries(len(raw))
    gens = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise MalformedInputError(f"bad automorphism spec {item!r}")
        if item["kind"] == "matrix":
            gens.append(AutAction.from_matrix(G, item.get("entries", [])))
        elif item["kind"] == "permutation":
            gens.append(AutAction.from_table(G, item.get("pairs", [])))
        else:
            raise MalformedInputError(f"unknown automorphism kind {item['kind']!r}")
    return gens


def _surface_input(args) -> tuple[str | None, SurfaceInvariants]:
    from .invariants import SurfaceInvariants, catalog_entry

    if args.surface is not None:
        if args.pa is not None or args.k2 is not None:
            raise MalformedInputError("give either --surface or --pa/--k2, not both")
        entry = catalog_entry(args.surface)
        return entry.name, entry.invariants
    if args.pa is None or args.k2 is None:
        raise MalformedInputError("need --surface NAME or both --pa and --k2")
    return None, SurfaceInvariants.from_pa(args.pa, args.q, args.k2)


def cmd_verify_lemma_ev(args) -> tuple[dict, int]:
    from . import evenclass

    report = evenclass.verify_lemma_ev(workers=args.workers)
    return {"command": "verify-lemma-ev", **report.as_json()}, 0


def cmd_invariants(args) -> tuple[dict, int]:
    from . import invariants

    name, X = _surface_input(args)
    c = invariants.CoveringParams(args.d, args.m)
    Y = invariants.covering_invariants(X, c)
    payload = {
        "command": "invariants",
        "input": {"surface": name, "X": X.as_json(), "d": c.d, "m": c.m},
        "Y": Y.as_json(),
        "branch_curve_genus": invariants.branch_curve_genus(X.K2, c),
        "generic_smooth": invariants.generic_pluricanonical_smooth(c.d, X.K2, c.m),
        "moduli_dim_lower_bound": invariants.moduli_dimension_lower_bound(c, X),
    }
    if c.d == 2 and 2 * c.m >= 5 and X.is_miyaoka_yau:
        payload["moduli_dim"] = invariants.moduli_dimension(c.m, X)
    return payload, 0


def cmd_components(args) -> tuple[dict, int]:
    from . import torsion

    G = _parse_group(args.group)
    payload = {
        "command": "components",
        "group": G.as_json(),
        "d": args.d,
        "tor_d_order": torsion.tor_d_order(G, args.d),
        "covering_count": torsion.covering_count(G, args.d),
        "theorem_mod_bound": torsion.theorem_mod_component_bound(G, args.d),
    }
    if args.aut is not None:
        gens = _load_generators(G, args.aut)
        if args.m is None:
            payload["orbit_count"] = torsion.orbit_count(G, gens)
        else:
            # the component count is the orbit count, once its hypotheses hold
            count = torsion.cnew_component_count(G, gens, args.d, args.m)
            payload.update(orbit_count=count, m=args.m, cnew_count=count)
    return payload, 0


def cmd_check_arrangement(args) -> tuple[dict, int]:
    from . import arrangements

    arr = arrangements.load_arrangement(_load_json(args.file))
    mode = args.mode
    if mode is None:
        if len(arr.lines) == 7:
            mode = "campedelli"
        elif len(arr.lines) == 8:
            mode = "extension"
        else:
            raise MalformedInputError(
                f"cannot infer mode for {len(arr.lines)} lines; pass --mode"
            )
    if mode == "campedelli":
        report = arrangements.check_campedelli(arr)
        passed = report.passed
    else:
        report = arrangements.analyze_extension(arr)
        passed = report.totally_even
    payload = {
        "command": "check-arrangement",
        "mode": mode,
        "passed": passed,
        "report": report.as_json(),
    }
    return payload, 0 if passed else 1


def cmd_incidences(args) -> tuple[dict, int]:
    from . import arrangements

    arr = arrangements.load_arrangement(_load_json(args.file))
    report = arrangements.compute_incidences(arr)
    # the points array, the bulk of the document, is written from its
    # integers as it goes out (a digit-limit error is raised here, first)
    points = arrangements._points_json(report.points)
    return {"command": "incidences", **report.as_json(points)}, 0


def cmd_catalog(args) -> tuple[dict, int]:
    from .invariants import CATALOG

    return {
        "command": "catalog",
        "entries": [entry.as_json() for entry in CATALOG],
    }, 0


def _recipe_lemma_ev(args) -> dict:
    from . import evenclass

    report = evenclass.verify_lemma_ev(workers=args.workers)
    return {
        "claim": "eight-point subsets of PG(3, F2) meeting every plane in an "
                 "even number of points fall into exactly two classes under "
                 "GL(4, 2): plane complements and one exceptional configuration",
        "inputs": {"space": "PG(3, F2)", "set_size": 8},
        "results": report.as_json(),
    }


def _recipe_camp1_moduli(args) -> dict:
    from . import evenclass, invariants, torsion

    entry = invariants.catalog_entry("campedelli")
    cover = invariants.covering_invariants(entry.invariants, invariants.CoveringParams(2, 1))
    report = evenclass.verify_lemma_ev(workers=args.workers)
    return {
        "claim": "double covers of Campedelli surfaces branched along smooth "
                 "bicanonical curves fill exactly two connected components of "
                 "the moduli space of surfaces with K2 = 16, p_a = 4",
        "inputs": {"surface": entry.name, "d": 2, "m": 1},
        "results": {
            "components": report.orbit_count,
            "moduli_space": {"K2": cover.K2, "pa": cover.p_a},
            "coverings_per_branch_curve": torsion.covering_count(entry.torsion, 2),
            "census": report.as_json(),
        },
    }


def _recipe_cplus(args) -> dict:
    from . import invariants, torsion

    d = args.d if args.d is not None else 2
    m = args.m if args.m is not None else 3
    total = torsion.cplus_total(d, m)
    entry = invariants.catalog_entry("miyaoka-yau-333-1")
    return {
        "claim": "for admissible degrees the moduli space receiving the "
                 "coverings of the rigid K2 = 333 surfaces has at least "
                 f"3 * 5^6 = {total} connected components",
        "inputs": {"d": d, "m": m, "surfaces": [entry.name, "miyaoka-yau-333-2"]},
        "results": {
            "components": total,
            "orbit_count_per_surface": torsion.orbit_count(entry.torsion, []),
            "surface_count_factor": 3,
        },
    }


def _covering_chain(name: str) -> dict:
    from . import invariants, torsion

    entry = invariants.catalog_entry(name)
    cover = invariants.covering_invariants(entry.invariants, invariants.CoveringParams(2, 1))
    degree = invariants.composed_canonical_degree(entry.bicanonical_map_degree)
    out = {
        "inputs": {"surface": entry.name, "d": 2, "m": 1},
        "results": {
            "base_bicanonical_degree": entry.bicanonical_map_degree,
            "canonical_map_degree": degree,
            "Y": cover.as_json(),
            "canonical_image_ambient_dim": cover.p_g - 1,
        },
    }
    if entry.torsion is not None:
        out["results"]["coverings_per_branch_curve"] = torsion.covering_count(entry.torsion, 2)
    return out


def _recipe_campedelli_cover(args) -> dict:
    out = _covering_chain("campedelli")
    out["claim"] = (
        "the canonical map of a double cover of a Campedelli surface branched "
        "in a bicanonical curve is a degree 16 morphism onto the plane"
    )
    return out


def _recipe_burniat_cover(args) -> dict:
    surfaces = []
    for k2 in (6, 5, 4, 3):
        cover = _covering_chain(f"burniat-{k2}")
        surfaces.append({"surface": f"burniat-{k2}", **cover["results"]})
    return {
        "claim": "the canonical map of a double cover of a Burniat surface "
                 "branched in a bicanonical curve is a degree 8 morphism onto "
                 "a Del Pezzo surface of degree K2",
        "inputs": {"d": 2, "m": 1},
        "results": {"surfaces": surfaces},
    }


def _recipe_mlp_cover(args) -> dict:
    out = _covering_chain("mendes-lopes-pardini")
    out["claim"] = (
        "the canonical map of a double cover of a Mendes Lopes-Pardini "
        "surface branched in a bicanonical curve is a degree 4 map onto a "
        "sextic Enriques surface in P^3"
    )
    return out


_RECIPE_HANDLERS = {
    "lemma-ev": _recipe_lemma_ev,
    "camp1-moduli": _recipe_camp1_moduli,
    "cplus": _recipe_cplus,
    "campedelli-cover": _recipe_campedelli_cover,
    "burniat-cover": _recipe_burniat_cover,
    "mlp-cover": _recipe_mlp_cover,
}
RECIPES = tuple(_RECIPE_HANDLERS)


def cmd_reproduce(args) -> tuple[dict, int]:
    payload = _RECIPE_HANDLERS[args.recipe](args)
    return {"command": "reproduce", "recipe": args.recipe, **payload}, 0


_HANDLERS = {
    "verify-lemma-ev": cmd_verify_lemma_ev,
    "invariants": cmd_invariants,
    "components": cmd_components,
    "check-arrangement": cmd_check_arrangement,
    "incidences": cmd_incidences,
    "catalog": cmd_catalog,
    "reproduce": cmd_reproduce,
}


# `_emit` dumps a document with this in place of its streamed value, then
# splits the text at its JSON form (the second string)
_MARK, _MARK_JSON = "\0written", '"\\u0000written"'


class _OutUnwritable(MalformedInputError):
    """Writing to ``--out`` failed, possibly partway."""


class _StdoutUnwritable(Exception):
    """Writing to stdout failed, possibly partway, or there is no stdout."""


# exit code when stdout cannot be written; nothing more is written
STDOUT_UNWRITABLE = 2


class _InternalError(DomainError):
    """An exception that is a fault of the program, not of its input (exit
    3); its type is the witness.  A DomainError only to share ``as_json``."""

    kind = "internal"

    def __init__(self, exc: Exception):
        name = type(exc).__name__
        super().__init__(f"internal error: {name}: {exc}", type=name)


def _emit(payload: dict, out: Path | None) -> None:
    """Write the document of ``payload``.  A top-level value may be an
    iterator of its JSON text, indented for depth 1, that raises no error
    as it is read; no other string of that document may be ``_MARK``."""
    document = {"schema": SCHEMA, **payload}
    stream = None
    for key, value in document.items():
        if isinstance(value, Iterator):
            stream, document[key] = value, _MARK
    # the text around a stream is whole before the first write, so a
    # digit-limit error leaves no partial document; unchecked, a cycle is a
    # RecursionError (exit 3)
    try:
        text = json.dumps(document, indent=2, sort_keys=True, check_circular=False)
    except ValueError as exc:  # an integer with more digits than the int/str limit
        raise digit_limit_error() from exc
    if stream is None:  # not searched: an error message may hold _MARK
        chunks = (text, "\n")
    else:
        head, _, tail = text.partition(_MARK_JSON)
        chunks = chain((head,), stream, (tail, "\n"))
    if out is None:
        if sys.stdout is None:  # the descriptor was closed at start-up
            raise _StdoutUnwritable
        try:
            deque(map(sys.stdout.write, chunks), 0)
            sys.stdout.flush()  # a failed write shows here, not at exit
        except OSError as exc:
            raise _StdoutUnwritable from exc
        return
    try:
        with out.open("w", encoding="utf-8") as fh:
            deque(map(fh.write, chunks), 0)
    except OSError as exc:
        raise _OutUnwritable(f"cannot write {out}: {exc}") from exc


def main(argv=None) -> int:
    try:
        return _run(argv)
    except _StdoutUnwritable:
        # Python flushes stdout again at exit; pointed at os.devnull, that
        # flush succeeds and prints no "Exception ignored" on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return STDOUT_UNWRITABLE


def _run(argv) -> int:
    out = None  # an error before --out is parsed goes to stdout
    # a command makes many containers and next to no cycles (the parser's
    # are made once per process): the cyclic collector is paused until its
    # document is written, then restored
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        out = args.out
        if args.workers < 1:
            raise MalformedInputError(
                f"--workers must be a positive integer, got {args.workers}"
            )
        payload, code = _HANDLERS[args.command](args)
        _emit(payload, out)
        return code
    except _StdoutUnwritable:
        raise  # nothing more is written
    except MalformedInputError as exc:
        error, code = exc, 2
    except DomainError as exc:
        error, code = exc, 1
    except Exception as exc:  # SystemExit (--help) and KeyboardInterrupt pass
        error, code = _InternalError(exc), 3
    finally:
        if argv is None:
            # the process's own command line (`python -m plurican`, the
            # `plurican` script), which exits next: what is left is frozen,
            # as the collections at exit skip frozen objects (a scan of the
            # 13,600 left by `check-arrangement` takes about 6 ms); an
            # in-process caller's heap is its own, and is not frozen
            gc.freeze()
        if enabled:
            gc.enable()
    if isinstance(error, _OutUnwritable):
        out = None  # a failed --out is not tried again
    try:
        _emit({"error": error.as_json()}, out)
    except _OutUnwritable:
        _emit({"error": error.as_json()}, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
