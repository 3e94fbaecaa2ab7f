"""Automorphism actions of finite abelian groups, and the ``--aut`` file reader.

`AutAction` holds an automorphism as the permutation of element positions
(see `torsion.FiniteAbelianGroup.index`), an `array` of 32-bit items built
in the lanes of `_lanes`; `load_generators` reads the automorphisms of a
``components --aut`` file.  Only code that builds an action imports this
module: ``torsion.AutAction`` and ``plurican.AutAction`` load it on first
use (PEP 562), so ``import plurican.torsion`` and every command line without
``--aut`` compile none of it and load neither `_lanes` nor `array`.

A parsed permutation table is read one coordinate column at a time, in
chunks of elements (`AutAction.from_table`, `_lanes.positions`): a bad
element raises exactly the error `FiniteAbelianGroup.element` raises for it,
and the first bad element in table order wins.  The per-element table, a
32-bit array, is allocated only once the number of pairs has reached the
group order, so its size is bounded by the input, and its checks hold no
Python int per element.
"""

from __future__ import annotations

import io
from math import gcd, prod

from . import _lanes, torsion
from .errors import MalformedInputError, ValidationError
from .torsion import FiniteAbelianGroup, _check_action_order, _is_array, _is_int_array


def _all_arrays(values) -> bool:
    """`_is_array` for every value: one pass over the types, and the
    per-value test only when some type is not exactly list or tuple."""
    return set(map(type, values)) <= {list, tuple} or all(map(_is_array, values))


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * (m[-1][-1] if n else 1)


class AutAction:
    """An automorphism of a finite abelian group: the element at position i
    (see `FiniteAbelianGroup.index`) maps to the element at position perm[i].

    `perm` is built by additivity from the images f_j of the basis elements
    e_j, (x_1, ..., x_r) -> x_1 f_1 + ... + x_r f_r, well defined exactly
    when n_j f_j = 0, one coordinate column at a time as lanes
    (`_lanes.extend`), and unpacked once into an `array` of 32-bit items.
    `from_matrix` and `from_table` parse the two file forms into basis
    images.
    """

    def __init__(self, group: FiniteAbelianGroup, basis_images):
        _check_action_order(group)
        self.group = group
        images = [group.element(f) for f in basis_images]
        if len(images) != group.rank:
            raise ValidationError(f"{len(images)} basis images for a rank {group.rank} group")
        orders = group.cyclic_orders
        for j, (f, n) in enumerate(zip(images, orders)):
            if group.scale(n, f) != group.zero():
                raise ValidationError(
                    f"map does not preserve the group operation: {n} * f_{j} != 0",
                    basis=j, image=list(f),
                )
        perm = 0
        for i, n in enumerate(orders):
            # coordinate i of every image, from the last basis element back;
            # x + c e_j maps to phi(x) + c f_j
            col, size = 0, 1
            for f, m in zip(reversed(images), reversed(orders)):
                col = _lanes.extend(col, size, f[i], m, n)
                size *= m
            # in steps, so that the old and the scaled perm are not held
            # next to the sum, nor the last column next to the unpacked perm
            perm *= n
            perm += col
            del col
        self.perm = _lanes.unpack(perm, group.order)

    @classmethod
    def from_matrix(cls, group: FiniteAbelianGroup, entries) -> "AutAction":
        """Matrix form: integer rows (no booleans or floats); column j is the image of e_j."""
        if not _is_array(entries) or not all(map(_is_int_array, entries)):
            raise MalformedInputError(
                f"automorphism matrix must be an array of integer rows, got {entries!r}"
            )
        if len(set(group.cyclic_orders)) > 1:
            raise ValidationError(
                "matrix automorphisms require all cyclic factors equal; "
                "use a permutation table instead",
                cyclic_orders=list(group.cyclic_orders),
            )
        r = group.rank
        if len(entries) != r or any(len(row) != r for row in entries):
            raise ValidationError(f"automorphism matrix must be {r} x {r}")
        if r:
            n = group.cyclic_orders[0]
            # det(M mod n) = det(M) mod n, and reduced entries keep the
            # elimination and the reported det small
            entries = [[x % n for x in row] for row in entries]
            det = _int_det(entries) % n
            if gcd(det, n) != 1:
                raise ValidationError(
                    f"matrix is not invertible modulo {n} (det = {det})", det=det, n=n
                )
        return cls(group, zip(*entries))

    @classmethod
    def from_table(cls, group: FiniteAbelianGroup, mapping) -> "AutAction":
        """Table form: an array of [element, image] pairs of integer arrays;
        it must be a bijection equal to the additive extension of its e_j.

        A group of order above `MAX_ACTION_ORDER` is refused first, before
        anything is parsed.  Then every element and image is parsed, key
        before image and pair by pair, so the first bad array in table order
        raises (see `_lanes.positions`).  A later pair for the same element
        replaces an earlier one.  Then, in order, each with its witness:
        defined on every element (``pairs`` and ``order`` when there are
        fewer pairs than elements, else the first ``element`` with no pair),
        a bijection (the first element that is no image, ``missing_image``),
        fixes 0 (the ``image`` of 0), additive (the first element where the
        table leaves its additive extension, ``at``).  The position table is
        allocated only once there are at least as many pairs as group
        elements.
        """
        _check_action_order(group)
        if not (_is_array(mapping) and _all_arrays(mapping) and set(map(len, mapping)) <= {2}
                and _all_arrays(flat := [x for pair in mapping for x in pair])):
            raise MalformedInputError(
                "permutation table must be an array of [element, image] pairs of "
                "integer arrays"
            )
        pos = _lanes.positions(flat, group.cyclic_orders,
                               lambda a: group.index(group.element(a)))
        del flat  # a reference per coordinate array: freed before the table
        return cls._from_positions(group, pos)

    @classmethod
    def _from_positions(cls, group: FiniteAbelianGroup, pos) -> "AutAction":
        """The checks of `from_table` that follow parsing, on `pos`, the
        positions of a table's elements and images alternately, in table
        order.  `pos` is emptied once the per-element table is filled, so
        its memory is freed before the checks run."""
        order = group.order
        # every position is in range(order), so fewer pairs than elements
        # leave one out, and at least as many bound the table's size
        if len(pos) < 2 * order:
            raise ValidationError("permutation table must be defined on every element",
                                  pairs=len(pos) // 2, order=order)
        table = _lanes.full(order, order)  # `order`: no pair for this element
        for i, j in zip(pos[0::2], pos[1::2]):
            table[i] = j
        del pos[:]
        hit = bytearray(order + 1)  # hit[j] = 1 for every image j
        for j in table:
            hit[j] = 1
        if hit[order]:
            raise ValidationError("permutation table must be defined on every element",
                                  element=list(group.element_at(table.index(order))))
        missing = hit.find(0)  # `order` when every element is an image
        if missing < order:
            raise ValidationError("permutation table is not a bijection",
                                  missing_image=list(group.element_at(missing)))
        if table[0] != 0:
            raise ValidationError("permutation table does not fix the identity",
                                  image=list(group.element_at(table[0])))
        orders = group.cyclic_orders
        # e_j sits at position n_(j+1) * ... * n_r
        basis = [table[prod(orders[j + 1:])] for j in range(len(orders))]
        message = "permutation table does not preserve the group operation"
        try:
            aut = cls(group, map(group.element_at, basis))
        except ValidationError as exc:  # some n_j f_j != 0
            raise ValidationError(message, **exc.details) from exc
        if table != aut.perm:
            at = next(i for i, (p, q) in enumerate(zip(table, aut.perm)) if p != q)
            raise ValidationError(message, at=list(group.element_at(at)))
        return aut


def load_generators(G: FiniteAbelianGroup, path) -> list[AutAction]:
    """The automorphisms of an ``--aut`` file.  A file whose generators
    would hold more than ``torsion.MAX_ACTION_ENTRIES`` entries in all is
    refused before any action is built; on a group of order above
    ``torsion.MAX_ACTION_ORDER`` the first spec meets that cap instead.
    The file is opened once.  On a group within that cap, a file of
    permutation tables of the common shape is walked by
    `_lanes.table_positions`, which reads it a window at a time; any other
    file is read again whole from its start, decoded by `cli._read_text` and
    parsed by `cli._load_json`, with the same results and errors.  A file that
    cannot be read twice, such as a pipe, is read once into memory for
    both."""
    from .cli import _cannot_read, _load_json

    limit = torsion.MAX_ACTION_ENTRIES
    within = G.order <= torsion.MAX_ACTION_ORDER

    def check_entries(count: int) -> None:
        entries = count * G.order
        if within and entries > limit:
            raise ValidationError(
                f"{count} automorphisms of a group of order {G.order} need {entries} "
                f"action entries, above the limit {limit}",
                entries=entries, limit=limit,
            )

    tables = None
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():  # held, for the parser to read again
                fh = io.BytesIO(fh.read())
            if within:
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
