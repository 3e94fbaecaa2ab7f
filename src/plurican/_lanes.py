"""32-bit lanes: the arithmetic behind `torsion`'s actions and table positions.

A column of numbers, one per group element or per table entry, is held as
the 32-bit lanes of one Python int (`pack`): adding a constant to every
lane, or reducing every lane mod n, is then a few big-int operations.
Lanes stay exact while every number fits in 32 bits and n <= 2^31.  A
finished column is unpacked once, into an `array` of `LANE` items.

A table's positions are read on one of two paths.  `positions` takes a
parsed table (`AutAction.from_table`), `CHUNK` elements at a time.
`table_positions` takes the text of an automorphism file of the common
shape, a slice at a time, without a parsed tree: a slice whose bracket
skeleton is that of pairs of the group's rank is decoded as one flat array
of numbers, which the skeleton leaves no room to be anything but ints, and
its columns are strided slices of that array.

Only code that builds an action or reads a table imports this module, so
the commands that use closed forms load neither it nor `array`.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from itertools import chain

from .errors import all_int

LANE = next(code for code in "IL" if array(code).itemsize == 4)

# `positions` packs this many elements at a time, so its big-int
# temporaries stay a few times 16 KB whatever the length of the table
CHUNK = 4096


def pack(values) -> int:
    """Integers in range(2^32) as the 32-bit lanes of one int, the first
    value in the lowest lane; OverflowError for any other integer."""
    return int.from_bytes(array(LANE, values), sys.byteorder)


def unpack(lanes: int, count: int) -> array:
    """The first `count` lanes of `lanes`; inverse of `pack`."""
    return array(LANE, lanes.to_bytes(4 * count, sys.byteorder))


def full(count: int, value: int) -> array:
    """An array of `count` items, each `value`."""
    return array(LANE, [value]) * count


def _ones(count: int) -> int:
    """1 in each of `count` lanes."""
    return pack(full(count, 1))


def _high_lanes(lanes: int, ones: int) -> int:
    """1 in each lane whose bit 31 is set, 0 in the others."""
    return lanes >> 31 & ones


def _add_mod(x: int, y: int, n: int, ones: int) -> int:
    """The lanes of x + y mod n, for lanes of x and y in range(n) (n <= 2^31)."""
    x += y
    # every lane is below 2n: take n off the lanes at n or above
    return x - n * _high_lanes(x + ((1 << 31) - n) * ones, ones)


def _pack_mod(col: list[int], n: int, ones: int) -> int:
    """The integers col reduced mod n, as lanes (n <= 2^31).  A column
    already in range(n) is packed as it is: it packs without overflow, no
    lane has bit 31 set, and none reaches n once 2^31 - n is added."""
    try:
        lanes = pack(col)
    except OverflowError:  # some entry is negative or at least 2^32
        pass
    else:
        if not _high_lanes(lanes | lanes + ((1 << 31) - n) * ones, ones):
            return lanes
    return pack([c % n for c in col])


def _repeat(col: int, bits: int, m: int) -> int:
    """`col` (below 2^bits) repeated m times, the first copy lowest, by doubling."""
    out = done = 0
    while m:
        if m & 1:
            out |= col << done
            done += bits
        m >>= 1
        if m:
            col |= col << bits
            bits *= 2
    return out


def extend(col: int, size: int, a: int, m: int, n: int) -> int:
    """Column `col` of `size` lanes in range(n), followed by copies with
    a, 2a, ..., (m - 1)a added to every lane mod n (a in range(n)): the
    column once a factor of order m, whose basis element has coordinate a,
    is put in front of the group.  When a is 0 every copy is the column;
    otherwise the loop runs over the copies or over the lanes of col,
    whichever is shorter."""
    if not a:
        return _repeat(col, 32 * size, m)
    if m <= size:
        ones = _ones(size)
        step = a * ones
        blocks = [col]
        for _ in range(m - 1):
            blocks.append(_add_mod(blocks[-1], step, n, ones))
        return int.from_bytes(b"".join(x.to_bytes(4 * size, sys.byteorder) for x in blocks),
                              sys.byteorder)
    ones = _ones(m)
    steps = pack([c * a % n for c in range(m)])
    out = array(LANE, bytes(4 * size * m))
    for k, v in enumerate(unpack(col, size)):
        out[k::size] = unpack(_add_mod(steps, v * ones, n, ones), m)
    return pack(out)


def _column_positions(flat: list, orders, count: int) -> array:
    """Mixed-radix positions of `count` elements whose coordinates are
    listed one element after another in `flat`, all exactly ints: column j
    is the strided slice ``flat[j::len(orders)]``, packed with `_pack_mod`."""
    ones = _ones(count)
    pos = 0
    for j, n in enumerate(orders):
        pos = pos * n + _pack_mod(flat[j::len(orders)], n, ones)
    return unpack(pos, count)


def positions(elements, orders, position) -> array:
    """The positions of a list of coordinate arrays in a group with cyclic
    factor orders `orders` (order at most 2^31), `CHUNK` elements at a time.
    A chunk is packed one column at a time when every array in it has
    len(orders) values, each exactly an int; any other chunk goes through
    `position` element by element, so the first bad element raises exactly
    what `position` raises."""
    out = array(LANE)
    for start in range(0, len(elements), CHUNK):
        chunk = elements[start:start + CHUNK]
        if (set(map(len, chunk)) <= {len(orders)}
                and all_int(flat := list(chain.from_iterable(chunk)))):
            out.extend(_column_positions(flat, orders, len(chunk)))
        else:
            out.extend(map(position, chunk))
    return out


def _shape(pattern: str) -> re.Pattern:
    r"""``pattern`` with each space standing for JSON whitespace: only
    ``[ \t\n\r]``, not ``\s``, which also takes U+00A0, ``\x0b``, ``\x1c``
    and other characters that JSON refuses."""
    return re.compile(pattern.replace(" ", "[ \t\n\r]*"))


# The automorphism file that `table_positions` reads:
#   {"generators": [{"kind": "permutation", "pairs": [PAIR, ...]}, ...]}
_HEAD = _shape(r' \{ "generators" : \[ ')
_SPEC = _shape(r'\{ "kind" : "permutation" , "pairs" : \[ ')
_NEXT = _shape(r' \} (?:(,) |\] \} \Z)')  # after a pairs array
# A pair of int arrays ends in "]]" and its array in "]]]", so in a file
# of that shape the first "]]]" ends the array and each "]]," ends a pair;
# elsewhere a cut is a guess that the slice's checks refuse.
_LAST_PAIR = _shape(r'\] \]( \])')
_PAIR_END = _shape(r'\] \]( ,)')

# characters of a pairs array decoded at a time (a slice then runs to the
# end of the pair it cuts into)
_SLICE = 1 << 16


def table_positions(text: str, orders) -> list[array] | None:
    """The positions of each table of an automorphism file of the shape
    above, on a group with cyclic factor orders `orders` (order at most
    2^31): one array per spec, of element and image positions alternately.
    None for a text of any other shape.

    No tree is built: each pairs array is read a slice of about `_SLICE`
    characters at a time, each cut just after a pair, and
    `_pairs_positions` turns each slice into positions at once.  The cuts
    fall only at the array's commas, so when every slice holds pairs of
    int arrays of the group's rank, ``json.loads`` of the whole text gives
    the same pairs, and no element in them is bad.  Any other slice, or
    any other text between the slices, gives None; so do a file with no
    spec and an empty pairs array, which hold no pair to walk."""
    m = _HEAD.match(text)
    if m is None:
        return None
    tables, i = [], m.end()
    while True:
        m = _SPEC.match(text, i)
        if m is None:
            return None
        walked = _pairs_positions(text, m.end(), orders)
        if walked is None:
            return None
        pos, i = walked
        tables.append(pos)
        m = _NEXT.match(text, i)
        if m is None:
            return None
        if m.group(1) is None:
            return tables
        i = m.end()


def _pairs_positions(text: str, i: int, orders) -> tuple[array, int] | None:
    """The positions of the pairs array whose first pair is at i, and the
    index just after the array; or None.

    A slice is read only when it is k pairs of arrays of r = len(orders)
    numbers, checked without decoding it:
    - its skeleton, the slice without its digits, "-" and JSON whitespace,
      is k copies of ``[[,...,],[,...,]]`` (r - 1 commas in each array)
      joined by commas, with k taken from the skeleton's length;
    - no digit or "-" stands just after a "]" or just before a "[",
      whitespace aside, so every number lies inside an element's array.
    The slice is then decoded flat, each bracket read as a space, to
    exactly 2rk numbers, and column j of its elements is the strided slice
    ``flat[j::r]``.  Between its brackets and commas the slice holds only
    digits, "-" and whitespace, so every number ``json.loads`` accepts
    there is exactly an int (a float, a bool, null or a string has some
    other character), and no type pass is needed.  At rank 0 the skeleton
    keeps its digits, so a pair of empty arrays is all it takes, and there
    is nothing to decode."""
    last = _LAST_PAIR.search(text, i)
    if last is None:
        return None
    end = last.start(1)  # just after the last pair
    rank = len(orders)
    pair = "[[" + "," * (rank - 1) + "],[" + "," * (rank - 1) + "]]"
    # a "d" for each digit or "-" (and a "?" for a "d"), no whitespace
    mark = str.maketrans("0123456789-d", "d" * 11 + "?", " \t\n\r")
    unmark = str.maketrans("", "", "d" if rank else "")
    unbracket = str.maketrans("[]", "  ")
    pos = array(LANE)
    while True:
        cut = _PAIR_END.search(text, i + _SLICE, end)
        stop = end if cut is None else cut.start(1)
        part = text[i:stop]
        marked = part.translate(mark)
        skeleton = marked.translate(unmark)
        k = (len(skeleton) + 1) // (len(pair) + 1)
        if skeleton != ",".join([pair] * k) or "]d" in marked or "d[" in marked:
            return None
        try:
            flat = json.loads("[" + part.translate(unbracket) + "]") if rank else []
        except ValueError:  # a malformed number, or one past the digit limit
            return None
        if len(flat) != 2 * rank * k:
            return None
        pos.extend(_column_positions(flat, orders, 2 * k))
        if cut is None:
            return pos, last.end()
        i = cut.end()
