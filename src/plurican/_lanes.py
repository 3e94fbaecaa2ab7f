"""32-bit lanes: the arithmetic behind automorphism actions and table positions.

A column of numbers, one per group element or per table entry, is held as
the 32-bit lanes of one Python int (`pack`): adding a constant to every
lane, or reducing every lane mod n, is then a few big-int operations.
Lanes stay exact while every number fits in 32 bits and n <= 2^31.  A
finished column is unpacked once, into an `array` of `LANE` items.

A table's positions are read on one of two paths.  `positions` takes a
parsed table (`_actions.AutAction.from_table`), `CHUNK` elements at a time.
`table_positions` reads an open automorphism file of the common shape
through a window of about two slices, a slice at a time, without a parsed
tree: a slice whose bracket skeleton is that of pairs of the group's rank
is decoded as one flat array of numbers, which the skeleton leaves no
room to be anything but ints, and its columns are strided slices of that
array.  Numbers in 0-99, each alone in its slot, are decoded in 8-bit
lanes, a byte a number (`_small_numbers`), and a column of them is spread
into 32-bit lanes; any other slice goes through ``json.loads``.

Only `_actions`, the code that builds an action or reads a table, imports
this module, so the commands that use closed forms load neither it nor
`array`.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from itertools import chain

from .errors import all_int

LANE = next(code for code in "IL" if array(code).itemsize == 4)
# the low byte of a lane in `sys.byteorder`
_LOW = 0 if sys.byteorder == "little" else 3

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


def _spread(col: bytes) -> int:
    """`pack` of the numbers in `col`, one a byte: each byte put in the
    low byte of its 32-bit lane."""
    lanes = bytearray(4 * len(col))
    lanes[_LOW::4] = col
    return int.from_bytes(lanes, sys.byteorder)


def _pack_mod(col: list[int] | bytes, n: int, ones: int) -> int:
    """The integers col, a list or bytes of numbers one a byte, reduced
    mod n, as lanes (n <= 2^31).  A column already in range(n) is packed
    as it is: it packs without overflow, no lane has bit 31 set, and none
    reaches n once 2^31 - n is added."""
    try:
        lanes = _spread(col) if isinstance(col, bytes) else pack(col)
    except OverflowError:  # some entry is negative or at least 2^32
        pass
    else:
        if not _high_lanes(lanes | lanes + ((1 << 31) - n) * ones, ones):
            return lanes
    return pack([c % n for c in col])


def _repeat(col: int, bits: int, m: int) -> int:
    """`col` (below 2^bits) repeated m >= 1 times, the first copy lowest,
    by doubling.  The copies of m's top bit are shifted into place last,
    in `col` itself, so no temporary outgrows the result."""
    out = done = 0
    while m > 1:
        if m & 1:
            out |= col << done
            done += bits
        m >>= 1
        col |= col << bits
        bits *= 2
    col <<= done
    return col | out


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


def _column_positions(flat: list | bytes, orders, count: int) -> array:
    """Mixed-radix positions of `count` elements whose coordinates are
    listed one element after another in `flat`, all exactly ints (or bytes
    of numbers one a byte): column j is the strided slice
    ``flat[j::len(orders)]``, packed with `_pack_mod`."""
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


def _shape(pattern: bytes) -> re.Pattern:
    r"""``pattern`` with each space standing for JSON whitespace: only
    ``[ \t\n\r]``, not ``\s``, which also takes ``\x0b`` and ``\x0c``,
    which JSON refuses."""
    return re.compile(pattern.replace(b" ", rb"[ \t\n\r]*"))


# The automorphism file that `table_positions` reads:
#   {"generators": [{"kind": "permutation", "pairs": [PAIR, ...]}, ...]}
_HEAD = _shape(rb' \{ "generators" : \[ ')
_SPEC = _shape(rb'\{ "kind" : "permutation" , "pairs" : \[ ')
_NEXT = _shape(rb' \} (?:(,) |\] \} \Z)')  # after a pairs array
# A pair of int arrays ends in "]]" and its array in "]]]", so in a file
# of that shape the first "]]]" ends the array and each "]]," before it
# ends a pair; elsewhere a cut is a guess that the slice's checks refuse.
_LAST_PAIR = _shape(rb'\] \]( \])')
_PAIR_END = _shape(rb'\] \]( ,)')

# bytes of a pairs array decoded at a time (a slice then runs to the end
# of the pair it cuts into)
_SLICE = 1 << 16
# bytes of a file read at a time: the window holds a slice and what was
# read past it, about 2 * `_SLICE`
_READ = 1 << 16
# more bytes other than whitespace than a match of `_HEAD`, `_SPEC` or
# `_NEXT` holds
_TOKENS = 64

_WHITESPACE = b" \t\n\r"
# what a window may end in when a cut, "]]," whitespace aside, is cut short
_CUT_TAIL = b"]" + _WHITESPACE
# a "d" for each digit or "-" (and a "?" for a "d")
_MARK = bytes.maketrans(b"0123456789-d", b"d" * 11 + b"?")
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# `_small_numbers` reads a slice as a byte a digit or comma: 1 for a digit,
# 0 for anything else; or the digit's value plus one, 0 for a comma
_IS_DIGIT = bytes(c in b"0123456789" for c in range(256))
_DIGIT_LANES = bytes.maketrans(b"0123456789,", bytes(range(1, 11)) + b"\0")


def _stripped(data: bytes, chars: bytes) -> int:
    """``len(data.rstrip(chars))``, copying only the last 64 bytes of
    ``data`` when they hold some other byte."""
    tail = max(len(data) - 64, 0)
    kept = data[tail:].rstrip(chars)
    return tail + len(kept) if kept or not tail else len(data.rstrip(chars))


class _Window:
    """The bytes of an open binary file from the step being read on,
    `data`, read `_READ` bytes at a time, and `at`, the index in `data`
    where that step begins.

    When it reads on, the window forgets the bytes before `at`, and a run
    of whitespace at the end of `data` is first cut to its first byte.
    Each check of the walk reads a run of JSON whitespace of any length as
    it reads one byte of it, so the walk decides the same, and a run longer
    than a read costs no more than a short one."""

    def __init__(self, fh):
        self.fh = fh
        self.data = b""
        self.at = 0

    def more(self) -> bool:
        """Read on; False at the end of the file.  Indexes into `data`
        move back by the old `at`."""
        chunk = self.fh.read(_READ)
        if not chunk:
            return False
        data = self.data
        end = min(_stripped(data, _WHITESPACE) + 1, len(data))
        self.data = b"".join((memoryview(data)[self.at:end], chunk))
        self.at = 0
        return True

    def step(self, pattern: re.Pattern) -> re.Match | None:
        """``pattern.match`` at `at`, read on until the window decides it:
        a match that ends before the window's end, or a miss with at least
        `_TOKENS` bytes other than whitespace from `at` on; anything at the
        end of the file.  So ``\\Z`` matches only there.  A match moves
        `at` to its end."""
        while True:
            data = self.data
            m = pattern.match(data, self.at)
            decided = (m.end() < len(data) if m is not None else
                       len(data[self.at:].translate(None, _WHITESPACE)) >= _TOKENS)
            if decided or not self.more():
                break
        if m is not None:
            self.at = m.end()
        return m

    def cut(self) -> re.Match | None:
        """The first `_PAIR_END` at least `_SLICE` bytes past `at`, reading
        on until there is one or the file ends; or None.  After a read the
        search resumes where a cut short by the window's end would begin,
        at its tail of brackets and whitespace, so each byte is searched
        about once."""
        start = self.at + _SLICE
        while True:
            data = self.data
            m = _PAIR_END.search(data, start)
            if m is not None:
                return m
            start = max(start, _stripped(data, _CUT_TAIL)) - self.at
            if not self.more():
                return None


def table_positions(fh, orders) -> list[array] | None:
    """The positions of each table of an automorphism file of the shape
    above, read from ``fh``, the file open in binary mode, on a group with
    cyclic factor orders `orders` (order at most 2^31): one array per spec,
    of element and image positions alternately.  None for a file of any
    other shape.

    No tree is built, and the file is not held whole: it is read through a
    `_Window` of about two slices, and each pairs array is read a slice of
    about `_SLICE` bytes at a time, each cut just after a pair, and
    `_pairs_positions` turns each slice into positions at once.  The cuts
    fall only at the array's commas, so when every slice holds pairs of int
    arrays of the group's rank, ``json.loads`` of the whole file gives the
    same pairs, and no element in them is bad.  Any other slice, or any
    other byte between the slices, gives None; so do a file with no spec
    and an empty pairs array, which hold no pair to walk.  A file that is
    walked is ASCII, and the universal newlines of a text-mode read only
    turn whitespace into whitespace, so its bytes hold what its text
    holds."""
    window = _Window(fh)
    if window.step(_HEAD) is None:
        return None
    tables = []
    while True:
        if window.step(_SPEC) is None:
            return None
        pos = _pairs_positions(window, orders)
        if pos is None:
            return None
        tables.append(pos)
        m = window.step(_NEXT)
        if m is None:
            return None
        if m.group(1) is None:
            return tables


def _pairs_positions(window: _Window, orders) -> array | None:
    """The positions of the pairs array whose first pair is at the
    window's `at`, which is moved just past the array; or None.

    A slice runs from `at` to the first "]]," at least `_SLICE` bytes on,
    or to the end of the file.  It is read only when `_pair_count` finds it
    to be k pairs of arrays of r = len(orders) numbers.  A slice to the end
    of the file, or one that is not pairs alone, may hold the array's end,
    the first "]]]" (whitespace aside) from `at`, which no slice of pairs
    holds; it is then cut there and checked again.  So the end is sought
    only in the last slice of the array, not across all of it.

    A slice of k pairs holds 2rk slots, one between each two of its
    brackets and commas, with only digits, "-" and whitespace in them.
    When each slot is one number in 0-99, `_small_numbers` decodes them, a
    byte a number; otherwise the slice is decoded flat with
    ``json.loads``, each bracket read as a space, to exactly 2rk numbers.
    Every number ``json.loads`` accepts there is exactly an int (a float,
    a bool, null or a string has some other character), so no type pass
    is needed.  Column j of the slice's elements is the strided slice
    ``flat[j::r]``.  At rank 0 there is nothing to decode."""
    rank = len(orders)
    pos = array(LANE)
    while True:
        cut = window.cut()
        data, i = window.data, window.at
        last = k = None
        if cut is not None:
            part = data[i:cut.start(1)]
            k = _pair_count(part, rank)
        if k is None:  # the array may end in this slice
            last = _LAST_PAIR.search(data, i, len(data) if cut is None else cut.start(1))
            if last is None:
                return None
            part = data[i:last.start(1)]  # to just after the last pair
            k = _pair_count(part, rank)
            if k is None:
                return None
        flat = _small_numbers(part, 2 * rank * k) if rank else b""
        if flat is None:
            try:
                flat = json.loads(b"[" + part.translate(_UNBRACKET) + b"]")
            except ValueError:  # a malformed number, or one past the digit limit
                return None
            if len(flat) != 2 * rank * k:
                return None
        del part
        pos.extend(_column_positions(flat, orders, 2 * k))
        del flat
        if last is not None:
            window.at = last.end()
            return pos
        window.at = cut.end()


def _pair_count(part: bytes, rank: int) -> int | None:
    """k when `part` is k pairs of arrays of `rank` numbers, checked
    without decoding it; None otherwise.
    - Its skeleton, the slice without its digits, "-" and JSON whitespace,
      is k copies of ``[[,...,],[,...,]]`` (rank - 1 commas in each array)
      joined by commas, with k taken from the skeleton's length.
    - No digit or "-" stands just after a "]" or just before a "[",
      whitespace aside, so every number lies inside an element's array.
    At rank 0 the skeleton keeps its digits, so the slice must hold pairs
    of empty arrays alone."""
    pair = b"[[" + b"," * (rank - 1) + b"],[" + b"," * (rank - 1) + b"]]"
    marked = part.translate(_MARK, _WHITESPACE)
    skeleton = marked.translate(None, b"d" if rank else b"")
    k = (len(skeleton) + 1) // (len(pair) + 1)
    if skeleton != b",".join([pair] * k) or b"]d" in marked or b"d[" in marked:
        return None
    return k


def _small_numbers(part: bytes, count: int) -> bytes | None:
    """The numbers of a slice of `count` slots that `_pair_count` took,
    one byte each, when every slot holds one number in 0-99 written
    without a leading zero; None otherwise.

    The slice must hold no "-" and no run of three digits.  The rest is
    checked with a few big-int operations on 8-bit lanes, a lane a byte:
    - the slice's digit runs, whitespace parting them, number `count`;
    - with brackets and whitespace dropped, a lane holds a digit's value
      plus one or, for a comma, 0, so the slots are the runs of digit
      lanes between commas; their last digits number `count`, so no slot
      is empty, and then no slot holds two numbers either;
    - no digit lane with a digit after it holds a 0: no leading zero.
    Then each number's last digit lane gets 10 * the lane before it (0 for
    a comma) plus its own digit, and every other lane gets 0xFF, which is
    deleted."""
    digits = part.translate(_IS_DIGIT)
    if b"-" in part or b"\1\1\1" in digits:
        return None
    runs = int.from_bytes(digits, "little")
    del digits
    if (runs ^ runs & runs >> 8).bit_count() != count:  # digits before a non-digit
        return None
    del runs
    lanes = part.translate(_DIGIT_LANES, b"[]" + _WHITESPACE)
    # one lane more than the slice, which takes the top lane of x << 8
    ones = int.from_bytes(b"\1" * (len(lanes) + 1), "little")
    x = int.from_bytes(lanes, "little")
    digit = (x + 127 * ones) >> 7 & ones
    first = digit & digit >> 8  # a digit before a digit
    last = digit ^ first
    if last.bit_count() != count:
        return None
    x -= digit
    if first & (digit ^ (x + 127 * ones) >> 7):  # a first digit 0
        return None
    x += 10 * (x << 8)
    x |= 0xFF * (ones ^ last)
    return x.to_bytes(len(lanes) + 1, "little").translate(None, b"\xff")
