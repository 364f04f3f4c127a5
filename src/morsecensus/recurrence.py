"""Two-parameter recurrence table behind the census of Morse classes.

The table holds exact rationals T(x, y) for x + 2y <= W, filled in
increasing weight w = x + 2y:

    y = 0:           T(x, 0) = 2^-x
    x = 0, y > 0:    (2y+1) T(0,y) = T(1,y-1)
                         + (1/2) sum_{y1=0}^{y-1} T(0,y1) T(0,y-1-y1)
    x > 0, y > 0:    (x+2y+1) T(x,y) = (x+1) T(x+1,y-1) + ((x+1)/2) T(x-1,y)
                         + ((x+1)/2) sum_{0<=a<=x, 0<=b<=y-1} T(a,b) T(x-a,y-1-b)

with T(.,.) = 0 at any negative index.  Every right-hand entry has weight
< w, so the fill is well founded.  The number of Morse classes with 2n+2
critical points is g(n) = (2n+1)! * T(0,n).

Storage: the table keeps only the scaled integers
S'(x,y) = 2^(x+y) (x+2y+1)! T(x,y), one list per weight level, and derives
T when it is read.  Multiplying the recurrences by 2^(x+y) (x+2y)! turns
both into one formula with integer coefficients and no division:

    S'(x,0) = (x+1)!
    S'(x,y) = (x+1) [ S'(x+1,y-1) + S'(x-1,y)
                      + sum_{a,b} binom(x+2y, a+2b+1) S'(a,b) S'(x-a,y-1-b) ]

with S'(-1,y) = 0, which is the x = 0 case.  By induction on the weight,
every S' is an integer: the base row is, and each later entry is an
integer combination of entries of smaller weight.  g(n) = S'(0,n) / 2^n is
not covered by that argument, so :meth:`CensusTable.morse_count` checks it.
"""
from __future__ import annotations

import hashlib
import os
import re
import sys
from fractions import Fraction
from math import comb
from operator import mul

from .exactmath import factorial, parse_rational

__all__ = [
    "CensusTable",
    "build_table",
    "extend_table",
    "save_table",
    "load_table",
    "CacheFormatError",
    "CacheLockError",
    "TableRangeError",
    "ConsistencyError",
]

CACHE_MAGIC = "morse-htable v2"


class TableRangeError(ValueError):
    """Requested index lies outside the table's weight bound."""


class ConsistencyError(RuntimeError):
    """A value the recurrence makes integral is not an integer: a recurrence bug."""


class CacheFormatError(ValueError):
    """Cache file malformed; `line_no` names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"cache line {line_no}: {message}")
        self.line_no = line_no


class CacheLockError(OSError):
    """Another writer holds the cache lock."""


def _scale(x: int, y: int) -> int:
    """S'(x,y) / T(x,y)."""
    return (1 << (x + y)) * factorial(x + 2 * y + 1)


class CensusTable:
    """Completed triangular table; immutable and safe to share.

    `levels[w][y]` is S'(w - 2y, y) for every weight w <= the weight bound.
    """

    __slots__ = ("_weight_bound", "_levels")

    def __init__(self, weight_bound: int, levels: list[list[int]]):
        self._weight_bound = weight_bound
        self._levels = levels

    @property
    def weight_bound(self) -> int:
        return self._weight_bound

    @property
    def max_index(self) -> int:
        """Largest n with 2n <= weight bound."""
        return self._weight_bound // 2

    def entry(self, x: int, y: int) -> Fraction:
        if x < 0 or y < 0 or x + 2 * y > self._weight_bound:
            raise TableRangeError(
                f"entry ({x},{y}) outside table with weight bound {self._weight_bound}"
            )
        return Fraction(self._levels[x + 2 * y][y], _scale(x, y))

    def _scaled_count(self, n: int) -> int:
        if n < 0 or 2 * n > self._weight_bound:
            raise TableRangeError(
                f"n={n} needs weight bound >= {2 * n}, table has {self._weight_bound}"
            )
        return self._levels[2 * n][n]

    def normalized_count(self, n: int) -> Fraction:
        """T(0, n): the class count divided by (2n+1)!."""
        return Fraction(self._scaled_count(n), _scale(0, n))

    def morse_count(self, n: int) -> int:
        """Number of equivalence classes with 2n+2 critical points."""
        count, rest = divmod(self._scaled_count(n), 1 << n)
        if rest:
            raise ConsistencyError(
                f"(2n+1)! * T(0,{n}) is not an integer: recurrence implementation bug"
            )
        return count

    def items(self):
        """Entries ((x, y), T(x, y)) sorted by (weight, x)."""
        for w, level in enumerate(self._levels):
            for y in reversed(range(len(level))):
                yield (w - 2 * y, y), Fraction(level[y], _scale(w - 2 * y, y))

    def __len__(self) -> int:
        return sum(map(len, self._levels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensusTable):
            return NotImplemented
        return self._weight_bound == other._weight_bound and self._levels == other._levels


# ---------------------------------------------------------------------------
# fill routines


def _fill(levels: list[list[int]], weight_bound: int) -> None:
    """Append the levels of S' from len(levels) up to `weight_bound`."""
    for w in range(len(levels), weight_bound + 1):
        # conv[y] is the binomial sum for S'(w - 2y, y).  Its terms with
        # a + 2b = w1 pair level w1 with level w - 2 - w1, where C(w, w1 + 1) is
        # constant; swapping the two levels gives the same sum, so an unequal
        # pair is summed once and counted twice
        conv = [0] * (w // 2 + 1)
        for w1 in range(w // 2):
            w2 = w - 2 - w1
            left, right = levels[w1], levels[w2]
            c = comb(w, w1 + 1) << (w1 != w2)
            for y in range(1, w // 2 + 1):
                lo, hi = max(0, y - len(right)), min(len(left), y)
                conv[y] += c * sum(map(mul, left[lo:hi], reversed(right[y - hi:y - lo])))
        below = levels[w - 1] + [0]  # S'(-1, y) = 0
        level = [factorial(w + 1)]
        for y in range(1, w // 2 + 1):
            level.append((w - 2 * y + 1) * (below[y - 1] + below[y] + conv[y]))
        levels.append(level)


def _fill_fractions(entries: dict[tuple[int, int], Fraction], w_start: int, w_stop: int) -> None:
    """Reference fill in plain Fractions for weights in (w_start, w_stop]."""
    for w in range(w_start + 1, w_stop + 1):
        for y in range(w // 2 + 1):
            x = w - 2 * y
            if y == 0:
                entries[(x, 0)] = Fraction(1, 1 << x)
            elif x == 0:
                s = sum(entries[(0, y1)] * entries[(0, y - 1 - y1)] for y1 in range(y))
                entries[(0, y)] = (entries[(1, y - 1)] + s / 2) / (2 * y + 1)
            else:
                conv = sum(
                    entries[(a, b)] * entries[(x - a, y - 1 - b)]
                    for a in range(x + 1)
                    for b in range(y)
                )
                entries[(x, y)] = (
                    (x + 1) * entries[(x + 1, y - 1)]
                    + Fraction(x + 1, 2) * (entries[(x - 1, y)] + conv)
                ) / (x + 2 * y + 1)


def _pack(entries: dict[tuple[int, int], Fraction], weight_bound: int) -> list[list[int]]:
    """Levels of S' from a dict of T."""
    levels = []
    for w in range(weight_bound + 1):
        level = []
        for y in range(w // 2 + 1):
            s = entries[(w - 2 * y, y)] * _scale(w - 2 * y, y)
            if s.denominator != 1:
                raise ConsistencyError(f"entry ({w - 2 * y},{y}) does not scale to an integer")
            level.append(s.numerator)
        levels.append(level)
    return levels


def extend_table(table: CensusTable | None, weight_bound: int,
                 use_fractions: bool = False) -> CensusTable:
    """Pure extension of `table` (or a fresh build from None) to `weight_bound`.

    Returns the input unchanged when it already covers the bound.
    `use_fractions` runs the plain-Fraction reference fill, the oracle the
    tests hold the integer fill to.
    """
    if weight_bound < 0:
        raise ValueError("weight_bound must be >= 0")
    if table is None:
        table = CensusTable(0, [[1]])
    if table.weight_bound >= weight_bound:
        return table
    if use_fractions:
        entries = dict(table.items())
        _fill_fractions(entries, table.weight_bound, weight_bound)
        return CensusTable(weight_bound, _pack(entries, weight_bound))
    levels = list(table._levels)
    _fill(levels, weight_bound)
    return CensusTable(weight_bound, levels)


def build_table(weight_bound: int, cache_path: str | os.PathLike | None = None) -> CensusTable:
    """Build the table for all x + 2y <= weight_bound.

    With `cache_path`, a valid cache file is loaded and extended instead of
    recomputed, and the extension is written back (atomic rename).  A failed
    write, a held lock included, is reported on stderr and the table is
    returned anyway.  The returned table covers at least the requested
    bound; it is larger when the cache already was.
    """
    cached = None
    if cache_path and os.path.exists(cache_path):
        cached = load_table(cache_path)
        if cached.weight_bound >= weight_bound:
            return cached
    table = extend_table(cached, weight_bound)
    if cache_path:
        try:
            save_table(table, cache_path)
        except OSError as exc:
            print(f"warning: cache not written ({exc}); continuing compute-only",
                  file=sys.stderr)
    return table


# ---------------------------------------------------------------------------
# cache persistence

_HEADER_RE = re.compile(r"^morse-htable v2 W=(\d+) sha256=([0-9a-f]{64})$")
_V1_HEADER_RE = re.compile(r"^morse-htable v1 W=(\d+)$")
_V1_ENTRY_RE = re.compile(r"^(\d+) (\d+) (-?\d+(?:/\d+)?)$")


def save_table(table: CensusTable, path: str | os.PathLike) -> None:
    """Write the cache file: a header with W and the SHA-256 of the body, then
    one line per weight level w holding S'(w - 2y, y) for y = 0, 1, ...

    Takes an exclusive advisory lock (fail-fast) and replaces the file
    atomically, so an interrupted write never corrupts an existing cache.
    """
    body = [" ".join(map(str, level)) + "\n" for level in table._levels]
    digest = hashlib.sha256()
    for line in body:
        digest.update(line.encode())
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    lock_path = path + ".lock"
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CacheLockError(f"cache {path} is locked by another writer ({lock_path})")
    try:
        os.write(lock_fd, str(os.getpid()).encode())
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w") as fh:
            fh.write(f"{CACHE_MAGIC} W={table.weight_bound} sha256={digest.hexdigest()}\n")
            fh.writelines(body)
        os.replace(tmp_path, path)
    finally:
        os.close(lock_fd)
        os.unlink(lock_path)


def load_table(path: str | os.PathLike) -> CensusTable:
    """Read a cache file back; bit-exact inverse of :func:`save_table`.

    Files in the older v1 format (one "x y p/q" line per entry) are read too.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if m := _HEADER_RE.match(header):
            return _read_levels(fh, int(m.group(1)), m.group(2))
        if m := _V1_HEADER_RE.match(header):
            return _read_v1_entries(fh, int(m.group(1)))
    raise CacheFormatError(1, f"bad header {header!r}")


def _read_levels(fh, weight_bound: int, digest: str) -> CensusTable:
    body = hashlib.sha256()
    levels = []
    for line_no, line in enumerate(fh, start=2):
        body.update(line.encode())
        w = len(levels)
        try:
            level = [int(tok) for tok in line.split()]
        except ValueError:
            raise CacheFormatError(line_no, f"level {w} has a non-integer entry") from None
        if len(level) != w // 2 + 1:
            raise CacheFormatError(
                line_no, f"level {w} needs {w // 2 + 1} entries, line has {len(level)}"
            )
        levels.append(level)
    if len(levels) != weight_bound + 1:
        raise CacheFormatError(
            1, f"W={weight_bound} needs {weight_bound + 1} levels, file has {len(levels)}"
        )
    if body.hexdigest() != digest:
        raise CacheFormatError(1, "body does not match its sha256 digest")
    return CensusTable(weight_bound, levels)


def _read_v1_entries(fh, weight_bound: int) -> CensusTable:
    scaled: dict[tuple[int, int], int] = {}
    last_key = (-1, -1)
    for line_no, line in enumerate(fh, start=2):
        m = _V1_ENTRY_RE.match(line.rstrip("\n"))
        if not m:
            raise CacheFormatError(line_no, f"bad entry {line.rstrip()!r}")
        x, y = int(m.group(1)), int(m.group(2))
        if x + 2 * y > weight_bound:
            raise CacheFormatError(line_no, f"entry ({x},{y}) exceeds W={weight_bound}")
        key = (x + 2 * y, x)
        if key <= last_key:
            raise CacheFormatError(line_no, f"entry ({x},{y}) out of order or duplicated")
        last_key = key
        s = parse_rational(m.group(3)) * _scale(x, y)
        if s.denominator != 1:
            raise CacheFormatError(line_no, f"entry ({x},{y}) does not scale to an integer")
        scaled[(x, y)] = s.numerator
    expected = sum(w // 2 + 1 for w in range(weight_bound + 1))
    if len(scaled) != expected:
        raise CacheFormatError(
            1, f"W={weight_bound} needs {expected} entries, file has {len(scaled)}"
        )
    levels = [[scaled[(w - 2 * y, y)] for y in range(w // 2 + 1)]
              for w in range(weight_bound + 1)]
    return CensusTable(weight_bound, levels)
