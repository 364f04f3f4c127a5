"""Two-parameter recurrence table behind the census of Morse classes.

The commands that need only the counts g(n) (`census`, `table` and
`verify bounds|conjecture|elliptic`) take them from the one-variable route
of :mod:`inversion`.  The table is read where it is the subject:
`verify pde` needs T(x, y) off the diagonal, `oracle` holds it to the
enumerated trees, and the tests hold the one-variable route to it.  Only
these read and write the cache file (:func:`build_table`).

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

Filling a level: read level k as the polynomial L_k(z) = sum_y S'(k-2y, y) z^y
of degree floor(k/2).  The binomial sums of level w, grouped by a + 2b = w1,
are the coefficients of

    V(z) = sum_{w1 + w2 = w - 2} binom(w, w1 + 1) L_{w1}(z) L_{w2}(z):

the sum for S'(w-2y, y) is the coefficient of z^(y-1).  V has integer
coefficients and degree at most floor(w1/2) + floor(w2/2) <= n - 1, where
n = floor(w/2), so its values at the n points 0..n-1 determine it.  The
fill evaluates V there, about w^2/4 products of big integers per level
against about w^3/48 for the convolution taken coefficient by coefficient,
and interpolates in integers with Newton's forward-difference form
V(x) = sum_k (D^k V(0) / k!) x(x-1)...(x-k+1).  The divisions are exact:
for an integer polynomial, D^k x^m at 0 is k! times a Stirling number of
the second kind, so every D^k V(0) is a multiple of k!.  A remainder means
the values are not those of an integer polynomial, which only a bug can
cause; it raises ConsistencyError.
"""
from __future__ import annotations

import fcntl
import hashlib
import os
import re
import sys
from fractions import Fraction
from math import comb
from operator import mul, sub

from .exactmath import ConsistencyError, TableRangeError, factorial

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensusTable):
            return NotImplemented
        return self._weight_bound == other._weight_bound and self._levels == other._levels


# ---------------------------------------------------------------------------
# fill routines


def _sums(levels: list[list[int]], values: dict[int, list[int]], w: int,
          points: list[int]) -> list[int]:
    """V(p) = sum of C(w, w1 + 1) L_{w1}(p) L_{w - 2 - w1}(p) over w1, at each p in `points`.

    L_k is level k as a polynomial in z, sum_y S'(k - 2y, y) z^y.  The sum
    runs over the pairs of levels w1 <= w2 = w - 2 - w1; swapping the two
    levels gives the same term, so an unequal pair is counted twice.
    `values[p]` holds L_0(p), L_1(p), ...; it is extended here, by Horner's
    rule, to the levels <= w - 2 that level w reads.
    """
    half = w // 2
    coeffs = [comb(w, w1 + 1) << (w1 != w - 2 - w1) for w1 in range(half)]
    sums = []
    for p in points:
        col = values.setdefault(p, [])
        for level in levels[len(col):w - 1]:
            acc = 0
            for c in reversed(level):
                acc = acc * p + c
            col.append(acc)
        sums.append(sum(map(mul, map(mul, coeffs, col), reversed(col[w - 1 - half:w - 1]))))
    return sums


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients of the integer polynomial of degree < len(values) that
    takes `values` at 0, 1, 2, ...; ConsistencyError if there is none.

    Newton's forward-difference form f(x) = sum_k (D^k f(0) / k!) x(x-1)...(x-k+1),
    expanded by nested multiplication with (x - k).
    """
    newton = []
    diffs, fact = values, 1
    for k in range(len(values)):
        q, r = divmod(diffs[0], fact)
        if r:
            raise ConsistencyError(f"D^{k} f(0) = {diffs[0]} is not a multiple of {k}!: "
                                   "the values are not an integer polynomial's")
        newton.append(q)
        diffs = list(map(sub, diffs[1:], diffs))
        fact *= k + 1
    coeffs: list[int] = []
    for k in reversed(range(len(newton))):
        coeffs = list(map(sub, [0, *coeffs], [k * c for c in coeffs] + [0]))
        coeffs[0] += newton[k]
    return coeffs


def _fill(levels: list[list[int]], weight_bound: int) -> None:
    """Append the levels of S' from len(levels) up to `weight_bound`.

    Level w needs the coefficients of z^0..z^(n-1), n = w // 2, of the
    polynomial V of :func:`_sums`.  They come from its values at the n
    points 0..n-1 by :func:`_interpolate`.
    """
    values: dict[int, list[int]] = {}
    for w in range(len(levels), weight_bound + 1):
        n = w // 2
        conv = [0, *_interpolate(_sums(levels, values, w, list(range(n))))]
        below = levels[w - 1] + [0]  # S'(-1, y) = 0
        level = [factorial(w + 1)]
        for y in range(1, n + 1):
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


def save_table(table: CensusTable, path: str | os.PathLike) -> None:
    """Write the cache file: a header with W and the SHA-256 of the body, then
    one line per weight level w holding S'(w - 2y, y) for y = 0, 1, ...

    Holds an exclusive `flock` on `<path>.lock` (fail-fast) while it replaces
    the file atomically, so an interrupted write never corrupts an existing
    cache.  Under the lock it reads the existing file's header, and it writes
    nothing when that names a larger W: another command saved a larger table
    after this one loaded the cache, and a cache never shrinks.  The kernel
    drops the lock when its holder exits or is killed, so a dead writer never
    leaves the cache locked; the lock file itself stays.
    The levels are streamed: the header is written with a placeholder of the
    digest's length and rewritten once the body has been hashed.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    lock_path = path + ".lock"
    lock_fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CacheLockError(f"cache {path} is locked by another writer ({lock_path})")
        try:
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                m = _HEADER_RE.match(fh.readline().rstrip("\n"))
        except FileNotFoundError:
            m = None
        if m and int(m.group(1)) > table.weight_bound:
            return
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as fh:
                header = f"{CACHE_MAGIC} W={table.weight_bound} sha256=".encode()
                fh.write(header + b"0" * 64 + b"\n")
                digest = hashlib.sha256()
                for level in table._levels:
                    line = (" ".join(map(str, level)) + "\n").encode()
                    digest.update(line)
                    fh.write(line)
                fh.seek(len(header))
                fh.write(digest.hexdigest().encode())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    finally:
        os.close(lock_fd)


def load_table(path: str | os.PathLike) -> CensusTable:
    """Read a cache file back; bit-exact inverse of :func:`save_table`.

    A file in the older v1 format carries no digest, so it is refused on its
    first line; delete it to rebuild the cache.  Bytes that are not UTF-8 are
    read as lone surrogates, which no pattern or number accepts, so they
    raise CacheFormatError naming their line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if m := _HEADER_RE.match(header):
            return _read_levels(fh, int(m.group(1)), m.group(2))
    if header.startswith("morse-htable v1 "):
        raise CacheFormatError(1, "v1 file carries no digest; delete it to rebuild the cache")
    raise CacheFormatError(1, f"bad header {header!r}")


def _read_levels(fh, weight_bound: int, digest: str) -> CensusTable:
    body = hashlib.sha256()
    levels = []
    for line_no, line in enumerate(fh, start=2):
        body.update(line.encode(errors="surrogateescape"))
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
