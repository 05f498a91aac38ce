"""Deterministic number formatting shared by tables and reports.

Every float is written as its shortest round-trip representation, the text
of Python's repr: byte-stable across runs and lossless (the printed value
parses back to the exact float64). fmt_float formats the few scalars of
headers and reports with repr itself; table_body renders the bodies of
tables in numpy, block by block, with the same bytes.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np


def fmt_float(value: float) -> str:
    return repr(float(value))


def fmt_complex(value: complex) -> str:
    z = complex(value)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


# The shortest decimal is found with Schubfach (R. Giulietti, "The Schubfach
# way to render doubles", 2020; the variant of OpenJDK's DoubleToDecimal,
# without its two-digit minimum). A positive finite double is c 2^q. With
# k = floor(log10 2^q) (of 3/4 2^q at the irregular spacing below a power of
# two), g = floor(10^-k 2^-r) + 1 for the r that puts g in [2^125, 2^126),
# and h = q + floor(log2 10^-k) + 2, round-to-odd products of g with the
# scaled interval ends give 4 c 2^q 10^-k and its rounding interval at a
# precision that decides the shortest decimal f 10^k in the interval, and
# the nearest one (ties to even) when two are as short.

_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFFFFFF
_M63 = 0x7FFFFFFFFFFFFFFF


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233, of an int or an int64 array."""
    return (e * 913124641741) >> 38


def _g_table() -> np.ndarray:
    """g for k = _K_MIN.._K_MAX, exact from Python ints, as rows of g's high
    63 bits g1, then the 32-bit halves of g1 and of its low 63 bits g0."""
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // powers[k] + 1
        else:
            g = (powers[-k] << -r if r < 0 else powers[-k] >> r) + 1
        g1, g0 = g >> 63, g & _M63
        columns.append((g1, g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32))
    return np.array(columns, dtype=np.uint64).T.copy()


_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)


def _key_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k - _K_MIN, h and the left end's offset from 4 c, by the key of a
    double: its biased exponent, plus 2048 when its fraction field is zero."""
    be = np.arange(4096) % 2048
    q = np.maximum(be, 1) - 1075
    irregular = (np.arange(4096) >= 2048) & (be > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + _flog2pow10(-k) + 2
    left = np.where(irregular, 1, 2)
    return (k - _K_MIN).astype(np.int16), h.astype(np.uint8), left.astype(np.uint8)


#: Whether (s + 1) 10^k is nearer than s 10^k, by the low three bits of vb:
#: bits 0-1 place 4 v 10^-k in [4 s, 4 s + 4) (rounded to odd, so 2 is the
#: exact midpoint) and bit 2 is the parity of s, for ties to even.
_ROUNDS_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)


def _rounded_interval(c: np.ndarray, key: np.ndarray, k: np.ndarray,
                      tables: SimpleNamespace) -> np.ndarray:
    """vb = g cp / 2^127 rounded to odd, for cp the scaled left end, middle
    and right end of each rounding interval, as a (3, m) array. Its
    temporaries are freed on return, before _shortest's own."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = tables.g.take(k, axis=1)
    cp = np.empty((3, c.size), dtype=np.uint64)
    np.left_shift(c, 2, out=cp[1])
    np.subtract(cp[1], tables.key_left.take(key), out=cp[0])
    np.add(cp[1], 2, out=cp[2])
    cp <<= tables.key_h.take(key)

    def mulhi(b_lo, b_hi, out):
        # The high 64 bits of b cp for b < 2^63 and cp < 2^62.
        np.multiply(b_lo, cp_lo, out=out)
        out >>= 32
        out += np.multiply(b_hi, cp_lo, out=term)
        out += np.multiply(b_lo, cp_hi, out=term)
        out >>= 32
        out += np.multiply(b_hi, cp_hi, out=term)
        return out

    # The floor of g cp / 2^127, with the low bit set when the 63 bits
    # below it that the products keep are not all zero.
    z = g1 * cp
    z >>= 1
    cp_lo = cp & _M32
    cp_hi = np.right_shift(cp, 32, out=cp)  # cp's buffer, which z no longer needs
    term = np.empty_like(cp)
    vb = np.empty_like(cp)
    z += mulhi(g0_lo, g0_hi, vb)
    mulhi(g1_lo, g1_hi, vb)
    vb += np.right_shift(z, 63, out=term)
    z &= _M63
    z += _M63
    z >>= 63
    vb |= z
    return vb


def _shortest(bits: np.ndarray, tables: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal f 10^k that rounds to each positive finite
    double, nearest to it among the shortest, from the doubles' bits:
    f as uint64 (trailing zeros possible), k - _K_MIN as int16."""
    be = (bits >> 52).view(np.int64)
    c = bits & 0xFFFFFFFFFFFFF
    key = (c == 0).astype(np.intp)
    key <<= 11
    key += be
    np.bitwise_or(c, 1 << 52, out=c, where=be != 0)
    k = tables.key_k.take(key)
    vbl, vb, vbr = _rounded_interval(c, key, k, tables)

    out = c & 1
    vbl += out  # the left end, moved in when c is odd
    vbr -= out
    s = vb >> 2
    sp10 = s // 10
    sp10 *= 10
    # One multiple of 10^(k+1) in the interval is the shortest; otherwise
    # the one of s 10^k and (s + 1) 10^k in it, or the nearer of the two.
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    s4 = vb & ~np.uint64(3)
    uin = vbl <= s4
    s4 += 4
    win = s4 <= vbr
    f = s + np.where(uin != win, win, _ROUNDS_UP.take((vb & 7).astype(np.intp)))
    return np.where(upin != wpin, sp10 + wpin.astype(np.uint64) * 10, f), k


# Each value's text is gathered from 40 bytes of its own, five little-endian
# words: its 17 significant digits with trailing zeros, after seven "0"s;
# its three exponent digits, its separator and a zero byte; the constants
# of _ALPHABET.
_ALPHABET = {"0": 0, "-": 32, ".": 33, "e": 34, "+": 35, "i": 36, "n": 37, "f": 38, "a": 39}
_DIGIT = 7  # the 17 significant digits: bytes 7..23
_EXP = 24  # three exponent digits: bytes 24..26
_SEP = 27  # "," or "\n"
_NUL = 28  # a zero byte: pads a layout to _WIDTH
_ROW = 40
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator

# Layout codes: positional for decimal point positions dp -3..16 (the value
# is 0.d1d2... 10^dp) by digit count, exponent notation by exponent sign and
# width by digit count, then 0.0, inf and nan; the same again with a sign.
_POSITIONAL = 20 * 17
_ZERO = _POSITIONAL + 4 * 17
_INF, _NAN = _ZERO + 1, _ZERO + 2
_CODES = _NAN + 1


def _layout(code: int) -> list[int]:
    """The byte indices (into a value's row) of the text of an unsigned
    layout code, with its separator."""
    digits = list(range(_DIGIT, _DIGIT + 17))
    if code < _POSITIONAL:
        dp, nd = divmod(code, 17)
        dp, nd = dp - 3, nd + 1
        if dp <= 0:
            body = [_ALPHABET[ch] for ch in "0." + "0" * -dp] + digits[:nd]
        elif dp < nd:
            body = digits[:dp] + [_ALPHABET["."]] + digits[dp:nd]
        else:
            body = digits[:dp] + [_ALPHABET["."], _ALPHABET["0"]]
    elif code < _ZERO:
        form, nd = divmod(code - _POSITIONAL, 17)
        negative_exponent, wide = divmod(form, 2)
        nd += 1
        body = digits[:1] + ([_ALPHABET["."]] + digits[1:nd] if nd > 1 else [])
        body += [_ALPHABET["e"], _ALPHABET["-" if negative_exponent else "+"]]
        body += list(range(_EXP + 1 - wide, _EXP + 3))
    else:
        body = [_ALPHABET[ch] for ch in ("0.0", "inf", "nan")[code - _ZERO]]
    return body + [_SEP]


def _layout_table() -> np.ndarray:
    """Byte indices by layout code, padded with _NUL; a sign is a leading
    "-" for every code but nan's."""
    rows = b"".join(bytes(_layout(code)).ljust(_WIDTH, bytes([_NUL])) for code in range(_CODES))
    table = np.empty((2 * _CODES, _WIDTH), dtype=np.uint8)
    table[:_CODES] = np.frombuffer(rows, dtype=np.uint8).reshape(_CODES, _WIDTH)
    table[_CODES:, 0] = _ALPHABET["-"]
    table[_CODES:, 1:] = table[:_CODES, :-1]
    table[_CODES + _NAN] = table[_NAN]
    return table


def _dp_tables() -> tuple[np.ndarray, np.ndarray]:
    """By dp - _K_MIN: the layout code of a finite nonzero value with dp,
    less its digit count and sign, and the exponent digits of its row."""
    dp = np.arange(_K_MIN, _K_MAX + 18)
    code_base = np.where(
        (dp >= -3) & (dp <= 16),
        (dp + 3) * 17,
        _POSITIONAL + ((dp < 1) * 2 + (abs(dp - 1) >= 100)) * 17,
    ) - 1
    e10 = np.abs(dp - 1).astype(np.uint64)
    return code_base, (e10 // 100) | (e10 // 10 % 10) << 8 | (e10 % 10) << 16 | 0x303030


@functools.cache
def _tables() -> SimpleNamespace:
    """The constant tables, built for the first table rendered: a process
    that writes no table neither builds nor keeps them."""
    key_k, key_h, key_left = _key_tables()
    code_base, exponent = _dp_tables()
    return SimpleNamespace(g=_g_table(), key_k=key_k, key_h=key_h, key_left=key_left,
                           layouts=_layout_table(), code_base=code_base, exponent=exponent)


_CONSTANTS = int.from_bytes(b"-.e+infa", "little")

#: Values rendered per block. A larger block spreads the cost of render's
#: numpy calls over more values, but its buffers and temporaries raise the
#: peak memory of the process: against 1024, 2048 renders a 5 x 4001 table
#: in about 15% less CPU time and peaks at 0.88 MB, not 0.57; 4096 saves
#: about 5% more and peaks at 1.5 MB.
_BLOCK = 2048
#: Values gathered per call: the gather index takes 200 bytes a value, so it
#: is built in slices, 200 KB whatever the block.
_GATHER = 1024


def _swar_digits(x: np.ndarray) -> np.ndarray:
    """x, each < 10^8, in place as its 8 decimal digits, one per byte, the
    first in the low byte (so a little-endian word's bytes read in order)."""
    hi = x // 10000
    x -= hi * 10000
    x <<= 32
    x |= hi
    t = x * 10486  # then x // 100 in each 32-bit lane
    t >>= 20
    t &= 0x0000007F0000007F
    x -= t * 100
    x <<= 16
    x |= t
    t = x * 103  # then x // 10 in each 16-bit lane
    t >>= 10
    t &= 0x000F000F000F000F
    x -= t * 10
    x <<= 8
    x |= t
    return x


class _Block:
    """The buffers of one block of values, reused from block to block."""

    def __init__(self, size: int, width: int) -> None:
        self.tables = _tables()
        self.values = np.empty((size // width, width))
        self.words = np.empty((size, 5), dtype="<u8")  # _ROW bytes per value
        self.words[:, 4] = _CONSTANTS
        separators = np.full(width, ord(","), dtype=np.uint64)
        separators[-1] = ord("\n")
        self.separators = np.resize(separators << (8 * (_SEP - _EXP)), size)
        self.base = np.arange(0, size * _ROW, _ROW, dtype=np.intp)[:, None]
        self.index = np.empty((min(size, _GATHER), _WIDTH), dtype=np.intp)
        self.text = np.empty((size, _WIDTH), dtype=np.uint8)

    def render(self, rows: int) -> bytes:
        """The text of the first rows of self.values."""
        values = self.values[:rows].reshape(-1)
        m = values.size
        bits = values.view(np.uint64) & 0x7FFFFFFFFFFFFFFF
        special = (bits - 1) >= 0x7FEFFFFFFFFFFFFF  # zero, inf or nan
        where_special = np.flatnonzero(special) if special.any() else None
        if where_special is not None:
            special_bits = bits[where_special]
            bits[where_special] = 0x3FF0000000000000  # 1.0 in their place

        tables = self.tables
        f, k = _shortest(bits, tables)
        nd_raw = np.searchsorted(_POW10, f, side="right")
        d17 = f * _POW10.take(17 - nd_raw)  # 17 digits, trailing zeros padded
        digits = np.empty((3, m), dtype=np.uint64)
        np.floor_divide(d17, 10 ** 16, out=digits[0])
        d17 -= digits[0] * 10 ** 16
        np.floor_divide(d17, 10 ** 8, out=digits[1])
        np.subtract(d17, digits[1] * 10 ** 8, out=digits[2])
        digits[0] <<= 56  # one digit, the last byte of its word
        _swar_digits(digits[1:])
        # The digit count without trailing zeros, from the highest nonzero
        # byte of the words of digits 2-9 and 10-17: the exponent of the word
        # as a float64 (exact, as each byte is below 16).
        exponent = np.frexp(digits[1:].astype(np.float64))[1]
        nd = ((exponent[0] - 1) >> 3) + 2
        np.maximum(nd, (((exponent[1] - 1) >> 3) + 10) * (exponent[1] > 0), out=nd)
        digits |= 0x3030303030303030
        words = self.words[:m]
        words[:, :3] = digits.T
        dp = k + nd_raw  # dp - _K_MIN, for the value 0.d1d2... 10^dp
        np.bitwise_or(tables.exponent.take(dp), self.separators[:m], out=words[:, 3])

        code = tables.code_base.take(dp)
        code += nd
        code += np.signbit(values) * _CODES
        if where_special is not None:
            code[where_special] = (
                np.where(special_bits == 0, _ZERO,
                         np.where(special_bits == 0x7FF0000000000000, _INF, _NAN))
                + np.signbit(values[where_special]) * _CODES
            )
        source = self.words.view(np.uint8).reshape(-1)
        for start in range(0, m, _GATHER):
            stop = min(m, start + _GATHER)
            index = self.index[:stop - start]
            np.add(tables.layouts.take(code[start:stop], axis=0), self.base[start:stop], out=index)
            source.take(index, out=self.text[start:stop])
        return self.text[:m].tobytes().translate(None, b"\0")


def table_body(columns) -> Iterator[bytes]:
    """Rows of float64 columns as text, a block of rows at a time: each
    value as repr writes it, values joined by "," and each row ended by
    "\\n". Taken block by block, the text of a table is never held whole."""
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    n, width = len(columns[0]), len(columns)
    block_rows = max(1, _BLOCK // width)
    block = _Block(min(n, block_rows) * width, width)
    for start in range(0, n, block_rows):
        stop = min(n, start + block_rows)
        for j, column in enumerate(columns):
            block.values[:stop - start, j] = column[start:stop]
        yield block.render(stop - start)
