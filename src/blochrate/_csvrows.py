"""CSV lines from a list of fields, formatted a block of rows at a time.

``blocks(fields, block_rows)`` joins the fields of each row by commas, one
line a row, a block of rows at a time. A field is a ``str``, written as is
on every line, or a float column, each value written as Python's ``'%.17g'``
writes it, byte for byte.

A value is formatted in numpy for every finite |x| in [1e-6, 1e17): with
e = floor(log10|x|), x times the exact double 10^(16-e) is carried as an
error-free product hi + lo, so round(hi + lo) is the 17-digit integer that
Python's correctly rounded ``'%.17g'`` prints. Its digits, trailing zeros cut,
are put in place by a layout table keyed by (sign, e, digit count). Zeros,
NaN, infinities, subnormals and the other magnitudes are formatted by
``'%.17g'`` one value at a time.
"""

from __future__ import annotations

import numpy as np

_E_MIN, _E_MAX = -6, 16     # the decimal exponents whose 10^(16-e) is an exact double
_WIDTH = 24                 # the longest '%.17g' text: "-2.2250738585072014e-308"
_POW10 = np.array([10.0 ** k for k in range(_E_MAX - _E_MIN + 1)])
_SPLIT = 134217729.0        # 2^27 + 1 splits a double into two 26-bit halves

# A value's source bytes are 24: three constants, its 17 digits, four more
# constants. The layout of a (sign, e, digit count) class lists, for each
# output byte, its source byte; NUL pads every text to _WIDTH. The digits are
# written as 4-byte words from _QUADS, the texts "0000" to "9999": byte
# strings viewed as integers whatever the byte order, and only ever viewed
# back as bytes.
_HEAD, _TAIL = b"\0-.", b"0e56"
_NUL, _MINUS, _POINT, _ZERO, _E, _FIVE, _SIX = 0, 1, 2, 20, 21, 22, 23
_DIGIT = 3                  # the source byte of the leading digit
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
_QUADS = np.column_stack([_PAIRS.repeat(100), np.tile(_PAIRS, 100)]).view(np.uint32).ravel()
_GATHER_ROWS = 512          # rows per gather: bounds its index array to 96 KB


def _layout(e: int, nd: int) -> list[int]:
    """Source bytes of '%.17g' of a value in [1e-6, 1e17) with exponent e and nd digits."""
    digits = list(range(_DIGIT, _DIGIT + max(nd, e + 1)))   # with the zeros of 100 and such
    out = []
    if e >= 0:
        out += digits[:e + 1] + ([_POINT] + digits[e + 1:] if nd > e + 1 else [])
    elif e >= -4:
        out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
    else:
        out += digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
        out += [_E, _MINUS, _ZERO, _FIVE if e == -5 else _SIX]
    return out + [_NUL] * (_WIDTH - len(out))


# class (negative, e, nd) is row (negative * 23 + e - _E_MIN) * 17 + nd - 1; a
# negative text is the positive one after a minus sign (none fills _WIDTH)
_POSITIVE = np.array([_layout(e, nd) for e in range(_E_MIN, _E_MAX + 1)
                      for nd in range(1, 18)], dtype=np.uint8)
_LAYOUTS = np.concatenate([_POSITIVE, np.pad(_POSITIVE[:, :-1], ((0, 0), (1, 0)),
                                             constant_values=_MINUS)])


def _scaled(ax, e):
    """hi + lo = ax * 10^(16-e) exactly (Dekker's product), hi = fl(ax * 10^(16-e))."""
    p = _POW10[_E_MAX - e]
    hi = ax * p
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    c = _SPLIT * p
    ph = c - (c - p)
    pl = p - ph
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi, lo


def _shift(hi, lo):
    """-1 where hi + lo < 1e16, +1 where it is at least 1e17, else 0."""
    return (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).view(np.int8)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).view(np.int8))


def _python_field(values) -> np.ndarray:
    """``'%.17g' % v`` of each value, NUL-padded to the longest, as a uint8 (len, width) array."""
    texts = [b"%.17g" % v for v in values.tolist()]
    width = max(map(len, texts), default=0)
    joined = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(texts), width)


def _source(n):
    """The (len(n), 24) source bytes of 17-digit integers n: _HEAD, the digits, _TAIL."""
    # n = lead·10^16 + q0·10^12 + q1·10^8 + q2·10^4 + q3
    high, low = np.divmod(n, 10 ** 8)
    lead, q0 = np.divmod(high // 10 ** 4, 10 ** 4)
    words = np.empty((len(n), 6), dtype=np.uint32)
    words[:, 0] = np.frombuffer(_HEAD + b"0", dtype=np.uint32)
    words[:, 1] = _QUADS[q0]
    words[:, 2] = _QUADS[high % 10 ** 4]
    words[:, 3] = _QUADS[low // 10 ** 4]
    words[:, 4] = _QUADS[low % 10 ** 4]
    words[:, 5] = np.frombuffer(_TAIL, dtype=np.uint32)
    src = words.view(np.uint8)
    src[:, _DIGIT] += lead.astype(np.uint8)
    return src


def _digits(x):
    """(src, e, fast): |x| = n·10^(e-16) to 17 digits, with n as _source's bytes.

    ``fast`` marks the finite |x| in [1e-6, 1e17) whose exponent e lies in
    [_E_MIN, _E_MAX]; src and e are meaningless elsewhere.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-6) & (ax < 1e17)          # False for NaN
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    hi, lo = _scaled(ax, e)
    shift = _shift(hi, lo)
    if shift.any():                             # log10 rounded across a power of ten
        e += shift
        fast &= (e >= _E_MIN) & (e <= _E_MAX)   # 1e-6 itself lies below 10^-6
        np.clip(e, _E_MIN, _E_MAX, out=e)
        hi, lo = _scaled(ax, e)
    # hi is an even integer (at least 2^53), so rint's ties-to-even rounds
    # hi + lo to even. No value here rounds up to 10^17: that takes a double
    # within 5e-18 below a power of ten, and the doubles next below 10^-5 ...
    # 10^16 are all further off (the powers-of-ten test holds each of them)
    return _source(hi.astype(np.int64) + np.rint(lo).astype(np.int64)), e, fast


def _format_g17(x, out) -> None:
    """Write '%.17g' of each value of ``x`` into a row of ``out`` (len(x), _WIDTH), NUL-padded."""
    src, e, fast = _digits(x)
    key = ((x < 0) * (_E_MAX - _E_MIN + 1) + e - _E_MIN) * 17 + 16
    key -= np.argmax(src[:, _DIGIT + 16:_DIGIT - 1:-1] != ord("0"), axis=1)  # trailing 0s
    starts = np.arange(min(len(x), _GATHER_ROWS))[:, None] * src.shape[1]
    for lo in range(0, len(x), _GATHER_ROWS):
        index = np.take(_LAYOUTS, key[lo:lo + _GATHER_ROWS], axis=0)
        out[lo:lo + _GATHER_ROWS] = np.take(src[lo:].ravel(), index + starts[:len(index)])

    slow = np.flatnonzero(~fast)             # their layouts are in range, but wrong
    if len(slow):
        out[slow] = 0
        text = _python_field(x[slow])
        out[slow, :text.shape[1]] = text


def blocks(fields, block_rows: int):
    """The lines of ``fields``, ``block_rows`` rows at a time: one str a block.

    Each line joins its row's fields by commas. A ``str`` field is the same
    text on every line; any other field is a column of floats, one value a
    line, written as ``'%.17g'``. A column is only read by slices (the first
    also by length), so it may compute each slice.
    """
    texts = [field.encode() if isinstance(field, str) else None for field in fields]
    size = next(len(field) for field, text in zip(fields, texts) if text is None)
    # every line at once: the text fields in place, NULs in each column's slot
    line = b",".join(b"\0" * _WIDTH if text is None else text for text in texts) + b"\n"
    slots, at = [], 0           # each column with the offset of its slot in line
    for field, text in zip(fields, texts):
        if text is None:
            slots.append((field, at))
        at += (_WIDTH if text is None else len(text)) + 1
    for lo in range(0, size, block_rows):
        yield _lines(line, [(field[lo:lo + block_rows], at) for field, at in slots])


def _lines(line: bytes, columns) -> str:
    """A copy of ``line`` per row, each (values, offset) column written into its slot."""
    out = bytearray(line) * len(columns[0][0])
    buf = np.frombuffer(out, dtype=np.uint8).reshape(-1, len(line))
    for values, at in columns:
        _format_g17(np.asarray(values, dtype=float), buf[:, at:at + _WIDTH])
    return out.translate(None, b"\0").decode()
