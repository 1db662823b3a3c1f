"""CSV tables of ``%.17g`` values, formatted a block of values at a time by one numpy kernel.

The coefficient, trajectory and path writers each pass a header and their columns to
``_write_rows``, which formats whole rows, at most ``_BLOCK_VALUES`` values a block, and can
write more tables from a block's cells: a simulate's path.csv takes the t, mu, lambda and
discord cells of its trajectory.csv rows.  Every value is written as the bytes of
``'%.17g' % v``: 17 significant digits, correctly rounded (ties to even), so that it reads
back exactly.  The kernel makes those bytes for a whole block:

- Digits.  For a finite x with 1e-98 <= |x| < 1e16, E = floor(log10|x|) and
  D = round(|x| 10^(16-E)), the 17 digits.  10^(16-E) = hi + lo is a pair of doubles
  taken from the exact integer; |x| hi is formed exactly as a Dekker two-product,
  and |x| lo adds an absolute error below ~1e-14 to a product of 1e16 to 1e17
  (measured: below 3e-15).  So D is exact unless the product's fraction lies within
  ``_TIE`` of 1/2.  Those values go to ``%``, and so do the few whose product falls
  below 1e16 (log10 rounded up to E near a power of ten) or rounds up to 1e17 (the
  value rounds into the next decade).
- Text.  The digits come from a 4-digit table and lose their trailing zeros, and
  ``%g``'s layout applies: fixed notation for -4 <= E < 17, ``d.ddde-XX`` below.
  Each value fills a fixed slot of 25 bytes by a gather from its 28 bytes of parts
  (digits, point, exponent, sign); each table sets its separators in the last byte and
  deletes the absent (0) bytes.  Zeros are ``0`` and ``-0``.

Every other value (NaN, +-inf, subnormals, exponents outside the window, near
ties) is written by ``'%.17g' % v``, the reference the tests compare the kernel
against.  The value alone selects the path.
"""
from __future__ import annotations

from functools import cache
from typing import IO, Sequence

import numpy as np

_BLOCK_VALUES = 4096  # a block's values: 8 columns x 512 rows, the widest table's
_TIE = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's product
# A value's 28 bytes of parts: 0-15 digits 1-16, 16 digit 0, 17 '.', 18 '0', 19 'e',
# 20 '-', 21-22 the exponent's two digits, 23 the sign ('-' or absent), 24 the
# separator, 25-27 absent (0).
_DOT, _ZERO, _EXP, _SIGN, _SEP, _ABSENT = 17, 18, 19, 23, 24, 25
_WORD4 = 48 | ord(".") << 8 | ord("0") << 16 | ord("e") << 24
_MINUS_IN_WORD5 = ord("-") << 24


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's constant tables, built on first use so that importing stays cheap, and
    from Python lists so that building them runs no numpy code the kernel does not:

    - p10: rows hi, lo, hi_hi, hi_lo of 10^k, column k = 16 - E for E in [-99, 16];
    - digits4: ASCII of 0000-9999, first digit in the low byte of a 32-bit word;
    - zeros4: the trailing zeros of 0000-9999 (4 for 0000);
    - word5: by E + 99 for E in [-99, 16], '-' and the exponent's two digits;
    - form_row: by E + 99, the layout row of E's form with 17 digits;
    - layouts: per (form, digit count), the 25 byte sources of a slot.
    """
    hi = [float(10**k) for k in range(116)]
    hi_hi = [h * _SPLIT - (h * _SPLIT - h) for h in hi]
    p10 = np.array([hi, [float(10**k - int(h)) for k, h in enumerate(hi)], hi_hi,
                    [h - hh for h, hh in zip(hi, hi_hi)]])
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")
    digits4 = np.empty((100, 100, 2), "<u2")
    digits4[..., 0] = pairs[:, None]
    digits4[..., 1] = pairs
    zeros4 = [0] * 10_000
    for k, step in enumerate((10, 100, 1000, 10_000), 1):
        zeros4[::step] = [k] * (10_000 // step)
    exponents = range(-99, 17)
    tables = (p10, digits4.view("<u4").ravel(), np.array(zeros4, np.int32),
              np.frombuffer(b"".join(b"-%02d\0" % abs(e) for e in exponents), "<u4"),
              np.array([(21 if e < -4 else e + 4) * 17 + 16 for e in exponents]),
              _layouts())
    for table in tables:
        table.flags.writeable = False
    return tables


def _layouts() -> np.ndarray:
    """Byte sources of each (form, digit count), row form * 17 + digits - 1; form E + 4
    is fixed notation for E in [-4, 16], form 21 is d.ddde-XX.  A slot is the sign, the
    text as %g lays it out, absent bytes up to 23, then the separator."""
    digit = [16] + list(range(16))  # part byte of digit j
    rows = []
    for form in range(22):
        e = form - 4
        for nd in range(1, 18):
            if form == 21:
                exponent = list(range(_EXP, _EXP + 4))  # 'e', '-' and two digits
                text = digit[:1] + ([_DOT] + digit[1:nd] if nd > 1 else []) + exponent
            elif e < 0:
                text = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digit[:nd]
            else:
                text = digit[:e + 1] + ([_DOT] + digit[e + 1:nd] if nd > e + 1 else [])
            rows.append([_SIGN] + text + [_ABSENT] * (23 - len(text)) + [_SEP])
    return np.array(rows, dtype=np.uint16)


def format_block(values: np.ndarray) -> np.ndarray:
    """The cells of a 2-D array: per value, the bytes of exactly ``'%.17g' % v`` in a slot of
    25, padded by absent (0) bytes, its last byte the separator's (left 0)."""
    p10, digits4, zeros4, word5, form_row, layouts = _tables()
    values = np.asarray(values, dtype=np.float64)
    x = values.ravel()
    ax = np.abs(x)
    ok = (ax >= 1e-98) & (ax < 1e16)
    ax = np.where(ok, ax, 1.0)  # the others' digits are never read
    e = np.floor(np.log10(ax)).astype(np.int64)
    # ax 10^(16-e) = p + r: ax hi = p + (r - ax lo) exactly (Dekker); p is an integer past
    # 2^53, so a product in [1e16, 1e17) keeps its whole fraction in r
    hi, lo, hh, hl = np.take(p10, 16 - e, axis=1)
    p = ax * hi
    ah = ax * _SPLIT
    ah -= ah - ax
    al = ax - ah
    r = ah * hh - p
    r += ah * hl
    r += al * hh
    r += al * hl
    r += ax * lo
    f = np.floor(r)
    frac = r - f
    ip = p.astype(np.int64) + f.astype(np.int64)
    d = ip + (frac > 0.5)
    # left to %: an E one off (log10 rounds near powers of ten), a value that rounds up
    # into the next decade (or that log10 put a decade low), and a fraction too near 1/2
    ok &= (ip >= 10**16) & (d < 10**17) & (abs(frac - 0.5) >= _TIE)
    d[~ok] = 0  # zeros, and the values left to %
    e[~ok] = 0
    ok |= x == 0.0
    # dead temporaries are freed at once: kept to the return, an 8-column block's arrays
    # peaked at 1.9 MB (now 1.2 MB), enough for glibc to trim the heap after each block and
    # fault its pages in again on the next
    del ax, hi, lo, hh, hl, p, ah, al, r, f, frac, ip

    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    lower = (d - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    groups = np.empty((4, x.size), np.int32)
    np.floor_divide(upper, 10_000, out=groups[0])
    np.floor_divide(lower, 10_000, out=groups[2])
    np.subtract(upper, groups[0] * 10_000, out=groups[1])
    np.subtract(lower, groups[2] * 10_000, out=groups[3])
    del d, upper, lower
    e += 99
    parts = np.empty((x.size, 7), "<u4")
    parts[:, :4] = np.take(digits4, groups).T
    parts[:, 4] = _WORD4 + lead
    parts[:, 5] = np.take(word5, e) | np.signbit(x) * np.uint32(_MINUS_IN_WORD5)
    parts[:, 6] = 0  # the separator, set per table by _write_rows, and the absent bytes

    zeros = np.take(zeros4, groups)
    tz = zeros[3].copy()
    run = tz == 4
    for g in (2, 1, 0):  # a group of zeros passes the count on to the group before it
        tz += run * zeros[g]
        run &= zeros[g] == 4
    layout = np.take(form_row, e) - tz
    del zeros, run, e, groups, tz
    out = np.empty((x.size, 25), np.uint8)
    # a value's 25 byte sources, as uint16 offsets into its half block's parts (28 x 2,048 <
    # 2^16), gathered a half at a time: a 4,096-value block peaks at 0.76 MiB, not the 1.13 of one
    # intp gather, and formats 6-8% faster (all in range: "clip" leaves out unbuffered)
    for at in range(0, x.size, _BLOCK_VALUES // 2):
        src = np.take(layouts, layout[at:at + _BLOCK_VALUES // 2], axis=0)
        src += np.arange(0, 28 * len(src), 28, dtype=np.uint16)[:, None]
        np.take(parts.view(np.uint8)[at:].ravel(), src, out=out[at:at + len(src)], mode="clip")
        del src  # before the next half's
    for i in np.flatnonzero(~ok):
        text = ("%.17g" % x[i]).encode()
        out[i, :24] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(values.shape + (25,))


def _write_rows(stream: IO[str], header: str, columns: Sequence[np.ndarray], *more) -> None:
    """The header line, then CSV rows of %.17g values, formatted a block of _BLOCK_VALUES values
    at a time.  Each of more, (stream, header, column indices, keep), is one more table written
    from the same cells: those columns of the rows where keep (a boolean array over the rows,
    or None for all of them) holds."""
    tables = [(stream, header, slice(None), None), *more]
    for out, head, _, _ in tables:
        out.write(head + "\n")
    step = _BLOCK_VALUES // len(columns)
    for start in range(0, len(columns[0]), step):
        rows = slice(start, start + step)
        cells = format_block(np.column_stack([c[rows] for c in columns]))
        for out, _, cols, keep in tables:
            table = cells[:, cols] if keep is None else cells[keep[rows]][:, cols]
            table[:, :-1, 24], table[:, -1, 24] = ord(","), ord("\n")
            out.write(table.tobytes().translate(None, b"\0").decode("ascii"))
        del cells, table  # before the next block's kernel
