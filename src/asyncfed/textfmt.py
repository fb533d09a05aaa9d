"""Exact ``'%.17g'`` text for float64 blocks, without a Python call per cell.

:func:`format_rows` turns a 2-D block of numbers into ASCII bytes, one
comma-joined line per row, whose cells are byte for byte ``'%.17g' % x``.
For finite 1e-11 <= |x| < 1e17 with decimal exponent E, the 17 significant
digits are D = round-half-even(|x| * 10**k), k = 16 - E, and E starts as
floor(log10|x|).

Where 10**k is a double (k <= 22, E >= -6), one double product settles most
cells: p = fl(|x| * 10**k) and its exact error err (Dekker's product of
Veltkamp halves) give D = p + rint(err), since for 1e16 <= p < 1e17 p is an
even integer and |err| <= 8. numpy never fuses the products into an FMA,
and with float64 operands only, value-based casting (numpy 1.x) and NEP 50
(numpy 2) agree. The remaining cells of the range, E <= -7 and those whose
exact product shows the guess of E one off (p < 1e16, p == 1e16 with
err < 0, or p >= 1e17), use integer arithmetic, the fixed-precision case of
Adams, "Ryu revisited: printf floating point conversion" (OOPSLA 2019):
with |x| = m * 2**e, D = round-half-even(m * 5**k * 2**(e + k)), k <= 27,
the product m * 5**k (< 2**116) held exactly in two uint64 limbs, and E
corrected by one step from the truncated quotient.

The digits of D come from a 4-digit table as a 17-byte string in uint64
words; a layout table per (separator, sign, E, trailing zeros) shifts that
string into place around the constant bytes ('-', '0.', '.', 'e-XX', the
separator) and drops the stripped zeros. The zero bytes left after each
cell are deleted on output. Every other value (zeros, tiny, huge, inf, NaN)
and any element whose range check fails is formatted by Python itself.

The uint64 arithmetic takes explicit ``np.uint64`` scalars, so that value-based
casting and NEP 50 give the same bits there too.
"""

from __future__ import annotations

import numpy as np

BLOCK_CELLS = 8192  # cells encoded at once; bounds the temporaries (~1.2 MB)

_U64 = np.uint64
_1, _8, _32, _52, _56, _63, _64 = (_U64(v) for v in (1, 8, 32, 52, 56, 63, 64))
_LOW32 = _U64(0xFFFFFFFF)
_MANTISSA = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_ASCII0 = _U64(ord("0"))
_E8, _E16, _E17 = _U64(10**8), _U64(10**16), _U64(10**17)

_FAST_MIN = float(np.nextafter(1e-11, np.inf))  # least double >= 10**-11
_FAST_MAX = 1e17
_E_MIN, _E_MAX = -11, 16
_N_EXP = _E_MAX - _E_MIN + 1
_POW5 = _U64(5) ** np.arange(_N_EXP, dtype=np.uint64)  # 5**27 < 2**63
_K_DOUBLE = 22  # 10**22 is the largest power of ten that is a double
_SPLITTER = float(2**27 + 1)

_WORDS = 4  # uint64 words per cell: Python's text has up to 25 characters and the separator


def _digit_tables():
    """The four ASCII digits of 0..9999 as uint64 values, first digit in the
    low byte, and the count of trailing zero digits of each (4 for 0) as
    uint8."""
    v = np.arange(10_000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    words = (digits + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    nonzero = digits[:, ::-1] != 0
    trailing = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), 4).astype(np.uint8)
    return words, trailing


_DIGITS4, _TRAILING4 = _digit_tables()
_ALL_ZERO4 = np.uint8(4)  # the trailing zero count of a group of four zeros


def _layouts():
    """How the 17-digit string becomes the cell text, for every key
    (separator, sign, E, trailing zeros of the digits).

    The text is the digit string moved up by ``a`` bytes where mask ``MA``
    is set, by ``a + 1`` bytes (past the decimal point) where ``MB`` is set,
    and constant bytes ``C`` ('-', '0', '.', 'e-XX', separator) elsewhere;
    stripped zeros are in neither mask, and bytes past the separator are
    zero. Returns 8a, MA, MB and C (three little-endian words each)."""
    # int8 grids keep the import's temporaries small
    ranges = ((0, 2), (0, 2), (_E_MIN, _E_MAX + 1), (0, 17), (0, 24))
    sep, neg, exp, tz, col = np.ix_(*(np.arange(lo, hi, dtype=np.int8) for lo, hi in ranges))
    q = col - neg  # position within the unsigned text
    # 1 <= |x| < 1e17: E + 1 integer digits, '.', 16 - E fraction digits
    frac = 16 - exp
    stripped = np.minimum(tz, frac)
    fixed_len = 18 - stripped - (stripped == frac)
    # 1e-4 <= |x| < 1: '0.', -E - 1 zeros, 17 digits
    lead = 1 - exp
    small_len = lead + 17 - tz
    # |x| < 1e-4: one digit, '.', 16 digits, 'e-XX'
    mantissa = np.where(tz == 16, 1, 18 - tz)
    sci_len = mantissa + 4

    form = np.where(exp >= 0, 0, np.where(exp >= -4, 1, 2))
    length = np.choose(form, [fixed_len, small_len, sci_len]) + neg
    dot = np.choose(form, [exp + 1, 1, 1])
    after_dot = np.where(q < dot, q, q - 1)
    digit = np.choose(form, [after_dot, q - lead, after_dot])
    is_digit = (digit >= 0) & (col < length) & (q != dot) & ((form != 2) | (q < mantissa))

    def ascii(c):
        return np.uint8(ord(c))

    exp_chars = [ascii("e"), ascii("-"), ascii("0") + -exp // 10, ascii("0") + -exp % 10]
    char = np.where((q == dot) & (col < length), ascii("."), np.uint8(0))
    char = np.where((form == 1) & (q >= 0) & (q < lead) & (q != dot), ascii("0"), char)
    suffix = (form == 2) & (q >= mantissa) & (col < length)
    char = np.where(suffix, np.choose(np.clip(q - mantissa, 0, 3), exp_chars), char)
    char = np.where((neg == 1) & (col == 0), ascii("-"), char)
    char = np.where(col == length, np.where(sep == 1, ascii("\n"), ascii(",")), char)

    shift = neg + np.where(form == 1, lead, 0)
    moved = col - digit
    keys = (2, 2, _N_EXP, 17)

    def words(byte_values):
        raw = np.broadcast_to(byte_values, keys + (24,)).reshape(-1, 24).astype(np.uint8)
        return raw.view("<u8").astype(np.uint64).T.copy()

    shift8 = np.broadcast_to(shift[..., 0], keys).reshape(-1).astype(np.uint64) * _8
    return (
        shift8,
        words(np.where(is_digit & (moved == shift), np.uint8(0xFF), np.uint8(0))),
        words(np.where(is_digit & (moved == shift + 1), np.uint8(0xFF), np.uint8(0))),
        words(char),
    )


_SHIFT_A, _MASK_A, _MASK_B, _CONST = _layouts()


def _mul128(a, b):
    """Exact a * b of uint64 arrays as (low, high) uint64 limbs."""
    al, ah, bl, bh = a & _LOW32, a >> _32, b & _LOW32, b >> _32
    ll, lh, hl, hh = al * bl, al * bh, ah * bl, ah * bh
    mid = (ll >> _32) + (lh & _LOW32) + (hl & _LOW32)
    return (ll & _LOW32) | (mid << _32), hh + (lh >> _32) + (hl >> _32) + (mid >> _32)


def _scaled(m, e, exp):
    """floor(m * 2**e * 10**(16 - exp)) and whether round-half-even adds one.

    The right shift is capped at 63: a larger one means exp is too high, and
    the capped quotient still falls below 1e16, which says so."""
    k = _E_MAX - np.minimum(np.maximum(exp, _E_MIN), _E_MAX)
    lo, hi = _mul128(m, _POW5[k])
    shift = e + k
    left = np.maximum(shift, 0).astype(np.uint64)
    right = np.minimum(np.maximum(-shift, 0), 63).astype(np.uint64)
    q = ((lo >> right) | ((hi << _1) << (_63 - right))) << left
    below = np.maximum(right, _1) - _1
    half = (lo >> below) & (right > 0)
    sticky = (lo & ((_1 << below) - _1)) != 0
    return q, half & (sticky | (q & _1))


def _eight_digits(v):
    """ASCII of 8-digit values as uint64 words, first digit in the low byte,
    with the trailing zero counts of their low and high four digits."""
    v = v.astype(np.intp)
    high = v // 10**4
    low = v - high * 10**4
    return _DIGITS4.take(high) | (_DIGITS4.take(low) << _32), _TRAILING4.take(low), _TRAILING4.take(high)


def _split(v):
    """Veltkamp's split of float64 ``v`` into a high half of at most 26
    significant bits and the exact remainder."""
    t = _SPLITTER * v
    high = t - (t - v)
    return high, v - high


_POW10 = np.array([float(10**k) for k in range(_K_DOUBLE + 1)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _significand(x):
    """(D, E, ok) per element of flat float64 ``x``: the 17 significant
    digits as an integer, the decimal exponent, and whether they are exact
    (where not, the cell is left to Python and D and E are placeholders)."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for NaN
    a = np.where(fast, a, 1.0)
    exp = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp)
    # p + err == a * 10**k exactly (Dekker's product), with 10**k a double
    k = np.minimum(_E_MAX - exp, _K_DOUBLE)
    c = _POW10.take(k)
    p = a * c
    ah, al = _split(a)
    ch, cl = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    err = al * cl - (((p - ah * ch) - al * ch) - ah * cl)
    del c, ah, al, ch, cl
    # p in [1e16, 1e17) is an even integer and |err| <= 8, so rounding the
    # exact product half to even is p + rint(err); an exact product below
    # 1e16 or a p of at least 1e17 means the guess of E is one off, and
    # k > 22 has no exact 10**k: those cells take the integer path
    ok = fast & (exp >= _E_MAX - _K_DOUBLE) & (p >= 1e16) & (p < 1e17) & ((p > 1e16) | (err >= 0))
    d = (p.astype(np.int64) + np.rint(err).astype(np.int64)).view(np.uint64)
    del p, err
    rest = np.flatnonzero(fast & ~ok)
    if rest.size:
        d[rest], exp[rest], ok[rest] = _significand_exact(a[rest], exp[rest])
    return d, exp, ok


def _significand_exact(a, exp):
    """:func:`_significand` for positive float64 ``a`` in the fast range by
    128-bit integer arithmetic, from the guess ``exp`` of E."""
    bits = a.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN
    e = (bits >> _52).astype(np.int64) - 1075
    q, up = _scaled(m, e, exp)
    step = (q >= _E17).astype(np.int64) - (q < _E16)
    off = np.flatnonzero(step)
    if off.size:
        exp[off] += step[off]
        q[off], up[off] = _scaled(m[off], e[off], exp[off])
    d = q + up
    # rounding up to 10**17 would need a double within 5e-18 (relative) below
    # a power of ten, and none in the fast range is; any cell failing this
    # check goes to Python
    return d, exp, (q >= _E16) & (d < _E17)


def _digit_string(d):
    """The 17 digits of each D as a byte string in three uint64 words (the
    first digit, then two 8-digit words), and D's trailing zero count: the
    zeros run on through a group of four into the group before it only
    where that group is all zeros."""
    upper = d // _E8
    first = upper // _E8
    high, tz_high, tz_top = _eight_digits(upper - first * _E8)
    low, tz_low, tz_mid = _eight_digits(d - upper * _E8)
    tz = tz_top
    for group in (tz_high, tz_mid, tz_low):
        tz = group + (group == _ALL_ZERO4) * tz
    return (first + _ASCII0) | (high << _8), (high >> _56) | (low << _8), low >> _56, tz


def _encode(x, newline, ends):
    """Bytes of the cells of flat float64 ``x``, each followed by ',' or,
    where ``newline`` is set, a line feed; ``ends`` is each cell's separator
    and exponent offset in its layout key. The stages are separate functions
    so that each one's temporaries are freed before the next."""
    d, exp, ok = _significand(x)
    w0, w1, w2, tz = _digit_string(d)
    key = ((x < 0) * _N_EXP + exp) * 17 + ends + tz
    del d, exp, tz

    sa = _SHIFT_A.take(key)
    sb = sa + _8
    back_a, back_b = _63 - sa, _64 - sb
    slow = np.flatnonzero(~ok)
    # zero bytes after each cell's text are dropped on output; a slot of
    # three words holds every table-path cell, Python's text may need four
    out = np.zeros((x.shape[0], _WORDS if slow.size else 3), dtype="<u8")
    out[:, 0] = (w0 << sa) & _MASK_A[0].take(key) | (w0 << sb) & _MASK_B[0].take(key) | _CONST[0].take(key)
    out[:, 1] = (
        ((w1 << sa) | ((w0 >> _1) >> back_a)) & _MASK_A[1].take(key)
        | ((w1 << sb) | (w0 >> back_b)) & _MASK_B[1].take(key)
        | _CONST[1].take(key)
    )
    out[:, 2] = (
        ((w2 << sa) | ((w1 >> _1) >> back_a)) & _MASK_A[2].take(key)
        | ((w2 << sb) | (w1 >> back_b)) & _MASK_B[2].take(key)
        | _CONST[2].take(key)
    )
    if slow.size:
        ends = np.where(newline[slow], "\n", ",").tolist()
        text = ["%.17g%s" % cell for cell in zip(x[slow].tolist(), ends)]
        out[slow] = np.array(text, dtype=f"S{8 * _WORDS}").view("<u8").reshape(-1, _WORDS)
    return out.tobytes().translate(None, b"\0")


def format_rows(block) -> bytes:
    """``"".join(",".join("%.17g" % v for v in row) + "\n" for row in block)``
    as ASCII bytes, for a 2-D block of real numbers, encoded in chunks of
    about ``BLOCK_CELLS`` cells.

    Raises ``TypeError`` for a block that is not 2-D or holds anything but
    bools, integers or floats."""
    block = np.asarray(block)
    if block.ndim != 2 or block.dtype.kind not in "biuf":
        raise TypeError(f"expected a 2-D block of real numbers, got {block.dtype} of shape {block.shape}")
    n_rows, n_cols = block.shape
    if n_cols == 0:
        return b"\n" * n_rows
    block = block.astype(np.float64, copy=False)
    step = max(1, BLOCK_CELLS // n_cols)
    newline = np.tile(np.arange(n_cols) == n_cols - 1, min(step, n_rows))
    # the layout key (separator, sign, E, trailing zeros) of a cell is
    # ((2 separator + sign) * _N_EXP + E - _E_MIN) * 17 + trailing zeros
    ends = np.where(newline, (2 * _N_EXP - _E_MIN) * 17, -_E_MIN * 17)
    return b"".join(
        _encode(chunk.ravel(), newline[: chunk.size], ends[: chunk.size])
        for chunk in (block[start : start + step] for start in range(0, n_rows, step))
    )
