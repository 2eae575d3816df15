"""Finite semigroups as validated Cayley tables, plus bit-mask element sets.

A semigroup of order n lives on the carrier [0, n); the operation is a dense
table with ``table[a][b] = a + b``.  Tables are validated eagerly at
construction (the O(n^3) associativity scan, one bytes comparison per
element, is negligible at these sizes), so everything downstream may assume
validity.  Carriers are capped at 64 so that subsets are single machine
words.

Element names (r, s, i, j, ...) are a display concern only and never appear
below the I/O layer.

Each carrier also builds, once at construction, the integer tables that the
scalar paths read instead of recomputing them on every call:

- ``_bit_table[a][b]``: the bit mask of a + b;
- ``_orders[z]``: the order |{z, z+z, ...}| of z;
- ``_omega_w[z0][z]``: ord(z + inverse(z0)) for a unit z0, with INF on the
  diagonal, and 0 throughout the row of a non-unit z0;
- ``_commute_w[a]``: the mask of the b with a + b = b + a;
- ``_preimage[y][z]``: the mask of the w with w + y = z, which may have
  several bits on a non-cancellative carrier;
- ``_p``: the least order of a non-identity element of the unitization,
  INF for the trivial monoid;
- ``_standard_cyclic``: whether the table is addition mod n on the indices.

Each set constant is one such table and one reduction (see ``_reduce``),
evaluated on a mask or on column sets of masks: span commutativity by
``_commutes`` here, the others by their value functions in ``catalog``.

The library works on bit masks and plain ints, with the integer INF for
infinity, and wraps results only when it returns them, without re-checking
them: ``extended`` reads shared ``ExtendedNat`` values and ``_set`` builds an
``ElementSet`` directly.  ``_Record`` is the base of every value type:
``ElementSet`` and ``ExtendedNat``, the catalog entries, the sweep's value
types, the single-call results and the command line's run report.  Its
hook ``_as_json`` is the one JSON form of each: a set's literal such as
"{0,3}", an extended natural's int or "infinity", and for every other
record the dict of the fields that == compares, also its ``to_json_dict``.
``FiniteSemigroup`` derives its fields from its table, so it is immutable
in the same way but pickles by its table and label.
"""

from __future__ import annotations

import functools
from operator import and_, itemgetter

from .errors import (
    CarrierTooLarge,
    IndexOutOfRange,
    NonAssociative,
    ParseError,
    ValidationError,
)

MAX_CARRIER = 64
INF = 255  # infinity: above every finite value on a carrier, and a uint8


_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_BYTE_BITS_8 = tuple(tuple(i + 8 for i in bits) for bits in _BYTE_BITS)


def iter_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending, as a list."""
    # the low 16 bits by table, the rest one bit at a time
    bits = [*_BYTE_BITS[mask & 255], *_BYTE_BITS_8[mask >> 8 & 255]]
    mask >>= 16
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() + 15)
        mask ^= low
    return bits


def int_literal(token: str) -> int:
    """The value of token, an integer literal -?[0-9]+.

    Raises ValueError on anything else, such as '+7', '1_0', ' 3' or
    non-ASCII digits, all of which int(token, 10) would take."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid integer literal %r" % token)
    return int(token)


def _is_int(value) -> bool:
    """Whether value is an int and not a bool: what a count or size must be."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Record:
    """A value whose fields are its __slots__, in order, as a frozen
    dataclass's: its repr names them, == and hash read _key(), and it is
    immutable, and pickled and copied by its constructor.  The constructor
    takes the fields by position or keyword, and _defaults are the defaults
    of the last ones; a subclass checks its fields in __new__, since
    __init__ is compiled.  _key() is _fields(), or a subclass's slice of the
    first fields, which leaves the last ones out of == and of _as_json(), the
    JSON: the dict of the fields that == compares, also to_json_dict(),
    unless a scalar type overrides it and so has no to_json_dict()."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        # compile __init__ and the tuple of the fields once, as dataclasses
        # does: __init__ sets each field by its slot descriptor, past the
        # raising __setattr__
        names = cls.__match_args__ = cls.__slots__
        scope = {"_set_" + name: getattr(cls, name).__set__ for name in names}
        body = "".join("\n    _set_%s(self, %s)" % (name, name) for name in names)
        exec("def __init__(self, %s):%s" % (", ".join(names), body), scope)
        exec("def _fields(self):\n    return (%s)" % "".join("self.%s, " % n for n in names), scope)
        cls.__init__, cls._fields = scope["__init__"], scope["_fields"]
        cls.__init__.__defaults__ = cls._defaults
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"
        cls._key = vars(cls).get("_key", cls._fields)
        if cls._as_json is _Record._as_json:
            cls.to_json_dict = cls._as_json

    def _as_json(self) -> dict:
        """The fields that == compares, by name, as JSON values."""
        return dict(zip(self.__slots__, map(_json, self._key())))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(map("%s=%r".__mod__, zip(self.__slots__, self._fields())))
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete the field %r" % name)
    __delattr__ = __setattr__

    def __reduce__(self):
        # by the constructor, since unpickling slots calls __setattr__
        return type(self), self._fields()


@functools.total_ordering
class ExtendedNat(_Record):
    """A natural number extended with a single infinite value.

    The infinite value stands for the cardinality of the naturals; it
    compares greater than every finite value.  Only comparisons (and hence
    min/max) are defined; arithmetic on these values is never needed and
    deliberately raises.  A finite value equals, and hashes as, its int.
    """

    __slots__ = ("value",)

    def __new__(cls, value: int | None):
        if value is not None and (not _is_int(value) or value < 0):
            raise ValueError("ExtendedNat value must be a non-negative int or None")
        return object.__new__(cls)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        # an int equals a finite value, never infinity; other types by _Record
        return self.value == other if _is_int(other) else _Record.__eq__(self, other)

    def __lt__(self, other):
        if isinstance(other, ExtendedNat):
            other = other.value
        elif not _is_int(other):
            return NotImplemented
        # infinity is below nothing; every value is above a negative int
        return self.value is not None and (other is None or self.value < other)

    def __hash__(self):
        # finite values equal their int, so they must hash like it
        return hash(("ExtendedNat", None) if self.value is None else self.value)

    def _no_arithmetic(self, *_):
        raise TypeError("ExtendedNat supports ordering only, not arithmetic")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _no_arithmetic

    def to_json(self):
        return "infinity" if self.value is None else self.value
    _as_json = to_json

    @classmethod
    def from_json(cls, obj) -> "ExtendedNat":
        if obj == INFINITY.to_json():
            return INFINITY
        if _is_int(obj):
            return cls(obj)
        raise ParseError("not an extended natural: %r" % (obj,))

    def __str__(self):
        return str(self.to_json())

    def __repr__(self):
        return "ExtendedNat(%r)" % (self.value,)


INFINITY = ExtendedNat(None)
_EXTENDED = (*map(ExtendedNat, range(INF)), INFINITY)


def extended(value: int) -> ExtendedNat:
    """value, in [0, INF], as a shared ExtendedNat, INF as infinity."""
    return _EXTENDED[value]


def _json(value):
    """value as JSON: a value type by its _as_json() and a tuple as a list;
    anything else as it is."""
    if isinstance(value, _Record):
        return value._as_json()
    if isinstance(value, tuple):
        return list(map(_json, value))
    return value


def _reduce(w, inner, outer, mask: int, rows: int = -1) -> int:
    """outer over the z0 of rows in S of (inner over z in S of w[z0][z]),
    for the set S of mask.  A singleton gets the diagonal, which inner must
    otherwise ignore, and no z0 gives 0 under max and INF under min.  With
    inner None, whether S lies in the outer (and_, from -1) of masks w[z0]."""
    zs = iter_bits(mask)
    z0s = zs if mask & rows == mask else iter_bits(mask & rows)
    if inner is None:
        return functools.reduce(outer, map(w.__getitem__, z0s), -1) & mask == mask
    if not z0s:
        return 0 if outer is max else INF
    if len(zs) == 1:
        return w[zs[0]][zs[0]]
    get = itemgetter(*zs)
    return outer(map(inner, map(get, get(w) if z0s is zs else map(w.__getitem__, z0s))))


def _commutes(A: FiniteSemigroup, S, reduce=_reduce):
    """Whether the elements of S commute pairwise: whether S lies in the
    AND over z0 in S of A._commute_w[z0], the elements commuting with z0."""
    return A.is_commutative or reduce(A._commute_w, None, and_, S)


class ElementSet(_Record):
    """An immutable subset of the carrier [0, n), stored as a bit mask."""

    __slots__ = ("n", "mask")
    _defaults = (0,)

    def __new__(cls, n: int, mask: int = 0):
        if not _is_int(n) or not 1 <= n <= MAX_CARRIER:
            raise CarrierTooLarge("carrier size %r outside [1, %d]" % (n, MAX_CARRIER))
        if not _is_int(mask) or not 0 <= mask < (1 << n):
            raise IndexOutOfRange("mask %r has bits outside [0, %d)" % (mask, n))
        return object.__new__(cls)

    @classmethod
    def of(cls, n: int, *elements: int) -> "ElementSet":
        return cls.from_elements(n, elements)

    @classmethod
    def from_elements(cls, n: int, elements) -> "ElementSet":
        mask = 0
        for z in elements:
            mask |= _bit(z, n)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def parse(cls, text: str, n: int) -> "ElementSet":
        """Parse a set literal like "{0,3,5}" or "{}" over carrier [0, n).

        A bare comma list without braces is accepted too, as a convenience
        for shells that mangle braces.
        """
        body = text.strip()
        if body.startswith("{"):
            if not body.endswith("}"):
                raise ParseError("set literal %r: missing closing brace" % text)
            body = body[1:-1]
        elif body.endswith("}"):
            raise ParseError("set literal %r: missing opening brace" % text)
        body = body.strip()
        if not body:
            return cls.empty(n)
        elements = []
        for token in body.split(","):
            token = token.strip()
            if not token:
                raise ParseError("set literal %r: empty element token" % text)
            try:
                elements.append(int_literal(token))
            except ValueError:
                raise ParseError(
                    "set literal %r: %r is not an integer" % (text, token)
                ) from None
        return cls.from_elements(n, elements)

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __iter__(self):
        return iter(iter_bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, z):
        return _is_int(z) and 0 <= z < self.n and (self.mask >> z) & 1 == 1

    def _check_same_carrier(self, other):
        if not isinstance(other, ElementSet):
            raise TypeError("expected ElementSet, got %r" % (other,))
        if other.n != self.n:
            raise ValueError("carrier mismatch: %d vs %d" % (self.n, other.n))

    def __or__(self, other):
        self._check_same_carrier(other)
        return ElementSet(self.n, self.mask | other.mask)

    def __and__(self, other):
        self._check_same_carrier(other)
        return ElementSet(self.n, self.mask & other.mask)

    def __sub__(self, other):
        self._check_same_carrier(other)
        return ElementSet(self.n, self.mask & ~other.mask)

    def __le__(self, other):
        self._check_same_carrier(other)
        return self.mask & ~other.mask == 0

    def __str__(self):
        return "{%s}" % ",".join(str(z) for z in iter_bits(self.mask))
    _as_json = __str__

    def __repr__(self):
        return "ElementSet.parse(%r, %d)" % (str(self), self.n)


def _bit(z, n: int) -> int:
    """1 << z, for an element z of the carrier [0, n)."""
    if not _is_int(z) or not 0 <= z < n:
        raise IndexOutOfRange("element %r outside carrier [0, %d)" % (z, n))
    return 1 << z


def _set(n: int, mask: int, _n=ElementSet.n.__set__, _mask=ElementSet.mask.__set__):
    """ElementSet(n, mask) without its checks, for a mask computed from
    checked sets over the carrier [0, n); the defaults set its slots."""
    S = object.__new__(ElementSet)
    _n(S, n)
    _mask(S, mask)
    return S


class FiniteSemigroup:
    """A validated finite semigroup on the carrier [0, n).

    Structural facts (identity, units, inverses, commutativity,
    cancellativity) and the integer tables listed in the module docstring
    are computed once at construction.  Instances are immutable, and pickle
    and copy through the constructor, which validates the table again.
    """

    __slots__ = (
        "n",
        "table",
        "label",
        "identity",
        "units",
        "is_commutative",
        "is_cancellative",
        "_inverse",
        "_bit_table",
        "_orders",
        "_omega_w",
        "_commute_w",
        "_preimage",
        "_p",
        "_standard_cyclic",
    )

    def __init__(self, table, label: str | None = None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise ValidationError("empty carrier: a semigroup here has n >= 1")
        _check_order(n)
        for a, row in enumerate(table):
            if len(row) != n:
                raise ValidationError(
                    "row %d has %d entries, expected %d" % (a, len(row), n)
                )
            for b, v in enumerate(row):
                if not _is_int(v) or not 0 <= v < n:
                    raise IndexOutOfRange(
                        "table[%d][%d] = %r outside carrier [0, %d)" % (a, b, v, n)
                    )
        # for each a, (a + b) + c against a + (b + c) over all b, c at once,
        # as bytes in scan order: the rows of the a + b joined, and the whole
        # table translated by row a (entries are below n <= 64, so the rest
        # of the 256-byte translation table is never read)
        rows = [bytes(row) for row in table]
        flat = b"".join(rows)
        for a, row_a in enumerate(table):
            lhs = b"".join([rows[ab] for ab in row_a])
            rhs = flat.translate(rows[a].ljust(256))
            if lhs != rhs:
                i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise NonAssociative(a, *divmod(i, n), lhs[i], rhs[i])

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label if label is not None else "table:%d" % n)

        identity = None
        for e in range(n):
            if all(table[e][z] == z and table[z][e] == z for z in range(n)):
                identity = e
                break
        object.__setattr__(self, "identity", identity)

        inverse: list[int | None] = [None] * n
        units_mask = 0
        if identity is not None:
            for z in range(n):
                for w in range(n):
                    if table[z][w] == identity and table[w][z] == identity:
                        inverse[z] = w
                        units_mask |= 1 << z
                        break
        object.__setattr__(self, "_inverse", tuple(inverse))
        object.__setattr__(self, "units", ElementSet(n, units_mask))

        commute_w = tuple(
            sum(1 << b for b, v in enumerate(row) if v == table[b][a])
            for a, row in enumerate(table)
        )
        object.__setattr__(self, "_commute_w", commute_w)
        object.__setattr__(self, "is_commutative", all(c + 1 == 1 << n for c in commute_w))
        full = set(range(n))
        cancellative = all(set(row) == full for row in table) and all(
            {table[a][b] for a in range(n)} == full for b in range(n)
        )
        object.__setattr__(self, "is_cancellative", cancellative)
        object.__setattr__(
            self, "_bit_table", tuple(tuple(1 << v for v in row) for row in table)
        )

        orders = []
        for z in range(n):
            seen, cur = 1 << z, z
            while True:
                cur = table[cur][z]
                if seen >> cur & 1:
                    break
                seen |= 1 << cur
            orders.append(seen.bit_count())
        object.__setattr__(self, "_orders", tuple(orders))
        omega_w = [[0] * n for _ in range(n)]
        for z0, inv in enumerate(inverse):
            if inv is not None:
                omega_w[z0] = [orders[row[inv]] for row in table]
                omega_w[z0][z0] = INF
        object.__setattr__(self, "_omega_w", tuple(map(tuple, omega_w)))
        preimage = [[0] * n for _ in range(n)]
        for w, row in enumerate(table):
            for y, z in enumerate(row):
                preimage[y][z] |= 1 << w
        object.__setattr__(self, "_preimage", tuple(map(tuple, preimage)))
        # the unitization adds no element of a new order: its fresh identity
        # is excluded, and A's own identity, if any, is the identity there
        object.__setattr__(
            self,
            "_p",
            min((orders[z] for z in range(n) if z != identity), default=INF),
        )
        # exact because the table is associative: every element is then a
        # power of 1, so the column of 1 fixes the whole table
        object.__setattr__(
            self,
            "_standard_cyclic",
            all(table[a][1 % n] == (a + 1) % n for a in range(n)),
        )

    __setattr__ = __delattr__ = _Record.__setattr__

    def __reduce__(self):
        # by the constructor, which validates the table and derives the rest
        return FiniteSemigroup, (self.table, self.label)

    @property
    def is_group(self) -> bool:
        # A finite cancellative semigroup is a group; the explicit unit check
        # is belt and braces (tests assert the two views agree).
        return (
            self.is_cancellative
            and self.identity is not None
            and len(self.units) == self.n
        )

    def add(self, a: int, b: int) -> int:
        _bit(a, self.n)
        _bit(b, self.n)
        return self.table[a][b]

    def inverse(self, z: int) -> int | None:
        """Two-sided inverse of z, or None if z is not a unit."""
        _bit(z, self.n)
        return self._inverse[z]

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.n)

    def check_set(self, X: ElementSet) -> ElementSet:
        if not isinstance(X, ElementSet):
            raise TypeError("expected ElementSet, got %r" % (X,))
        if X.n != self.n:
            raise ValueError(
                "set over carrier [0, %d) used with semigroup of order %d" % (X.n, self.n)
            )
        return X

    def __repr__(self):
        return "<FiniteSemigroup %s (order %d)>" % (self.label, self.n)


def _check_size(value, text: str, per: int = 1) -> None:
    """Before any table is built, refuse a size that is a bool, a non-int or
    below 1 (text names it by repr), or a carrier of per * value elements."""
    if not _is_int(value) or value < 1:
        raise ValidationError(text % (value,))
    _check_order(per * value)


def _check_order(n: int) -> None:
    """Refuse an oversized carrier before anything of size n is built."""
    if n > MAX_CARRIER:
        raise CarrierTooLarge(
            "carrier size %d exceeds the bit-vector limit %d" % (n, MAX_CARRIER)
        )


def build_semigroup(table, label: str | None = None) -> FiniteSemigroup:
    """Validate an operation table and return the semigroup it defines."""
    return FiniteSemigroup(table, label=label)


def parse_cayley_text(text: str, label: str = "cayley") -> FiniteSemigroup:
    """Parse the plain-text table format: a line with n, then n rows of n entries."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty table file")
    head = lines[0].strip()
    try:
        n = int_literal(head)
    except ValueError:
        raise ParseError("first line must be the carrier size, got %r" % head) from None
    if n < 1:
        raise ParseError("carrier size must be positive, got %d" % n)
    if len(lines) - 1 != n:
        raise ParseError("expected %d table rows, found %d" % (n, len(lines) - 1))
    table = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError("row %d has %d entries, expected %d" % (i, len(tokens), n))
        row = []
        for tok in tokens:
            try:
                row.append(int_literal(tok))
            except ValueError:
                raise ParseError("row %d: %r is not an integer" % (i, tok)) from None
        table.append(row)
    return build_semigroup(table, label=label)


def unitization(A: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a fresh identity unless A already has one (then A itself)."""
    if A.identity is not None:
        return A
    n = A.n
    table = [list(row) + [a] for a, row in enumerate(A.table)]
    table.append(list(range(n + 1)))
    return build_semigroup(table, label="unitization(%s)" % A.label)


def element_order(A: FiniteSemigroup, z: int) -> ExtendedNat:
    """|{z, z+z, z+z+z, ...}|, read from the carrier's table of orders.

    Always finite on a finite carrier, but typed as an extended natural to
    match the quantities built on top of it.
    """
    _bit(z, A.n)
    return extended(A._orders[z])


def _sumset_mask(A: FiniteSemigroup, xmask: int, ymask: int) -> int:
    """X + Y of two masks: the OR of the rows of _bit_table."""
    bit_table = A._bit_table
    ys = iter_bits(ymask)
    out = 0
    for x in iter_bits(xmask):
        row = bit_table[x]
        for y in ys:
            out |= row[y]
    return out


def generated_subsemigroup(A: FiniteSemigroup, Z: ElementSet) -> ElementSet:
    """Closure of Z under the operation: the union of all k-fold sums of Z."""
    A.check_set(Z)
    span = Z.mask
    while True:
        grown = span | _sumset_mask(A, span, Z.mask)
        if grown == span:
            return _set(A.n, span)
        span = grown


def p_constant(A: FiniteSemigroup) -> ExtendedNat:
    """Minimum order of a non-identity element of the unitization.

    Infinite for the trivial monoid (minimum over an empty set).
    """
    return extended(A._p)


def centralizer(A: FiniteSemigroup, X: ElementSet) -> ElementSet:
    """Elements commuting with every member of X (full carrier for X empty)."""
    A.check_set(X)
    w, xmask = A._commute_w, X.mask
    return _set(A.n, sum(1 << z for z in range(A.n) if w[z] & xmask == xmask))


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def cyclic(m: int) -> FiniteSemigroup:
    """The integers mod m under addition."""
    _check_size(m, "cyclic group needs m >= 1, got %r")
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return build_semigroup(table, label="cyclic:%d" % m)


def dihedral(k: int) -> FiniteSemigroup:
    """Dihedral group of order 2k: indices 0..k-1 are the rotations r^i,
    indices k..2k-1 are the reflections s*r^i.

    The table follows r*s = s*r^{ -1 }:
      r^a * r^b   = r^{a+b}
      r^a * s r^b = s r^{b-a}
      s r^a * r^b = s r^{a+b}
      s r^a * s r^b = r^{b-a}
    """
    _check_size(k, "dihedral group needs k >= 1, got %r", per=2)
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for a in range(k):
        for b in range(k):
            table[a][b] = (a + b) % k
            table[a][k + b] = k + (b - a) % k
            table[k + a][b] = k + (a + b) % k
            table[k + a][k + b] = (b - a) % k
    return build_semigroup(table, label="dihedral:%d" % k)


def quaternion8() -> FiniteSemigroup:
    """The quaternion group on {1, -1, i, -i, j, -j, k, -k} (indices 0..7)."""
    # element index = 2*basis + (sign < 0), basis 0..3 for 1, i, j, k
    def mul(a, b):
        sa, ba = 1 - 2 * (a & 1), a >> 1
        sb, bb = 1 - 2 * (b & 1), b >> 1
        if ba == 0:
            sign, basis = sa * sb, bb
        elif bb == 0:
            sign, basis = sa * sb, ba
        elif ba == bb:
            sign, basis = -sa * sb, 0
        else:
            # i*j = k, j*k = i, k*i = j and the reversed products negate
            forward = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
            if (ba, bb) in forward:
                sign, basis = sa * sb, forward[(ba, bb)]
            else:
                sign, basis = -sa * sb, forward[(bb, ba)]
        return 2 * basis + (1 if sign < 0 else 0)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return build_semigroup(table, label="quaternion8")


def product(A: FiniteSemigroup, B: FiniteSemigroup) -> FiniteSemigroup:
    """Direct product with componentwise operation; index (a, b) -> a*|B| + b."""
    nA, nB = A.n, B.n
    _check_order(nA * nB)
    table = [
        [
            A.table[a1][a2] * nB + B.table[b1][b2]
            for a2 in range(nA)
            for b2 in range(nB)
        ]
        for a1 in range(nA)
        for b1 in range(nB)
    ]
    return build_semigroup(table, label="product:(%s,%s)" % (A.label, B.label))


def leftzero(n: int) -> FiniteSemigroup:
    """Left-zero semigroup: a + b = a.  No identity for n >= 2."""
    _check_size(n, "left-zero semigroup needs n >= 1, got %r")
    table = [[a] * n for a in range(n)]
    return build_semigroup(table, label="leftzero:%d" % n)


def maxchain(n: int) -> FiniteSemigroup:
    """The chain 0 < 1 < ... < n-1 under max: a commutative idempotent monoid."""
    _check_size(n, "max-chain monoid needs n >= 1, got %r")
    table = [[max(a, b) for b in range(n)] for a in range(n)]
    return build_semigroup(table, label="maxchain:%d" % n)
