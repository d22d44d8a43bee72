"""Exact scalar fields: the rationals and prime fields F_p.

Scalars are plain Python values (Fraction for Q, int in [0, p) for F_p);
a FieldSpec bundles the arithmetic so matrix code stays field-generic.
FieldSpecs are interned: FieldSpec(...) checks its arguments and returns
the one live field of that kind and modulus, so equality and hashing are
identity. A prime modulus is at most MAX_MODULUS, which bounds the trial
division that checks it.

The module global Fraction is bound by _fraction, which imports fractions
when the first rational field is made (every rational branch below runs on
one) or when coerce reads "p/q" text; work over F_p never imports it, nor
decimal and numbers behind it.
"""

import re
import weakref

from .errors import ApproxcatError

RATIONALS = "rationals"
PRIME = "prime_field"
# the largest modulus accepted: checking it takes about 23,000 trial divisions
MAX_MODULUS = 2**31 - 1
# the string form of a scalar that entry_to_json writes; its value is
# bounded by its length, unlike Fraction's exponent notation
_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction():
    """fractions.Fraction, bound to this module's Fraction on first use."""
    global Fraction
    from fractions import Fraction
    return Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """An exact field of scalars.

    kind is "rationals" or "prime_field"; modulus is the prime p for the
    latter and None for Q; zero and one are the field's scalars 0 and 1.
    Instances are interned, one live object per (kind, modulus), so ==,
    != and hash are identity.
    """

    __slots__ = ("kind", "modulus", "zero", "one", "__weakref__")

    def __new__(cls, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ApproxcatError("rationals take no modulus")
        elif kind != PRIME:
            raise ApproxcatError(f"unknown field kind {kind!r}")
        elif type(modulus) is not int or modulus > MAX_MODULUS or not (
                (PRIME, modulus) in _FIELDS or _is_prime(modulus)):
            raise ApproxcatError(f"modulus must be a prime at most {MAX_MODULUS}, got {modulus!r}")
        self = _FIELDS.get((kind, modulus))
        if self is None:
            zero, one = (_fraction()(0), Fraction(1)) if modulus is None else (0, 1)
            self = _FIELDS[kind, modulus] = object.__new__(cls)
            for slot, value in zip(cls.__slots__, (kind, modulus, zero, one)):
                object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __reduce__(self):
        return FieldSpec, (self.kind, self.modulus)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(PRIME, p)

    @property
    def label(self) -> str:
        return "Q" if self.kind == RATIONALS else f"F{self.modulus}"

    @staticmethod
    def from_label(s: str) -> "FieldSpec":
        """The field whose label is s: "Q", or "F" and a prime in ASCII
        digits with no leading zero, so from_label(s).label == s. Ten
        digits reach MAX_MODULUS, so int() never reads a long string."""
        if s == "Q":
            return FieldSpec.rationals()
        p = s[1:] if isinstance(s, str) and s[:1] == "F" else ""
        if not (p.isascii() and p.isdigit() and p[0] != "0" and len(p) <= 10):
            raise ApproxcatError(f"unknown field label {s!r}")
        return FieldSpec.prime(int(p))

    def __repr__(self):
        return f"FieldSpec({self.label})"

    # arithmetic

    def add(self, a, b):
        return a + b if self.kind == RATIONALS else (a + b) % self.modulus

    def sub(self, a, b):
        return a - b if self.kind == RATIONALS else (a - b) % self.modulus

    def mul(self, a, b):
        return a * b if self.kind == RATIONALS else (a * b) % self.modulus

    def neg(self, a):
        return -a if self.kind == RATIONALS else (-a) % self.modulus

    def inv(self, a):
        if self.kind == RATIONALS:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        return pow(a, -1, self.modulus)

    def coerce(self, value):
        """Turn an int (not a bool), a Fraction (over Q) or a string "n" or
        "p/q" of decimal digits with an optional sign into a scalar of this
        field.

        Rationals normalize to lowest terms with positive denominator
        (Fraction guarantees both); prime-field values reduce mod p.
        """
        if self.kind == RATIONALS:
            if isinstance(value, Fraction):
                return value
            if type(value) is int:
                return Fraction(value)
        elif type(value) is int:
            return value % self.modulus
        if isinstance(value, str) and _ENTRY.fullmatch(value):
            try:
                return self.coerce(_fraction()(value) if "/" in value else int(value))
            except (ValueError, ZeroDivisionError):
                pass
        raise ApproxcatError(f"cannot coerce {value!r} into {self.label}")

    def entry_to_json(self, a):
        """JSON form of one scalar: ints stay ints, non-integral rationals
        become "p/q" strings."""
        if self.kind == PRIME:
            return a
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def iter_scalars(self):
        """All field elements; prime fields only."""
        if self.kind != PRIME:
            raise ApproxcatError("cannot enumerate an infinite field")
        return range(self.modulus)


# the live fields by (kind, modulus): identity, not a memo, so it keeps
# none alive and needs no bound
_FIELDS = weakref.WeakValueDictionary()
