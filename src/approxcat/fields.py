"""Exact scalar fields: the rationals and prime fields F_p.

Scalars are plain Python values (Fraction for Q, int in [0, p) for F_p);
a FieldSpec bundles the arithmetic so matrix code stays field-generic.
"""

from fractions import Fraction

from .errors import ApproxcatError

RATIONALS = "rationals"
PRIME = "prime_field"


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
    latter and None for Q. Instances are value objects (equality and hash
    by kind and modulus).
    """

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ApproxcatError("rationals take no modulus")
        elif kind == PRIME:
            if not isinstance(modulus, int) or not _is_prime(modulus):
                raise ApproxcatError(f"modulus must be prime, got {modulus!r}")
        else:
            raise ApproxcatError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

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
        if s == "Q":
            return FieldSpec.rationals()
        if s.startswith("F"):
            try:
                return FieldSpec.prime(int(s[1:]))
            except ValueError:
                pass
        raise ApproxcatError(f"unknown field label {s!r}")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.label})"

    # arithmetic

    @property
    def zero(self):
        return Fraction(0) if self.kind == RATIONALS else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == RATIONALS else 1

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

    def is_zero(self, a) -> bool:
        return a == 0

    def coerce(self, value):
        """Turn an int, Fraction or "p/q" string into a scalar of this field.

        Rationals normalize to lowest terms with positive denominator
        (Fraction guarantees both); prime-field values reduce mod p.
        """
        if self.kind == RATIONALS:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            raise ApproxcatError(f"cannot coerce {value!r} into Q")
        if isinstance(value, int):
            return value % self.modulus
        if isinstance(value, str):
            return int(value) % self.modulus
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
