"""Exact scalar arithmetic over the rationals and odd-characteristic finite fields.

Prime fields are residue rings Z/p with p an odd prime.  Extension fields are
quotients F_p[x]/(m) for an explicit monic irreducible modulus m, so every
element has a canonical coefficient tuple and arithmetic never leaves the
declared field.  Characteristic two is rejected at construction: the geometry
built on top of this module divides by 2 when it polarises quadratic forms.

Cross-field arithmetic is an error by design.  Moving a value into an
extension requires an explicit Embedding, which is returned alongside the
extension by extend_field.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from fractions import Fraction

from .errors import InconsistencyError, PreconditionError, UnsupportedFieldError

# Fields with at most this many elements find roots by scanning every
# element; larger fields use seeded equal-degree splitting.  Measured per
# monic cubic, the native prime-field scan is faster up to about F_1409 and
# slower from F_1601 on, but the generic scan of F_{p^k} is already slower
# at F_{3^5} and F_{7^3}, so the one limit stays here.
SCAN_LIMIT = 256

# The smallest strong pseudoprime to all twelve bases 2..37 (psi_12): below it
# _is_probable_prime is a proof of primality, so prime fields stop here.
PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic below PRIME_BOUND
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """A scalar tagged with its field.  Raw values are int, tuple, or Fraction."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise PreconditionError(
                    "field mismatch: %r vs %r (use an explicit embedding)"
                    % (self.field, other.field)
                )
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.v, o.v))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.v, self.field._neg(o.v)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(o.v, self.field._neg(self.v)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.v, o.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.v, self.field._inv(o.v)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(o.v, self.field._inv(self.v)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.v))

    def __pow__(self, n: int):
        if n < 0:
            return FieldElement(self.field, self.field._inv(self.v)) ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.v))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.v)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == self.field(other).v
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.field, self.v))

    def __repr__(self):
        return f"{self.field.short()}({self.field.format(self.v)})"


class Field:
    """Interface shared by the rationals and the finite fields below.

    zero and one are built once per field and shared by every caller.
    """

    char: int
    degree: int
    order: int | None
    zero: FieldElement
    one: FieldElement

    def __call__(self, value) -> FieldElement:
        raise NotImplementedError

    def elements(self):
        raise UnsupportedFieldError("cannot enumerate an infinite field")

    def random(self, rng: random.Random) -> FieldElement:
        raise NotImplementedError

    def format(self, v) -> str:
        return str(v)

    def short(self) -> str:
        raise NotImplementedError

    # raw-value arithmetic -------------------------------------------------
    def _unwrap(self, xs) -> list:
        """The raw values of xs, read once at the entry of a raw-value loop.

        Each x must be an element of this field or an int; an element of any
        other field is refused, as FieldElement arithmetic refuses it, so an
        F_p entry never slips into an F_{p^k} loop.
        """
        out = []
        for x in xs:
            if type(x) is FieldElement:
                if x.field is not self and x.field != self:
                    raise PreconditionError(
                        "field mismatch: %r vs %r (use an explicit embedding)"
                        % (self, x.field)
                    )
                out.append(x.v)
            elif isinstance(x, int):
                out.append(self(x).v)
            else:
                raise PreconditionError(f"{x!r} is not an element of {self.short()}")
        return out

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    # whole-vector kernels: one call per vector, so that PrimeField can run
    # them on native ints; here they are the loops on _add and _mul
    def _dot(self, a, b):
        """The raw sum of a_i * b_i."""
        add, mul = self._add, self._mul
        acc = self.zero.v
        for x, y in zip(a, b):
            acc = add(acc, mul(x, y))
        return acc

    def _axpy(self, xs, f, ys):
        """The raw list x_i + f * y_i."""
        add, mul = self._add, self._mul
        return [add(x, mul(f, y)) for x, y in zip(xs, ys)]

    def _scale(self, xs, s):
        """The raw list x_i * s."""
        mul = self._mul
        return [mul(x, s) for x in xs]

    def _zeros(self, coeffs):
        """The raw x, in elements() order, where the polynomial with raw
        coefficients coeffs (constant term first, nonzero lead) vanishes."""
        f = Poly._from_raw(self, coeffs)
        return [a.v for a in self.elements() if f(a).is_zero()]

    def sort_key(self, v):
        """Total order on raw values, used only to make outputs deterministic."""
        raise NotImplementedError


class Rationals(Field):
    """The field Q.  Elements wrap Fraction."""

    char = 0
    degree = 1
    order = None

    def __init__(self):
        self.zero = FieldElement(self, Fraction(0))
        self.one = FieldElement(self, Fraction(1))

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise PreconditionError("cannot coerce %r into Q" % (value,))
            return value
        return FieldElement(self, Fraction(value))

    def random(self, rng: random.Random) -> FieldElement:
        return self(Fraction(rng.randint(-999, 999)))

    def short(self) -> str:
        return "Q"

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def _is_zero(self, a) -> bool:
        return a == 0

    def sort_key(self, v):
        return (float(v), v.numerator, v.denominator)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()


class PrimeField(Field):
    """F_p for an odd prime p.  Elements are ints in [0, p).

    Prime fields are interned: PrimeField(p) is PrimeField(p).
    """

    _interned: dict[int, PrimeField] = {}

    def __new__(cls, p: int):
        p = operator.index(p)  # 7.0 must not intern a field of float residues
        F = cls._interned.get(p)
        if F is not None:
            return F
        if p >= PRIME_BOUND:
            raise PreconditionError(f"prime fields are limited to p < {PRIME_BOUND}")
        if not _is_probable_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if p == 2:
            raise UnsupportedFieldError("characteristic 2 is not supported")
        F = super().__new__(cls)
        F.char = p
        F.degree = 1
        F.order = p
        F.zero = FieldElement(F, 0)
        F.one = FieldElement(F, 1)
        return cls._interned.setdefault(p, F)

    def __getnewargs__(self):
        return (self.char,)

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise PreconditionError(
                    "cannot coerce %r into F_%d" % (value, self.char)
                )
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise PreconditionError(f"{value} has a denominator divisible by {self.char}")
            return self(value.numerator) / self(value.denominator)
        return FieldElement(self, value % self.char)

    def elements(self):
        for v in range(self.char):
            yield FieldElement(self, v)

    def random(self, rng: random.Random) -> FieldElement:
        return FieldElement(self, rng.randrange(self.char))

    def short(self) -> str:
        return f"F{self.char}"

    def _add(self, a, b):
        return (a + b) % self.char

    def _neg(self, a):
        return (-a) % self.char

    def _mul(self, a, b):
        return (a * b) % self.char

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def _is_zero(self, a) -> bool:
        return a == 0

    # the vector kernels on native ints: one reduction per output value
    def _dot(self, a, b):
        return sum(map(operator.mul, a, b)) % self.char

    def _axpy(self, xs, f, ys):
        p = self.char
        return [(x + f * y) % p for x, y in zip(xs, ys)]

    def _scale(self, xs, s):
        p = self.char
        return [x * s % p for x in xs]

    def _zeros(self, coeffs):
        # Horner on every element at once, unreduced until the last step
        p = self.char
        lead, *rest = reversed(coeffs)
        xs = range(p)
        vals = [lead] * p
        for c in rest:
            vals = [v * x + c for v, x in zip(vals, xs)]
        return [x for x, v in zip(xs, vals) if not v % p]

    def sort_key(self, v):
        return v

    def __eq__(self, other):
        return self is other or (isinstance(other, PrimeField) and other.char == self.char)

    def __hash__(self):
        return hash(("Fp", self.char))

    def __repr__(self):
        return f"PrimeField({self.char})"


class ExtField(Field):
    """F_{p^k} presented as F_p[x]/(m) for a monic irreducible modulus m.

    Raw values are coefficient tuples of length k, constant term first.
    """

    def __init__(self, p: int, modulus: tuple[int, ...]):
        base = PrimeField(p)
        mod = tuple(c % p for c in modulus)
        if len(mod) < 3 or mod[-1] != 1:
            raise PreconditionError("modulus must be monic of degree at least 2")
        self.char = p
        self.base = base
        self.modulus = mod
        self.degree = len(mod) - 1
        self.order = p ** self.degree
        self.zero = FieldElement(self, (0,) * self.degree)
        self.one = FieldElement(self, (1,) + (0,) * (self.degree - 1))
        # x^e mod m for e in [k, 2k-2], used during multiplication
        k = self.degree
        red = []
        cur = [(-mod[i]) % p for i in range(k)]  # x^k
        red.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(k):
                cur[i] = (cur[i] + top * red[0][i]) % p
            red.append(tuple(cur))
        self._red = red

    def __call__(self, value) -> FieldElement:
        k = self.degree
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            raise PreconditionError(
                "cannot coerce %r into %s without an embedding" % (value, self.short())
            )
        if isinstance(value, int):
            return FieldElement(self, (value % self.char,) + (0,) * (k - 1))
        if isinstance(value, (tuple, list)):
            if len(value) > k:
                raise PreconditionError("coefficient tuple longer than field degree")
            vs = tuple(int(c) % self.char for c in value) + (0,) * (k - len(value))
            return FieldElement(self, vs)
        raise PreconditionError(f"cannot build an element of {self.short()} from {value!r}")

    def gen(self) -> FieldElement:
        """The class of x, a root of the modulus."""
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def elements(self):
        if self.order > 4_000_000:
            raise UnsupportedFieldError("field too large to enumerate")
        p, k = self.char, self.degree
        idx = [0] * k
        while True:
            yield FieldElement(self, tuple(idx))
            j = 0
            while j < k:
                idx[j] += 1
                if idx[j] < p:
                    break
                idx[j] = 0
                j += 1
            else:
                return

    def random(self, rng: random.Random) -> FieldElement:
        return FieldElement(self, tuple(rng.randrange(self.char) for _ in range(self.degree)))

    def short(self) -> str:
        return f"F{self.char}^{self.degree}"

    def format(self, v) -> str:
        return "(" + ",".join(str(c) for c in v) + ")"

    def _add(self, a, b):
        return tuple((x + y) % self.char for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.char for x in a)

    def _mul(self, a, b):
        p, k = self.char, self.degree
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = [c % p for c in prod[:k]]
        for e in range(k, 2 * k - 1):
            c = prod[e] % p
            if c:
                row = self._red[e - k]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid on coefficient lists over F_p
        p = self.char
        r0 = list(self.modulus)
        r1 = list(a)
        while r1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [0], [1]

        def deg(f):
            return len(f) - 1

        def scale(f, c):
            return [(x * c) % p for x in f]

        def submul(f, g, c, shift):
            # f - c * x^shift * g
            out = list(f)
            while len(out) < len(g) + shift:
                out.append(0)
            for i, x in enumerate(g):
                out[i + shift] = (out[i + shift] - c * x) % p
            while out and out[-1] == 0:
                out.pop()
            return out

        while deg(r1) > 0:
            while deg(r0) >= deg(r1):
                c = (r0[-1] * pow(r1[-1], p - 2, p)) % p
                shift = deg(r0) - deg(r1)
                r0 = submul(r0, r1, c, shift)
                s0 = submul(s0, s1, c, shift)
                if not r0:
                    break
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            # gcd landed in r0; modulus irreducible makes this impossible for a != 0
            raise InconsistencyError("modulus is not irreducible")
        c = pow(r1[0], p - 2, p)
        inv = scale(s1, c)
        inv = inv[: self.degree] + [0] * (self.degree - len(inv))
        return tuple(inv)

    def _is_zero(self, a) -> bool:
        return not any(a)

    def sort_key(self, v):
        return tuple(reversed(v))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtField)
            and other.char == self.char
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fpk", self.char, self.modulus))

    def __repr__(self):
        return f"ExtField({self.char}, {self.modulus})"


class Embedding:
    """Explicit field homomorphism determined by the image of the generator."""

    __slots__ = ("src", "dst", "gen_image")

    def __init__(self, src: Field, dst: Field, gen_image: FieldElement | None):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.src:
            raise PreconditionError("element %r is not in the embedding source" % (x,))
        if isinstance(self.src, (PrimeField, Rationals)) or self.src == self.dst:
            return self.dst(x.v if isinstance(x.v, int) else x)
        acc = self.dst.zero
        for c in reversed(x.v):
            acc = acc * self.gen_image + self.dst(c)
        return acc

    def map_poly(self, f: "Poly") -> "Poly":
        return Poly(self.dst, [self(c) for c in f.c])

    def __repr__(self):
        return f"Embedding({self.src.short()} -> {self.dst.short()})"


def identity_embedding(field: Field) -> Embedding:
    gi = field.gen() if isinstance(field, ExtField) else None
    return Embedding(field, field, gi)


def compose_embeddings(first: Embedding, second: Embedding) -> Embedding:
    """The embedding second(first(.)) with source first.src and target second.dst."""
    if first.dst != second.src:
        raise PreconditionError("embeddings do not compose")
    if isinstance(first.src, (PrimeField, Rationals)):
        return Embedding(first.src, second.dst, None)
    if first.gen_image is None:
        raise InconsistencyError("extension embedding lacks a generator image")
    return Embedding(first.src, second.dst, second(first.gen_image))


# ---------------------------------------------------------------------------
# univariate polynomials


class Poly:
    """Dense univariate polynomial over one of the fields above.

    The raw coefficients are stored in v, constant term first with trailing
    zeros stripped, so the zero polynomial has an empty tuple and degree -1;
    c wraps them as elements when it is read.  Arithmetic runs on v with the
    field's vector kernels and refuses a polynomial over another field.
    """

    __slots__ = ("field", "v")

    def __init__(self, field: Field, coeffs):
        # ints and Fractions coerce; field(c) refuses an element of another field
        vals = [field(c).v for c in coeffs]
        n = len(vals)
        while n and field._is_zero(vals[n - 1]):
            n -= 1
        self.field = field
        self.v = tuple(vals[:n])

    @classmethod
    def _from_raw(cls, field: Field, vals) -> "Poly":
        """The polynomial with these raw coefficients, already in field."""
        is_zero = field._is_zero
        n = len(vals)
        while n and is_zero(vals[n - 1]):
            n -= 1
        f = object.__new__(cls)
        f.field = field
        f.v = tuple(vals[:n])
        return f

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def constant(cls, field: Field, value) -> "Poly":
        return cls(field, [value])

    @property
    def c(self) -> tuple:
        """The coefficients as elements, constant term first."""
        field = self.field
        return tuple([FieldElement(field, x) for x in self.v])

    @property
    def degree(self) -> int:
        return len(self.v) - 1

    def is_zero(self) -> bool:
        return not self.v

    def lead(self) -> FieldElement:
        if not self.v:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.v[-1])

    def monic(self) -> "Poly":
        if not self.v:
            return self
        field = self.field
        return Poly._from_raw(field, field._scale(self.v, field._inv(self.v[-1])))

    def _other(self, other: "Poly") -> tuple:
        """other's raw coefficients, refused when it lives over another field."""
        if other.field is not self.field and other.field != self.field:
            raise PreconditionError(f"field mismatch: {self.field!r} vs {other.field!r} "
                                    "(use an explicit embedding)")
        return other.v

    def __add__(self, other):
        field = self.field
        a, b = self.v, self._other(other)
        if len(a) < len(b):
            a, b = b, a
        add = field._add
        return Poly._from_raw(field, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field._neg
        return Poly._from_raw(self.field, [neg(x) for x in self.v])

    def __mul__(self, other):
        field = self.field
        if isinstance(other, FieldElement):
            (o,) = field._unwrap((other,))
            return Poly._from_raw(field, field._scale(self.v, o))
        a, b = self.v, self._other(other)
        if not a or not b:
            return Poly._from_raw(field, ())
        out, n = [field.zero.v] * (len(a) + len(b) - 1), len(b)
        for i, x in enumerate(a):
            if not field._is_zero(x):
                out[i:i + n] = field._axpy(out[i:i + n], x, b)
        return Poly._from_raw(field, out)

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self * self.field(other)
        return NotImplemented

    def __divmod__(self, other: "Poly"):
        field = self.field
        dv = self._other(other)
        if not dv:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly._from_raw(field, ()), self
        axpy, neg, is_zero = field._axpy, field._neg, field._is_zero
        rem = list(self.v)
        d = len(dv) - 1
        # divide by the monic other / lead, and the quotient by lead at the end
        inv = field._inv(dv[d])
        low = dv[:d] if inv == field.one.v else field._scale(dv[:d], inv)
        quot = [None] * (len(rem) - d)
        # each step clears rem[i + d], so only rem[i:i + d] is updated
        for i in range(len(quot) - 1, -1, -1):
            coef = quot[i] = rem[i + d]
            if not is_zero(coef):
                rem[i:i + d] = axpy(rem[i:i + d], neg(coef), low)
        if inv != field.one.v:
            quot = field._scale(quot, inv)
        return Poly._from_raw(field, quot), Poly._from_raw(field, rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.v == other.v

    def __hash__(self):
        return hash((self.field, self.v))

    def __call__(self, x: FieldElement) -> FieldElement:
        field = self.field
        (x,) = field._unwrap((x,))
        if not self.v:
            return field.zero
        add, mul = field._add, field._mul
        acc = self.v[-1]
        for c in self.v[-2::-1]:
            acc = add(mul(acc, x), c)
        return FieldElement(field, acc)

    def derivative(self) -> "Poly":
        return Poly(self.field, [c * i for i, c in enumerate(self.c) if i])

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        out = Poly(self.field, [1])
        base = self % mod
        while n:
            if n & 1:
                out = (out * base) % mod
            base = (base * base) % mod
            n >>= 1
        return out

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        field = self.field
        terms = [f"{field.format(x)}*x^{i}" for i, x in enumerate(self.v) if not field._is_zero(x)]
        return "Poly(" + " + ".join(terms) + f" over {field.short()})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


# ---------------------------------------------------------------------------
# factorization over finite fields


def _pth_root(field: Field, x: FieldElement) -> FieldElement:
    # Frobenius is a bijection, so x^(p^(k-1)) is the unique p-th root.
    k = field.degree
    if k == 1:
        return x
    return x ** (field.char ** (k - 1))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yedidia-style decomposition f = prod g_i^i with each g_i squarefree."""
    field = f.field
    out: list[tuple[Poly, int]] = []
    if f.degree < 1:
        return out
    f = f.monic()
    p = field.char

    def decompose(f: Poly, mult: int):
        d = f.derivative()
        if d.is_zero():
            # f is a p-th power; take the root and recurse with multiplicity p
            root_cs = [_pth_root(field, c) for c in f.c[::p]]
            decompose(Poly(field, root_cs), mult * p)
            return
        w = poly_gcd(f, d)
        s = f // w  # product of distinct factors of multiplicity not divisible by p
        i = 1
        while s.degree > 0:
            y = poly_gcd(s, w)
            piece = s // y
            if piece.degree > 0:
                out.append((piece.monic(), i * mult))
            s = y
            w = w // y
            i += 1
        if w.degree > 0:
            decompose(w, mult)

    decompose(f, 1)
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a squarefree monic f into products of same-degree irreducibles."""
    field = f.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = h.pow_mod(q, rest)
        g = poly_gcd(rest, h - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _split(f: Poly, d: int, rng: random.Random) -> Poly:
    """A proper monic factor of f, a product of degree-d primes over an
    odd-order field, by one Cantor-Zassenhaus split."""
    field = f.field
    exp = (field.order**d - 1) // 2
    while True:
        a = Poly(field, [field.random(rng) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if not 0 < g.degree < f.degree:
            g = poly_gcd(a.pow_mod(exp, f) - Poly(field, [1]), f)
        if 0 < g.degree < f.degree:
            return g


def _equal_degree_factor(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus over odd-order fields for products of degree-d primes."""
    if f.degree == d:
        return [f.monic()]
    g = _split(f, d, rng)
    return _equal_degree_factor(g, d, rng) + _equal_degree_factor((f // g).monic(), d, rng)


def _one_root(f: Poly, rng: random.Random) -> FieldElement:
    """One root of a monic f with deg(f) distinct roots in its field: split,
    and keep only the smaller side."""
    while f.degree > 1:
        g = _split(f, 1, rng)
        h = f // g
        f = g if g.degree <= h.degree else h
    return -f.c[0] / f.c[1]


def frobenius_orbit(f: Poly, emb: Embedding, rng: random.Random) -> list[FieldElement]:
    """The roots r, r^q, ..., r^(q^(d-1)) in emb.dst of a monic irreducible f
    of degree d over F_q: r by splitting, then its checked conjugates."""
    lifted = emb.map_poly(f)
    conj = [_one_root(lifted, rng)]
    for _ in range(f.degree - 1):
        conj.append(conj[-1] ** f.field.order)
    if len(set(conj)) != f.degree or any(not lifted(r).is_zero() for r in conj):
        raise InconsistencyError("irreducible factor failed to split in the splitting field")
    return conj


def factor(f: Poly, seed: int = 0) -> list[tuple[Poly, int]]:
    """Full factorization over a finite field: list of (monic irreducible, multiplicity)."""
    field = f.field
    if field.order is None:
        raise UnsupportedFieldError("factorization implemented over finite fields only")
    if f.degree < 1:
        raise PreconditionError("cannot factor a constant")
    rng = random.Random(seed)
    result: list[tuple[Poly, int]] = []
    for sf, mult in squarefree_decomposition(f):
        for prod, d in _distinct_degree(sf):
            for irr in _equal_degree_factor(prod, d, rng):
                result.append((irr, mult))
    result.sort(key=lambda pair: (pair[0].degree, [field.sort_key(c) for c in pair[0].v]))
    return result


def is_irreducible(f: Poly) -> bool:
    """Irreducibility via absence of factors of degree at most deg(f)/2.

    A proper factorization always contains a factor of degree <= deg/2, and a
    degree-e factor contributes roots of x^(q^e) - x.
    """
    field = f.field
    if field.order is None:
        raise UnsupportedFieldError("irreducibility test implemented over finite fields only")
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    d = f.derivative()
    if d.is_zero() or poly_gcd(f, d).degree > 0:
        return False
    x = Poly.x(field)
    h = x
    for _ in range(f.degree // 2):
        h = h.pow_mod(field.order, f)
        if poly_gcd(f, h - x).degree > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# field extension with explicit embedding


@functools.lru_cache(maxsize=64)
def _find_irreducible(base: PrimeField, degree: int, seed: int) -> Poly:
    """A pure function of its arguments, so each modulus is searched once."""
    p = base.char
    # deterministic sweep first, then a bounded seeded random search
    for a in range(1, min(p, 50)):
        f = Poly(base, [-a] + [0] * (degree - 1) + [1])
        if is_irreducible(f):
            return f
    rng = random.Random(seed)
    for _ in range(400):
        coeffs = [base.random(rng) for _ in range(degree)] + [base.one]
        f = Poly(base, coeffs)
        if is_irreducible(f):
            return f
    raise PreconditionError(
        f"no irreducible modulus of degree {degree} over F_{p} found in the search budget"
    )


def extend_field(base: Field, degree: int, seed: int = 0) -> tuple[ExtField, Embedding]:
    """Construct F_{q^degree} over base = F_q together with the embedding.

    The returned field is always presented over the prime field; for an
    extension base the embedding sends the base generator to a root of the
    base modulus in the new field.
    """
    if base.char == 0:
        raise UnsupportedFieldError("no algebraic extension tower over Q is supported")
    if degree < 2:
        raise PreconditionError("extension degree must be at least 2")
    prime = PrimeField(base.char)
    total = base.degree * degree
    modulus = _find_irreducible(prime, total, seed)
    ext = ExtField(base.char, modulus.v)
    if isinstance(base, PrimeField):
        return ext, Embedding(base, ext, None)
    # embed the base by sending its generator to a root of its modulus
    base_mod = Poly(ext, [int(c) for c in base.modulus])
    rr = roots(base_mod, allow_extension=False, seed=seed)
    if not rr.pairs:
        raise InconsistencyError("base modulus has no root in the compositum")
    gen_image = rr.pairs[0][0]
    return ext, Embedding(base, ext, gen_image)


# ---------------------------------------------------------------------------
# root extraction


class RootResult:
    """Roots of a univariate polynomial, each tagged with its field.

    pairs lists (root, multiplicity) sorted deterministically; base-field roots
    come first.  When allow_extension produced roots outside the base field,
    splitting holds (extension_field, embedding_from_base).
    """

    def __init__(self, base: Field, pairs, splitting=None):
        self.base = base
        self.pairs = pairs
        self.splitting = splitting

    def __repr__(self):
        return f"RootResult({self.pairs!r})"


def _deflate(f: Poly, a: FieldElement) -> tuple[Poly, int]:
    """Divide out x - a as often as it divides f: (cofactor, multiplicity)."""
    lin = Poly(f.field, [-a, 1])
    mult = 0
    while True:
        q, r = divmod(f, lin)
        if not r.is_zero():
            return f, mult
        mult += 1
        f = q


def _scan_roots(f: Poly) -> list[tuple[FieldElement, int]]:
    """The roots of f in elements() order, by the field's raw root scan.
    deg f distinct roots are all simple, so only fewer roots need _deflate."""
    field = f.field
    zs = [FieldElement(field, x) for x in field._zeros(f.v)]
    if len(zs) == f.degree:
        return [(a, 1) for a in zs]
    return [(a, _deflate(f, a)[1]) for a in zs]


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        x = rng.randrange(2, n - 1)
        y, c, d = x, rng.randrange(1, n - 1), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _int_divisors(n: int, cap: int = 100_000) -> list[int]:
    """All positive divisors of n via full factorization; bounded count."""
    n = abs(n)
    if n == 0:
        return [1]
    fac: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 65_536:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            if m >= PRIME_BOUND:
                raise UnsupportedFieldError(
                    "rational root search: a cofactor is too large to prove prime"
                )
            fac[m] = fac.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.extend((f, m // f))
    count = 1
    for e in fac.values():
        count *= e + 1
        if count > cap:
            raise UnsupportedFieldError(
                "rational root search: coefficient has too many divisors"
            )
    divs = [1]
    for p, e in fac.items():
        divs = [dd * p**k for dd in divs for k in range(e + 1)]
    return sorted(divs)


def _rational_roots(f: Poly) -> list[tuple[FieldElement, int]]:
    # clear denominators, then run the rational root test with multiplicities
    den = 1
    for c in f.v:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in f.v]
    out = []
    g = f
    # root at zero
    if ints and ints[0] == 0:
        zero = f.field.zero
        g, mult = _deflate(g, zero)
        out.append((zero, mult))
        while ints and ints[0] == 0:
            ints = ints[1:]
    if not ints:
        return out

    num_divs = _int_divisors(ints[0])
    den_divs = _int_divisors(ints[-1])
    if len(num_divs) * len(den_divs) > 200_000:
        raise UnsupportedFieldError(
            "rational root search: too many candidate fractions"
        )
    # each s/b in lowest terms is tested once, b^n f(s/b) = 0 by integer
    # Horner; a root of f not yet found is one of g, so only a hit deflates
    lead, *rest = reversed(ints)
    for a in num_divs:
        for b in den_divs:
            if math.gcd(a, b) != 1:
                continue
            for s in (a, -a):
                acc, pw = lead, 1
                for c in rest:
                    pw *= b
                    acc = acc * s + c * pw
                if acc == 0:
                    x = f.field(Fraction(s, b))
                    g, mult = _deflate(g, x)
                    out.append((x, mult))
    return out


def roots(f: Poly, allow_extension: bool = False, seed: int = 0) -> RootResult:
    """All roots of f over its base field, with multiplicities.

    Over a finite field with at most SCAN_LIMIT (256) elements the roots
    come from a scan of every element, which is faster there than
    factoring; larger fields use seeded equal-degree splitting, and
    identical seeds give identical output.  Both paths return the same
    roots in the same order.  With
    allow_extension (degree <= 4 only) the remaining roots are returned over
    the splitting field, built over the prime field with an explicit
    embedding; each irreducible factor gives one root r by splitting, and
    its other roots are the Frobenius conjugates r^(q^i).
    """
    if f.degree < 1:
        raise PreconditionError("root extraction needs degree >= 1")
    field = f.field
    if field.order is None:
        if allow_extension:
            raise UnsupportedFieldError("no extension tower over Q: allow_extension is invalid")
        pairs = _rational_roots(f)
        pairs.sort(key=lambda pm: field.sort_key(pm[0].v))
        return RootResult(field, pairs)

    if field.order <= SCAN_LIMIT and not allow_extension:
        pairs = _scan_roots(f)
        pairs.sort(key=lambda pm: field.sort_key(pm[0].v))
        return RootResult(field, pairs)

    facs = factor(f, seed=seed)
    base_pairs = [
        ((-fac.c[0] / fac.c[1]), mult) for fac, mult in facs if fac.degree == 1
    ]
    base_pairs.sort(key=lambda pm: field.sort_key(pm[0].v))
    if not allow_extension:
        return RootResult(field, base_pairs)

    if f.degree > 4:
        raise PreconditionError(
            "allow_extension supports degree <= 4 (splitting stays within one quartic tower)"
        )
    higher = [(fac, mult) for fac, mult in facs if fac.degree > 1]
    if not higher:
        return RootResult(field, base_pairs)
    lcm = 1
    for fac, _ in higher:
        lcm = lcm * fac.degree // math.gcd(lcm, fac.degree)
    ext, emb = extend_field(field, lcm, seed=seed)
    rng = random.Random(seed)
    ext_pairs = []
    for fac, mult in higher:
        ext_pairs.extend((r, mult) for r in frobenius_orbit(fac, emb, rng))
    ext_pairs.sort(key=lambda pm: ext.sort_key(pm[0].v))
    return RootResult(field, base_pairs + ext_pairs, splitting=(ext, emb))


# ---------------------------------------------------------------------------
# wire format: the one reading and writing of fields and scalars in JSON


def field_from_wire(name: str) -> Field:
    """The field named Q, QQ or F<p>; extension fields arise only in outputs.

    A field is written back as its short() name.
    """
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F") and "^" in name:
        raise PreconditionError("extension fields arise only in outputs; start from Q or F<p>")
    if name.startswith("F") and name[1:].isdecimal():
        return PrimeField(int(name[1:]))
    raise PreconditionError(f"unknown field descriptor {name!r}")


def to_wire(x: FieldElement):
    """An int over F_p, an "a/b" string over Q, an int list over F_{p^k}."""
    v = x.v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        try:
            return str(v)
        except ValueError:
            raise PreconditionError(
                "a rational result exceeds Python's limit of "
                f"{sys.get_int_max_str_digits()} digits for integer string conversion"
            ) from None
    return list(v)


def from_wire(field: Field, data) -> FieldElement:
    """Read an int, an "a/b" string or, over F_{p^k}, an int list.

    "a/b" is reduced to lowest terms first; over F_p it is refused when p
    divides the reduced denominator.
    """
    if type(data) is int:
        return field(data)
    if isinstance(data, str):
        try:
            q = Fraction(data)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"cannot read {data!r} as a scalar") from None
        return field(q)
    if isinstance(field, ExtField) and isinstance(data, list) and all(type(c) is int for c in data):
        return field(data)
    raise PreconditionError(f"cannot read {data!r} as a scalar over {field.short()}")
