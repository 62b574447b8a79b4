"""Exact scalar arithmetic over Q[sqrt(2), pi, 1/pi] and half-power polynomials in h.

A :class:`RingElem` is a finite Q-linear combination of monomials
``2^(e/2) * pi^p`` with ``e in {0, 1}`` after normalization (even powers of
sqrt(2) fold into the rational factor) and ``p`` any integer.  A
:class:`HalfPowerPoly` is a finite sum ``sum_k c_k h^(k/2)`` stored sparsely
by the doubled exponent ``k``, which keeps all keys integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput, NegativeEnergy, PrecisionLoss

_SQRT2 = math.sqrt(2.0)
# the largest |e| of a term 2^(e/2) read from JSON: 2^(e/2) stays within the
# float range, and the rational that e folds into stays small.  ``to_json``
# writes e in {0, 1}.
MAX_JSON_SQRT2_POWER = 2046
# the largest |p| of a term pi^p read from JSON: math.pi ** p overflows a
# float from p = 621 on, so a larger p has no float value
MAX_JSON_PI_POWER = 620
# Horner steps that ``horner_source`` nests in one expression: CPython's
# parser stops at 200 nested parentheses, and a statement per step ran the
# kernel's plain step 2-5 % and the oracle's integrands 3-8 % slower
# (microbenchmark, 2-vCPU x86_64, Python 3.11)
_HORNER_NEST = 100


def _as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, (int, float, str)):
        return Fraction(q)  # a float's exact binary expansion, no rounding
    raise TypeError(f"cannot interpret {q!r} as a rational")


def _json_rational(value) -> Fraction:
    """A JSON number or rational string as a Fraction, else InvalidInput."""
    try:
        if not isinstance(value, bool):
            return _as_fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise InvalidInput(f"not a rational: {value!r}")


def _merge(canon: dict, key, q: Fraction):
    """Add the nonzero q at ``key``, dropping the key if the sum is zero."""
    if key in canon:
        q += canon[key]
        if not q:
            del canon[key]
            return
    canon[key] = q


class RingElem:
    """Exact element of the ring Q[sqrt(2), pi, pi^-1].

    Stored as a dict mapping ``(e, p)`` to a nonzero Fraction, with
    ``e in {0, 1}``.  Instances are immutable, so callers must not mutate
    ``terms``: all operators return new elements in canonical form, built
    without a second canonicalising pass, and the float value is computed
    once and kept.  A product of two single-term elements, the common case
    of a factor times a rational, builds its one term directly.
    """

    __slots__ = ("terms", "_float")

    def __init__(self, terms=None):
        canon: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (e, p), q in terms.items():
                q = _as_fraction(q)
                if not q:
                    continue
                if e not in (0, 1):
                    # fold even powers of sqrt(2) into the rational factor
                    q *= Fraction(2) ** (e // 2)
                    e %= 2
                _merge(canon, (e, p), q)
        self.terms = canon
        self._float = None

    @classmethod
    def _canonical(cls, terms: dict) -> "RingElem":
        """Wrap a dict that is already canonical: keys with e in {0, 1},
        nonzero Fraction values.  The dict is taken, not copied."""
        elem = object.__new__(cls)
        elem.terms = terms
        elem._float = None
        return elem

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, q, e: int = 0, p: int = 0) -> "RingElem":
        return cls({(e, p): _as_fraction(q)})

    @classmethod
    def rational(cls, q) -> "RingElem":
        q = _as_fraction(q)
        return cls._canonical({(0, 0): q} if q else {})

    @classmethod
    def zero(cls) -> "RingElem":
        return cls._canonical({})

    @classmethod
    def one(cls) -> "RingElem":
        return cls._canonical({(0, 0): Fraction(1)})

    @classmethod
    def coerce(cls, x) -> "RingElem":
        if isinstance(x, RingElem):
            return x
        return cls.rational(_as_fraction(x))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        # false exactly for zero, as for float, so shared formulas skip zeros
        return bool(self.terms)

    def is_rational(self) -> bool:
        return all(key == (0, 0) for key in self.terms)

    def as_rational(self) -> Fraction:
        """The value as a plain Fraction; raises if sqrt(2) or pi survive."""
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.terms[(0, 0)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RingElem":
        other = RingElem.coerce(other)
        merged = dict(self.terms)
        for key, q in other.terms.items():
            merged[key] = merged[key] + q if key in merged else q
        return RingElem._canonical({k: v for k, v in merged.items() if v})

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return RingElem._canonical({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "RingElem":
        return self + (-RingElem.coerce(other))

    def __mul__(self, other) -> "RingElem":
        other = RingElem.coerce(other)
        # 86-94 % of the benchmark pools' products; this path runs `exact`
        # 1.6 % faster than the general loop alone (perfbench, 2-vCPU x86_64)
        if len(self.terms) == 1 == len(other.terms):
            ((e, p), q), = self.terms.items()
            ((e2, p2), q2), = other.terms.items()
            e, q = e + e2, q * q2  # nonzero, as both factors are
            if e == 2:  # sqrt(2)^2 = 2 folds into the rational factor
                e, q = 0, q * 2
            return RingElem._canonical({(e, p + p2): q})
        out: dict[tuple[int, int], Fraction] = {}
        for (e1, p1), q1 in self.terms.items():
            for (e2, p2), q2 in other.terms.items():
                key = (e1 + e2, p1 + p2)
                q = q1 * q2
                out[key] = out[key] + q if key in out else q
        canon: dict[tuple[int, int], Fraction] = {}
        for (e, p), q in out.items():
            if q:
                if e == 2:
                    # sqrt(2)^2 = 2 folds into the rational factor
                    q *= 2
                    e = 0
                _merge(canon, (e, p), q)
        return RingElem._canonical(canon)

    __rmul__ = __mul__

    def invert_monomial(self) -> "RingElem":
        """Inverse of a single-term element (q * 2^(e/2) * pi^p)."""
        if len(self.terms) != 1:
            raise ValueError("can only invert single-monomial elements")
        ((e, p), q), = self.terms.items()
        # (2^(1/2))^-1 = 2^(-1/2); normalization folds the even part
        return RingElem({(-e, -p): 1 / q})

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            return NotImplemented  # "3" is text, not the rational 3
        try:
            other = RingElem.coerce(other)
        except TypeError:
            return NotImplemented
        except (ValueError, OverflowError):
            return False  # NaN or an infinity equals no ring element
        return self.terms == other.terms

    def __hash__(self):
        # a rational element equals its Fraction, and the int or float of
        # the same value, so it must hash like them
        if self.is_rational():
            return hash(self.as_rational())
        return hash(frozenset(self.terms.items()))

    def to_float(self) -> float:
        total = self._float
        if total is None:
            total = 0.0
            for (e, p), q in self.terms.items():
                total += float(q) * (_SQRT2 ** e) * (math.pi ** p)
            self._float = total
        return total

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        out = []
        for (e, p) in sorted(self.terms):
            q = self.terms[(e, p)]
            out.append({"q": f"{q.numerator}/{q.denominator}", "e": e, "p": p})
        return out

    @classmethod
    def from_json(cls, data) -> "RingElem":
        """A rational or ``to_json``'s list of terms, objects with a rational
        "q" and optional int "e" and "p", |e| <= MAX_JSON_SQRT2_POWER and
        |p| <= MAX_JSON_PI_POWER, whose ``to_float`` is finite; anything else
        raises InvalidInput.  ``to_float`` sums float(q) 2^(e/2) pi^p term by
        term, so a term whose q alone overflows a float is rejected even
        where its value would not."""
        if not isinstance(data, list):
            out = cls.rational(_json_rational(data))
        else:
            out = cls.zero()
            for entry in data:
                if not (isinstance(entry, dict)
                        and {"q"} <= entry.keys() <= {"q", "e", "p"}
                        and all(type(entry.get(k, 0)) is int for k in "ep")
                        and abs(entry.get("e", 0)) <= MAX_JSON_SQRT2_POWER
                        and abs(entry.get("p", 0)) <= MAX_JSON_PI_POWER):
                    raise InvalidInput(f"not a term: {entry!r}")
                out += cls.term(_json_rational(entry["q"]), entry.get("e", 0),
                                entry.get("p", 0))
        try:
            if math.isfinite(out.to_float()):
                return out
        except OverflowError:  # float() of a rational beyond the float range
            pass
        raise InvalidInput("a coefficient has no float evaluation")

    def __repr__(self):
        if not self.terms:
            return "RingElem(0)"
        parts = []
        for (e, p) in sorted(self.terms):
            q = self.terms[(e, p)]
            s = str(q)
            if e:
                s += "*sqrt2"
            if p:
                s += f"*pi^{p}" if p != 1 else "*pi"
            parts.append(s)
        return "RingElem(" + " + ".join(parts) + ")"


# module-level constants
SQRT2 = RingElem.term(1, e=1)
PI = RingElem.term(1, p=1)
INV_PI = RingElem.term(1, p=-1)


class HalfPowerPoly:
    """Finite sum sum_k c_k h^(k/2) with exact RingElem coefficients.

    Keys are the doubled exponents k >= 0; zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        canon: dict[int, RingElem] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, RingElem):
                    c = RingElem.coerce(c)
                if c.terms:
                    if k < 0:
                        raise ValueError("negative half-power exponent")
                    if k % 1:  # also true for NaN and the infinities
                        raise ValueError(
                            f"half-power exponent {k!r} is not an integer")
                    canon[int(k)] = c
        self.coeffs = canon

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_key(self):
        """Largest doubled exponent present, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def __add__(self, other: "HalfPowerPoly") -> "HalfPowerPoly":
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged[k] + c if k in merged else c
        return HalfPowerPoly(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfPowerPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.coeffs.items()))

    def eval(self, h: float) -> float:
        if not 0 <= h < math.inf:  # written so that NaN fails it
            raise NegativeEnergy(f"h = {h} < 0" if h < 0 else
                                 f"h = {h} is infinite" if h > 0 else
                                 f"h = {h} is not a number")
        s = math.sqrt(h)
        try:
            # from 0.0, so that the zero polynomial evaluates to a float
            total = sum((c.to_float() * s ** k
                         for k, c in self.coeffs.items()), 0.0)
        except OverflowError:
            total = math.inf
        if math.isfinite(total):
            return total
        what = "the sum"  # unless a term alone leaves the float range
        for k in sorted(self.coeffs):
            try:
                term = self.coeffs[k].to_float() * s ** k
            except OverflowError:
                term = math.inf
            if not math.isfinite(term):
                what = f"the h^{k // 2} term" if k % 2 == 0 \
                    else f"the h^({k}/2) term"
                break
        raise PrecisionLoss(f"h = {h}: {what} overflows a float")

    def to_s_poly(self):
        """Dense float coefficients of Q(s) with Q(sqrt(h)) = P(h), ascending in s."""
        deg = self.degree_key()
        if deg is None:
            return [0.0]
        out = [0.0] * (deg + 1)
        for k, c in self.coeffs.items():
            out[k] = c.to_float()
        return out

    def to_json(self) -> dict:
        return {str(k): self.coeffs[k].to_json() for k in sorted(self.coeffs)}

    def __repr__(self):
        if not self.coeffs:
            return "HalfPowerPoly(0)"
        parts = [f"({c!r})*h^({k}/2)" for k, c in sorted(self.coeffs.items())]
        return "HalfPowerPoly(" + " + ".join(parts) + ")"


# -- dense float polynomials ---------------------------------------------------


def polyval(coeffs, x: float) -> float:
    """Horner evaluation of sum_k coeffs[k] * x^k (coefficients ascending)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_antideriv(coeffs):
    """Coefficients of the antiderivative with zero constant term."""
    return [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]


# -- generated code ------------------------------------------------------------
# the one writer of the code ``_kernel_py`` and ``oracle`` compile per shape


def unpack_source(y: str, n: int):
    """The locals y0..y{n-1} and the source line that unpacks the
    sequence {y} of n coefficients, ascending, into them."""
    names = [f"{y}{k}" for k in range(n)]
    return names, "(" + "".join(f"{c}, " for c in names) + f") = {y}"


def horner_source(out: str, names, x: str) -> list:
    """Source lines that leave in ``out`` the value at ``x`` of the
    polynomial whose coefficients are the locals ``names``, ascending:
    ``polyval``'s chain written out, one nested expression per
    _HORNER_NEST steps, so no length meets the parser's limit of 200
    nested parentheses.  The chain starts at the top coefficient, where
    ``polyval`` computes 0.0*x + top: at a finite x the same, unless the
    top is -0.0, which 0.0*x + top may turn into +0.0, a zero that the
    first nonzero coefficient below absorbs.  So the chain has
    ``polyval``'s bits but for the sign of an all-zero polynomial."""
    if not names:
        return [f"{out} = 0.0"]
    desc = names[::-1]
    src, acc = [], desc[0]
    for i in range(1, len(desc), _HORNER_NEST):
        steps = desc[i:i + _HORNER_NEST]
        src.append(f"{out} = " + "(" * (len(steps) - 1) + acc
                   + "".join(f" * {x} + {c})" for c in steps[:-1])
                   + f" * {x} + {steps[-1]}")
        acc = out
    return src or [f"{out} = {acc}"]


def horner_deriv_source(out: str, deriv: str, names, x: str) -> list:
    """Source lines that leave in ``out`` and ``deriv`` the value at ``x``
    of the polynomial with the ascending coefficient locals ``names`` and
    of its derivative: the Horner-with-derivative chain, one statement a
    step, from the top coefficient as in ``horner_source``."""
    if not names:
        return [f"{out} = {deriv} = 0.0"]
    if len(names) == 1:
        return [f"{deriv} = 0.0", f"{out} = {names[0]}"]
    top, *rest = names[::-1]
    src = [f"{deriv} = {top}", f"{out} = {top} * {x} + {rest[0]}"]
    for c in rest[1:]:
        src += [f"{deriv} = {deriv} * {x} + {out}",
                f"{out} = {out} * {x} + {c}"]
    return src


def compile_source(name: str, src, scope: dict):
    """The function ``name`` that the source lines ``src``, its def line
    and then its body, define in the globals ``scope``."""
    exec("\n    ".join(src), scope)
    return scope[name]
