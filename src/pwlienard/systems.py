"""Piecewise Lienard system parameterization, JSON serialization, named presets."""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from importlib import resources

from .algebra import RingElem


class Case(enum.Enum):
    """Which coordinate axis carries the sign switch."""

    SWITCH_Y = "Y"  # sgn(y): switching on the x-axis
    SWITCH_X = "X"  # sgn(x): switching on the y-axis

    @property
    def n_integrals(self) -> int:
        """How many arc integrals I_0, I_1, ... the expansion sums; the
        switch-on-y case has the extra endpoint term I_3 before its I_4."""
        return {"Y": 5, "X": 4}[self.value]


# the coefficient vectors of f0, f1, g0, g1 and g, in field order
_VECTORS = ("a0", "a1", "b0", "b1", "c")


def check_params(lam, eps):
    """Reject a lambda or eps that is negative, infinite or NaN."""
    if not (0 <= lam < math.inf and 0 <= eps < math.inf):
        raise ValueError("lambda and eps must be finite and non-negative")


def _coerce_vec(values, length: int) -> list[RingElem]:
    out = [RingElem.coerce(v) for v in values]
    if len(out) > length:
        raise ValueError(f"coefficient vector longer than degree+1 = {length}")
    out += [RingElem.zero()] * (length - len(out))
    return out


@dataclass(frozen=True)
class LienardSystem:
    """Full parameterization of the perturbed system.

    ``a0``/``a1`` are the coefficients of f0/f1 (length m+1), ``b0``/``b1``
    of g0/g1 and ``c`` of g (length n+1).  Degrees are upper bounds; trailing
    zeros are allowed.
    """

    case: Case
    m: int
    n: int
    a0: tuple
    a1: tuple
    b0: tuple
    b1: tuple
    c: tuple
    lam: float = 0.0
    eps: float = 0.0

    @classmethod
    def build(cls, case, m, n, a0=(), a1=(), b0=(), b1=(), c=(),
              lam=0.0, eps=0.0) -> "LienardSystem":
        if isinstance(case, str):
            case = Case(case)
        if m < 0 or n < 0:
            raise ValueError("degrees must be non-negative")
        check_params(lam, eps)
        return cls(
            case=case, m=m, n=n,
            a0=tuple(_coerce_vec(a0, m + 1)),
            a1=tuple(_coerce_vec(a1, m + 1)),
            b0=tuple(_coerce_vec(b0, n + 1)),
            b1=tuple(_coerce_vec(b1, n + 1)),
            c=tuple(_coerce_vec(c, n + 1)),
            lam=float(lam), eps=float(eps),
        )

    def with_params(self, lam: float, eps: float) -> "LienardSystem":
        check_params(lam, eps)
        return replace(self, lam=float(lam), eps=float(eps))

    # -- float views used by the oracle and simulator ----------------------

    def float_coeffs(self) -> dict:
        """The five vectors as tuples of floats, keyed by name.  Converted
        on the first call and kept on the instance, so every later call
        returns the same dict: callers must not mutate it.  A copy made by
        ``replace`` converts its own."""
        fc = self.__dict__.get("_float_coeffs")
        if fc is None:
            fc = {k: tuple([x.to_float() for x in getattr(self, k)])
                  for k in _VECTORS}
            object.__setattr__(self, "_float_coeffs", fc)
        return fc

    def f0_is_odd(self) -> bool:
        return all(self.a0[j].is_zero() for j in range(0, self.m + 1, 2))

    def g0_is_odd(self) -> bool:
        return all(self.b0[j].is_zero() for j in range(0, self.n + 1, 2))

    def odd_projection(self) -> "LienardSystem":
        """Copy with the even-index coefficients of f0 and g0 zeroed."""
        def odd(vec):
            # from a list: tuple() over a generator grows its buffer step by
            # step, which left the verify benchmark's peak RSS 1 MB higher
            return tuple([RingElem.zero() if j % 2 == 0 else v
                          for j, v in enumerate(vec)])

        return replace(self, a0=odd(self.a0), b0=odd(self.b0))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"case": self.case.value, "m": self.m, "n": self.n,
                **{k: [x.to_json() for x in getattr(self, k)] for k in _VECTORS},
                "lambda": self.lam, "eps": self.eps}

    @classmethod
    def from_json(cls, data: dict) -> "LienardSystem":
        return cls.build(
            data["case"], data["m"], data["n"],
            **{k: [RingElem.from_json(v) for v in data.get(k, [])]
               for k in _VECTORS},
            lam=data.get("lambda", 0.0), eps=data.get("eps", 0.0),
        )

    def dumps(self) -> str:
        """Canonical JSON text; byte-stable for round-trip checks."""
        return canonical_dumps(self.to_json())


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


PRESET_NAMES = (
    "example1",
    "example2",
    "remark-eqMM",
    "remark-pw-cubic",
    "remark-smooth-cubic",
)


def _load_preset_file() -> dict:
    path = resources.files("pwlienard").joinpath("data/presets.json")
    return json.loads(path.read_text())


def load_preset(name: str) -> LienardSystem:
    """Named coefficient sets used by the docs, tests and CLI; ``with_params``
    sets lambda and eps on one."""
    data = _load_preset_file()
    if name not in data:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(data)}")
    return LienardSystem.from_json(data[name])
