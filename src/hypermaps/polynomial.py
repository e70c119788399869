"""Exact sparse bivariate polynomials over the integers.

A polynomial in the formal variables m and n is stored as a dict mapping
exponent pairs (e, v) to nonzero integer coefficients:

    m^3*n + 3*m^2*n^2  ->  {(3, 1): 1, (2, 2): 3}

The zero polynomial is the empty dict.  Zero coefficients are never stored,
so two polynomials are equal exactly when their term dicts are equal.  All
coefficients are Python ints (arbitrary precision) and every operation is
exact; there is no floating point anywhere in this module.

Values are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

ExponentPair = Tuple[int, int]
TermMap = Dict[ExponentPair, int]


class NotDivisible(ArithmeticError):
    """An exact-division check failed.

    Every division performed by this package (by r!, by a loop length b, by
    the recurrence denominator r+3) is provably exact, so a nonzero remainder
    always signals an upstream arithmetic bug and is never rounded away.
    """

    def __init__(self, e: int, v: int, coeff: int, divisor: int):
        super().__init__(
            f"coefficient {coeff} of m^{e}*n^{v} is not divisible by {divisor}"
        )
        self.e = e
        self.v = v
        self.coeff = coeff
        self.divisor = divisor


class BivarPoly:
    """Immutable sparse polynomial in two formal variables m and n."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[ExponentPair, int]] = None):
        clean: TermMap = {}
        if terms is not None:
            if not isinstance(terms, Mapping):
                raise TypeError(f"terms must be a mapping, got {type(terms).__name__}")
            for (e, v), c in terms.items():
                if not (isinstance(e, int) and isinstance(v, int)):
                    raise TypeError(f"exponents must be ints, got ({e!r}, {v!r})")
                if e < 0 or v < 0:
                    raise ValueError(f"negative exponent in ({e}, {v})")
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an int")
                if c != 0:
                    clean[(e, v)] = c
        object.__setattr__(self, "_terms", clean)

    # basic protocol -------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def coefficient(self, e: int, v: int) -> int:
        return self._terms.get((e, v), 0)

    def sorted_terms(self):
        """Terms as ((e, v), coeff) sorted by (e descending, v descending)."""
        return sorted(self._terms.items(), reverse=True)  # keys are unique, so coefficients never compare

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self._terms)
        for ev, c in other._terms.items():
            s = out.get(ev, 0) + c
            if s:
                out[ev] = s
            else:
                out.pop(ev, None)
        return _wrap(out)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + other * -1

    def __mul__(self, other: Union["BivarPoly", int]) -> "BivarPoly":
        if isinstance(other, int):
            if other == 0:
                return BivarPoly()
            return _wrap({ev: c * other for ev, c in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: TermMap = {}
        for (e1, v1), c1 in self._terms.items():
            for (e2, v2), c2 in other._terms.items():
                ev = (e1 + e2, v1 + v2)
                s = out.get(ev, 0) + c1 * c2
                if s:
                    out[ev] = s
                else:
                    del out[ev]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "BivarPoly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = BivarPoly({(0, 0): 1})
        for _ in range(exp):
            result = result * self
        return result

    def exact_div(self, d: int) -> "BivarPoly":
        """Divide every coefficient by d, raising NotDivisible on any remainder."""
        if not isinstance(d, int) or d <= 0:
            raise ValueError(f"divisor must be a positive int, got {d!r}")
        out: TermMap = {}
        for (e, v), c in self._terms.items():
            q, rem = divmod(c, d)
            if rem:
                raise NotDivisible(e, v, c, d)
            out[(e, v)] = q
        return _wrap(out)

    # evaluation and substitution -------------------------------------------

    def eval_at(self, m0: int, n0: int) -> int:
        """Exact integer value of the polynomial at (m0, n0)."""
        total = 0
        for (e, v), c in self._terms.items():
            total += c * m0 ** e * n0 ** v
        return total

    def substitute_n(self, n0: int) -> Dict[int, int]:
        """Set n = n0, returning the resulting univariate coefficients {e: coeff}."""
        out: Dict[int, int] = {}
        for (e, v), c in self._terms.items():
            s = out.get(e, 0) + c * n0 ** v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def swap_vars(self) -> "BivarPoly":
        """Exchange the roles of m and n (edge-vertex duality check helper)."""
        return _wrap({(v, e): c for (e, v), c in self._terms.items()})

    # rendering --------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms sorted by (e desc, v desc).

        Examples: "m^3*n + 3*m^2*n^2 + m*n^3 + m*n", "m^2 - n^2", "0".
        """
        if not self._terms:
            return "0"
        pieces = []
        for (e, v), c in self.sorted_terms():
            factors = []
            if e == 1:
                factors.append("m")
            elif e > 1:
                factors.append(f"m^{e}")
            if v == 1:
                factors.append("n")
            elif v > 1:
                factors.append(f"n^{v}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append((c < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    __str__ = render

    def __repr__(self) -> str:
        return f"BivarPoly({dict(self.sorted_terms())!r})"


def _wrap(terms: TermMap) -> BivarPoly:
    """Build a BivarPoly from an already-clean term dict without re-validating."""
    p = BivarPoly.__new__(BivarPoly)
    object.__setattr__(p, "_terms", terms)
    return p


#: The formal variables, m counting edges and n counting vertices.
M = BivarPoly({(1, 0): 1})
N = BivarPoly({(0, 1): 1})
