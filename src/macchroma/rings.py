"""Exact coefficient rings.

Two rings cover every computation in the package, and one sparse
implementation serves both:

* ``LaurentQT`` -- Laurent polynomials in q and t over the rationals;
* ``AlphaPoly`` -- polynomials in the deformation parameter (printed ``a``)
  over the rationals.  It is the one-variable case of ``LaurentQT``'s code
  and adds only that exponents are nonnegative, and evaluation.

A value maps exponent tuples, one entry per variable (``(q_exp, t_exp)``,
or ``(a_exp,)``), to nonzero coefficients, each an ``int`` or a
``fractions.Fraction``.  The constructor is the one place zero coefficients
are dropped: arithmetic and substitution sum into a plain dict and hand it
over whole.  Values built from ints (``one``, ``term`` and dicts of ints,
and their sums, products and integer scalings) hold ints, so
integer weights stay in integer arithmetic; a ``Fraction`` enters only
through a division (1/z_lam, a non-unit pivot), through ``parse``, which
reads every coefficient as a ``Fraction``, or as an argument, and an
operation with a ``Fraction`` operand gives a ``Fraction``.
``exact_div`` quotients and ``AlphaPoly.substitute`` values are ints when
integral.  An ``int`` and the ``Fraction`` of the same value compare and
hash equal, so equality never depends on which one is stored.
Construction, arithmetic, equality, hashing, parsing and printing all live
in ``LaurentQT``'s class body and read the variables off the class.  Values
are immutable after construction and safe to share across threads.
Canonical printing orders terms by ascending exponent tuple (q before t),
so string output is deterministic.

``mask_products`` is the one table of per-down-edge weight products by
subset mask that the filling and chromatic routes read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import add, sub

# Exponents are bounded machine integers; desk-scale degrees never get near
# this, but every constructed value is checked so silent wraparound can never
# occur if the code is ever ported to fixed-width arithmetic.
_EXP_BOUND = 1 << 31

_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^([a-zA-Z])(?:\^(-?\d+))?$")


class InexactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _as_coeff(c):
    """c as a coefficient: an ``int`` or a ``Fraction``."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _exact(c: Fraction):
    """An exact quotient as an ``int`` when integral, else the ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _parse_term(token: str, varnames: tuple[str, ...]):
    """Parse one ``c*x^a*y^b`` token into (coefficient, exponent dict)."""
    coeff = Fraction(1)
    exps: dict[str, int] = {}
    saw_var = False
    saw_coeff = False
    for piece in token.split("*"):
        if _RAT_RE.match(piece):
            if saw_coeff or saw_var:
                raise ValueError(f"malformed term {token!r}")
            coeff = Fraction(piece)
            saw_coeff = True
            continue
        m = _VAR_RE.match(piece)
        if not m or m.group(1) not in varnames:
            raise ValueError(f"malformed term {token!r}")
        name, exp = m.group(1), int(m.group(2)) if m.group(2) else 1
        if name in exps:
            raise ValueError(f"repeated variable in term {token!r}")
        exps[name] = exp
        saw_var = True
    return coeff, exps


def _parse_expr(text: str, varnames: tuple[str, ...]):
    """Parse a canonical polynomial string into (coefficient, exponents) pairs."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return []
    tokens = s.split(" ")
    out = []
    sign = 1
    if tokens[0].startswith("-"):
        sign = -1
        tokens[0] = tokens[0][1:]
    expect_term = True
    for tok in tokens:
        if expect_term:
            coeff, exps = _parse_term(tok, varnames)
            out.append((sign * coeff, exps))
            expect_term = False
        else:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ValueError(f"expected '+' or '-', got {tok!r}")
            expect_term = True
    if expect_term:
        raise ValueError(f"dangling operator in {text!r}")
    return out


class LaurentQT:
    """Laurent polynomial in q and t with rational coefficients.

    Terms are stored sparsely as ``{(q_exp, t_exp): coefficient}`` with no
    zero coefficients; a coefficient is an ``int`` or a ``Fraction``.
    Instances are immutable; all operations return new values of the
    operands' class, so subclasses over other variables (``VARS``) and
    another lowest exponent (``_MIN_EXP``) share every method.
    """

    __slots__ = ("_terms",)
    VARS = ("q", "t")
    _MIN_EXP = 1 - _EXP_BOUND

    def __init__(self, terms=None):
        tidy: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c.__class__ is not int and c.__class__ is not Fraction:
                    c = _as_coeff(c)
                if c:
                    tidy[key] = c
        if tidy:
            # every exponent of every key, checked in one pass; most values
            # built by term and one have a single key
            flat = next(iter(tidy)) if len(tidy) == 1 else tuple(chain.from_iterable(tidy))
            if len(flat) != len(self.VARS) * len(tidy):
                raise ValueError(f"{type(self).__name__} keys need one exponent per variable {self.VARS}")
            lo, hi = min(flat), max(flat)
            if lo < self._MIN_EXP or hi >= _EXP_BOUND:
                if max(-lo, hi) >= _EXP_BOUND:
                    raise OverflowError(f"{type(self).__name__} exponent overflow")
                raise ValueError(f"negative exponent in {type(self).__name__}")
        object.__setattr__(self, "_terms", tidy)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0,) * len(cls.VARS): 1})

    @classmethod
    def term(cls, coeff, *exps: int):
        """``coeff`` times the monomial with these exponents (missing ones 0)."""
        return cls({exps + (0,) * (len(cls.VARS) - len(exps)): coeff})

    @classmethod
    def parse(cls, text: str):
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for coeff, exps in _parse_expr(text, cls.VARS):
            key = tuple(exps.get(name, 0) for name in cls.VARS)
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def has_negative_exponents(self) -> bool:
        return any(min(key) < 0 for key in self._terms)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0) + c
        return self.__class__(acc)

    def __neg__(self):
        return self.__class__({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0) - c
        return self.__class__(acc)

    def __mul__(self, other):
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for k1, c in self._terms.items():
            for k2, d in other._terms.items():
                key = tuple(map(add, k1, k2))
                acc[key] = acc.get(key, 0) + c * d
        return self.__class__(acc)

    def scale(self, scalar):
        scalar = _as_coeff(scalar)
        return self.__class__({key: c * scalar for key, c in self._terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        result = self.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- substitutions -----------------------------------------------------

    def substitute_q(self, sign: int, t_exp: int) -> "LaurentQT":
        """Replace q by ``sign * t**t_exp`` (sign must be +1 or -1)."""
        return self._substitute(0, sign, t_exp)

    def substitute_t(self, sign: int, q_exp: int) -> "LaurentQT":
        """Replace t by ``sign * q**q_exp`` (sign must be +1 or -1)."""
        return self._substitute(1, sign, q_exp)

    def _substitute(self, var: int, sign: int, exp: int) -> "LaurentQT":
        """Replace variable ``var`` (0 for q, 1 for t) by ``sign`` times the
        other variable to the power ``exp``."""
        if self.VARS != ("q", "t"):
            raise TypeError(f"{type(self).__name__} has no q or t to substitute")
        if sign not in (1, -1):
            raise ValueError("substitution image must have coefficient +1 or -1")
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for key, c in self._terms.items():
            e = key[var]
            kept = key[1 - var] + e * exp
            image = (0, kept) if var == 0 else (kept, 0)
            acc[image] = acc.get(image, 0) + (-c if sign < 0 and e % 2 else c)
        return LaurentQT(acc)

    # -- division ----------------------------------------------------------

    def _valuations(self) -> tuple[int, ...]:
        return tuple(map(min, zip(*self._terms)))

    def exact_div(self, divisor):
        """Exact quotient self / divisor; raises InexactDivision otherwise.

        Both operands may be Laurent; valuations are stripped first, then
        ordinary multivariate division runs under lexicographic term order.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.__class__()
        va, vd = self._valuations(), divisor._valuations()
        rem = {tuple(map(sub, key, va)): c for key, c in self._terms.items()}
        den = {tuple(map(sub, key, vd)): c for key, c in divisor._terms.items()}
        lead_d = max(den)
        lead_dc = den[lead_d]
        quot: dict[tuple[int, ...], int | Fraction] = {}
        while rem:
            lead_r = max(rem)
            shift = tuple(map(sub, lead_r, lead_d))
            if min(shift) < 0:
                raise InexactDivision("remainder nonzero")
            factor = _exact(Fraction(rem[lead_r], lead_dc))
            quot[shift] = factor
            for key, c in den.items():
                key = tuple(map(add, key, shift))
                s = rem.get(key, 0) - factor * c
                if s:
                    rem[key] = s
                else:
                    del rem[key]
        offset = tuple(map(sub, va, vd))
        # the quotient's lowest exponents are the offset; one below the class's
        # lowest exponent (short of overflow) makes a quotient outside the ring
        if -_EXP_BOUND < min(offset) < self._MIN_EXP:
            raise InexactDivision("quotient has an exponent below the ring's lowest")
        return self.__class__({tuple(map(add, key, offset)): c for key, c in quot.items()})

    # -- predicates --------------------------------------------------------

    def is_palindromic_in_t(self) -> bool:
        """Whether the dense t-coefficient sequence reads the same reversed.

        Requires a pure t-polynomial (q-exponent zero everywhere); interior
        zero coefficients count in the sequence.
        """
        if self.VARS != ("q", "t"):
            raise TypeError(f"{type(self).__name__} is not a polynomial in q and t")
        if any(qa != 0 for qa, _ in self._terms):
            raise ValueError("mixed q,t input")
        if not self._terms:
            return True
        lo = min(tb for _, tb in self._terms)
        hi = max(tb for _, tb in self._terms)
        seq = [self._terms.get((0, tb), 0) for tb in range(lo, hi + 1)]
        return seq == seq[::-1]

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for key in sorted(self._terms):
            coeff = self._terms[key]
            varpart = "*".join(name if e == 1 else f"{name}^{e}"
                               for name, e in zip(self.VARS, key) if e)
            mag = -coeff if coeff < 0 else coeff
            if not varpart:
                body = str(mag)
            elif mag == 1:
                body = varpart
            else:
                body = f"{mag}*{varpart}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class AlphaPoly(LaurentQT):
    """Polynomial over the rationals in the parameter ``a``, stored as
    ``{(a_exp,): coefficient}`` (an ``int`` or a ``Fraction``); negative
    exponents are rejected.

    The q,t-specific methods (``substitute_q``/``substitute_t``,
    ``is_palindromic_in_t``) raise ``TypeError`` on it.
    """

    __slots__ = ()
    VARS = ("a",)
    _MIN_EXP = 0

    def substitute(self, value) -> int | Fraction:
        """Evaluate at a rational value of the parameter: an ``int`` if the
        value is integral, else a ``Fraction``."""
        value = _as_coeff(value)
        return _exact(Fraction(sum(c * value**e for (e,), c in self._terms.items())))


def mask_products(one, pairs) -> list:
    """The products ``one * prod_i (set_i if bit i of mask else clear_i)``
    over the (clear_i, set_i) ``pairs``, listed by mask = 0 .. 2^k - 1."""
    table = [one]
    for clear, chosen in pairs:
        table = [value * clear for value in table] + [value * chosen for value in table]
    return table
