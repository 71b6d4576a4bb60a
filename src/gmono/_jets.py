"""Truncated Taylor-series (jet) arithmetic.

A jet of length L at a point x0 is the tuple (c_0, ..., c_{L-1}) of Taylor
coefficients c_i = g^(i)(x0)/i!.  Jets support the exact field operations
needed to propagate derivative information through quotient/derivative
chains without finite differencing: the k-fold gauged derivative of f is
obtained by alternating jet differentiation and jet division by gauge jets.

All operations here are exact up to float rounding; there is no step-size
parameter anywhere.
"""

from __future__ import annotations

import math

__all__ = [
    "jet_const",
    "jet_var",
    "jet_sub",
    "jet_scale",
    "jet_mul",
    "jet_div",
    "jet_deriv",
    "jet_compose",
    "jet_exp",
    "jet_power",
]

Jet = tuple


def jet_const(c: float, L: int) -> Jet:
    return (float(c),) + (0.0,) * (L - 1)


def jet_var(x0: float, L: int) -> Jet:
    """Jet of the identity map u -> u at x0."""
    if L == 1:
        return (float(x0),)
    return (float(x0), 1.0) + (0.0,) * (L - 2)


def jet_sub(a: Jet, b: Jet) -> Jet:
    L = min(len(a), len(b))
    return tuple(a[i] - b[i] for i in range(L))


def jet_scale(a: Jet, s: float) -> Jet:
    return tuple(c * s for c in a)


def jet_mul(a: Jet, b: Jet) -> Jet:
    L = min(len(a), len(b))
    out = [0.0] * L
    for i in range(L):
        ai = a[i]
        if ai == 0.0:
            continue
        for k in range(L - i):
            out[i + k] += ai * b[k]
    return tuple(out)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Series quotient a/b; requires b[0] != 0."""
    L = min(len(a), len(b))
    if b[0] == 0.0:
        raise ZeroDivisionError("jet division by series with zero constant term")
    out = [0.0] * L
    for i in range(L):
        acc = a[i]
        for k in range(i):
            acc -= out[k] * b[i - k]
        out[i] = acc / b[0]
    return tuple(out)


def jet_deriv(a: Jet) -> Jet:
    """Jet of the derivative (one order shorter)."""
    return tuple((i + 1) * a[i + 1] for i in range(len(a) - 1))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of g(h(.)) where outer is the jet of g at h(x0) and inner the jet
    of h at x0.  The constant term of inner is ignored (it is the expansion
    point of outer)."""
    L = min(len(outer), len(inner))
    shifted = (0.0,) + tuple(inner[1:L])
    # Horner evaluation of the outer series in the nilpotent part.
    out = jet_const(outer[L - 1], L)
    for i in range(L - 2, -1, -1):
        out = jet_mul(out, shifted)
        out = (out[0] + outer[i],) + out[1:]
    return out


def jet_exp(a: Jet) -> Jet:
    L = len(a)
    out = [math.exp(a[0])] + [0.0] * (L - 1)
    # (e^a)' = a' e^a  =>  (n+1) c_{n+1} = sum_{k} (k+1) a_{k+1} c_{n-k}
    for n in range(L - 1):
        acc = 0.0
        for k in range(n + 1):
            acc += (k + 1) * a[k + 1] * out[n - k]
        out[n + 1] = acc / (n + 1)
    return tuple(out)


def _jet_sincos(a: Jet):
    L = len(a)
    s = [math.sin(a[0])] + [0.0] * (L - 1)
    c = [math.cos(a[0])] + [0.0] * (L - 1)
    for n in range(L - 1):
        sa = 0.0
        ca = 0.0
        for k in range(n + 1):
            sa += (k + 1) * a[k + 1] * c[n - k]
            ca += (k + 1) * a[k + 1] * s[n - k]
        s[n + 1] = sa / (n + 1)
        c[n + 1] = -ca / (n + 1)
    return tuple(s), tuple(c)


def jet_power(a: Jet, p: float) -> Jet:
    """Jet of a**p; requires a[0] > 0 unless p is a nonnegative integer."""
    L = len(a)
    if a[0] <= 0.0 and not (float(p).is_integer() and p >= 0):
        raise ValueError("jet_power needs a positive base for non-integer exponents")
    if a[0] == 0.0:
        out = jet_const(1.0, L)
        for _ in range(int(p)):
            out = jet_mul(out, a)
        return out
    out = [a[0] ** p] + [0.0] * (L - 1)
    # (a^p)' a = p a' a^p
    for n in range(L - 1):
        acc = 0.0
        for k in range(n + 1):
            acc += (p * (k + 1) - (n - k)) * a[k + 1] * out[n - k]
        out[n + 1] = acc / ((n + 1) * a[0])
    return tuple(out)

