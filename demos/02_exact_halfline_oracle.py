"""The exact half-line oracle: no floating point, no false verdicts.

For 1x1 matrices membership is just nonnegativity of p on [0, infinity).
That question is decidable in integer arithmetic: strip the vanishing
order at 0, check the end signs, try a Bernstein certificate, and
otherwise isolate the roots of the square-free part by Descartes' rule on
Bernstein coefficients, testing the sign of p between them. Witnesses
come back as exact fractions.
"""

from fractions import Fraction

from nonnegcone import (
    Polynomial,
    RationalPolynomial,
    is_nonneg_on_halfline,
    polya_szego_decompose,
    refute_halfline,
)

CASES = [
    ("(1 - x)^2", [1, -2, 1]),
    ("1 - 2.5 x + x^2", [1, Fraction(-5, 2), 1]),
    ("x (1 - x)^4", [0, 1, -4, 6, -4, 1]),
    ("1 + x^3", [1, 0, 0, 1]),
    ("x^2 - x^3 + x^5", [0, 0, 1, -1, 0, 1]),
]

for label, coeffs in CASES:
    q = RationalPolynomial([Fraction(c) for c in coeffs])
    if is_nonneg_on_halfline(q):
        print(f"{label:20s} member of the half-line cone")
    else:
        w = refute_halfline(q)
        print(f"{label:20s} NOT a member: p({w}) = {q(w)} exactly")

# -- members of the half-line cone carry a two-square certificate
p = Polynomial([1.0, 0.0, 0.0, 1.0])   # 1 + x^3
dec = polya_szego_decompose(p)
print("\n1 + x^3 = f1^2 + f2^2 + x (g1^2 + g2^2) with")
print("  f1 =", dec.f1.coeffs)
print("  f2 =", dec.f2.coeffs)
print("  g1 =", dec.g1.coeffs)
print("  g2 =", dec.g2.coeffs)
print("  reconstruction residual:", dec.residual)
print("  rebuilt coefficients:", dec.reconstruct().trimmed().coeffs)
