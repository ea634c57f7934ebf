"""Locating the sharp center weight t = 2 by bisection.

The structured families keep a fixed nonnegative coefficient pattern and
subtract t at a center degree. Membership is monotone in t, so the
largest safe t is a bisection target. For n = 1 each probe is the exact
half-line oracle and for n = 2 the exact order-2 decision
(exact.is_order2_member), so both ends of these brackets are proofs.
"""

from nonnegcone import SearchConfig, loewy_general, max_t

# -- scalar case: 1 - t x + x^2, threshold exactly 2 (AM-GM)
cfg = SearchConfig(restarts=50, seed=0)
probes = []
lo, hi = max_t(lambda t: loewy_general(1, 1, 0, t), 1, cfg, t_hi=4.0,
               width=0.01, probe_log=probes)
print("n = 1 family 1 - t x + x^2")
print(f"  interval [{lo:.6f}, {hi:.6f}] after {len(probes)} probes")
for t, refuted in probes:
    print(f"    t = {t:<10.6g} {'refuted' if refuted else 'no witness'}")

# -- matrix case: 1 + x - t x^2 + x^3 + x^4 at order 2
cfg = SearchConfig(restarts=60, seed=0)
lo, hi = max_t(lambda t: loewy_general(2, 2, 0, t), 2, cfg, t_hi=4.0,
               width=0.02)
print("\nn = 2 family 1 + x - t x^2 + x^3 + x^4")
print(f"  interval [{lo:.6f}, {hi:.6f}]")
print("  member at interval floor:", loewy_general(2, 2, 0, lo).coeffs)
