"""Refuting cone membership for matrix order n >= 2.

Order 2 has an exact decision, exact.is_order2_member, which maxt and
volume use; no finite decision procedure is known once n >= 3. refute
keeps the search at every n >= 2, as check does: deterministic probe
matrices first, then Nelder-Mead over (row logits, log rho) from seeded
restarts. A witness only counts after exact rational confirmation, so a
Refuted verdict is a proof about the polynomial, while NoRefutationFound
only reports a search budget.
"""

import numpy as np

from nonnegcone import (
    NoRefutationFound,
    Refuted,
    SearchConfig,
    eval_matrix,
    loewy_general,
    refute,
)

cfg = SearchConfig(restarts=60, seed=0)

# -- the sharp example: 1 + x - t x^2 + x^3 + x^4 at matrix order 2
for t in (2.1, 2.0):
    p = loewy_general(2, 2, 0, t)
    verdict = refute(p, 2, cfg)
    print(f"t = {t}: {type(verdict).__name__}")
    if isinstance(verdict, Refuted):
        w = verdict.witness
        print("  witness rho:", w.rho)
        print("  witness S:\n", np.array_str(w.s, precision=6))
        a = w.rho * w.s
        print(f"  p(rho S)[{w.i},{w.j}] = {eval_matrix(p, a)[w.i, w.j]:.6g}"
              f"  (confirmed exactly: {w.value:.6g})")
    elif isinstance(verdict, NoRefutationFound):
        print("  restarts used:", verdict.restarts_used)
        if verdict.best is not None:
            print(f"  smallest entry seen: {verdict.best:.3g}")

# -- verdicts are deterministic functions of (polynomial, n, config)
v1 = refute(loewy_general(2, 2, 0, 2.1), 2, cfg)
v2 = refute(loewy_general(2, 2, 0, 2.1), 2, cfg)
assert isinstance(v1, Refuted) and isinstance(v2, Refuted)
print("\nsame seed, same witness:",
      v1.witness.rho == v2.witness.rho
      and np.array_equal(v1.witness.s, v2.witness.s))
