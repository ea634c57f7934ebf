"""How big is the cone? Monte Carlo fractions of the coefficient ball.

Samples are drawn uniformly in the unit ball of coefficient space and
classified by the membership machinery. For n = 1 and n = 2 the
classification is exact (the half-line oracle, then the order-2
decision), save a rare order-2 row that it leaves to the search. A
sample that exhausts its search budget counts as inside, and an
estimate with such a sample is labeled UpperBiased.
Seeded substreams make every number here reproducible bit for bit.
"""

from nonnegcone import (
    SearchConfig,
    compare_experiment,
    estimate_cone_fraction,
    estimate_projection_fraction,
    estimates_csv,
)

cfg = SearchConfig(restarts=12, max_iters=100, seed=0)

# -- scalar cone fractions shrink as the degree grows
rows = []
for k in (2, 3, 4, 6):
    est = estimate_cone_fraction(1, k, 20000, cfg)
    rows.append(est)
    print(f"n=1 k={k}: fraction {est.fraction:.4f}"
          f"  CI [{est.ci_low:.4f}, {est.ci_high:.4f}]  bias {est.bias}")

# -- the projected one-degree-down shadow is strictly bigger
proj = estimate_projection_fraction(1, 2, 20000, cfg)
print(f"\nprojection of degree-3 members to degree 2:"
      f" fraction {proj.fraction:.4f} vs cone {rows[0].fraction:.4f}")

# -- paired comparison with shared samples and z = 3 intervals
report = compare_experiment("order", {"n_a": 1, "n_b": 2, "k": 4}, 1500,
                            SearchConfig(restarts=8, max_iters=80, seed=0))
a, b = report["estimates"]
print(f"\norder comparison at degree 4, N = 1500 shared samples:")
print(f"  n=1 fraction {a['fraction']:.4f}  [{a['ci_low']:.4f}, {a['ci_high']:.4f}] ({a['bias']})")
print(f"  n=2 fraction {b['fraction']:.4f}  [{b['ci_low']:.4f}, {b['ci_high']:.4f}] ({b['bias']})")
print("  direction holds:", report["observed_direction_holds"])
print("  intervals separated:", report["ci_separated"])
print("  confirmed:", report["confirmed"])

print("\nCSV form:")
print(estimates_csv(rows))
