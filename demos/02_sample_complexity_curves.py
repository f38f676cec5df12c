"""How many packet samples does a stability verdict need?

The answer is driven by the stability margin: the gap between the
link's true success rate and the critical rate of the plant. This
script tabulates the required sample count along two sweeps, holding
the desired confidence at 99%:

* increasing spectral radius at a fixed link (the plant gets faster,
  the critical rate climbs toward the link's actual rate), and
* varying link quality at a fixed plant.

Both tables blow up near the critical configuration: verifying a loop
that sits close to its stability boundary is data-hungry, quadratically
so in the inverse margin. The variance-aware column shows the improved
scaling available for very reliable links.
"""

from linkverify import sweep_sample_complexity

print("sweep 1: fixed link q = 0.9, growing spectral radius")
print(f"{'rho':>6} {'threshold':>10} {'n_hoeffding':>12} {'n_bernstein':>12}")
rows = sweep_sample_complexity(
    "rho", [1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 3.0, 3.1, 3.15],
    q=0.9, delta=0.01)
for rho, n_h, n_b in rows:
    print(f"{rho:6.2f} {1 - 1 / rho**2:10.4f} {n_h:12d} {n_b:12d}")
print("(the critical radius for q = 0.9 is 1/sqrt(0.1) = 3.162...)")

print("\nsweep 2: fixed plant rho = 2 (threshold 0.75), varying link quality")
print(f"{'q':>8} {'n_hoeffding':>12} {'n_bernstein':>12} {'ratio':>7}")
rows = sweep_sample_complexity(
    "q", [0.76, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999],
    rho=2.0, delta=0.01)
for q, n_h, n_b in rows:
    print(f"{q:8.4f} {n_h:12d} {n_b:12d} {n_h / n_b:7.2f}")

print("\nNear the threshold (q = 0.76) both bounds need tens of thousands")
print("of samples. For near-perfect links the variance-aware bound needs")
print("several times fewer samples: the sample variance q(1-q) vanishes,")
print("and its scaling improves from 1/margin^2 toward 1/margin.")
