"""The safety story: how often does each method answer wrongly?

We stress the test with an adversarial configuration: the link rate is
0.5 and the plant's critical rate is 0.49, a margin of just 0.01. With
so little room, small samples frequently look like instability. The
guaranteed constructions respond by saying Undetermined; the Wald
interval, which trades its guarantee for narrowness, happily denies
stability and is measurably wrong at small sample sizes.

Wrong answers for the guaranteed methods stay below delta at every
sample size, which is the property that makes the procedure safe to
automate: it may ask for more data, but it almost never misleads.
"""

import math

from linkverify import (ExperimentConfig, Method, PlantModel,
                        run_stability_experiment)

rho = 1.0 / math.sqrt(0.51)  # critical rate 1 - 1/rho^2 = 0.49
cfg = ExperimentConfig(
    plant=PlantModel.simple([[rho]]),
    true_rate=0.5,
    delta=1e-3,
    trials=2000,  # the acceptance suite runs 10x more; this keeps the demo quick
    methods=(Method.HOEFFDING, Method.EXACT_BINOMIAL, Method.NORMAL_APPROX),
    seed=99,
)
ledger = run_stability_experiment(cfg)  # the wrong rates are in its tally

print(f"stability margin: |0.5 - 0.49| = 0.01, delta = {cfg.delta}, "
      f"{cfg.trials} trials")
print(f"{'n':>6} {'hoeffding':>10} {'exact':>10} {'normal':>10}")
for n in cfg.n_grid:
    rates = [ledger.wrong_rate(m, n) for m in cfg.methods]
    print(f"{n:6d} {rates[0]:10.4f} {rates[1]:10.4f} {rates[2]:10.4f}")

print("\nwrong-answer budget per trial: delta = 0.001. The Wald column")
print("overspends it at small n; the other two never do, at any n.")
