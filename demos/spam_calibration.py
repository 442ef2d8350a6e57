"""Fit SPAM error models to synthetic calibration data.

Runs the `spam-fit` command on its default qutrit: thermal
initialization (T=1) and noisy cascade readout (b0=0.01, b1=0.02),
calibrated two ways.

* The general diagonal fit estimates all populations and the full
  response matrix from d population-transfer circuits.  Its maximizers
  form a flat set, so its individual parameters are not identified, but
  its predicted probabilities are.  The script prints the fitted
  populations and response and the largest difference between the
  predicted and the true calibration probabilities.
* The thermal fit estimates just (T, b0, b1) from single-level read
  statistics.  At d >= 3 these parameters are identified; the script
  prints them and the populations at the fitted T.
"""

import numpy as np

from qudittomo import cli

report = cli.run_spam_fits(cli.ExperimentConfig(experiment="spam_fit", seed=0))

general = report["spam_general"]
print("general diagonal fit")
print(f"  fitted populations: {np.round(general['estimate']['populations'], 4)}")
print(f"  fitted response:\n{np.round(general['estimate']['response'], 4)}")
print(f"  max |predicted - true| probability: "
      f"{general['predictive_residual']:.2e}")
print("  (populations and response are only defined up to a flat set;")
print("   the residual above is the meaningful figure)")

gibbs = report["spam_gibbs"]
est, truth = gibbs["estimate"], report["truth"]
print(f"\nthermal readout fit (truth T={truth['temperature']}, "
      f"b0={truth['b0']}, b1={truth['b1']})")
print(f"  T  = {est['temperature']:.4f}")
print(f"  b0 = {est['b0']:.5f}")
print(f"  b1 = {est['b1']:.5f}")
print(f"  populations at fitted T: "
      f"{np.round(gibbs['diagnostics']['populations'], 5)}")
