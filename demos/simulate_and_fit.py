#!/usr/bin/env python3
"""
Monte Carlo polarizer scan and fringe fit
=========================================

Simulates one idler scan with Poisson counting noise, fits the sinusoid
model counts = c (1 + v cos(2 pi (theta - theta0) / 180)), and compares the
fitted peak and visibility to their analytic values.  Everything is seeded,
so rerunning prints the same numbers.
"""

from wdmqkd import (
    BiphotonPureState,
    DetectionConfig,
    find_theta_max,
    fit_scan,
    scan_metrics,
    simulate_scan,
)

STATE = BiphotonPureState.from_degrees(1.73, 0.0)
THETA_S = 45.0
ANGLES = tuple(float(t) for t in range(0, 181, 10))


def main():
    config = DetectionConfig(pair_rate=2000.0, accidental_rate=2.0, integration_time=1.0, seed=7)
    scan = simulate_scan(STATE, ("signal", THETA_S), ANGLES, config)

    print(f"simulated idler scan at theta_s = {THETA_S} deg, seed = {config.seed}")
    print("  theta_i   counts")
    for theta, counts in zip(scan.angles, scan.counts):
        bar = "#" * (counts // 25)
        print(f"  {theta:7.1f}  {counts:6d}  {bar}")

    fit = fit_scan(scan)
    metrics = scan_metrics(fit)
    truth = find_theta_max(STATE, THETA_S)

    print(f"\nfit of {fit.n_points} points, chi2/dof = {fit.chi2_reduced:.2f}")
    print(f"  baseline c    = {fit.c:8.2f} +/- {fit.c_err:.2f}")
    print(f"  visibility    = {metrics.visibility:8.4f} +/- {metrics.visibility_err:.4f}"
          f"   (theory {truth.visibility:.4f})")
    print(f"  peak position = {metrics.theta_max:8.2f} +/- {metrics.theta_max_err:.2f} deg"
          f"   (theory {truth.theta_max:.2f} deg)")


if __name__ == "__main__":
    main()
