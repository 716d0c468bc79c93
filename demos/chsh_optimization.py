#!/usr/bin/env python3
"""
CHSH optimization over analyzer angles
======================================

For each source setting the script prints the four analyzer angles
(a, a', b, b') maximizing S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), which
chsh_optimize reads from the singular value decomposition of the state's
2x2 polarization correlation tensor, and compares the optimum with the
ceiling of this state family, 2 sqrt(1 + kappa^2) with
kappa = 2 f cos(alpha) / (1 + f^2).  Entangled states push S past the
classical bound of 2; the separable product state cannot.
"""

import math

from wdmqkd import BiphotonPureState, ProductState, chsh_optimize

CASES = (
    ("f=1.00, alpha=0   (Bell state)", 1.00, 0.0),
    ("f=1.73, alpha=0              ", 1.73, 0.0),
    ("f=1.00, alpha=60 deg         ", 1.00, 60.0),
    ("f=1.00, alpha=90 deg         ", 1.00, 90.0),
    ("f=0.30, alpha=0              ", 0.30, 0.0),
)


def ceiling(f, alpha_deg):
    kappa = 2.0 * f * math.cos(math.radians(alpha_deg)) / (1.0 + f * f)
    return 2.0 * math.sqrt(1.0 + kappa * kappa)


def main():
    print("state                             S_opt    bound   angles (a, a', b, b')")
    for label, f, alpha_deg in CASES:
        state = BiphotonPureState.from_degrees(f, alpha_deg)
        settings, s = chsh_optimize(state)
        marker = "  > 2: nonclassical" if s > 2.0 + 1e-9 else ""
        print(
            f"{label}  {s:7.4f}  {ceiling(f, alpha_deg):7.4f}"
            f"   ({settings.a:6.2f}, {settings.a_prime:6.2f},"
            f" {settings.b:6.2f}, {settings.b_prime:6.2f}){marker}"
        )

    settings, s = chsh_optimize(ProductState())
    print(f"separable +45 product             {s:7.4f}   2.0000"
          f"   ({settings.a:6.2f}, {settings.a_prime:6.2f},"
          f" {settings.b:6.2f}, {settings.b_prime:6.2f})  <= classical bound")


if __name__ == "__main__":
    main()
