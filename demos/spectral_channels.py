#!/usr/bin/env python3
"""
Spectral channels of a broadband pair source
============================================

The two emission processes (H-signal/V-idler and V-signal/H-idler) have
slightly offset spectra, so the amplitude ratio f of the two-photon state
varies across the emission band.  This script builds the default channel
grid, pairs each signal wavelength with its energy-conserving idler
wavelength, and prints both readings of the per-channel ratio estimate.
"""

from wdmqkd import build_channels, channel_state, default_profiles, estimate_f

PUMP_NM = 429.7


def main():
    hv, vh = default_profiles()
    channels = build_channels(hv, vh, alpha=0.0)

    print(f"pump at {PUMP_NM} nm; {len(channels)} channels across the signal band\n")
    print("  signal    idler    rate_HV  rate_VH   f_hat  1/f_hat")
    for ch in channels:
        f_hat, f_hat_inverse = estimate_f(ch.rate_HV, ch.rate_VH)
        print(
            f"  {ch.lambda_signal:7.2f}  {ch.lambda_idler:7.2f}  "
            f"{ch.rate_HV:7.1f}  {ch.rate_VH:7.1f}  {f_hat:6.3f}  {f_hat_inverse:7.3f}"
        )

    print(
        "\nThe rate ratio fixes f only up to which band feeds which term of the"
        "\nstate, so both readings are shown.  Energy conservation check on the"
        "\nfirst channel:"
    )
    ch = channels[0]
    total = 1.0 / ch.lambda_signal + 1.0 / ch.lambda_idler
    print(f"  1/{ch.lambda_signal:.2f} + 1/{ch.lambda_idler:.2f} = {total:.8f} = 1/{1.0 / total:.2f} (pump)")

    state = channel_state(channels[3], convention="ratio_as_inverse_f")
    print(f"\nchannel at {channels[3].lambda_signal:.0f} nm as a state (label-swapped reading): f = {state.f:.3f}")


if __name__ == "__main__":
    main()
