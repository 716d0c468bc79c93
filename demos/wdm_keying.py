#!/usr/bin/env python3
"""
Per-channel key exchange over a multiplexed link
================================================

Runs the entanglement-based protocol independently on every spectral channel
of the default source and adds the per-channel key yields.  Channels near
the balanced wavelength key at full rate; channels with an unbalanced state
pay for their diagonal-basis errors through the entropy bound.
"""

from wdmqkd import (
    ProtocolConfig,
    build_channels,
    channel_state,
    default_profiles,
    run_bbm92,
    wdm_aggregate,
)

N_PAIRS = 100_000


def main():
    hv, vh = default_profiles()
    channels = build_channels(hv.rate, vh.rate, alpha=0.0)
    config = ProtocolConfig(n_pairs=N_PAIRS, seed=5)

    reports = []
    for k, ch in enumerate(channels):
        state = channel_state(ch, convention="ratio_as_f")
        reports.append(run_bbm92(state, config, channel_id=k, lambda_signal=ch.lambda_signal))

    print(f"{N_PAIRS} pairs per channel, {len(channels)} channels\n")
    print("  signal    sifted   QBER rect  QBER diag  secret frac  secret bits")
    for r in reports:
        print(
            f"  {r.lambda_signal:7.2f}  {r.sifted_bits:8d}  {r.qber_rect:9.4f}"
            f"  {r.qber_diag:9.4f}  {r.secret_fraction:11.4f}  {r.secret_bits_estimate:11.1f}"
        )

    summary = wdm_aggregate(reports)
    print(f"\n  total sifted bits: {summary.total_sifted_bits}")
    print(f"  total secret bits: {summary.total_secret_bits:.1f}")
    print(
        "\nThe rectilinear basis is error-free for every channel of this source;"
        "\nonly the diagonal basis sees the state unbalance, so the per-channel"
        "\nsecret fraction tracks how far f(lambda) sits from 1."
    )


if __name__ == "__main__":
    main()
