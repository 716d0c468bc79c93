"""Wavelength pairing, default spectral profiles, channel grids, CSV spectra."""

import math
import textwrap

import numpy as np
import pytest

from wdmqkd import (
    DEFAULT_PUMP_NM,
    SpectralProfile,
    TabulatedSpectrum,
    build_channels,
    build_channels_from_table,
    channel_state,
    default_profiles,
    estimate_f,
    idler_wavelength,
)
from wdmqkd.spectral import MAX_CHANNELS


def test_idler_frozen_values():
    assert idler_wavelength(866.0) == pytest.approx(852.8998395599359, abs=1e-9)
    assert idler_wavelength(870.0) == pytest.approx(849.055189643425, abs=1e-9)


def test_idler_energy_conservation():
    rng = np.random.default_rng(31)
    for _ in range(200):
        lam_s = rng.uniform(DEFAULT_PUMP_NM + 1.0, 2000.0)
        lam_i = idler_wavelength(lam_s)
        total = 1.0 / lam_s + 1.0 / lam_i
        assert total == pytest.approx(1.0 / DEFAULT_PUMP_NM, rel=1e-12)


def test_idler_degenerate_point():
    lam = 2.0 * DEFAULT_PUMP_NM
    assert idler_wavelength(lam) == pytest.approx(lam, rel=1e-12)


def test_idler_monotone_decreasing_in_signal():
    grid = np.linspace(DEFAULT_PUMP_NM + 10.0, 1200.0, 50)
    idlers = [idler_wavelength(x) for x in grid]
    assert all(b < a for a, b in zip(idlers, idlers[1:]))


def test_idler_rejects_signal_at_or_below_pump():
    with pytest.raises(ValueError):
        idler_wavelength(DEFAULT_PUMP_NM)
    with pytest.raises(ValueError):
        idler_wavelength(100.0)
    # an array is rejected for its one value at the pump
    with pytest.raises(ValueError, match=f"signal wavelength {DEFAULT_PUMP_NM} nm must exceed"):
        idler_wavelength(np.array([870.0, DEFAULT_PUMP_NM, 880.0]))


def test_idler_accepts_pump_config():
    assert idler_wavelength(900.0, 450.0) == pytest.approx(900.0, rel=1e-12)
    with pytest.raises(ValueError):
        idler_wavelength(900.0, 0.0)


def test_default_profiles_hit_design_ratios():
    hv, vh = default_profiles()
    ratio_866 = hv.rate(866.0) / vh.rate(866.0)
    ratio_870 = hv.rate(870.0) / vh.rate(870.0)
    assert ratio_866 == pytest.approx(3.0, rel=1e-9)
    assert ratio_870 == pytest.approx(1.0, rel=1e-9)
    assert hv.peak == vh.peak == 1000.0


def test_profile_gaussian_shape():
    prof = SpectralProfile(center=870.0, width=8.0, peak=100.0)
    assert prof.rate(870.0) == pytest.approx(100.0)
    assert prof.rate(874.0) == pytest.approx(50.0, rel=1e-12)  # half width at half max
    assert prof.rate(866.0) == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [("center", math.nan), ("width", math.inf), ("width", math.nan), ("peak", math.inf)],
)
def test_profile_rejects_non_finite_field(field, value):
    fields = {"center": 870.0, "width": 8.0, "peak": 100.0, field: value}
    with pytest.raises(ValueError, match=field):
        SpectralProfile(**fields)


def test_build_channels_default_grid():
    hv, vh = default_profiles()
    channels = build_channels(hv, vh, alpha=0.0)
    assert len(channels) == 8
    lams = [c.lambda_signal for c in channels]
    assert lams[0] == pytest.approx(860.0)
    assert lams[-1] == pytest.approx(874.0)
    assert 866.0 in [round(x, 6) for x in lams]
    assert 870.0 in [round(x, 6) for x in lams]
    for ch in channels:
        assert ch.lambda_idler == pytest.approx(idler_wavelength(ch.lambda_signal), rel=1e-12)
        assert ch.alpha == 0.0


def test_build_channels_single_point_grid():
    hv, vh = default_profiles()
    channels = build_channels(hv, vh, alpha=0.0, lambda_range=(866.0, 866.0), n_channels=1)
    assert len(channels) == 1
    assert channels[0].lambda_signal == pytest.approx(866.0)


def test_channel_state_conventions():
    # at 866 nm the HV band is 3x the VH band; the two conventions are the
    # two labelings of that ratio
    hv, vh = default_profiles()
    (ch,) = build_channels(hv, vh, alpha=0.0, lambda_range=(866.0, 866.0), n_channels=1)
    state_f = channel_state(ch, convention="ratio_as_f")
    state_inv = channel_state(ch, convention="ratio_as_inverse_f")
    assert state_f.f == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)
    assert state_inv.f == pytest.approx(math.sqrt(3.0), rel=1e-9)
    with pytest.raises(ValueError):
        channel_state(ch, convention="no_such_convention")


def test_channel_state_balanced_point():
    hv, vh = default_profiles()
    (ch,) = build_channels(hv, vh, alpha=0.0, lambda_range=(870.0, 870.0), n_channels=1)
    assert channel_state(ch).f == pytest.approx(1.0, rel=1e-9)


def test_channel_state_matches_estimate_f():
    hv, vh = default_profiles()
    for lam in (862.0, 866.0, 870.0, 873.0):
        (ch,) = build_channels(hv, vh, alpha=0.0, lambda_range=(lam, lam), n_channels=1)
        f_hat, f_hat_inverse = estimate_f(ch.rate_HV, ch.rate_VH)
        # both evaluate sqrt(rate_VH / rate_HV), with the columns swapped for the inverse reading
        assert channel_state(ch, convention="ratio_as_f").f == f_hat
        assert channel_state(ch, convention="ratio_as_inverse_f").f == f_hat_inverse


def test_dark_channel_has_no_state():
    hv, vh = default_profiles()
    (ch,) = build_channels(hv, vh, alpha=0.0, lambda_range=(1100.0, 1100.0), n_channels=1)
    assert ch.rate_HV == ch.rate_VH == 0.0
    with pytest.raises(ValueError, match="1100.0 nm"):
        channel_state(ch)


def test_tabulated_spectrum_round_trip(tmp_path):
    csv_text = textwrap.dedent(
        """\
        lambda_nm,rate_hv,rate_vh
        866.0,300.0,100.0
        870.0,200.0,200.0
        874.0,100.0,300.0
        """
    )
    path = tmp_path / "spectrum.csv"
    path.write_text(csv_text)
    spec = TabulatedSpectrum.from_csv(path)
    assert spec.rate_hv(866.0) == pytest.approx(300.0)
    assert spec.rate_vh(874.0) == pytest.approx(300.0)
    # linear interpolation between rows
    assert spec.rate_hv(868.0) == pytest.approx(250.0)
    # clamped outside the tabulated range
    assert spec.rate_hv(900.0) == pytest.approx(100.0)
    assert spec.rate_vh(800.0) == pytest.approx(100.0)


def test_tabulated_spectrum_sorts_rows(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("lambda_nm,rate_hv,rate_vh\n874.0,1.0,2.0\n866.0,3.0,4.0\n")
    spec = TabulatedSpectrum.from_csv(path)
    assert spec.rate_hv(866.0) == pytest.approx(3.0)
    assert spec.rate_hv(874.0) == pytest.approx(1.0)


def test_tabulated_spectrum_rejects_bad_input(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("wavelength,hv,vh\n866.0,1.0,1.0\n")
    with pytest.raises(ValueError):
        TabulatedSpectrum.from_csv(bad_header)

    one_row = tmp_path / "one_row.csv"
    one_row.write_text("lambda_nm,rate_hv,rate_vh\n866.0,1.0,1.0\n")
    with pytest.raises(ValueError):
        TabulatedSpectrum.from_csv(one_row)

    dup = tmp_path / "dup.csv"
    dup.write_text("lambda_nm,rate_hv,rate_vh\n866.0,1.0,1.0\n866.0,2.0,2.0\n")
    with pytest.raises(ValueError):
        TabulatedSpectrum.from_csv(dup)

    extra_field = tmp_path / "extra_field.csv"
    extra_field.write_text("lambda_nm,rate_hv,rate_vh\n860,1,2,999\n870.0,1.0,1.0\n")
    with pytest.raises(ValueError, match="malformed spectrum row"):
        TabulatedSpectrum.from_csv(extra_field)

    negative = tmp_path / "neg.csv"
    negative.write_text("lambda_nm,rate_hv,rate_vh\n866.0,-1.0,1.0\n870.0,1.0,1.0\n")
    with pytest.raises(ValueError):
        TabulatedSpectrum.from_csv(negative)


@pytest.mark.parametrize(
    "column, value",
    [("lambda_nm", math.nan), ("rate_hv", math.nan), ("rate_hv", math.inf), ("rate_vh", math.inf)],
)
def test_tabulated_spectrum_rejects_non_finite_value(column, value):
    columns = {"lambda_nm": [866.0, 870.0], "rate_hv": [1.0, 2.0], "rate_vh": [2.0, 1.0]}
    columns[column][0] = value
    with pytest.raises(ValueError, match=column):
        TabulatedSpectrum(columns["lambda_nm"], columns["rate_hv"], columns["rate_vh"])


def test_build_channels_from_table(tmp_path):
    path = tmp_path / "tbl.csv"
    path.write_text("lambda_nm,rate_hv,rate_vh\n860.0,300.0,100.0\n874.0,300.0,100.0\n")
    spec = TabulatedSpectrum.from_csv(path)
    channels = build_channels_from_table(
        spec, alpha=0.5, lambda_range=(860.0, 874.0), n_channels=8
    )
    assert len(channels) == 8
    for ch in channels:
        assert ch.rate_HV == pytest.approx(300.0)
        assert ch.rate_VH == pytest.approx(100.0)
        assert ch.alpha == 0.5


def test_grid_builders_match_row_by_row_evaluation():
    # the builders evaluate the grid in one array pass; each row must equal the scalar calls
    lams = np.linspace(850.0, 890.0, 1000).tolist()
    hv, vh = default_profiles()
    table = TabulatedSpectrum([850.0, 866.0, 874.0, 890.0], [20.0, 300.0, 100.0, 5.0], [10.0, 100.0, 300.0, 40.0])
    cases = [
        (build_channels(hv, vh, lambda_range=(850.0, 890.0), n_channels=1000), hv.rate, vh.rate),
        (build_channels_from_table(table, lambda_range=(850.0, 890.0), n_channels=1000), table.rate_hv, table.rate_vh),
    ]
    for channels, rate_hv, rate_vh in cases:
        assert [ch.lambda_signal for ch in channels] == lams
        assert [ch.lambda_idler for ch in channels] == [idler_wavelength(lam) for lam in lams]
        # np.exp may round a lone value and a vector lane 1 ulp apart
        np.testing.assert_array_max_ulp([ch.rate_HV for ch in channels], [rate_hv(lam) for lam in lams], maxulp=1)
        np.testing.assert_array_max_ulp([ch.rate_VH for ch in channels], [rate_vh(lam) for lam in lams], maxulp=1)
        assert all(type(ch.rate_HV) is float and type(ch.lambda_idler) is float for ch in channels)


def test_tabulated_spectrum_reads_utf8_bom(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflambda_nm,rate_hv,rate_vh\n866.0,300.0,100.0\n874.0,100.0,300.0\n")
    spec = TabulatedSpectrum.from_csv(path)
    assert spec.rate_hv(866.0) == 300.0
    assert spec.rate_vh(874.0) == 300.0


def test_channel_count_cap_rejected_before_building():
    # one past the cap: the check runs before the grid is allocated
    too_many = MAX_CHANNELS + 1
    hv, vh = default_profiles()
    with pytest.raises(ValueError, match=f"n_channels must be <= {MAX_CHANNELS}"):
        build_channels(hv, vh, n_channels=too_many)
    table = TabulatedSpectrum([860.0, 874.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="n_channels"):
        build_channels_from_table(table, n_channels=too_many)
