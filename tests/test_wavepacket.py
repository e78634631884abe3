"""Packet transport and mode overlap, with the quadrature as the oracle
for the closed Gaussian form."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravlink import (
    GaussianPacket,
    OverlapResult,
    ShiftParameter,
    Sign,
    TabulatedPacket,
    mismatch_q,
    overlap_gaussian_closed,
    overlap_quadrature,
    propagate_packet,
    read_packet_csv,
    single_photon_fidelity,
    tabulate,
    write_packet_csv,
)
from gravlink.wavepacket import (
    _gk21,
    _gk_rule,
    _overlap_at_ratio,
    _scale_terms,
    total_probability,
)

SPDC = GaussianPacket(peak_hz=700e12, width_hz=1e6)
RB = GaussianPacket(peak_hz=380e12, width_hz=5e6)

DELTA_LEO = 1.4318478306647888e-10
DELTA_FAR = 3.4805390951444395e-10

# 50-digit evaluations of the closed form at these exact double inputs
D_LEO = 0.998745047833346
Q_LEO = 0.0025083294283674017
D_FAR = 0.9926075412928603
Q_FAR = 0.014730268968542607
Q_RB = 0.00017491306153975369
Q_BROAD = 1.4839897257142309e-14


def _shift(delta, sign=Sign.UP):
    return ShiftParameter(delta=delta, sign=sign)


class TestClosedForm:
    def test_zero_shift_is_perfect_overlap(self):
        res = overlap_gaussian_closed(SPDC, _shift(0.0))
        assert res.delta == 1.0
        assert res.q == 0.0
        assert res.abserr is None

    def test_ground_to_orbit(self):
        res = overlap_gaussian_closed(SPDC, _shift(DELTA_LEO, Sign.DOWN))
        assert res.delta == pytest.approx(D_LEO, rel=1e-14)
        assert 1.0 - res.delta == pytest.approx(1.3e-3, rel=0.05)
        assert res.q == pytest.approx(Q_LEO, rel=1e-13)
        assert res.q == pytest.approx(2.6e-3, rel=0.10)

    def test_far_field(self):
        res = overlap_gaussian_closed(SPDC, _shift(DELTA_FAR, Sign.UP))
        assert res.delta == pytest.approx(D_FAR, rel=1e-14)
        assert res.q == pytest.approx(Q_FAR, rel=1e-13)
        assert res.q == pytest.approx(1.5e-2, rel=0.10)

    def test_narrow_line_source(self):
        res = overlap_gaussian_closed(RB, _shift(DELTA_FAR, Sign.UP))
        assert res.q == pytest.approx(Q_RB, rel=1e-13)

    def test_broadband_source_barely_notices(self):
        res = overlap_gaussian_closed(
            GaussianPacket(700e12, 1e12), _shift(DELTA_FAR, Sign.UP)
        )
        assert res.q == pytest.approx(Q_BROAD, rel=1e-12)

    @pytest.mark.parametrize(
        "delta, peak, width, sign, expected",
        [
            (2.5e-7, 613.7e12, 3.3e9, Sign.UP, 0.99972984324235449),
            (0.05, 500e12, 4e12, Sign.DOWN, 0.0096060418678126310),
            (0.3, 1e12, 8e9, Sign.UP, 3.2776478935815112e-103),
        ],
    )
    def test_against_50_digit_reference(self, delta, peak, width, sign, expected):
        res = overlap_gaussian_closed(GaussianPacket(peak, width), _shift(delta, sign))
        assert res.delta == pytest.approx(expected, rel=1e-12)

    def test_q_matches_mismatch_identity(self):
        res = overlap_gaussian_closed(SPDC, _shift(1e-7, Sign.DOWN))
        assert res.q == pytest.approx(mismatch_q(res.delta), rel=1e-10)

    def test_tiny_shift_underflows_to_zero_mismatch(self):
        res = overlap_gaussian_closed(SPDC, _shift(1e-300))
        assert res.delta == 1.0
        assert res.q == 0.0

    def test_rejects_tabulated_and_out_of_range_delta(self):
        with pytest.raises(TypeError):
            overlap_gaussian_closed(tabulate(SPDC), _shift(0.1))
        with pytest.raises(ValueError):
            overlap_gaussian_closed(SPDC, _shift(1.0))

    @given(
        st.floats(1e-12, 0.5),
        st.floats(2.0, 100.0),
        st.sampled_from([Sign.UP, Sign.DOWN]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_delta(self, delta, factor, sign):
        small = overlap_gaussian_closed(SPDC, _shift(delta, sign))
        big = overlap_gaussian_closed(SPDC, _shift(min(delta * factor, 0.999), sign))
        assert big.delta <= small.delta
        assert big.q >= small.q
        assert 0.0 <= big.delta <= 1.0

    @given(
        st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([Sign.UP, Sign.DOWN]),
        st.just(math.inf) | st.floats(1e154, 1e308) | st.floats(100.0, math.inf, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_overlap_at_any_ratio_stays_in_range(self, delta, sign, ratio):
        # the square of delta * ratio overflows past ratio ~ 1e154/delta, and
        # an infinite ratio times delta = 0 would be NaN; q is returned
        # unclamped, so log_prefactor <= 0 <= arg must keep it in [0, 1]
        k = 1.0 - delta if sign is Sign.UP else 1.0 + delta
        value, q = _overlap_at_ratio(_scale_terms(delta, k), ratio)
        assert 0.0 <= value <= 1.0 and 0.0 <= q <= 1.0
        assert math.copysign(1.0, q) == 1.0
        if delta == 0.0:
            assert (value, q) == (1.0, 0.0)

    @pytest.mark.parametrize("ratio", [1e170, math.inf])
    def test_overlap_past_the_float_square(self, ratio):
        assert _overlap_at_ratio(_scale_terms(DELTA_LEO, 1.0 - DELTA_LEO), ratio) == (0.0, 1.0)
        assert _overlap_at_ratio(_scale_terms(0.0, 1.0), ratio) == (1.0, 0.0)


class TestQuadrature:
    def test_identical_packets(self):
        res = overlap_quadrature(SPDC, GaussianPacket(700e12, 1e6))
        assert res.delta == pytest.approx(1.0, abs=1e-12)
        assert res.abserr < 1e-13

    def test_disjoint_supports(self):
        res = overlap_quadrature(SPDC, GaussianPacket(500e12, 1e6))
        assert res.delta == 0.0
        assert res.q == 1.0

    @pytest.mark.parametrize("widths", [20, 25, 28])
    def test_support_truncation_error_for_separated_lines(self, widths):
        # the integral stops at the supports' intersection; what it drops
        # stays below the 1e-25 stated in the docstring, outside abserr
        far = GaussianPacket(SPDC.peak_hz + widths * SPDC.width_hz, SPDC.width_hz)
        res = overlap_quadrature(SPDC, far)
        assert abs(res.delta - math.exp(-(widths**2) / 8.0)) <= 1e-24

    @pytest.mark.parametrize(
        "p1, p2, expected",
        [
            # scaled twins materialized at the double-rounded factor k
            (
                SPDC,
                GaussianPacket((1.0 + DELTA_LEO) * 700e12, (1.0 + DELTA_LEO) * 1e6),
                0.99874504716131402,
            ),
            (
                SPDC,
                GaussianPacket((1.0 - DELTA_FAR) * 700e12, (1.0 - DELTA_FAR) * 1e6),
                0.99260754048634175,
            ),
            (
                GaussianPacket(613.7e12, 3.3e6),
                GaussianPacket(613.7e12 + 4.4e6, 3.3e6),
                0.80073740291680804,
            ),
            (RB, GaussianPacket(380e12 + 1e6, 8e6), 0.94543148643773290),
            (
                GaussianPacket(700e12, 1e12),
                GaussianPacket((1.0 - DELTA_FAR) * 700e12, (1.0 - DELTA_FAR) * 1e12),
                0.99999999999999258,
            ),
        ],
    )
    def test_against_50_digit_pair_reference(self, p1, p2, expected):
        res = overlap_quadrature(p1, p2)
        assert res.delta == pytest.approx(expected, abs=1e-12)
        assert res.abserr < 1e-13

    def test_agrees_with_closed_form_on_exactly_scaled_pairs(self):
        # draw the shift, then snap it to the rounded scale factor k so
        # that both routes describe the same two packets; dyadic peak and
        # width keep k * peak and k * width exact
        rng = np.random.default_rng(20250819)
        worst = 0.0
        for _ in range(100):
            peak = float(2.0 ** rng.integers(40, 53))
            width = peak / float(2.0 ** rng.integers(14, 34))
            raw = 10.0 ** rng.uniform(-12, -6)
            sign = Sign.UP if rng.random() < 0.5 else Sign.DOWN
            k = 1.0 - raw if sign is Sign.UP else 1.0 + raw
            delta = abs(k - 1.0)
            base = GaussianPacket(peak, width)
            closed = overlap_gaussian_closed(base, _shift(delta, sign))
            quad = overlap_quadrature(base, GaussianPacket(k * peak, k * width))
            worst = max(worst, abs(quad.delta - closed.delta))
        assert worst <= 1e-12

    def test_mixed_tabulated_and_gaussian(self):
        # a pair is two Gaussians or two tabulated packets, in either order
        tab = tabulate(SPDC)
        for pair in ((tab, SPDC), (SPDC, tab)):
            with pytest.raises(TypeError, match="^overlap_quadrature needs two packets of one kind, got "):
                overlap_quadrature(*pair)

    def test_tabulated_hermitian_symmetry(self):
        # two real packets on different grids, 0.3 widths apart: the same
        # real Delta either way round, on the larger grid
        grid = np.linspace(700e12 - 1.5e7, 700e12 + 1.5e7, 601)
        amp = SPDC.amplitude(grid - 3e5)
        p1 = TabulatedPacket(grid, amp / math.sqrt(float(np.trapezoid(amp**2, grid))))
        p2 = tabulate(SPDC)
        fwd = overlap_quadrature(p1, p2)
        rev = overlap_quadrature(p2, p1)
        assert type(fwd.delta) is float
        assert (fwd.delta, fwd.q, fwd.abserr) == (rev.delta, rev.q, rev.abserr)
        assert fwd.delta == pytest.approx(math.exp(-(0.3**2) / 8.0), abs=1e-3)

    @given(st.floats(1e12, 9e14), st.floats(150.0, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_self_overlap_is_one(self, peak, ratio):
        packet = GaussianPacket(peak, peak / ratio)
        res = overlap_quadrature(packet, packet)
        assert res.delta == pytest.approx(1.0, abs=1e-12)


def _offset_problem(p1, p2):
    """overlap_quadrature's Gaussian integrand: the parameters of
    norm exp(-((u - d1)/h1)^2 - ((u - d2)/h2)^2), its interval and peaks."""
    center = 0.5 * (p1.peak_hz + p2.peak_hz)
    d1, d2 = p1.peak_hz - center, p2.peak_hz - center
    norm = (2.0 * math.pi * p1.width_hz * p2.width_hz) ** -0.5
    lo = max(p1.support()[0], p2.support()[0]) - center
    hi = min(p1.support()[1], p2.support()[1]) - center
    peaks = sorted({d for d in (d1, d2) if lo < d < hi})
    return (norm, d1, d2, 2.0 * p1.width_hz, 2.0 * p2.width_hz), lo, hi, peaks


def _quadpack_overlap(p1, p2):
    """The same integral by scipy's QUADPACK: breakpoints at the peaks,
    epsabs = epsrel = 1e-13, at most 200 subintervals."""
    quad = pytest.importorskip("scipy.integrate").quad
    (norm, d1, d2, h1, h2), lo, hi, peaks = _offset_problem(p1, p2)

    def integrand(u):
        return norm * math.exp(-(((u - d1) / h1) ** 2) - ((u - d2) / h2) ** 2)

    return quad(integrand, lo, hi, points=peaks, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def _exact_overlap(p1, p2):
    """The same integral in closed form, erf at 60 digits: the product of
    the two Gaussians is norm e^-C exp(-A (u - m)^2)."""
    mpmath = pytest.importorskip("mpmath")
    (norm, d1, d2, h1, h2), lo, hi, _ = _offset_problem(p1, p2)
    if not lo < hi:  # disjoint supports
        return 0.0
    with mpmath.workdps(60):
        norm, d1, d2, h1, h2, lo, hi = (mpmath.mpf(x) for x in (norm, d1, d2, h1, h2, lo, hi))
        a = 1 / h1**2 + 1 / h2**2
        m = (d1 / h1**2 + d2 / h2**2) / a
        c = (d1 - d2) ** 2 / (h1**2 + h2**2)
        root = mpmath.sqrt(a)
        erfs = mpmath.erf(root * (hi - m)) - mpmath.erf(root * (lo - m))
        return float(norm * mpmath.exp(-c) * mpmath.sqrt(mpmath.pi) / (2 * root) * erfs)


@st.composite
def _gaussian_pairs(draw):
    peak = 10.0 ** draw(st.floats(12.0, 15.0))
    width = peak / 10.0 ** draw(st.floats(7.0, 10.0))
    base = GaussianPacket(peak, width)
    if draw(st.booleans()):
        # the pipeline's pair: a packet and its image scaled by k = 1 -+ delta
        delta = 10.0 ** draw(st.floats(-12.0, -8.0))
        k = 1.0 - delta if draw(st.booleans()) else 1.0 + delta
        return base, GaussianPacket(k * peak, k * width)
    # a detuned pair of unequal widths, up to 12 widths apart
    offset = draw(st.floats(-12.0, 12.0)) * width
    return base, GaussianPacket(peak + offset, width * 10.0 ** draw(st.floats(-0.7, 0.7)))


class TestGaussKronrod:
    def test_rule_degrees(self):
        # K21 integrates x^n exactly up to n = 31, its G10 part up to 19
        nodes, _, weights = _gk_rule()
        kronrod, gauss = weights.T
        for n in range(32):
            exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
            assert kronrod @ nodes**n == pytest.approx(exact, abs=1e-15)
            if n < 20:
                assert gauss @ nodes**n == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize(
        "f, edges, exact",
        [
            (np.cos, [0.0, math.pi / 2], 1.0),
            # one panel over +-10 is far too coarse: bisection must refine it
            (lambda x: np.exp(-x * x), [-10.0, 10.0], math.sqrt(math.pi)),
        ],
        ids=["cos", "gaussian"],
    )
    def test_smooth_integrand(self, f, edges, exact):
        value, abserr = _gk21(f, edges)
        assert value == pytest.approx(exact, abs=1e-15)
        assert abserr < 1e-13

    def test_hitting_the_limit_reports_a_large_abserr(self):
        # 200 panels leave ~50 radians of cos(1e4 x) to each
        value, abserr = _gk21(lambda x: np.cos(1e4 * x), [0.0, 1.0])
        assert abserr > 1e-2
        assert abs(value - math.sin(1e4) / 1e4) <= abserr

    @given(_gaussian_pairs())
    @settings(max_examples=60, deadline=None)
    def test_gaussian_pairs_against_quadpack_and_mpmath(self, pair):
        res = overlap_quadrature(*pair)
        assert abs(res.delta - _quadpack_overlap(*pair)) <= 1e-15
        assert abs(res.delta - _exact_overlap(*pair)) <= res.abserr
        assert res.abserr < 1e-13


class TestPropagate:
    def test_gaussian_rescaling(self):
        out = propagate_packet(SPDC, 0.5)
        assert out.peak_hz == 1400e12
        assert out.width_hz == 2e6

    def test_everyday_shift_example(self):
        k = 1.0 + 1.45e-10
        out = propagate_packet(SPDC, 1.0 / k)
        assert out.peak_hz - SPDC.peak_hz == pytest.approx(101500.0, rel=1e-9)
        assert out.width_hz - SPDC.width_hz == pytest.approx(1.45e-4, rel=1e-5)

    def test_round_trip(self):
        chi = 0.9999999997136304
        back = propagate_packet(propagate_packet(SPDC, chi), 1.0 / chi)
        assert back.peak_hz == pytest.approx(SPDC.peak_hz, rel=1e-12)
        assert back.width_hz == pytest.approx(SPDC.width_hz, rel=1e-12)

    def test_tabulated_norm_preserved(self):
        tab = tabulate(SPDC)
        out = propagate_packet(tab, 1.0000000006961078)
        assert isinstance(out, TabulatedPacket)
        assert total_probability(out) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_ratio(self, ratio):
        with pytest.raises(ValueError, match=rf"^ratio: must be finite and > 0, got {ratio}$"):
            propagate_packet(SPDC, ratio)

    @given(st.floats(1e12, 9e14), st.floats(150.0, 1e6), st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_normalization_preserved(self, peak, ratio, chi):
        tab = tabulate(GaussianPacket(peak, peak / ratio))
        assert total_probability(propagate_packet(tab, chi)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestMismatchQ:
    def test_endpoints(self):
        assert mismatch_q(1.0) == 0.0
        assert mismatch_q(0.0) == 1.0

    def test_printed_example(self):
        assert mismatch_q(1.0 - 1.3e-3) == pytest.approx(2.59831e-3, rel=1e-12)

    def test_complex_modulus(self):
        assert mismatch_q(0.6 + 0.8j) == pytest.approx(0.0, abs=1e-15)

    def test_slight_overshoot_clips_to_zero(self):
        assert mismatch_q(1.0 + 1e-12) == 0.0

    def test_rejects_unphysical(self):
        # the one |Delta| <= 1 (+1e-12) rule, with its message
        for call in (mismatch_q, single_photon_fidelity):
            with pytest.raises(ValueError, match=r"^delta: \|delta\| must be <= 1 \+ 1e-12, got 1\.000001$"):
                call(1.0 + 1e-6)


@pytest.mark.parametrize("delta", [1.0, -0.5, math.nan, math.inf])
def test_shift_outside_the_closed_form_domain(delta):
    with pytest.raises(ValueError, match=rf"^delta: must lie in \[0, 1\), got {delta}$"):
        _scale_terms(delta, 1.0 - delta)


def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(700e12, 0.0)
    with pytest.raises(ValueError):
        GaussianPacket(0.0, 1e6)
    with pytest.raises(ValueError, match="narrowband"):
        GaussianPacket(1e4, 1e3)


def test_tabulated_packet_validation():
    grid = np.linspace(699.9e12, 700.1e12, 201)
    amp = SPDC.amplitude(grid)
    with pytest.raises(ValueError, match=r"^freq_hz: must be a 1-d grid of at least 4 points$"):
        TabulatedPacket(grid[:3], amp[:3])
    with pytest.raises(ValueError, match=r"^amp: must have the shape of freq_hz$"):
        TabulatedPacket(grid, amp[:-1])
    with pytest.raises(ValueError, match=r"^freq_hz: must be strictly increasing$"):
        TabulatedPacket(grid[::-1], amp)
    with pytest.raises(ValueError, match=r"^freq_hz: must be non-negative$"):
        TabulatedPacket(np.linspace(-1.0, 2.0, 4), np.full(4, 1.0 / math.sqrt(3.0)))
    with pytest.raises(ValueError, match=r"^amp: not normalized, integral \|F\|\^2 = \S+ \(tolerance 1e-10\)$"):
        TabulatedPacket(grid, 2.0 * amp)
    with pytest.raises(ValueError, match=r"^amp: not normalized, integral \|F\|\^2 = nan \(tolerance 1e-10\)$"):
        TabulatedPacket(grid, np.full(grid.size, np.nan))  # a NaN norm


def test_overlap_result_validation():
    with pytest.raises(ValueError):
        OverlapResult(delta=1.5, q=0.0)
    with pytest.raises(ValueError):
        OverlapResult(delta=0.5, q=-0.1)


def test_tabulate_is_normalized():
    tab = tabulate(SPDC)
    assert tab.freq_hz.size == 241
    assert total_probability(tab) == pytest.approx(1.0, abs=1e-12)
    peak_amp = (2.0 * math.pi * 1e12) ** -0.25
    assert np.max(np.abs(tab.amp)) == pytest.approx(peak_amp, rel=1e-12)


def test_tabulate_normalizes_narrow_lines():
    # peak/width of 1e9..1e10: the rounded grid is visibly uneven, and
    # samples not normalized on it miss the 1e-10 gate for ~1 line in 4
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        peak = rng.uniform(2e14, 8e14)
        tab = tabulate(GaussianPacket(peak, peak / 10 ** rng.uniform(9.0, 10.0)))
        assert total_probability(tab) == pytest.approx(1.0, abs=1e-12)


class TestCsvRoundTrip:
    def test_real_packet(self, tmp_path):
        path = tmp_path / "packet.csv"
        tab = tabulate(SPDC)
        write_packet_csv(tab, path)
        back = read_packet_csv(path)
        assert np.array_equal(back.freq_hz, tab.freq_hz)
        assert np.array_equal(back.amp, tab.amp)

    def test_complex_packet_keeps_imag_column(self):
        # complex samples are refused, a zero imaginary part too: a packet
        # holds real samples, so its file has one amplitude column
        grid = np.linspace(700e12 - 1.5e7, 700e12 + 1.5e7, 601)
        amp = SPDC.amplitude(grid) * np.exp(1j * 1e-7 * (grid - 700e12))
        amp = amp / math.sqrt(float(np.trapezoid(np.abs(amp) ** 2, grid)))
        tab = tabulate(SPDC)
        for freq, samples in ((grid, amp), (tab.freq_hz, tab.amp.astype(complex))):
            with pytest.raises(ValueError, match=r"^amp: must be real samples$"):
                TabulatedPacket(freq, samples)

    def test_unnormalized_file_is_rejected(self, tmp_path):
        path = tmp_path / "scaled.csv"
        tab = tabulate(SPDC)
        # write a deliberately unnormalized file by hand
        lines = ["frequency_hz,amplitude_real"]
        for nu, a in zip(tab.freq_hz, tab.amp):
            lines.append(f"{float(nu)!r},{float(a.real) * 3.0!r}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not normalized"):
            read_packet_csv(path)

    def test_nan_cells_are_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        tab = tabulate(SPDC)
        lines = ["frequency_hz,amplitude_real"]
        lines += [f"{float(nu)!r},nan" for nu in tab.freq_hz]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not normalized"):
            read_packet_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nu,amp\n1.0,2.0\n")
        with pytest.raises(ValueError, match="frequency_hz"):
            read_packet_csv(path)

    @staticmethod
    def _damaged(tmp_path, line: int, text: str):
        """The SPDC packet file with its 1-based line `line` replaced by text
        and a blank line after the header, which the reader skips."""
        path = tmp_path / "packet.csv"
        write_packet_csv(tabulate(SPDC), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        lines.insert(1, "")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_short_row_names_its_line(self, tmp_path):
        path = self._damaged(tmp_path, 5, "700000000000000.0")
        with pytest.raises(ValueError, match=r"^packet CSV line 6: expected 2 cells, got 1$"):
            read_packet_csv(path)

    def test_bad_cell_names_its_line(self, tmp_path):
        path = self._damaged(tmp_path, 9, "700000000000000.0,abc")
        with pytest.raises(ValueError, match=r"^packet CSV line 10: could not convert .*'abc'"):
            read_packet_csv(path)

    def test_missing_imag_cell_names_its_line(self, tmp_path):
        # a file has write_packet_csv's header, not a three-column or a reordered one
        path = tmp_path / "other.csv"
        for header in (["frequency_hz", "amplitude_real", "amplitude_imag"], ["amplitude_real", "frequency_hz"]):
            path.write_text(",".join(header) + "\n1.0,0.5,0.0\n2.0,0.5\n")
            message = f"packet CSV needs the header frequency_hz,amplitude_real; got {header}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_packet_csv(path)

    def test_long_row_names_its_line(self, tmp_path):
        path = self._damaged(tmp_path, 7, "700000000000000.0,0.5,0.0")
        with pytest.raises(ValueError, match=r"^packet CSV line 8: expected 2 cells, got 3$"):
            read_packet_csv(path)
