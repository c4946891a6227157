"""Tests for the analytic resilience model and the survey-wide sweep.

The acceptance criterion from the issue lives here: under the model,
switched-link classes (IMP-XVI, USP) must retain strictly more
throughput than direct-link classes (IAP-I) at every sampled rate.
"""

import pytest

import math

from repro.analysis import (
    DEFAULT_FAULT_RATES,
    ResiliencePoint,
    can_remap,
    degradation_curve,
    expected_throughput,
    flexibility_rank_correlation,
    render_resilience_table,
    resilience_csv_rows,
    resilience_sweep,
)
from repro.core.batch import structural_signature, valid_structures
from repro.core.errors import FaultError
from repro.core.signature import make_signature
from repro.registry.survey import survey_table


def _iap_i():
    return make_signature(1, "n", ip_dp="1-n", ip_im="1-1", dp_dm="n-n")


def _imp_xvi():
    return make_signature(
        "n", "n", ip_dp="nxn", ip_im="nxn", dp_dm="nxn", dp_dp="nxn"
    )


def _usp():
    return make_signature(
        "v", "v", ip_ip="vxv", ip_dp="vxv", ip_im="vxv", dp_dm="vxv", dp_dp="vxv"
    )


class TestExpectedThroughput:
    def test_clean_fabric_is_full_speed(self):
        for signature in (_iap_i(), _imp_xvi(), _usp()):
            assert expected_throughput(signature, 0.0) == pytest.approx(1.0)

    def test_switched_classes_beat_direct_classes(self):
        """The acceptance ordering: IAP-I < IMP-XVI and IAP-I < USP."""
        for rate in DEFAULT_FAULT_RATES:
            direct = expected_throughput(_iap_i(), rate)
            switched = expected_throughput(_imp_xvi(), rate)
            universal = expected_throughput(_usp(), rate)
            assert direct < switched, f"ordering violated at rate {rate}"
            assert direct < universal, f"ordering violated at rate {rate}"

    def test_spares_help_only_remappable_classes(self):
        rate = 0.1
        imp = _imp_xvi()
        assert expected_throughput(imp, rate, spares=4) > expected_throughput(
            imp, rate, spares=0
        )
        iap = _iap_i()
        assert expected_throughput(iap, rate, spares=4) == pytest.approx(
            expected_throughput(iap, rate, spares=0)
        )

    def test_rate_validation(self):
        with pytest.raises(FaultError):
            expected_throughput(_usp(), -0.1)
        with pytest.raises(FaultError):
            expected_throughput(_usp(), 1.1)

    def test_degradation_curve_is_non_increasing(self):
        for signature in (_iap_i(), _imp_xvi(), _usp()):
            curve = degradation_curve(signature, DEFAULT_FAULT_RATES)
            assert all(a >= b for a, b in zip(curve, curve[1:]))


#: Both ends of the range, a rate with no exact binary form, and a ladder.
_ORACLE_RATES = (0.0, 1 / 3, 0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.75, 0.999, 1.0)


def _bits(values):
    return tuple(value.hex() for value in values)


class TestDegradationCurveOracle:
    """The hoisted curve equals the scalar oracle, bit for bit."""

    @pytest.mark.parametrize("spares", [0, 3])
    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_every_structure_matches_expected_throughput(self, n, spares):
        structures = valid_structures()
        assert len(structures) == 406
        for ips_rank, dps_rank, kinds in structures:
            signature = structural_signature(ips_rank, dps_rank, kinds)
            oracle = tuple(
                expected_throughput(signature, rate, n=n, spares=spares)
                for rate in _ORACLE_RATES
            )
            curve = degradation_curve(signature, _ORACLE_RATES, n=n, spares=spares)
            assert _bits(curve) == _bits(oracle), signature.describe()

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_out_of_range_rate_mid_ladder_raises_the_oracle_error(self, bad):
        rates = (0.01, 0.1, bad, 0.2)
        with pytest.raises(FaultError) as oracle:
            [expected_throughput(_imp_xvi(), rate) for rate in rates]
        with pytest.raises(FaultError) as curve:
            degradation_curve(_imp_xvi(), rates)
        assert str(curve.value) == str(oracle.value)
        assert "fault rate must lie in [0, 1]" in str(curve.value)

    @pytest.mark.parametrize("kwargs", [{"n": 0}, {"spares": -1}, {"n": 0, "spares": -1}])
    def test_bad_size_arguments_raise_the_oracle_error(self, kwargs):
        with pytest.raises(FaultError) as oracle:
            expected_throughput(_iap_i(), 0.1, **kwargs)
        with pytest.raises(FaultError) as curve:
            degradation_curve(_iap_i(), (0.1, 0.2), **kwargs)
        assert str(curve.value) == str(oracle.value)


class TestCanRemap:
    def test_universal_always_remaps(self):
        assert can_remap(_usp())

    def test_mimd_needs_both_switches(self):
        assert can_remap(_imp_xvi())
        imp_i = make_signature(
            "n", "n", ip_dp="n-n", ip_im="n-n", dp_dm="n-n"
        )
        assert not can_remap(imp_i)

    def test_simd_remap_follows_data_switches(self):
        assert not can_remap(_iap_i())
        iap_iv = make_signature(1, "n", ip_dp="1-n", ip_im="1-1", dp_dm="nxn")
        assert can_remap(iap_iv)


class TestResilienceSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return resilience_sweep()

    def test_covers_the_whole_survey(self, points):
        assert len(points) == len(survey_table())

    def test_sorted_best_first(self, points):
        means = [point.mean_throughput for point in points]
        assert means == sorted(means, reverse=True)

    def test_point_accessors(self, points):
        point = points[0]
        assert isinstance(point, ResiliencePoint)
        assert point.at(DEFAULT_FAULT_RATES[0]) == point.throughput[0]
        with pytest.raises(FaultError):
            point.at(0.999)

    def test_remap_capable_entries_dominate_the_top(self, points):
        top = points[: len(points) // 3]
        assert all(point.remap_capable for point in top)

    def test_flexibility_correlation_is_positive(self, points):
        assert flexibility_rank_correlation(points) > 0

    def test_csv_rows_shape(self, points):
        header, *rows = resilience_csv_rows(points)
        assert header[0] == "rank"
        assert "mean_throughput" in header
        assert len(rows) == len(points)
        assert all(len(row) == len(header) for row in rows)

    def test_render_mentions_spearman(self, points):
        text = render_resilience_table(points)
        assert "Spearman" in text
        assert "FPGA" in text
