"""Closed-form cost accounting against structural enumeration."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from quadenhance.cost import AccountingError, CostReport, count_layer, count_model
from quadenhance.enhancer import init_qelayer
from quadenhance.errors import DimensionError
from quadenhance.models import MLP, MLPConfig, QuadraNetLayer, SwiGLULayer


class TestHeadlineNumbers:
    """The 192-dimensional worked example, exact integer equality."""

    def setup_method(self):
        self.row = count_layer(init_qelayer(192, 192, (1,), seed=0))

    def test_parameter_counts(self):
        assert self.row.params_enhancer == 192
        assert self.row.params_linear == 36_864 + 192

    def test_param_ratio_is_one_over_192(self):
        assert self.row.param_ratio == Fraction(1, 192)
        assert abs(float(self.row.param_ratio) - 0.0052) < 1e-4

    def test_flop_counts(self):
        assert self.row.flops_linear == 2 * 192 * 192 + 192 == 73_920
        assert self.row.flops_enhancer == 2 * 2 * 192 == 768

    def test_flop_ratio(self):
        assert self.row.flop_ratio == Fraction(768, 73_920)
        assert abs(float(self.row.flop_ratio) - 0.0104) < 1e-4


def test_disabled_enhancer_costs_nothing():
    row = count_layer(init_qelayer(16, 16, (), seed=0))
    assert row.params_enhancer == 0
    assert row.flops_enhancer == 0
    assert row.k == 0


class TestModelAccounting:
    def test_three_layer_enhancer_params(self):
        model = MLP(MLPConfig(layer_dims=(4, 8, 8, 2), shifts=(1,), seed=0))
        report = count_model(model)
        assert report.total_params_enhancer == 8 + 8 + 2

    def test_all_false_mask_matches_baseline(self):
        cfg = MLPConfig(layer_dims=(4, 8, 2), seed=0)
        masked = MLP(cfg.plain())
        report = count_model(masked)
        assert report.total_params_enhancer == 0
        assert report.total_flops_enhancer == 0

    def test_totals_are_row_sums(self):
        model = MLP(MLPConfig(layer_dims=(192,) + (768, 192) * 2, shifts=(1,), seed=0))
        report = count_model(model)
        assert report.total_params_linear == sum(r.params_linear for r in report.rows)
        assert report.total_flops_enhancer == sum(r.flops_enhancer for r in report.rows)

    def test_baseline_layers_have_zero_enhancer_rows(self):
        assert count_model(QuadraNetLayer(8, 8, seed=0)).total_params_enhancer == 0
        assert count_model(SwiGLULayer(8, 8, seed=0)).total_params_enhancer == 0

    def test_quadranet_enumeration(self):
        row = count_layer(QuadraNetLayer(5, 7, seed=0, bias=True))
        assert row.params_linear == 3 * 5 * 7 + 7


def test_param_ratio_halves_exactly_when_n_doubles():
    """O(k/n) scaling as exact rational arithmetic."""
    prev = None
    for n in (8, 16, 32, 64, 128):
        row = count_layer(init_qelayer(n, 24, (1,), seed=0))
        ratio = row.param_ratio
        assert ratio == Fraction(1, n)
        if prev is not None:
            assert ratio * 2 == prev
        prev = ratio


def test_flop_ratio_strictly_decreasing_in_n():
    ratios = [count_layer(init_qelayer(n, 24, (1,), seed=0)).flop_ratio
              for n in (8, 16, 32, 64)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


@given(st.integers(1, 40), st.integers(2, 40),
       st.sets(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=0, max_size=6))
@settings(max_examples=50, deadline=None)
def test_formula_equals_enumeration(n, d, shifts):
    shifts = tuple(r for r in shifts if r % d != 0)
    layer = init_qelayer(n, d, shifts, seed=0)
    row = count_layer(layer)          # raises AccountingError on any mismatch
    enumerated = sum(v.size for v in layer.parameters().values())
    assert row.params_linear + row.params_enhancer == enumerated
    assert row.params_enhancer == len(shifts) * d


def test_wrong_split_with_right_total_is_caught():
    # one scalar moved from the coupling vector to the bias: the total still
    # matches n*d + d + k*d, the linear share does not
    layer = init_qelayer(6, 4, (1,), seed=0)
    layer.load_parameters({"W": layer.W, "b": np.zeros(5), "lam[1]": np.zeros(3)})
    with pytest.raises(AccountingError, match="split"):
        count_layer(layer)


def test_unknown_layer_type_is_refused():
    with pytest.raises(DimensionError, match="cannot account for layer of type object"):
        count_layer(object())


def test_csv_and_table_render():
    model = MLP(MLPConfig(layer_dims=(4, 8, 2), shifts=(1,), seed=0))
    report = count_model(model)
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("name,n,d,k")
    assert "TOTAL" in csv
    table = report.format_table()
    assert "TOTAL" in table and "note:" in table


def test_report_totals_ratio_fields():
    report = CostReport(rows=[count_layer(init_qelayer(192, 192, (1,), seed=0))])
    assert report.total_param_ratio == Fraction(1, 192)
    assert report.total_flop_ratio == Fraction(768, 73_920)
