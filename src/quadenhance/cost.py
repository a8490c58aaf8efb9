"""Exact parameter and FLOP accounting for layers and models.

Counts are analytic conventions, not measurements: a multiply-add is two
FLOPs, a bias add is d FLOPs.  For an enhanced layer with n inputs, d
outputs and k active shifts the closed forms are

    parameters:  linear n*d + d (bias),  enhancer k*d
    FLOPs:       linear 2*n*d + d,       enhancer 2*(k+1)*d
                 (band product 2*k*d, elementwise product d, residual add d)

so the relative overheads are k*d / n*d and 2(k+1)d / (2nd + d), both
O(k/n).  Every formula count is cross-checked against an enumeration of
the scalars actually stored, split included: the linear share against
the stored weights and bias, the row total against every stored
parameter.  Ratios are exact rationals derived from the integer fields,
never re-measured.

The headline parameter ratio uses the weight-only denominator n*d; the
bias is reported separately (see ``FOOTER``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

from .enhancer import QELayer
from .errors import DimensionError
from .models import MLP, QuadraNetLayer, SwiGLULayer

# the note printed under every cost table
FOOTER = ("bias parameters (d per layer) are counted inside params_linear; "
          "the weight-only figure n*d is the denominator of param_ratio")


@dataclass(frozen=True)
class LayerCost:
    name: str
    n: int
    d: int
    k: int
    params_linear: int       # weights + bias
    params_enhancer: int
    flops_linear: int
    flops_enhancer: int

    @property
    def param_ratio(self) -> Fraction:
        return Fraction(self.k * self.d, self.n * self.d)

    @property
    def flop_ratio(self) -> Fraction:
        return Fraction(self.flops_enhancer, self.flops_linear)


@dataclass
class CostReport:
    rows: list[LayerCost]

    @property
    def total_params_linear(self) -> int:
        return sum(r.params_linear for r in self.rows)

    @property
    def total_params_enhancer(self) -> int:
        return sum(r.params_enhancer for r in self.rows)

    @property
    def total_flops_linear(self) -> int:
        return sum(r.flops_linear for r in self.rows)

    @property
    def total_flops_enhancer(self) -> int:
        return sum(r.flops_enhancer for r in self.rows)

    @property
    def total_param_ratio(self) -> Fraction:
        return Fraction(self.total_params_enhancer,
                        sum(r.n * r.d for r in self.rows))

    @property
    def total_flop_ratio(self) -> Fraction:
        return Fraction(self.total_flops_enhancer, self.total_flops_linear)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,n,d,k,params_linear,params_enhancer,flops_linear,"
                  "flops_enhancer,param_ratio,flop_ratio\n")
        for r in self.rows:
            buf.write(f"{r.name},{r.n},{r.d},{r.k},{r.params_linear},{r.params_enhancer},"
                      f"{r.flops_linear},{r.flops_enhancer},"
                      f"{float(r.param_ratio):.10g},{float(r.flop_ratio):.10g}\n")
        buf.write(f"TOTAL,,,,{self.total_params_linear},{self.total_params_enhancer},"
                  f"{self.total_flops_linear},{self.total_flops_enhancer},"
                  f"{float(self.total_param_ratio):.10g},{float(self.total_flop_ratio):.10g}\n")
        return buf.getvalue()

    def format_table(self) -> str:
        head = (f"{'layer':<14}{'n':>6}{'d':>6}{'k':>4}{'p.lin':>10}{'p.enh':>8}"
                f"{'f.lin':>12}{'f.enh':>8}{'p.ratio':>10}{'f.ratio':>10}")
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(f"{r.name:<14}{r.n:>6}{r.d:>6}{r.k:>4}{r.params_linear:>10}"
                         f"{r.params_enhancer:>8}{r.flops_linear:>12}{r.flops_enhancer:>8}"
                         f"{float(r.param_ratio):>10.4%}{float(r.flop_ratio):>10.4%}")
        lines.append("-" * len(head))
        lines.append(f"{'TOTAL':<14}{'':>6}{'':>6}{'':>4}{self.total_params_linear:>10}"
                     f"{self.total_params_enhancer:>8}{self.total_flops_linear:>12}"
                     f"{self.total_flops_enhancer:>8}{float(self.total_param_ratio):>10.4%}"
                     f"{float(self.total_flop_ratio):>10.4%}")
        lines.append(f"note: {FOOTER}")
        return "\n".join(lines)


class AccountingError(AssertionError):
    """Formula count disagrees with the enumerated stored scalars."""


def count_layer(layer) -> LayerCost:
    """Cost row for one layer, formula counts and split verified by enumeration."""
    if isinstance(layer, QELayer):
        n, d, k = layer.n, layer.d, layer.k
        row = LayerCost(
            name=layer.name, n=n, d=d, k=k,
            params_linear=n * d + d,
            params_enhancer=k * d,
            flops_linear=2 * n * d + d,
            flops_enhancer=2 * (k + 1) * d if k > 0 else 0,
        )
    elif isinstance(layer, QuadraNetLayer):
        n, d = layer.n, layer.d
        bias = layer.b is not None
        row = LayerCost(
            name="quadranet", n=n, d=d, k=0,
            params_linear=3 * n * d + (d if bias else 0),
            params_enhancer=0,
            flops_linear=6 * n * d + 2 * d + (d if bias else 0),
            flops_enhancer=0,
        )
    elif isinstance(layer, SwiGLULayer):
        n, d = layer.n, layer.d
        # sigmoid counted as one op per element, like a hadamard
        row = LayerCost(
            name="swiglu", n=n, d=d, k=0,
            params_linear=2 * n * d,
            params_enhancer=0,
            flops_linear=4 * n * d + 3 * d,
            flops_enhancer=0,
        )
    else:
        raise DimensionError(f"cannot account for layer of type {type(layer).__name__}")
    total = sum(v.size for v in layer.parameters().values())
    # only an enhanced layer stores scalars outside its linear map
    linear = layer.W.size + layer.b.size if isinstance(layer, QELayer) else total
    if (row.params_linear, row.params_enhancer) != (linear, total - linear):
        raise AccountingError(
            f"{row.name}: formula split {row.params_linear} linear + {row.params_enhancer} "
            f"enhancer != enumerated {linear} + {total - linear}")
    return row


def count_model(model) -> CostReport:
    """One verified ``count_layer`` row per layer of an MLP, or one for a single layer."""
    return CostReport(rows=[count_layer(layer) for layer in
                            (model.layers if isinstance(model, MLP) else [model])])
