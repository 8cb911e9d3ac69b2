"""Symbolic multiply/parameter accounting, cross-checked at runtime.

Costs count scalar multiplications inside matrix products only; that is
the quantity the instrumented kernels can report exactly, as integers.
Softmax exponentials and additions are reported symbolically but never
measured.

Two attention variants are compared: ``ours`` runs two cross-attention
modules over T tokens each, ``cft`` runs one self-attention over the 2T
concatenation of both branches.  The published FFN figures for ``ours``
are internally inconsistent (the per-row figure implies hidden width 2C,
the total implies 4C); the audit reports both readings and flags the
clash instead of resolving it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .cfe import cfe_forward, cfe_spec, cross_attention
from .tensor_core import ConfigurationError

VARIANTS = ("ours", "cft")


class Monomial(NamedTuple):
    coeff: int
    t_power: int
    c_power: int


@dataclass(frozen=True)
class CostExpr:
    """Sum of integer monomials in token count T and channel width C."""

    terms: tuple

    def evaluate(self, t: int, c: int) -> int:
        return sum(m.coeff * t**m.t_power * c**m.c_power for m in self.terms)

    def __str__(self):
        def fmt(m):
            parts = [str(m.coeff)]
            if m.t_power == 1:
                parts.append("T")
            elif m.t_power > 1:
                parts.append(f"T^{m.t_power}")
            if m.c_power == 1:
                parts.append("C")
            elif m.c_power > 1:
                parts.append(f"C^{m.c_power}")
            return "*".join(parts)

        return " + ".join(fmt(m) for m in self.terms)


def _expr(*terms) -> CostExpr:
    return CostExpr(tuple(Monomial(*t) for t in terms))


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def attention_cost(variant: str, t: int, c: int) -> CostExpr:
    """Score and mixing multiplies; term 0 is Q.Kt, term 1 is scores.V.

    ``ours`` totals the two cross-attention modules (each T^2*C per term);
    ``cft`` runs one self-attention over 2T tokens (4T^2*C per term).
    """
    _check_variant(variant)
    if t < 1 or c < 1:
        raise ConfigurationError(f"need T, C >= 1, got T={t}, C={c}")
    per_term = 2 if variant == "ours" else 4
    return _expr((per_term, 2, 1), (per_term, 2, 1))


def softmax_cost(variant: str) -> CostExpr:
    """Symbolic softmax entry count (not multiplies; never measured)."""
    _check_variant(variant)
    return _expr((2 if variant == "ours" else 4, 2, 0))


def ffn_cost(variant: str, t: int, c: int, h: int) -> CostExpr:
    """General two-layer FFN multiplies at hidden width `h`.

    Both variants process 2T tokens in total (two modules of T tokens
    versus one module of 2T), so both come to 4*T*C*h; `h` is folded into
    the coefficient so evaluation stays exact integer arithmetic.
    """
    _check_variant(variant)
    if t < 1 or c < 1 or h < 1:
        raise ConfigurationError(f"need T, C, h >= 1, got T={t}, C={c}, h={h}")
    return _expr((4 * h, 1, 1))


def published_ffn_row(variant: str) -> CostExpr:
    """FFN figure as published: 8*T*C^2 for ours, 16*T*C^2 for cft."""
    _check_variant(variant)
    return _expr((8 if variant == "ours" else 16, 1, 2))


def published_total(variant: str) -> CostExpr:
    """Published totals: ours 2T^2C + 16TC^2, cft 4T^2C + 16TC^2."""
    _check_variant(variant)
    return _expr((2 if variant == "ours" else 4, 2, 1), (16, 1, 2))


def implied_ffn_hidden(row: CostExpr, c: int) -> int:
    """Hidden width a published T*C^2 row implies: coeff*T*C^2 == 4*T*C*h."""
    (m,) = row.terms
    if (m.t_power, m.c_power) != (1, 2) or (m.coeff * c) % 4:
        raise ConfigurationError(f"row {row} does not determine a hidden width at C={c}")
    return m.coeff * c // 4


def shrink_reduction(w: int, h: int, c: int, s: int):
    """Total multiply count before and after shrinking tokens by factor `s`.

    Returns constant expressions (term 0: attention, term 1: linear) built
    from the published pair: W^2*H^2*C + 8*W*H*C^2 shrinks to
    W^2*H^2/S^2*C + 8*W*H/S*C^2.
    """
    if s < 1:
        raise ConfigurationError(f"shrink factor must be >= 1, got {s}")
    if (w * h) % s:
        raise ConfigurationError(f"shrink factor {s} does not divide token count {w * h}")
    before = _expr((w * w * h * h * c, 0, 0), (8 * w * h * c * c, 0, 0))
    after = _expr((w * w * h * h * c // (s * s), 0, 0), (8 * w * h * c * c // s, 0, 0))
    return before, after


def param_breakdown(tensors) -> dict:
    """Learnable scalar count per tensor of a name -> Tensor mapping."""
    return {name: t.size for name, t in tensors.items()}


def param_count(tensors) -> int:
    """Exact total of learnable scalars in a name -> Tensor mapping.  A
    shared set is stored under one name per tensor, so it counts once."""
    return sum(param_breakdown(tensors).values())


# ---------------------------------------------------------------------------
# Runtime cross-checks
# ---------------------------------------------------------------------------


def _random_seq(t: int, c: int, rng) -> tc.Tensor:
    return tc.Tensor(rng.standard_normal((t, c)), dtype=np.float64)


def _pick_heads(c: int, heads: int | None) -> int:
    if heads is not None:
        return heads
    for candidate in (8, 4, 2, 1):
        if c % candidate == 0:
            return candidate
    return 1


def measured_attention_multiplies(variant: str, t: int, c: int,
                                  heads: int | None = None, seed: int = 0) -> dict:
    """Run the real attention kernels and count score/mixing multiplies.

    Returns {"qk": int, "av": int}.  Counts are head-count independent.
    """
    _check_variant(variant)
    heads = _pick_heads(c, heads)
    rng = np.random.default_rng(seed)
    p = tc.init_tensors(cfe_spec(c, 2 * c), rng, np.float64)
    counter = tc.MultiplyCounter()
    with tc.count_multiplies(counter):
        if variant == "ours":
            a, b = _random_seq(t, c, rng), _random_seq(t, c, rng)
            cross_attention(a, b, p, heads)
            cross_attention(b, a, p, heads)
        else:
            cat = _random_seq(2 * t, c, rng)
            cross_attention(cat, cat, p, heads)
    return {"qk": counter.total("attention_qk"), "av": counter.total("attention_av")}


def measured_ffn_multiplies(variant: str, t: int, c: int, hidden: int,
                            heads: int | None = None, seed: int = 0) -> int:
    """FFN multiplies of a full forward at the given dims (both modules
    for ours, the single wide module for cft)."""
    _check_variant(variant)
    heads = _pick_heads(c, heads)
    rng = np.random.default_rng(seed)
    counter = tc.MultiplyCounter()
    with tc.count_multiplies(counter):
        if variant == "ours":
            p_r = tc.init_tensors(cfe_spec(c, hidden), rng, np.float64)
            p_t = tc.init_tensors(cfe_spec(c, hidden), rng, np.float64)
            a, b = _random_seq(t, c, rng), _random_seq(t, c, rng)
            cfe_forward(a, b, p_r, heads)
            cfe_forward(b, a, p_t, heads)
        else:
            p = tc.init_tensors(cfe_spec(c, hidden), rng, np.float64)
            cat = _random_seq(2 * t, c, rng)
            cfe_forward(cat, cat, p, heads)
    return counter.total("ffn")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def audit_rows(t: int, c: int, h: int) -> list:
    """Table rows: (step, cft expr, cft value, ours expr, ours value)."""
    rows = []
    qk_ours = attention_cost("ours", t, c)
    qk_cft = attention_cost("cft", t, c)
    half_ours = CostExpr(qk_ours.terms[:1])
    half_cft = CostExpr(qk_cft.terms[:1])
    rows.append(("QK^T", half_cft, half_cft.evaluate(t, c), half_ours, half_ours.evaluate(t, c)))
    sm_ours, sm_cft = softmax_cost("ours"), softmax_cost("cft")
    rows.append(("softmax", sm_cft, sm_cft.evaluate(t, c), sm_ours, sm_ours.evaluate(t, c)))
    rows.append(("scores*V", half_cft, half_cft.evaluate(t, c), half_ours, half_ours.evaluate(t, c)))
    pf_ours, pf_cft = published_ffn_row("ours"), published_ffn_row("cft")
    rows.append(("FFN (published)", pf_cft, pf_cft.evaluate(t, c), pf_ours, pf_ours.evaluate(t, c)))
    gf_ours, gf_cft = ffn_cost("ours", t, c, h), ffn_cost("cft", t, c, h)
    rows.append((f"FFN (h={h})", gf_cft, gf_cft.evaluate(t, c), gf_ours, gf_ours.evaluate(t, c)))
    pt_ours, pt_cft = published_total("ours"), published_total("cft")
    rows.append(("Total (published)", pt_cft, pt_cft.evaluate(t, c), pt_ours, pt_ours.evaluate(t, c)))
    return rows


def audit_report(t: int, c: int, h: int, measure: bool = True) -> str:
    """Aligned text table of both variants at concrete (T, C, h)."""
    rows = audit_rows(t, c, h)
    buf = io.StringIO()
    buf.write(f"Multiply audit at T={t}, C={c}, h={h}\n")
    header = ("step", "cft", "cft@T,C", "ours", "ours@T,C")
    widths = [max(len(str(r[i])) for r in ([header] + rows)) for i in range(5)]
    line = "  ".join(f"{header[i]:<{widths[i]}}" for i in range(5))
    buf.write(line + "\n")
    buf.write("-" * len(line) + "\n")
    for step, ce, cv, oe, ov in rows:
        buf.write(
            f"{step:<{widths[0]}}  {str(ce):<{widths[1]}}  {str(cv):<{widths[2]}}  "
            f"{str(oe):<{widths[3]}}  {str(ov):<{widths[4]}}\n"
        )
    row_h = implied_ffn_hidden(published_ffn_row("ours"), c)
    total_h = (published_total("ours").terms[1].coeff * c) // 4
    buf.write(
        f"\nNOTE: published ours FFN row implies hidden width {row_h} (2C) but the\n"
        f"published ours total implies {total_h} (4C); both readings are reported,\n"
        "the discrepancy is left unresolved.\n"
    )
    if measure:
        measured = measured_attention_multiplies("ours", t, c)
        measured_cft = measured_attention_multiplies("cft", t, c)
        ffn_meas = measured_ffn_multiplies("ours", t, c, h)
        buf.write(
            "\nRuntime counters: "
            f"ours qk={measured['qk']} av={measured['av']} ffn={ffn_meas}; "
            f"cft qk={measured_cft['qk']} av={measured_cft['av']}\n"
        )
    return buf.getvalue()


def audit_csv(t: int, c: int, h: int) -> str:
    out = ["step,cft_expr,cft_value,ours_expr,ours_value"]
    for step, ce, cv, oe, ov in audit_rows(t, c, h):
        out.append(f'"{step}","{ce}",{cv},"{oe}",{ov}')
    return "\n".join(out) + "\n"
