"""Symbolic multiply/parameter accounting, cross-checked at runtime.

Costs count scalar multiplications inside matrix products only; that is
the quantity the instrumented kernels can report exactly, as integers.
Softmax exponentials and additions are reported symbolically but never
measured.

Two attention variants are compared: ``ours`` runs two cross-attention
modules over T tokens each, ``cft`` runs one self-attention over the 2T
concatenation of both branches.  Every cft cost term is twice ours except
the FFN's, since both variants feed 2T tokens through it.  The published
FFN figures for ``ours`` are internally inconsistent (the per-row figure
implies hidden width 2C, the total implies 4C); the audit reports both
readings and flags the clash instead of resolving it.

The runtime check is one counted enhancement pass per variant,
``counted_pass``, whose multiply counter the report reads: one shared
``icfe_forward`` block (ours) or one ``cfe_forward`` call (cft), at one
head, since the counts do not depend on the head count.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .cfe import cfe_forward, cfe_spec
from .dmff import MAX_PARAM_ELEMENTS, admit_spec
from .icfe import icfe_forward
from .tensor_core import ConfigurationError

VARIANTS = ("ours", "cft")
# The counted passes run the real kernels, so sizes are admitted first.  The
# cft pass's attention at this many multiplies takes ~2 s on one core (8
# GMAC/s measured at T = 2048, C = 64, f64); it admits the paper's 40 x 40
# level at C = 512 unshrunk (~1.05e10) and the workloads' T <= 1024.
MAX_AUDIT_MULTIPLIES = 1 << 34


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


def _cft_factor(variant: str) -> int:
    """Validate `variant` and return its cost over ours: 1 for ours, 2 for
    cft, which attends over twice the tokens.  Every cost term scales by it
    except the FFN's."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return 1 if variant == "ours" else 2


def attention_cost(variant: str, t: int, c: int) -> CostExpr:
    """Score and mixing multiplies; term 0 is Q.Kt, term 1 is scores.V.

    ``ours`` totals the two cross-attention modules (each T^2*C per term);
    ``cft`` runs one self-attention over 2T tokens (4T^2*C per term).
    """
    k = 2 * _cft_factor(variant)
    if t < 1 or c < 1:
        raise ConfigurationError(f"need T, C >= 1, got T={t}, C={c}")
    return _expr((k, 2, 1), (k, 2, 1))


def softmax_cost(variant: str) -> CostExpr:
    """Symbolic softmax entry count (not multiplies; never measured)."""
    return _expr((2 * _cft_factor(variant), 2, 0))


def ffn_cost(variant: str, t: int, c: int, h: int) -> CostExpr:
    """General two-layer FFN multiplies at hidden width `h`.

    Both variants process 2T tokens in total (two modules of T tokens
    versus one module of 2T), so both come to 4*T*C*h; `h` is folded into
    the coefficient so evaluation stays exact integer arithmetic.
    """
    _cft_factor(variant)
    if t < 1 or c < 1 or h < 1:
        raise ConfigurationError(f"need T, C, h >= 1, got T={t}, C={c}, h={h}")
    return _expr((4 * h, 1, 1))


def published_ffn_row(variant: str) -> CostExpr:
    """FFN figure as published: 8*T*C^2 for ours, 16*T*C^2 for cft."""
    return _expr((8 * _cft_factor(variant), 1, 2))


def published_total(variant: str) -> CostExpr:
    """Published totals: ours 2T^2C + 16TC^2, cft 4T^2C + 16TC^2."""
    return _expr((2 * _cft_factor(variant), 2, 1), (16, 1, 2))


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


def counted_pass(variant: str, t: int, c: int, hidden: int) -> tc.MultiplyCounter:
    """The multiplies of one enhancement pass at one head: one
    ``icfe_forward`` block sharing one set between both directions over T
    tokens (ours), or ``cfe_forward`` once over their 2T concatenation
    (cft).  Raises ConfigurationError, before anything is allocated, when
    the weights exceed ``dmff.MAX_PARAM_ELEMENTS``, when the cft pass's
    attention exceeds ``MAX_AUDIT_MULTIPLIES`` or when its widest
    activation, 2T tokens by max(C, hidden), exceeds the weights' bound."""
    _cft_factor(variant)
    spec = admit_spec(cfe_spec(c, hidden))
    mults = attention_cost("cft", t, c).evaluate(t, c)
    if mults > MAX_AUDIT_MULTIPLIES:
        raise ConfigurationError(f"a counted pass at T={t}, C={c} would take {mults} "
                                 f"attention multiplies, more than {MAX_AUDIT_MULTIPLIES}")
    if 2 * t * max(c, hidden) > MAX_PARAM_ELEMENTS:
        raise ConfigurationError(f"a counted pass at T={t}, C={c}, h={hidden} would hold "
                                 f"activations of more than {MAX_PARAM_ELEMENTS} elements")
    rng = np.random.default_rng(0)
    p = tc.init_tensors(spec, rng, np.float64)
    a, b = (tc.Tensor(rng.standard_normal((t, c)), dtype=np.float64) for _ in range(2))
    counter = tc.MultiplyCounter()
    with tc.count_multiplies(counter):
        if variant == "ours":
            icfe_forward(a, b, [(p, p)], 1)
        else:
            cat = tc.Tensor(np.concatenate([a.data, b.data]), dtype=np.float64)
            cfe_forward(cat, cat, p, 1)
    return counter


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def audit_rows(t: int, c: int, h: int) -> list:
    """Table rows: (step, cft expr, cft value, ours expr, ours value)."""

    def half_attention(variant):  # Q.Kt and scores.V cost the same
        return CostExpr(attention_cost(variant, t, c).terms[:1])

    rows = []
    for step, cost in (("QK^T", half_attention), ("softmax", softmax_cost),
                       ("scores*V", half_attention), ("FFN (published)", published_ffn_row),
                       (f"FFN (h={h})", lambda variant: ffn_cost(variant, t, c, h)),
                       ("Total (published)", published_total)):
        cft, ours = cost("cft"), cost("ours")
        rows.append((step, cft, cft.evaluate(t, c), ours, ours.evaluate(t, c)))
    return rows


def audit_report(t: int, c: int, h: int) -> str:
    """Aligned text table of both variants at concrete (T, C, h), the
    published FFN clash, and the runtime counters of one pass per variant."""
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
    total_h = implied_ffn_hidden(CostExpr(published_total("ours").terms[1:]), c)
    buf.write(
        f"\nNOTE: published ours FFN row implies hidden width {row_h} (2C) but the\n"
        f"published ours total implies {total_h} (4C); both readings are reported,\n"
        "the discrepancy is left unresolved.\n"
    )
    ours, cft = (counted_pass(variant, t, c, h) for variant in ("ours", "cft"))
    buf.write(
        "\nRuntime counters: "
        f"ours qk={ours.total('attention_qk')} av={ours.total('attention_av')} "
        f"ffn={ours.total('ffn')}; "
        f"cft qk={cft.total('attention_qk')} av={cft.total('attention_av')}\n"
    )
    return buf.getvalue()


def audit_csv(t: int, c: int, h: int) -> str:
    out = ["step,cft_expr,cft_value,ours_expr,ours_value"]
    for step, ce, cv, oe, ov in audit_rows(t, c, h):
        out.append(f'"{step}","{ce}",{cv},"{oe}",{ov}')
    return "\n".join(out) + "\n"
