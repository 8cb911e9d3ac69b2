import hashlib
import itertools

import numpy as np
import pytest

from crossfuse import complexity_audit as audit
from crossfuse import dmff, icfe, tensor_core as tc
from crossfuse.cfe import cfe_spec


def test_qk_term_values_at_unit_dims():
    assert audit.attention_cost("ours", 1, 1).terms[0].coeff == 2
    assert audit.attention_cost("ours", 1, 1).evaluate(1, 1) == 4  # qk + av
    assert audit.attention_cost("cft", 1, 1).terms[0].coeff == 4


def test_attention_cost_matches_runtime_counter():
    # one cross-attention module at T=10, C=3 runs 300 qk and 300 av
    # multiplies; the dual pair totals the published 2T^2C per term
    expr = audit.attention_cost("ours", 10, 3)
    qk_term = audit.CostExpr(expr.terms[:1])
    assert qk_term.evaluate(10, 3) == 600
    counter = audit.counted_pass("ours", 10, 3, 1)
    assert counter.total("attention_qk") == 600
    assert counter.total("attention_av") == 600


def test_ours_is_exactly_half_of_cft():
    for t in (4, 16, 64):
        for c in (8, 16):
            ours = audit.attention_cost("ours", t, c).evaluate(t, c)
            cft = audit.attention_cost("cft", t, c).evaluate(t, c)
            assert ours * 2 == cft


def test_runtime_counters_equal_symbolic_on_grid():
    for t in (4, 16, 64):
        for c in (8, 16):
            for variant in ("ours", "cft"):
                expr = audit.attention_cost(variant, t, c)
                counter = audit.counted_pass(variant, t, c, 1)
                qk = audit.CostExpr(expr.terms[:1]).evaluate(t, c)
                assert counter.total("attention_qk", "attention_av") == expr.evaluate(t, c)
                assert counter.total("attention_qk") == qk


def test_counts_are_head_independent(rng):
    # the counted pass runs at one head: the kernel's count at T_q = 6,
    # T_k = 5, C = 8 is T_q T_k C per product, whatever the head count
    q, k, v = (tc.Tensor(rng.standard_normal((t, 8)), dtype=np.float64) for t in (6, 5, 5))
    for heads in (1, 2, 4, 8):
        with tc.count_multiplies() as counter:
            tc.multi_head_attention(q, k, v, heads)
        assert counter.counts == {"attention_qk": 6 * 5 * 8, "attention_av": 6 * 5 * 8}


def test_ffn_cost_reproduces_published_rows():
    t, c = 7, 5
    assert audit.ffn_cost("cft", t, c, 4 * c).evaluate(t, c) == 16 * t * c * c
    assert audit.ffn_cost("ours", t, c, 2 * c).evaluate(t, c) == 8 * t * c * c


def test_ffn_cost_matches_runtime_counter():
    assert audit.ffn_cost("ours", 5, 4, 8).evaluate(5, 4) == 640
    assert audit.counted_pass("ours", 5, 4, 8).total("ffn") == 640
    assert audit.counted_pass("cft", 5, 4, 8).total("ffn") == 640


def test_invalid_variant_rejected():
    with pytest.raises(tc.ConfigurationError):
        audit.attention_cost("theirs", 4, 4)


@pytest.mark.parametrize("bad", [0, -1])
def test_sizes_below_one_rejected(bad):
    for variant in audit.VARIANTS:
        for t, c in ((bad, 4), (4, bad)):
            with pytest.raises(tc.ConfigurationError):
                audit.attention_cost(variant, t, c)
        for t, c, h in ((bad, 4, 4), (4, bad, 4), (4, 4, bad)):
            with pytest.raises(tc.ConfigurationError):
                audit.ffn_cost(variant, t, c, h)


# --- parameter counting ------------------------------------------------------------


def test_cfe_param_count_frozen_value(rng):
    # 4 projections of 16x16, ffn 16x64 + 64 + 64x16 + 16, four coefficients
    p = tc.init_tensors(cfe_spec(16, 64), rng, np.float64)
    assert audit.param_count(p) == 4 * 16 * 16 + (16 * 64 + 64) + (64 * 16 + 16) + 4
    assert audit.param_count(p) == 3156


def test_icfe_count_independent_of_iterations(rng):
    counts = set()
    for n in (0, 1, 2, 3, 10):
        cfg = dmff.DmffConfig(heads=8, ffn_hidden=64, iterations=n)
        p = dmff.init_dmff_weights(cfg, 8, 8, 16, np.random.default_rng(7), dtype=np.float64)
        counts.add(audit.param_count(p.tensors))
    assert len(counts) == 1


def enhancement_tensors(mode, rng):
    wts = dmff.init_dmff_weights(dmff.DmffConfig(mode=mode, heads=8, ffn_hidden=64),
                                 8, 8, 16, rng, dtype=np.float64)
    return {n: t for n, t in wts.named_tensors() if n.startswith("cfe")}


def test_shared_icfe_counts_one_set(rng):
    unshared = enhancement_tensors("d", rng)
    shared = enhancement_tensors("c", rng)
    assert audit.param_count(unshared) == 2 * audit.param_count(shared)


def test_stacked_count_linear_in_blocks(rng):
    one = audit.param_count(tc.init_tensors(icfe.stacked_spec(16, 64, 1), rng, np.float64))
    for k in (2, 3, 5):
        stack = tc.init_tensors(icfe.stacked_spec(16, 64, k), rng, np.float64)
        assert audit.param_count(stack) == k * one


# --- report --------------------------------------------------------------------------


def test_audit_report_renders_and_flags_discrepancy():
    text = audit.audit_report(16, 8, 32)
    assert "QK^T" in text
    assert "NOTE" in text
    assert "16 (2C)" in text and "32 (4C)" in text
    assert "Runtime counters" in text


def test_audit_csv_shape():
    lines = audit.audit_csv(4, 4, 16).strip().split("\n")
    assert lines[0].startswith("step,")
    assert len(lines) == 7


def test_audit_report_and_csv_are_pinned_literally():
    # every character of both renderings, trailing column padding included
    assert audit.audit_report(4, 8, 32) == "\n".join([
        "Multiply audit at T=4, C=8, h=32",
        "step               cft                 cft@T,C  ours                ours@T,C",
        "----------------------------------------------------------------------------",
        "QK^T               4*T^2*C             512      2*T^2*C             256     ",
        "softmax            4*T^2               64       2*T^2               32      ",
        "scores*V           4*T^2*C             512      2*T^2*C             256     ",
        "FFN (published)    16*T*C^2            4096     8*T*C^2             2048    ",
        "FFN (h=32)         128*T*C             4096     128*T*C             4096    ",
        "Total (published)  4*T^2*C + 16*T*C^2  4608     2*T^2*C + 16*T*C^2  4352    ",
        "",
        "NOTE: published ours FFN row implies hidden width 16 (2C) but the",
        "published ours total implies 32 (4C); both readings are reported,",
        "the discrepancy is left unresolved.",
        "",
        "Runtime counters: ours qk=256 av=256 ffn=4096; cft qk=512 av=512",
        "",
    ])
    assert audit.audit_csv(4, 8, 32) == "\n".join([
        "step,cft_expr,cft_value,ours_expr,ours_value",
        '"QK^T","4*T^2*C",512,"2*T^2*C",256',
        '"softmax","4*T^2",64,"2*T^2",32',
        '"scores*V","4*T^2*C",512,"2*T^2*C",256',
        '"FFN (published)","16*T*C^2",4096,"8*T*C^2",2048',
        '"FFN (h=32)","128*T*C",4096,"128*T*C",4096',
        '"Total (published)","4*T^2*C + 16*T*C^2",4608,"2*T^2*C + 16*T*C^2",4352',
        "",
    ])


def test_audit_report_and_csv_digest_over_a_grid():
    # every printed value is an exact integer, so these bytes do not depend
    # on the floating-point path of the machine that prints them
    digest = hashlib.sha256()
    for t, c, h in itertools.product((1, 4, 16, 100), (1, 8, 64), (1, 32, 256)):
        digest.update(audit.audit_report(t, c, h).encode())
        digest.update(audit.audit_csv(t, c, h).encode())
    assert digest.hexdigest() == \
        "3d0f6a35e0e23fabeb121e6143da4213c2d40597fb2a4629141cfae3b8b6a66b"
