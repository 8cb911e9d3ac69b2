import math
from fractions import Fraction

import numpy as np
import pytest

from crossfuse import dmff, gradcheck, tensor_core as tc
from crossfuse.dmff import DmffConfig
from crossfuse.gradcheck import grad_check
from crossfuse.synth import SyntheticPairSpec
from test_dmff import GRAD_GRID, make_cfg

SMALL = SyntheticPairSpec(h=4, w=4, c=8, blob_count=4, seed=11)


def small_cfg(**kw):
    base = dict(heads=2, ffn_hidden=16)
    base.update(kw)
    return DmffConfig(**base)


def test_linear_only_configuration_is_machine_precision():
    # mode e is a pure linear map, so central differences of the quadratic
    # loss are exact up to rounding
    report = grad_check(small_cfg(mode="e"), synth=SMALL, seed=11)
    assert report.passed
    assert report.worst().max_rel_err < 1e-8


def test_identity_coefficients_bypass_attention_at_machine_precision(monkeypatch):
    # (alpha, beta, gamma, delta) = (0, 1, 1, 0): the attention and ffn
    # branches drop out of the loss, which becomes quadratic in everything
    # that still matters.  The check's own init is wrapped to set them.

    def bypass_init(*args, **kwargs):
        wts = dmff.init_dmff_weights(*args, **kwargs)
        return dmff.replace_parameters(wts, {
            name: tc.scalar(0.0, dtype=np.float64) for name, _ in wts.named_tensors()
            if name.rsplit(".", 1)[-1] in ("alpha", "delta")})

    monkeypatch.setattr(gradcheck, "init_dmff_weights", bypass_init)
    # window 1 makes the pooling blend the identity for any lambda, so the
    # whole pipeline is linear in every remaining parameter; central
    # differences of a quadratic are exact at any step, and a wider step
    # only shrinks the cancellation noise
    report = grad_check(small_cfg(mode="d", shrink_window=1), synth=SMALL, seed=11, eps=1e-3)
    assert report.passed
    assert report.worst().max_rel_err < 1e-8


def test_default_small_config_passes():
    report = grad_check(small_cfg(mode="d"), synth=SMALL, seed=11)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "cfe_r.w_q" in names and "sfs_t.lambda_raw" in names


def test_all_modes_pass(rng):
    for mode in ("a", "b", "c", "d", "e"):
        report = grad_check(small_cfg(mode=mode), synth=SMALL, seed=5)
        assert report.passed, (mode, report.worst())


def test_conv_shrink_variant_passes():
    report = grad_check(small_cfg(mode="d", shrink_variant="conv"), synth=SMALL, seed=3)
    assert report.passed


def test_corrupted_adjoint_is_detected_on_exactly_that_tensor():
    def negate_wv(record):
        bad = dict(record)
        bad["cfe_r.w_v"] = tc.Tensor(-bad["cfe_r.w_v"].data, dtype=np.float64)
        return tc.GradRecord(bad)

    report = grad_check(small_cfg(mode="d"), synth=SMALL, seed=11, _grad_hook=negate_wv)
    assert not report.passed
    failing = [c.name for c in report.checks if not c.passed(report.tol)]
    assert failing == ["cfe_r.w_v"]


def test_nan_gradient_fails_every_check():
    def nan_grads(record):
        return tc.GradRecord({n: tc.Tensor(np.full(g.shape, np.nan), dtype=np.float64)
                              for n, g in record.items()})

    report = grad_check(small_cfg(mode="d"), synth=SMALL, seed=3, min_samples=1,
                        _grad_hook=nan_grads)
    assert not report.passed
    assert all(math.isnan(c.max_rel_err) and not c.passed(report.tol)
               for c in report.checks)
    assert math.isnan(report.worst().max_rel_err)


@pytest.mark.parametrize("name, value", [
    ("eps", 0.0), ("eps", -1e-5), ("eps", math.nan), ("eps", math.inf), ("eps", True),
    ("eps", "1e-5"), ("eps", Fraction(1, 10**5)), ("tol", 0.0), ("tol", math.nan),
    ("tol", True), ("tol", "1e-4"), ("min_samples", 0), ("min_samples", 1.5),
    ("min_samples", True), ("seed", -1), ("seed", 1.5), ("seed", True)])
def test_meaningless_settings_are_rejected(name, value):
    taped = []
    with pytest.raises(tc.ConfigurationError, match=name):
        grad_check(small_cfg(mode="e"), synth=SMALL, _grad_hook=taped.append, **{name: value})
    assert taped == []  # refused on entry, before the taped pass


@pytest.mark.parametrize("mode, variant, iterations, sequential", list(GRAD_GRID))
def test_reports_are_those_of_uncached_fuses(mode, variant, iterations, sequential, monkeypatch):
    # every max_rel_err to the bit over 20 seeds, against grad_check with a
    # fuse that drops the cache
    cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations,
                   sequential_update=sequential)

    def errors():
        return [np.float64(c.max_rel_err).tobytes() for seed in range(20)
                for c in grad_check(cfg, synth=SMALL, seed=seed, min_samples=1).checks]

    cached = errors()
    monkeypatch.setattr(gradcheck, "dmff_fuse", lambda f_r, f_t, cfg, wts, cache:
                        dmff.dmff_fuse(f_r, f_t, cfg, wts))
    assert cached == errors()


def test_report_format_mentions_every_tensor():
    report = grad_check(small_cfg(mode="e"), synth=SMALL, seed=2)
    text = report.format()
    assert "nin.w" in text and "nin.b" in text
    assert text.endswith("PASS")
