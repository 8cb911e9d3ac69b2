"""Fault injection and schema checks for the benchmark itself.

    python -m pytest perfbench/tests -q

Each fault is patched into the freshly imported crossfuse package, so the
benchmark's own checks must catch it: the failure counts in failed_ratio
and the command exits nonzero.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark definition names, with its unit
NAMED_END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "peak_rss_mib": "MiB"}
NAMED_REPORTED = ("latency_p50_ms", "latency_tail_ms", "tail_percentile", "ops_per_s",
                  "samples")
NAMED_PER_LAYER = [
    "tensor_core.softmax_rows.self_ms", "tensor_core.softmax_rows.calls",
    "tensor_core.softmax_rows.gbps", "tensor_core.const_scale.self_ms",
    "tensor_core.const_scale.calls", "tensor_core.matmul.self_ms",
    "tensor_core.matmul.calls", "tensor_core.matmul.gmac_per_s.attention_qk",
    "tensor_core.matmul.gmac_per_s.attention_av", "tensor_core.matmul.gmac_per_s.proj",
    "tensor_core.matmul.gmac_per_s.ffn", "tensor_core.backward.self_ms",
    "tensor_core.tape_steps", "tensor_core.tape_peak_mib", "tensor_core.layout.self_ms",
    "tensor_core.layout.calls", "tensor_core.elementwise.self_ms",
    "tensor_core.elementwise.calls", "tensor_core.pool2d.self_ms",
    "tensor_core.bilinear_resize.self_ms", "tensor_core.read_rawtensor.self_ms",
    "tensor_core.write_rawtensor.self_ms", "tensor_core.mults.shrink",
    "tensor_core.mults.proj", "tensor_core.mults.attention_qk",
    "tensor_core.mults.attention_av", "tensor_core.mults.ffn", "tensor_core.mults.nin",
    "tensor_core.mults.other", "token_codec.tokenize.total_ms",
    "token_codec.detokenize.total_ms", "sfs.shrink.total_ms", "sfs.shrink.self_ms",
    "cfe.cross_attention.total_ms", "cfe.cross_attention.self_ms", "cfe.ffn.total_ms",
    "cfe.cfe_forward.total_ms", "cfe.cfe_forward.self_ms", "icfe.icfe_forward.total_ms",
    "icfe.icfe_forward.self_ms", "dmff.dmff_fuse.total_ms", "dmff.dmff_fuse.self_ms",
    "dmff.nin_fuse.total_ms", "dmff.replace_parameters.total_ms",
    "dmff.replace_parameters.calls", "dmff.init_dmff_weights.total_ms",
    "train.sgd_update.total_ms", "train.train_toy.self_ms", "train.final_loss",
    "gradcheck.grad_check.self_ms", "gradcheck.loss_evals",
    "weights_io.load_weights.total_ms", "weights_io.save_weights.total_ms",
    "synth.gen_synthetic_pair.total_ms", "complexity_audit.attention_mults_match",
    "trace.overhead_ratio", "trace.coverage_ratio", "failed_ratio",
]


def bench(capsys, workload, trace=0, seconds=1.0):
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-2]), json.loads(lines[-1])


def patch_crossfuse(monkeypatch, fault):
    real_import = run.import_crossfuse

    def import_with_fault():
        cf = real_import()
        fault(cf)
        return cf

    monkeypatch.setattr(run, "import_crossfuse", import_with_fault)


def assert_failed(rc, report, result):
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["failed_ratio"] == result["failed"] / result["attempted"] > 0


def test_perturbed_fuse_output_counts_as_failure(monkeypatch, capsys):
    def fault(cf):
        real = cf.dmff.dmff_fuse

        def fuse(*args, **kwargs):
            out = real(*args, **kwargs)
            data = out.primary.data.copy()
            data[0, 0, 0] += 1e-2
            return dataclasses.replace(out, primary=cf.tensor_core.Tensor(data))

        cf.dmff.dmff_fuse = fuse

    patch_crossfuse(monkeypatch, fault)
    assert_failed(*bench(capsys, "fuse_d64"))


def test_nan_training_loss_counts_as_failure(monkeypatch, capsys):
    def fault(cf):
        real = cf.train.squared_error_loss
        cf.train.squared_error_loss = lambda p, t: cf.tensor_core.const_scale(
            real(p, t), float("nan"))

    patch_crossfuse(monkeypatch, fault)
    assert_failed(*bench(capsys, "train_d32_it3"))


def test_failing_gradcheck_counts_as_failure(monkeypatch, capsys):
    def fault(cf):
        tc = cf.tensor_core

        def skew(record):
            return tc.GradRecord({k: tc.Tensor(1.5 * v.data) for k, v in record.entries.items()})

        cf.gradcheck.grad_check = functools.partial(cf.gradcheck.grad_check, _grad_hook=skew)

    patch_crossfuse(monkeypatch, fault)
    assert_failed(*bench(capsys, "gradcheck_d8"))


def test_definition_lists_every_named_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == NAMED_END_TO_END == run.END_TO_END
    assert sorted(layer) == sorted(NAMED_PER_LAYER)
    assert layer == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_exactly_the_defined_metrics(capsys, trace):
    rc, report, result = bench(capsys, "gradcheck_d8", trace=trace, seconds=2.0)
    assert rc == 0 and result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for key in ("python", "numpy", "blas", "blas_version", "blas_threads", "nproc", "seed"):
        assert key in report["env"]
    assert len(report["phases"]) == 1 + trace
    for phase in report["phases"]:
        assert set(phase) == set(NAMED_REPORTED)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gradcheck_d8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
