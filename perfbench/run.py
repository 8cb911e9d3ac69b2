"""crossfuse benchmark: closed-loop workloads through the public functions.

    python3 perfbench/run.py --workload fuse_d64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; crossfuse is imported from ``src/``.
With ``--trace 0`` the whole timed phase is untraced and the end-to-end
metrics are printed.  With ``--trace 1`` the timed phase is split into an
untraced half and a traced half, and the per-layer metrics are printed.
The line before the last holds the full report (environment record,
per-phase median and tail latency, tail percentile, throughput, sample count,
failures); the last line is the result.
The exit status is nonzero when any op fails or a guard does not hold.
See README.md for the metric definitions.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
# Must precede the first numpy import of the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import resource
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import GROUPS, Tracer
from workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up is repeated and its median reported, so one cold start does not decide it
SETUP_REPS = 11
TAIL_BEYOND = 10

# The gated timing is the median op.  On the shared 2-core host this was
# tuned on, the fastest op and the tail (11th slowest op) move by 0.1 to 0.26
# of their median between 30 s windows, because they hang on a few ops that
# other tenants speed up or stall; the median moves by 0.02 to 0.06.  The
# tail and the throughput are in the report (see `typical`), not gated.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}
GMAC_STAGES = ("attention_qk", "attention_av", "proj", "ffn")
MULT_STAGES = ("shrink", "proj", "attention_qk", "attention_av", "ffn", "nin", "other")
# (metric, unit): every per-layer metric is per op of the traced phase
# unless README.md says otherwise.
PER_LAYER = {
    "tensor_core.softmax_rows.self_ms": "ms",
    "tensor_core.softmax_rows.calls": "count",
    "tensor_core.softmax_rows.gbps": "GB/s",
    "tensor_core.const_scale.self_ms": "ms",
    "tensor_core.const_scale.calls": "count",
    "tensor_core.matmul.self_ms": "ms",
    "tensor_core.matmul.calls": "count",
    **{f"tensor_core.matmul.gmac_per_s.{s}": "GMAC/s" for s in GMAC_STAGES},
    "tensor_core.backward.self_ms": "ms",
    "tensor_core.tape_steps": "count",
    "tensor_core.tape_peak_mib": "MiB",
    "tensor_core.layout.self_ms": "ms",
    "tensor_core.layout.calls": "count",
    "tensor_core.elementwise.self_ms": "ms",
    "tensor_core.elementwise.calls": "count",
    "tensor_core.pool2d.self_ms": "ms",
    "tensor_core.bilinear_resize.self_ms": "ms",
    "tensor_core.read_rawtensor.self_ms": "ms",
    "tensor_core.write_rawtensor.self_ms": "ms",
    **{f"tensor_core.mults.{s}": "count" for s in MULT_STAGES},
    "token_codec.tokenize.total_ms": "ms",
    "token_codec.detokenize.total_ms": "ms",
    "sfs.shrink.total_ms": "ms",
    "sfs.shrink.self_ms": "ms",
    "cfe.cross_attention.total_ms": "ms",
    "cfe.cross_attention.self_ms": "ms",
    "cfe.ffn.total_ms": "ms",
    "cfe.cfe_forward.total_ms": "ms",
    "cfe.cfe_forward.self_ms": "ms",
    "icfe.icfe_forward.total_ms": "ms",
    "icfe.icfe_forward.self_ms": "ms",
    "dmff.dmff_fuse.total_ms": "ms",
    "dmff.dmff_fuse.self_ms": "ms",
    "dmff.nin_fuse.total_ms": "ms",
    "dmff.replace_parameters.total_ms": "ms",
    "dmff.replace_parameters.calls": "count",
    "dmff.init_dmff_weights.total_ms": "ms",
    "train.sgd_update.total_ms": "ms",
    "train.train_toy.self_ms": "ms",
    "train.final_loss": "loss",
    "gradcheck.grad_check.self_ms": "ms",
    "gradcheck.loss_evals": "count",
    "weights_io.load_weights.total_ms": "ms",
    "weights_io.save_weights.total_ms": "ms",
    "synth.gen_synthetic_pair.total_ms": "ms",
    "complexity_audit.attention_mults_match": "bool",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "failed_ratio": "ratio",
}
# Set-up style calls: reported as mean duration per call over every span of
# the traced run (including one traced build), not per op.
PER_CALL = ("dmff.init_dmff_weights", "weights_io.load_weights",
            "weights_io.save_weights", "synth.gen_synthetic_pair")


def import_crossfuse():
    """Fresh import of crossfuse from the checkout's src/ (set-up time)."""
    for name in [n for n in sys.modules if n == "crossfuse" or n.startswith("crossfuse.")]:
        del sys.modules[name]
    cf = importlib.import_module("crossfuse")
    if SRC.resolve() not in Path(cf.__file__).resolve().parents:
        raise ImportError(f"crossfuse imported from {cf.__file__}, not from {SRC}")
    return cf


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def tail(latencies):
    """Highest sample with TAIL_BEYOND samples above it, and its percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup(wl, reps: int):
    """Import + build + one warm-up op, `reps` times; returns (times, warm-up oks)."""
    times, oks = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        cf = import_crossfuse()
        wl.build(cf)
        try:
            result = wl.warmup()
        except Exception:
            result = None
        times.append(time.perf_counter() - t0)
        oks.append(result is not None and wl.check(result))
    return cf, times, oks


def end_to_end(rec, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": 1e3 * statistics.median(rec.latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def typical(rec) -> dict:
    """Latency and throughput of one timed phase, for the report."""
    if not rec.latencies:
        return {}
    tail_s, tail_percentile = tail(rec.latencies)
    return {"latency_p50_ms": 1e3 * statistics.median(rec.latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "tail_percentile": tail_percentile,
            "ops_per_s": len(rec.latencies) / rec.busy,
            "samples": len(rec.latencies)}


def tape_peak_mib(wl) -> float:
    step = wl.taped_step()
    if step is None:
        return 0.0
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def per_layer(cf, wl, tracer, plain, traced, failed_ratio, tape_mib) -> dict:
    times, covered = tracer.layer_times()
    n = len(traced.latencies)
    zero = (0.0, 0.0, 0.0)

    def span(name, what):  # what: 0 total, 1 self, 2 calls; summed over sampled windows
        if name in GROUPS:
            return sum(span(f"tensor_core.{f}", what) for f in GROUPS[name])
        if name == "tensor_core.matmul":
            return sum(v[what] for k, v in times.items() if k.startswith(name + "@"))
        return times.get(name, zero)[what]

    m = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind in ("total_ms", "self_ms"):
            m[metric] = 1e3 * span(layer, 0 if kind == "total_ms" else 1) / n
        elif kind == "calls":
            m[metric] = span(layer, 2) / n
    for name in PER_CALL:
        durations = tracer.durations(name)
        m[f"{name}.total_ms"] = 1e3 * float(np.mean(durations)) if len(durations) else 0.0
    softmax_s = span("tensor_core.softmax_rows", 1)
    m["tensor_core.softmax_rows.gbps"] = tracer.softmax_bytes / softmax_s / 1e9 if softmax_s else 0.0
    for stage in GMAC_STAGES:
        t = times.get(f"tensor_core.matmul@{stage}", zero)[1]
        m[f"tensor_core.matmul.gmac_per_s.{stage}"] = tracer.mults.get(stage, 0) / t / 1e9 if t else 0.0
    for stage in MULT_STAGES:
        m[f"tensor_core.mults.{stage}"] = tracer.mults.get(stage, 0) / n
    m["tensor_core.tape_steps"] = tracer.tape_steps / n
    m["tensor_core.tape_peak_mib"] = tape_mib
    m["gradcheck.loss_evals"] = ((span("dmff.dmff_fuse", 2) - span("tensor_core.backward", 2)) / n
                                 if wl.counts_loss_evals else 0.0)
    t, c, iterations = wl.attention_dims
    expected = cf.complexity_audit.attention_cost("ours", t, c).evaluate(t, c) * iterations
    fuses = span("dmff.dmff_fuse", 2)
    measured = tracer.mults.get("attention_qk", 0) + tracer.mults.get("attention_av", 0)
    m["complexity_audit.attention_mults_match"] = float(fuses > 0 and measured == fuses * expected)
    m["train.final_loss"] = wl.summary().get("final_loss", 0.0)
    m["trace.overhead_ratio"] = statistics.median(traced.latencies) / statistics.median(plain.latencies)
    m["trace.coverage_ratio"] = covered / sum(traced.latencies)
    m["failed_ratio"] = failed_ratio
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossfuse" / "__init__.py").is_file():
        print(f"error: no crossfuse sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl.prepare(Path(work))
        cf, setup_times, warm_oks = setup(wl, 1 if args.trace else SETUP_REPS)
        plain = Recorder()
        if not args.trace:
            wl.run(plain, time.perf_counter() + args.seconds)
            recs = [plain]
        else:
            wl.run(plain, time.perf_counter() + args.seconds / 2)
            tracer = Tracer()
            tracer.install(cf)
            traced = Recorder(tracer)
            try:
                with cf.tensor_core.count_multiplies(tracer.counter):
                    wl.build(cf)
                    wl.run(traced, time.perf_counter() + args.seconds / 2)
            finally:
                tracer.uninstall()
            recs = [plain, traced]
            tape_mib = tape_peak_mib(wl)
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    attempted = len(warm_oks) + sum(r.attempted for r in recs)
    failed = warm_oks.count(False) + sum(r.failed for r in recs)
    failed_ratio = failed / attempted if attempted else 1.0
    summary = wl.summary()
    sampled = all(r.latencies for r in recs)
    correct = failed == 0 and sampled and summary.get("loss_halved", True)
    metrics = {}
    if sampled and not args.trace:
        metrics = end_to_end(plain, setup_times)
    elif sampled:
        metrics = per_layer(cf, wl, tracer, plain, traced, failed_ratio, tape_mib)
        correct = correct and metrics["complexity_audit.attention_mults_match"] == 1
    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "phases": [typical(r) for r in recs],
        "setup_s_reps": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed_ratio,
        **summary,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
