"""The three closed-loop workloads: one client, one process, and the next op
starts only after the previous one has completed and been checked.

Each workload receives the imported crossfuse package ``cf`` and calls it
through module attributes at call time, so a tracer's wrappers are seen.

    prepare(workdir)  the benchmark's own input files            (untimed)
    build(cf)         weight build / save / load                (set-up time)
    warmup()          one op                                    (set-up time)
    check(result)     output check of one op against the oracle (untimed)
    run(rec, until)   the timed closed loop, one Recorder entry per op
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

import oracle

# A fused output passes when |out - ref| <= FUSE_ATOL + FUSE_RTOL * |ref|
# elementwise against the float64 oracle (float32 rounding is ~1e-7).
FUSE_ATOL = 1e-5
FUSE_RTOL = 1e-4
# Step-0 training loss against the oracle's loss, relative.
LOSS_RTOL = 1e-4
# A training episode passes the learning guard when its last loss is at
# most this share of its first.
LOSS_HALVING = 0.5


class Recorder:
    """Op windows of one timed phase: latency samples, failures, busy time."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    def open(self, sample: bool = True):
        self._sample = sample
        self._t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.open_window(self._t0, len(self.latencies) if sample else -1)

    def stop(self):
        self._t1 = time.perf_counter()
        self.busy += self._t1 - self._t0
        if self.tracer is not None:
            self.tracer.end_window(self._t1)

    def commit(self, ok: bool, is_op: bool = True):
        """Record the stopped window; a failed op is never a latency sample."""
        sample = self._sample and ok and is_op
        if self.tracer is not None:
            self.tracer.close_window(sample)
        if is_op:
            self.attempted += 1
            self.failed += not ok
        if sample:
            self.latencies.append(self._t1 - self._t0)


def _seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def write_rawtensor(path, arr: np.ndarray):
    header = {"dtype": "f32", "shape": list(arr.shape), "v": 1}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_rawtensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    if header.get("dtype") != "f32":
        raise ValueError(f"expected an f32 rawtensor, got {header!r}")
    return np.frombuffer(blob, dtype="<f4").reshape(header["shape"])


def smooth_map(rng, h: int, w: int, c: int, blobs: int = 6) -> np.ndarray:
    """Gaussian blobs with random channel profiles over a little noise."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    out = rng.normal(0.0, 0.05, size=(h, w, c))
    for _ in range(blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(2.0, h / 4)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        out += bump[:, :, None] * rng.uniform(0.0, 1.0, size=c)
    return out.astype(np.float32)


def taped_fwd_bwd(cf, cfg, h: int, w: int, c: int, dtype, seed: int):
    """One taped forward + backward of the reconstruction loss at init."""
    tc = cf.tensor_core
    wts = cf.dmff.init_dmff_weights(cfg, h, w, c, np.random.default_rng(seed), dtype=dtype)
    f_r, f_t, target = cf.synth.gen_synthetic_pair(
        cf.synth.SyntheticPairSpec(h=h, w=w, c=c, seed=seed), dtype=dtype)

    def step():
        tape = tc.Tape()
        tape.watch_all(wts.named_tensors())
        with tc.record_on(tape):
            out = cf.dmff.dmff_fuse(f_r, f_t, cfg, wts)
            loss = cf.train.squared_error_loss(out.primary, target)
        tc.backward(tc.scalar(1.0, dtype=dtype), tape, loss)

    return step


def oracle_loss(cf, cfg, spec, seed: int) -> float:
    """Step-0 loss of train_toy, recomputed by the float64 oracle."""
    wts = cf.dmff.init_dmff_weights(cfg, spec.h, spec.w, spec.c,
                                    np.random.default_rng(seed))
    f_r, f_t, target = cf.synth.gen_synthetic_pair(spec)
    ref = oracle.fuse_mode_d(f_r.data, f_t.data,
                             {n: t.data for n, t in wts.named_tensors()},
                             cfg.heads, cfg.shrink_window, cfg.iterations)
    return float(((ref - target.data) ** 2).mean())


class FuseD64:
    """`crossfuse fuse` without process start: read two rawtensor files, run
    untaped mode-d dmff_fuse, write the fused rawtensor."""

    name = "fuse_d64"
    H = W = C = 64
    PAIRS = 4
    HEADS, FFN_HIDDEN, WINDOW, ITERATIONS = 8, 256, 2, 1
    attention_dims = ((H // WINDOW) * (W // WINDOW), C, ITERATIONS)  # T, C, iterations
    counts_loss_evals = False

    def __init__(self, seed: int):
        self.seed = seed
        self.refs = None

    def prepare(self, workdir):
        rng = np.random.default_rng(_seed(self.seed, 1))
        self.pairs = []
        for i in range(self.PAIRS):
            paths = (workdir / f"rgb{i}.rawtensor", workdir / f"thermal{i}.rawtensor")
            maps = [smooth_map(rng, self.H, self.W, self.C) for _ in paths]
            for path, arr in zip(paths, maps):
                write_rawtensor(path, arr)
            self.pairs.append((paths, maps))
        self.weights_path = workdir / "weights.icaf"
        self.out_path = workdir / "fused.rawtensor"

    def build(self, cf):
        self.cf = cf
        cfg = cf.dmff.DmffConfig(mode="d", heads=self.HEADS, ffn_hidden=self.FFN_HIDDEN,
                                 shrink_window=self.WINDOW, iterations=self.ITERATIONS)
        rng = np.random.default_rng(_seed(self.seed, 2))
        wts = cf.dmff.init_dmff_weights(cfg, self.H, self.W, self.C, rng)
        # move the scalar learnables off their init values so the oracle
        # check covers the residual coefficients and the pooling blend
        scalars = {name: cf.tensor_core.Tensor(rng.uniform(0.5, 1.5, size=1), np.float32)
                   for name, t in wts.named_tensors() if t.size == 1}
        cf.weights_io.save_weights(cf.dmff.replace_parameters(wts, scalars),
                                   self.weights_path)
        self.wts = cf.weights_io.load_weights(self.weights_path)

    def _op(self, i: int) -> int:
        cf = self.cf
        k = i % self.PAIRS
        (rgb, thermal), _ = self.pairs[k]
        f_r = cf.tensor_core.read_rawtensor(rgb)
        f_t = cf.tensor_core.read_rawtensor(thermal)
        out = cf.dmff.dmff_fuse(f_r, f_t, self.wts.cfg, self.wts)
        cf.tensor_core.write_rawtensor(self.out_path, out.primary)
        return k

    def warmup(self):
        return self._op(0)

    def check(self, k: int) -> bool:
        if self.refs is None:
            named = {n: t.data for n, t in self.wts.named_tensors()}
            self.refs = [oracle.fuse_mode_d(maps[0], maps[1], named, self.HEADS,
                                            self.WINDOW, self.ITERATIONS)
                         for _, maps in self.pairs]
        out = read_rawtensor(self.out_path)
        ref = self.refs[k]
        return (out.shape == ref.shape and bool(np.isfinite(out).all())
                and bool((np.abs(out - ref) <= FUSE_ATOL + FUSE_RTOL * np.abs(ref)).all()))

    def run(self, rec: Recorder, until: float):
        i = 1
        while time.perf_counter() < until:
            rec.open()
            try:
                k = self._op(i)
            except Exception:
                rec.stop()
                rec.commit(False)
            else:
                rec.stop()
                rec.commit(self.check(k))
            i += 1

    def taped_step(self):
        return None  # the fuse path never records a tape

    def summary(self) -> dict:
        return {}


class _PhaseOver(Exception):
    pass


class TrainD32It3:
    """Training steps of train.train_toy, timed between step_callback calls.

    Episodes have a fixed length and restart from a seeded init.  The first
    interval of an episode also covers weight init and scene generation, so
    it is an op but not a latency sample.
    """

    name = "train_d32_it3"
    H = W = 32
    C = 64
    HEADS, FFN_HIDDEN, WINDOW, ITERATIONS = 8, 256, 2, 3
    EPISODE_STEPS = 16
    attention_dims = ((H // WINDOW) * (W // WINDOW), C, ITERATIONS)  # T, C, iterations
    counts_loss_evals = False

    def __init__(self, seed: int):
        self.seed = seed
        self.episode = 0
        self.first_losses = []
        self.final_losses = []

    def prepare(self, workdir):
        pass

    def build(self, cf):
        self.cf = cf
        self.dmff_cfg = cf.dmff.DmffConfig(mode="d", heads=self.HEADS,
                                           ffn_hidden=self.FFN_HIDDEN,
                                           shrink_window=self.WINDOW,
                                           iterations=self.ITERATIONS)

    def _config(self, s: int, steps: int):
        spec = self.cf.synth.SyntheticPairSpec(h=self.H, w=self.W, c=self.C, seed=s)
        return self.cf.train.TrainConfig(steps=steps, seed=s, dmff=self.dmff_cfg, synth=spec)

    def warmup(self):
        cfg = self._config(_seed(self.seed, 7), 1)
        return cfg, self.cf.train.train_toy(cfg).losses

    def _loss0_ok(self, cfg, loss0: float) -> bool:
        ref = oracle_loss(self.cf, cfg.dmff, cfg.synth, cfg.seed)
        return math.isfinite(loss0) and abs(loss0 - ref) <= LOSS_RTOL * abs(ref)

    def check(self, result) -> bool:
        cfg, losses = result
        return self._loss0_ok(cfg, losses[0])

    def run(self, rec: Recorder, until: float):
        while time.perf_counter() < until:
            cfg = self._config(_seed(self.seed, 3, self.episode), self.EPISODE_STEPS)
            self.episode += 1
            losses = []

            def step_done(step, lr, loss):
                rec.stop()
                rec.commit(math.isfinite(loss))
                losses.append(loss)
                if time.perf_counter() >= until:
                    raise _PhaseOver
                rec.open()

            rec.open(sample=False)
            try:
                self.cf.train.train_toy(cfg, step_callback=step_done)
            except _PhaseOver:
                pass
            except Exception:
                rec.stop()
                rec.commit(False)
            else:
                rec.stop()
                rec.commit(True, is_op=False)  # return from train_toy after the last step
                self.first_losses.append(losses[0])
                self.final_losses.append(losses[-1])
            if losses and not self._loss0_ok(cfg, losses[0]):
                rec.failed += 1  # step 0 was committed as passed

    def taped_step(self):
        return taped_fwd_bwd(self.cf, self.dmff_cfg, self.H, self.W, self.C,
                             self.cf.tensor_core.STANDARD, _seed(self.seed, 4))

    def summary(self) -> dict:
        if not self.final_losses:
            return {"episodes": 0}
        first = statistics.median(self.first_losses)
        final = statistics.median(self.final_losses)
        return {"episodes": len(self.final_losses), "first_loss": first,
                "final_loss": final, "loss_halved": final <= LOSS_HALVING * first}


class GradcheckD8:
    """One wide-precision gradcheck.grad_check per op, default config, 8x8x16.

    Central differences are not valid where the perturbation moves a ReLU
    pre-activation across zero, and about 2% of random seeds hit such a
    kink at the default eps of 1e-5.  So a failed check is run again, outside
    the op window, at RECHECK_EPS for the same seed.  If that fails too, it
    counts as failed unless the oracle finds an FFN pre-activation within
    KINK_BAND of zero at the checked point, where no central difference of
    that size is valid.  A wrong gradient fails on almost every seed.
    """

    name = "gradcheck_d8"
    H = W = 8
    C = 16
    RECHECK_EPS = 1e-6
    KINK_BAND = 1e-5
    counts_loss_evals = True

    def __init__(self, seed: int):
        self.seed = seed
        self.i = 0
        self.rechecks = 0
        self.kinks = 0

    @property
    def attention_dims(self):
        cfg = self.cf.dmff.DmffConfig()
        t = (self.H // cfg.shrink_window) * (self.W // cfg.shrink_window)
        return t, self.C, cfg.iterations

    def prepare(self, workdir):
        pass

    def build(self, cf):
        self.cf = cf

    def _check_once(self, s: int, **kwargs):
        spec = self.cf.synth.SyntheticPairSpec(h=self.H, w=self.W, c=self.C, seed=s)
        return self.cf.gradcheck.grad_check(self.cf.dmff.DmffConfig(), synth=spec,
                                            seed=s, min_samples=1, **kwargs)

    def _op(self):
        s = _seed(self.seed, 5, self.i)
        self.i += 1
        return s, self._check_once(s)

    def warmup(self):
        return self._op()

    @staticmethod
    def _passed(report) -> bool:
        return report.passed and all(math.isfinite(c.max_rel_err) for c in report.checks)

    def _relu_margin(self, s: int) -> float:
        cf = self.cf
        cfg = cf.dmff.DmffConfig()
        wide = cf.tensor_core.WIDE
        wts = cf.dmff.init_dmff_weights(cfg, self.H, self.W, self.C,
                                        np.random.default_rng(s), dtype=wide)
        f_r, f_t, _ = cf.synth.gen_synthetic_pair(
            cf.synth.SyntheticPairSpec(h=self.H, w=self.W, c=self.C, seed=s), dtype=wide)
        margins = []
        oracle.fuse_mode_d(f_r.data, f_t.data, {n: t.data for n, t in wts.named_tensors()},
                           cfg.heads, cfg.shrink_window, cfg.iterations, margins)
        return min(margins)

    def check(self, result) -> bool:
        s, report = result
        if self._passed(report):
            return True
        self.rechecks += 1
        if self._passed(self._check_once(s, eps=self.RECHECK_EPS)):
            return True
        if self._relu_margin(s) < self.KINK_BAND:
            self.kinks += 1
            return True
        return False

    def run(self, rec: Recorder, until: float):
        while time.perf_counter() < until:
            rec.open()
            try:
                result = self._op()
            except Exception:
                rec.stop()
                rec.commit(False)
            else:
                rec.stop()
                rec.commit(self.check(result))

    def taped_step(self):
        cfg = self.cf.dmff.DmffConfig()
        return taped_fwd_bwd(self.cf, cfg, self.H, self.W, self.C,
                             self.cf.tensor_core.WIDE, _seed(self.seed, 6))

    def summary(self) -> dict:
        return {"rechecks": self.rechecks, "kink_excused": self.kinks}


WORKLOADS = {w.name: w for w in (FuseD64, TrainD32It3, GradcheckD8)}
