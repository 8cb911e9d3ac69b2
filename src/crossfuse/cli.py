"""Command-line surface.

Subcommands: ``gen`` (synthetic scene pairs), ``train-toy`` (the toy
reconstruction task), ``gradcheck`` (finite-difference validation),
``fuse`` (run the pipeline on tensor files), ``audit`` (multiply and
parameter accounting).  Exit status is 0 on success and nonzero on any
error or failed check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import tensor_core as tc
from .complexity_audit import audit_csv, audit_report
from .dmff import DmffConfig, dmff_fuse
from .gradcheck import grad_check
from .synth import SyntheticPairSpec, gen_synthetic_pair
from .train import TrainConfig, TrainingDivergedError, train_toy, write_trace
from .weights_io import WeightsFormatError, load_weights, save_weights

_MODE_FLAGS = {
    "a": "a", "b": "b", "c": "c", "d": "d", "e": "e",
    "f-rgb": "f_rgb", "f-thermal": "f_thermal",
}


def _dataclass_from_json(cls, data: dict, what: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise tc.ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**data)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_train_config(path) -> TrainConfig:
    raw = _load_json(path)
    dmff_raw = raw.pop("dmff", {})
    synth_raw = raw.pop("synth", {})
    cfg = _dataclass_from_json(
        TrainConfig, dict(raw, dmff=DmffConfig(), synth=SyntheticPairSpec()), "train config"
    )
    cfg.dmff = _dataclass_from_json(DmffConfig, dmff_raw, "dmff config")
    synth_raw.setdefault("seed", cfg.seed)
    cfg.synth = _dataclass_from_json(SyntheticPairSpec, synth_raw, "synth spec")
    return cfg


def load_check_config(path) -> tuple:
    raw = _load_json(path)
    seed = int(raw.pop("seed", 0))
    dmff_cfg = _dataclass_from_json(DmffConfig, raw.pop("dmff", {}), "dmff config")
    synth_raw = raw.pop("synth", {})
    synth_raw.setdefault("seed", seed)
    spec = _dataclass_from_json(SyntheticPairSpec, synth_raw, "synth spec")
    if raw:
        raise tc.ConfigurationError(f"unknown gradcheck config keys: {sorted(raw)}")
    return dmff_cfg, spec, seed


def _cmd_gen(args) -> int:
    spec = _dataclass_from_json(SyntheticPairSpec, _load_json(args.spec), "synth spec")
    f_r, f_t, target = gen_synthetic_pair(spec)
    for suffix, tensor in (("rgb", f_r), ("thermal", f_t), ("target", target)):
        path = f"{args.out_prefix}_{suffix}.rawtensor"
        tc.write_rawtensor(path, tensor)
        print(f"wrote {path}")
    return 0


def _cmd_train_toy(args) -> int:
    cfg = load_train_config(args.config) if args.config else TrainConfig()

    def report(step, lr, loss):
        print(f"step {step:4d}  lr {lr:.6f}  loss {loss:.6f}")

    try:
        result = train_toy(cfg, step_callback=report)
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        write_trace(args.trace, result)
        print(f"wrote {args.trace}")
    if args.out_weights:
        save_weights(result.weights, args.out_weights)
        print(f"wrote {args.out_weights}")
    print(f"initial loss {result.losses[0]:.6f}  final loss {result.losses[-1]:.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.config:
        cfg, spec, seed = load_check_config(args.config)
    else:
        cfg, spec, seed = DmffConfig(), SyntheticPairSpec(), 0
    report = grad_check(cfg, synth=spec, seed=seed, eps=args.eps, tol=args.tol)
    print(report.format())
    return 0 if report.passed else 1


def _require_finite(t: tc.Tensor, what: str) -> tc.Tensor:
    if not np.isfinite(t.data).all():
        raise tc.ConfigurationError(f"{what} holds NaN or infinite values")
    return t


def _cmd_fuse(args) -> int:
    wts = load_weights(args.weights)
    cfg = dataclasses.replace(wts.cfg, mode=_MODE_FLAGS[args.mode])
    f_r = _require_finite(tc.read_rawtensor(args.rgb), args.rgb)
    f_t = _require_finite(tc.read_rawtensor(args.thermal), args.thermal)
    out = dmff_fuse(f_r, f_t, cfg, wts)
    tc.write_rawtensor(args.out, _require_finite(out.primary, "fused map"))
    print(f"wrote {args.out}")
    return 0


def _cmd_audit(args) -> int:
    if args.csv:
        sys.stdout.write(audit_csv(args.t, args.c, args.h))
    else:
        sys.stdout.write(audit_report(args.t, args.c, args.h))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfuse",
        description="dual-branch cross-attention feature fusion toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic rgb/thermal/target triple")
    p.add_argument("--spec", required=True, help="JSON synth spec file")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("train-toy", help="run the toy reconstruction task")
    p.add_argument("--config", help="JSON train config (defaults used if omitted)")
    p.add_argument("--out-weights")
    p.add_argument("--trace", help="CSV loss trace output")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--config", help="JSON config with dmff/synth/seed sections")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("fuse", help="fuse two rawtensor feature maps")
    p.add_argument("--rgb", required=True)
    p.add_argument("--thermal", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", required=True, choices=sorted(_MODE_FLAGS))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("audit", help="symbolic and measured multiply accounting")
    p.add_argument("--t", type=int, required=True, help="token count")
    p.add_argument("--c", type=int, required=True, help="channel width")
    p.add_argument("--h", type=int, required=True, help="ffn hidden width")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (tc.ConfigurationError, tc.DimensionError, tc.TapeStateError,
            WeightsFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
