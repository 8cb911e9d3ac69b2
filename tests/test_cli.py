import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import crossfuse
from crossfuse import tensor_core as tc
from crossfuse.cli import main
from conftest import (ICAF_PROBES, RAWTENSOR_PROBES, RAWTENSOR_SIZE_PROBES, write_icaf_probe,
                      write_rawtensor_probe)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def synth_spec(tmp_path):
    return write_json(tmp_path / "spec.json", {
        "h": 4, "w": 4, "c": 8, "blob_count": 4, "seed": 9, "complementarity": 0.5,
    })


@pytest.fixture
def train_config(tmp_path):
    return write_json(tmp_path / "train.json", {
        "steps": 8,
        "seed": 13,
        "dmff": {"heads": 2, "ffn_hidden": 16, "mode": "d"},
        "synth": {"h": 4, "w": 4, "c": 8, "blob_count": 4},
    })


def test_gen_writes_triple(tmp_path, synth_spec, capsys):
    prefix = tmp_path / "scene"
    assert main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)]) == 0
    for suffix in ("rgb", "thermal", "target"):
        t = tc.read_rawtensor(f"{prefix}_{suffix}.rawtensor")
        assert t.shape == (4, 4, 8)


def test_gen_is_deterministic(tmp_path, synth_spec):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(a)])
    main(["gen", "--spec", synth_spec, "--out-prefix", str(b)])
    for suffix in ("rgb", "thermal", "target"):
        blob_a = (tmp_path / f"a_{suffix}.rawtensor").read_bytes()
        blob_b = (tmp_path / f"b_{suffix}.rawtensor").read_bytes()
        assert blob_a == blob_b


def test_train_fuse_round_trip(tmp_path, synth_spec, train_config, capsys):
    weights = tmp_path / "w.icaf"
    trace = tmp_path / "trace.csv"
    rc = main(["train-toy", "--config", train_config,
               "--out-weights", str(weights), "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "step    0" in out and "final loss" in out
    assert trace.read_text().startswith("step,lr,loss")

    prefix = tmp_path / "scene"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)])
    fused = tmp_path / "fused.rawtensor"
    rc = main(["fuse", "--rgb", f"{prefix}_rgb.rawtensor",
               "--thermal", f"{prefix}_thermal.rawtensor",
               "--weights", str(weights), "--mode", "d", "--out", str(fused)])
    assert rc == 0
    assert tc.read_rawtensor(fused).shape == (4, 4, 8)


def test_fuse_mode_f_passthrough(tmp_path, synth_spec, train_config):
    weights = tmp_path / "w.icaf"
    main(["train-toy", "--config", train_config, "--out-weights", str(weights)])
    prefix = tmp_path / "scene"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)])
    out_path = tmp_path / "out.rawtensor"
    rc = main(["fuse", "--rgb", f"{prefix}_rgb.rawtensor",
               "--thermal", f"{prefix}_thermal.rawtensor",
               "--weights", str(weights), "--mode", "f-rgb", "--out", str(out_path)])
    assert rc == 0
    original = tc.read_rawtensor(f"{prefix}_rgb.rawtensor")
    npt.assert_array_equal(tc.read_rawtensor(out_path).data, original.data)


def test_train_determinism_bytes(tmp_path, train_config):
    w1, w2 = tmp_path / "w1.icaf", tmp_path / "w2.icaf"
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["train-toy", "--config", train_config, "--out-weights", str(w1), "--trace", str(t1)])
    main(["train-toy", "--config", train_config, "--out-weights", str(w2), "--trace", str(t2)])
    assert w1.read_bytes() == w2.read_bytes()
    assert t1.read_text() == t2.read_text()


def test_gradcheck_cli_passes(tmp_path, capsys):
    cfg = write_json(tmp_path / "check.json", {
        "seed": 4,
        "dmff": {"heads": 2, "ffn_hidden": 16, "mode": "d"},
        "synth": {"h": 4, "w": 4, "c": 8, "blob_count": 3},
    })
    assert main(["gradcheck", "--config", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_audit_cli_table_and_csv(capsys):
    assert main(["audit", "--t", "16", "--c", "8", "--h", "32"]) == 0
    out = capsys.readouterr().out
    assert "QK^T" in out and "NOTE" in out
    assert main(["audit", "--t", "16", "--c", "8", "--h", "32", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("step,")


@pytest.mark.parametrize("sizes", [
    "--t 1000000000 --c 64 --h 1",  # attention multiplies, and tokens to allocate
    "--t 200000 --c 8 --h 8",  # attention multiplies: minutes of work
    "--t 4 --c 100000 --h 1",  # weight elements
    "--t 40000 --c 1 --h 5000000",  # the FFN's hidden activation
])
def test_audit_past_its_bounds_is_clean_error(capsys, sizes):
    rc = main(["audit", *sizes.split()])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    # the CSV is symbolic alone, so it runs no counted pass and takes any size
    assert main(["audit", *sizes.split(), "--csv"]) == 0
    assert capsys.readouterr().out.startswith("step,")


@pytest.mark.parametrize("csv", [[], ["--csv"]])
@pytest.mark.parametrize("sizes", [
    "--t 0 --c 8 --h 32", "--t 4 --c 0 --h 32", "--t 4 --c 8 --h 0",
    "--t -1 --c 8 --h 32", "--t 4 --c -1 --h 32", "--t 4 --c 8 --h -1",
])
def test_audit_sizes_below_one_are_clean_error(capsys, sizes, csv):
    rc = main(["audit", *sizes.split(), *csv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["gen", "--spec", str(tmp_path / "nope.json"), "--out-prefix", "x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["gen", "--spec", str(tmp_path), "--out-prefix", "x"])  # a directory
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_is_clean_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"dmff": {"modez": "d"}})
    rc = main(["gradcheck", "--config", cfg])
    assert rc == 2
    assert "modez" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["heads", "ffn_hidden"])
def test_nonpositive_width_is_clean_error(tmp_path, capsys, key):
    dmff_cfg = {"heads": 2, "ffn_hidden": 16, "mode": "d", key: 0}
    cfg = write_json(tmp_path / "bad.json", {"dmff": dmff_cfg})
    rc = main(["gradcheck", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert key in err and "Traceback" not in err


# (command, config file contents): each must exit 2 with a one-line error
CONFIG_PROBES = {
    "string_heads": ("train-toy", {"dmff": {"heads": "8"}}),
    "fractional_iterations": ("train-toy", {"dmff": {"iterations": 1.5}}),
    "string_train_seed": ("train-toy", {"seed": "x"}),
    "string_check_seed": ("gradcheck", {"seed": "x"}),
    "boolean_steps": ("train-toy", {"steps": True}),
    "zero_steps": ("train-toy", {"steps": 0}),
    # a run for centuries, its loss list growing every step
    "endless_training": ("train-toy", {"steps": 10**12}),
    "negative_seed": ("gradcheck", {"seed": -1, "synth": {"seed": 1}}),
    "string_flag": ("gradcheck", {"dmff": {"sequential_update": "false"}}),
    "infinite_rate": ("train-toy", {"lr0": 1e999}),
    # valid JSON that would train meaninglessly: ascent, a rising schedule,
    # a velocity that never decays, decay that grows the weights
    "negative_rate": ("train-toy", {"lr0": -0.5, "steps": 2}),
    "floor_above_rate": ("train-toy", {"lr_min": 1.0, "steps": 2}),
    "unit_momentum": ("train-toy", {"momentum": 1.0, "steps": 2}),
    "negative_decay": ("train-toy", {"weight_decay": -2.0, "steps": 2}),
    "decay_exemption_key": ("train-toy", {"exempt_scalars_from_decay": False, "steps": 2}),
    "list_config": ("train-toy", [1, 2]),
    "list_section": ("gradcheck", {"dmff": [1, 2]}),
    "nothing_to_check": ("gradcheck", {"dmff": {"mode": "f_rgb"}}),
    "nothing_to_train": ("train-toy", {"steps": 3, "dmff": {"mode": "f_rgb"},
                                       "synth": {"h": 8, "w": 8, "c": 16}}),
    "string_extent": ("gen", {"h": "4"}),
    "not_utf8": ("gen", b"\xff\xfe{"),
    # scenes too large to allocate: numpy would raise its own memory error
    "huge_scene_gen": ("gen", {"h": 10_000_000, "w": 10_000_000}),
    "huge_scene_train": ("train-toy", {"synth": {"h": 10_000_000, "w": 10_000_000}}),
    "huge_scene_check": ("gradcheck", {"synth": {"h": 10_000_000, "w": 10_000_000}}),
    # scenes that would take years to draw, a blob at a time
    "endless_scene_gen": ("gen", {"blob_count": 10**12}),
    "endless_scene_train": ("train-toy", {"synth": {"blob_count": 10**12}}),
    # weight sets too large to allocate
    "huge_ffn_train": ("train-toy", {"dmff": {"ffn_hidden": 1_000_000_000}}),
    "huge_ffn_check": ("gradcheck", {"dmff": {"ffn_hidden": 1_000_000_000}}),
    # a scene within the map bound whose attention at shrink window 1 runs
    # over 4M tokens: 2^46 multiplies, refused before anything is allocated
    "endless_attention_train": ("train-toy", {"synth": {"h": 2048, "w": 2048, "c": 1},
                                              "dmff": {"heads": 1, "shrink_window": 1}}),
    "endless_attention_check": ("gradcheck", {"synth": {"h": 2048, "w": 2048, "c": 1},
                                              "dmff": {"heads": 1, "shrink_window": 1}}),
}


@pytest.mark.parametrize("kind", sorted(CONFIG_PROBES))
def test_bad_config_is_clean_error(tmp_path, capsys, kind):
    command, payload = CONFIG_PROBES[kind]
    path = tmp_path / "bad.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        write_json(path, payload)
    flag = "--spec" if command == "gen" else "--config"
    extra = ["--out-prefix", str(tmp_path / "x")] if command == "gen" else []
    rc = main([command, flag, str(path), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--eps 0", "--eps nan", "--tol nan", "--eps=-1e-5"])
def test_meaningless_gradcheck_settings_are_clean_error(capsys, flag):
    rc = main(["gradcheck", *flag.split()])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_scene_seed_defaults_to_the_run_seed(tmp_path):
    from crossfuse.cli import load_check_config, load_train_config

    path = write_json(tmp_path / "c.json", {"seed": 13, "synth": {"h": 4}})
    assert load_train_config(path).synth.seed == 13
    assert load_check_config(path)[1].seed == 13
    path = write_json(tmp_path / "c.json", {"seed": 13, "synth": {"seed": 2}})
    assert load_train_config(path).synth.seed == 2
    assert load_check_config(path)[1].seed == 2


def test_train_toy_without_a_config_trains_as_an_empty_one(tmp_path, capsys):
    # both take the scene seed from the run seed
    assert main(["train-toy"]) == 0
    bare = capsys.readouterr().out
    assert main(["train-toy", "--config", write_json(tmp_path / "empty.json", {})]) == 0
    assert capsys.readouterr().out == bare


def test_gradcheck_defaults_without_a_config():
    from crossfuse.cli import load_check_config
    from crossfuse.dmff import DmffConfig
    from crossfuse.synth import SyntheticPairSpec

    assert load_check_config(None) == (DmffConfig(), SyntheticPairSpec(), 0)


def test_fuse_modes_are_the_pipeline_modes():
    from crossfuse.cli import _MODE_FLAGS
    from crossfuse.dmff import MODES

    assert sorted(_MODE_FLAGS.values()) == sorted(MODES)
    assert _MODE_FLAGS["f-rgb"] == "f_rgb"


def test_corrupt_weights_is_clean_error(tmp_path, synth_spec, capsys):
    prefix = tmp_path / "scene"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)])
    bad = tmp_path / "bad.icaf"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["fuse", "--rgb", f"{prefix}_rgb.rawtensor",
               "--thermal", f"{prefix}_thermal.rawtensor",
               "--weights", str(bad), "--mode", "d", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def run_cli(args):
    """`python -m crossfuse.cli` with `args` in a child process, which
    imports the same crossfuse as these tests and runs under Python's
    default warning filters, not this suite's."""
    src = str(Path(crossfuse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "crossfuse.cli", *map(str, args)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_runs():
    proc = run_cli(["audit", "--t", "4", "--c", "8", "--h", "32"])
    assert proc.returncode == 0
    assert "QK^T" in proc.stdout


def fuse_scaled_scene(tmp_path, scales):
    """For each scale, `python -m crossfuse.cli fuse` of an 8x8x16 `gen`
    scene scaled by it (f32) with 2-step mode-d weights: (process, map path)."""
    spec = write_json(tmp_path / "spec.json", {"h": 8, "w": 8, "c": 16})
    prefix, weights = tmp_path / "scene", tmp_path / "w.icaf"
    assert main(["gen", "--spec", spec, "--out-prefix", str(prefix)]) == 0
    assert main(["train-toy", "--config", write_json(tmp_path / "t.json", {"steps": 2}),
                 "--out-weights", str(weights)]) == 0
    runs = []
    for scale in scales:
        for branch in ("rgb", "thermal"):
            scene = tc.read_rawtensor(f"{prefix}_{branch}.rawtensor")
            tc.write_rawtensor(tmp_path / f"huge_{branch}.rawtensor",
                               tc.Tensor(scene.data * scale, dtype=np.float32))
        out = tmp_path / f"fused_{scale:g}.rawtensor"
        runs.append((run_cli(["fuse", "--rgb", tmp_path / "huge_rgb.rawtensor",
                              "--thermal", tmp_path / "huge_thermal.rawtensor",
                              "--weights", weights, "--mode", "d", "--out", out]), out))
    return runs


def test_fuse_of_a_huge_finite_scene_prints_no_warning(tmp_path):
    # a scene scaled by 3e19 (f32) takes max|q| max|k| past the largest f32
    # in the attention's overflow pre-test; the fuse still writes a finite
    # map, and numpy prints no overflow warning on the way
    [(proc, out)] = fuse_scaled_scene(tmp_path, [3e19])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert np.all(np.isfinite(tc.read_rawtensor(out).data))


def test_fuse_of_a_scene_past_the_f32_score_range_is_finite(tmp_path):
    # scaled by 1e20 or 1e30, the scene's f32 scores pass the largest f32
    # before the shift can bound them; those heads are scored in float64,
    # so the fuse exits 0 with a finite map and prints nothing
    for proc, out in fuse_scaled_scene(tmp_path, [1e20, 1e30]):
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert np.all(np.isfinite(tc.read_rawtensor(out).data))


def _fuse(tmp_path, synth_spec, rgb=None, thermal=None, weights=None, mode="d"):
    prefix = tmp_path / "scene"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)])
    if weights is None:
        weights = write_icaf_probe(tmp_path / "w.icaf", None)
    out = tmp_path / "fused.rawtensor"
    rc = main(["fuse", "--rgb", str(rgb or f"{prefix}_rgb.rawtensor"),
               "--thermal", str(thermal or f"{prefix}_thermal.rawtensor"),
               "--weights", str(weights), "--mode", mode, "--out", str(out)])
    return rc, out


@pytest.mark.parametrize("branch", ["rgb", "thermal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fuse_refuses_non_finite_input(tmp_path, synth_spec, capsys, branch, value):
    data = np.zeros((4, 4, 8), dtype=np.float32)
    data[1, 2, 3] = value
    bad = tmp_path / "bad.rawtensor"
    tc.write_rawtensor(bad, tc.Tensor(data, dtype=np.float32))
    rc, out = _fuse(tmp_path, synth_spec, **{branch: bad})
    err = capsys.readouterr().err
    assert rc == 2
    assert "NaN or infinite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fuse_refuses_to_write_a_non_finite_map(tmp_path, synth_spec, capsys):
    # finite inputs, but a weight file whose fusion bias is infinite
    from crossfuse import dmff, weights_io

    wts = weights_io.load_weights(write_icaf_probe(tmp_path / "w.icaf", None))
    wts = dmff.replace_parameters(wts, {"nin.b": tc.full((8,), np.inf)})
    weights_io.save_weights(wts, tmp_path / "inf.icaf")
    rc, out = _fuse(tmp_path, synth_spec, weights=tmp_path / "inf.icaf")
    assert rc == 2
    assert "fused map" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(RAWTENSOR_PROBES | RAWTENSOR_SIZE_PROBES))
def test_malformed_rawtensor_is_clean_error(tmp_path, synth_spec, capsys, kind):
    bad = write_rawtensor_probe(tmp_path / "bad.rawtensor", kind)
    rc, _ = _fuse(tmp_path, synth_spec, thermal=bad)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kind", ICAF_PROBES)
def test_malformed_weights_table_is_clean_error(tmp_path, synth_spec, capsys, kind):
    bad = write_icaf_probe(tmp_path / "bad.icaf", kind)
    rc, out = _fuse(tmp_path, synth_spec, weights=bad)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("built", ["a", "b"])
def test_fuse_in_a_mode_whose_tensors_the_weights_lack_is_clean_error(
        tmp_path, synth_spec, train_config, capsys, built):
    config = json.loads(Path(train_config).read_text())
    config["dmff"]["mode"] = built
    weights = tmp_path / "w.icaf"
    assert main(["train-toy", "--config", write_json(tmp_path / "t.json", config),
                 "--out-weights", str(weights)]) == 0
    capsys.readouterr()
    rc, out = _fuse(tmp_path, synth_spec, weights=weights, mode="c")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "'nin.w'" in err and "mode 'c'" in err and f"mode '{built}'" in err
    assert not out.exists()
