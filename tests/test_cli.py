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
from conftest import ICAF_PROBES, RAWTENSOR_PROBES, write_icaf_probe, write_rawtensor_probe


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


def test_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["gen", "--spec", str(tmp_path / "nope.json"), "--out-prefix", "x"])
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


def test_console_entry_point_runs():
    # the child process imports the same crossfuse as these tests
    src = str(Path(crossfuse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crossfuse.cli", "audit", "--t", "4", "--c", "8", "--h", "32"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "QK^T" in proc.stdout


def _fuse(tmp_path, synth_spec, rgb=None, thermal=None, weights=None):
    prefix = tmp_path / "scene"
    main(["gen", "--spec", synth_spec, "--out-prefix", str(prefix)])
    if weights is None:
        weights = write_icaf_probe(tmp_path / "w.icaf", None)
    out = tmp_path / "fused.rawtensor"
    rc = main(["fuse", "--rgb", str(rgb or f"{prefix}_rgb.rawtensor"),
               "--thermal", str(thermal or f"{prefix}_thermal.rawtensor"),
               "--weights", str(weights), "--mode", "d", "--out", str(out)])
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


@pytest.mark.parametrize("kind", sorted(RAWTENSOR_PROBES))
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
