"""Config parsing, experiment runners, output files, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from ltmlab import cli
from ltmlab.cli import (
    CheckFailure,
    ExperimentConfig,
    _parse_grid,
    build_observable,
    load_kraus_file,
    main,
    run_fig3,
    run_generic,
    run_swap_example,
    write_csv,
)
from ltmlab import NumericalFailure, SubsystemPartition


def make_config(**overrides):
    raw = {
        "dims": [2, 2],
        "entangler": {"id": "swap"},
        "observable": {"id": "single-pauli", "pattern": "ZZ"},
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Config parsing


def test_config_minimal_defaults():
    cfg = ExperimentConfig.from_dict(make_config())
    assert cfg.dims == (2, 2)
    assert cfg.layers == (1,)
    assert cfg.noise is None and cfg.p_grid is None
    assert cfg.n_samples == 0 and cfg.seed == 0


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(make_config(extra_knob=1))


def test_config_requires_core_keys():
    with pytest.raises(ValueError, match="missing required key"):
        ExperimentConfig.from_dict({"dims": [2, 2]})


def test_config_rejects_bad_ids():
    with pytest.raises(ValueError, match="unknown entangler id"):
        ExperimentConfig.from_dict(make_config(entangler={"id": "mystery"}))
    with pytest.raises(ValueError, match="unknown observable id"):
        ExperimentConfig.from_dict(make_config(observable={"id": "energy"}))
    with pytest.raises(ValueError, match="unknown initial state"):
        ExperimentConfig.from_dict(make_config(initial_state="thermal"))
    with pytest.raises(ValueError, match="unknown fixed point"):
        ExperimentConfig.from_dict(
            make_config(noise={"p": 0.1, "fixed_point": "w-state"})
        )


def test_config_layers_normalization():
    cfg = ExperimentConfig.from_dict(make_config(layers=3))
    assert cfg.layers == (3,)
    cfg = ExperimentConfig.from_dict(make_config(layers=[0, 2, 4]))
    assert cfg.layers == (0, 2, 4)
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentConfig.from_dict(make_config(layers=[-1]))


def test_config_noise_needs_strength():
    with pytest.raises(ValueError, match="needs 'p'"):
        ExperimentConfig.from_dict(make_config(noise={"fixed_point": "ghz"}))
    cfg = ExperimentConfig.from_dict(
        make_config(noise={"fixed_point": "ghz"}, p_grid=[0.1, 0.2])
    )
    assert cfg.p_grid == (0.1, 0.2)


def test_config_from_json_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        ExperimentConfig.from_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        ExperimentConfig.from_json(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json(listy)


def test_config_round_trips_through_as_dict():
    cfg = ExperimentConfig.from_dict(
        make_config(layers=[1, 2], noise={"p": 0.25}, n_samples=100, seed=5)
    )
    again = ExperimentConfig.from_dict(cfg.as_dict())
    assert again == cfg


def test_parse_grid():
    assert _parse_grid("0.1,0.5,0.9") == (0.1, 0.5, 0.9)
    grid = _parse_grid("0.0:1.0:5")
    assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError, match="start:stop:count"):
        _parse_grid("0.0:1.0:5:2")
    with pytest.raises(ValueError, match="positive"):
        _parse_grid("0.0:1.0:0")


def test_load_kraus_file(tmp_path):
    path = tmp_path / "kraus.json"
    ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"kraus": [ident]}))
    ops = load_kraus_file(path)
    assert len(ops) == 1
    assert np.abs(ops[0] - np.eye(2)).max() == 0.0
    path.write_text(json.dumps({"kraus": []}))
    with pytest.raises(ValueError, match="non-empty"):
        load_kraus_file(path)
    path.write_text(json.dumps({"kraus": [[[1.0, 0.0]]]}))
    with pytest.raises(ValueError, match="re, im"):
        load_kraus_file(path)


def test_build_observable_identity_trace():
    part = SubsystemPartition.qubits(2)
    dense, vec, trace = build_observable(
        {"id": "single-pauli", "pattern": "II", "coefficient": 0.5}, part
    )
    assert trace == 2.0  # 0.5 * d
    assert np.abs(dense - 0.5 * np.eye(4)).max() == 0.0
    assert vec.weights[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Runners


def test_swap_example_report(tmp_path):
    out = tmp_path / "swap.json"
    report = run_swap_example(n_samples=2_000, seed=7, out=str(out))
    closed = report["closed_forms"]
    assert closed["even"] == pytest.approx((0.625 - 0.5) * 2 / 3, abs=1e-15)
    assert closed["cesaro"] == pytest.approx(closed["even"] / 2, abs=1e-15)
    assert set(report["variance_by_depth"]) == set(range(1, 9))
    assert report["variance_by_depth"][3] <= 1e-12
    block = report["period_2_block"]
    assert block["indices"] == [1, 2] and block["period"] == 2
    assert block["right_vector"] == [0.5, 0.5]
    assert set(report["mc"]) == {3, 4}
    assert not report["converged"]
    saved = json.loads(out.read_text())
    assert saved["closed_forms"]["even"] == closed["even"]


def test_swap_example_skips_mc_without_samples():
    report = run_swap_example(n_samples=0)
    assert report["mc"] == {}


def test_fig3_small_sweep(tmp_path):
    result = run_fig3(
        n=3,
        p_values=(0.2, 0.6, 1.0),
        seed=11,
        out=tmp_path,
        n_samples=300,
        l_rapid=3,
        l_slow=4,
        check=True,
    )
    rows = result["rows"]
    assert len(rows) == 6  # two families x three strengths
    for row in rows:
        assert row["normalization"] == pytest.approx(3.0)  # 9 / n at n = 3
        assert "variance_deep_normalized" in row
        assert "variance_mc" in row
    rapid = [r for r in rows if r["entangler"] == "cnot-double-cascade"]
    assert all(r["prediction_kind"] == "quadratic" for r in rapid)
    assert rapid[0]["prediction_normalized"] == pytest.approx(0.04)
    slow = [r for r in rows if r["entangler"] == "crx-cascade"]
    assert slow[-1]["prediction_normalized"] == pytest.approx(1.0)
    # at p = 1 every family collapses onto the fixed-point overlap
    for row in rows:
        if row["p"] == 1.0:
            assert row["variance_deep_normalized"] == pytest.approx(1.0, abs=1e-10)
    assert (tmp_path / "fig3.csv").exists()
    assert (tmp_path / "fig3_convergence.csv").exists()
    sidecar = json.loads((tmp_path / "fig3.json").read_text())
    assert sidecar["check_failures"] == []
    conv = (tmp_path / "fig3_convergence.csv").read_text()
    assert conv.splitlines()[1] == "entangler,n,p,layers,gap"


def test_fig3_rejects_bad_grid(tmp_path):
    with pytest.raises(ValueError, match="noise strengths"):
        run_fig3(n=3, p_values=(0.0, 0.5), out=tmp_path)
    with pytest.raises(ValueError, match="at least 3 qubits"):
        run_fig3(n=2, p_values=(0.5,), out=tmp_path)


def test_run_generic_analytic_and_mc(tmp_path):
    cfg = ExperimentConfig.from_dict(
        make_config(
            name="swap-noise",
            noise={"p": 0.3, "fixed_point": "ghz"},
            layers=[1, 2],
            n_samples=2_000,
            seed=3,
            output=str(tmp_path),
        )
    )
    report = run_generic(cfg, check=True)
    assert report["check_failures"] == []
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["variance_exact"] >= 0
        assert row["variance_deep"] is not None
        assert row["method"] == "analytic+mc"
        assert row["lower_bound"] <= row["variance_exact"] + 1e-9
    csv_path = tmp_path / "swap-noise.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[1]
    assert header.startswith("name,dims,entangler,layers,p,variance_exact")
    sidecar = json.loads((tmp_path / "swap-noise.json").read_text())
    blob = json.dumps(sidecar["config"], sort_keys=True).encode()
    assert sidecar["config_sha256"] == hashlib.sha256(blob).hexdigest()
    assert set(sidecar["environment"]) == {"python", "numpy", "scipy", "package"}


def test_run_generic_unitary_consistency():
    cfg = ExperimentConfig.from_dict(make_config(layers=[2]))
    report = run_generic(cfg, check=True)
    row = report["rows"][0]
    assert row["p"] is None
    assert row["variance_deep_unitary"] == pytest.approx(row["variance_deep"])


def test_run_generic_unravelling_check(tmp_path):
    rank = 2
    rng = np.random.default_rng(8)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q, _ = np.linalg.qr(g)
    ops = [q[:4], q[4:]]
    path = tmp_path / "unravel.json"
    path.write_text(
        json.dumps(
            {
                "kraus": [
                    [[[z.real, z.imag] for z in row] for row in op] for op in ops
                ]
            }
        )
    )
    cfg = ExperimentConfig.from_dict(
        make_config(unravelling_check={"path": str(path)})
    )
    report = run_generic(cfg, check=True)
    unr = report["unravelling"]
    assert unr["members"] == rank
    assert unr["dominance_holds"]
    assert unr["min_elementwise_gap"] >= -1e-9


def test_csv_format_and_reproducibility(tmp_path):
    rows = [{"a": 1, "b": 0.1}, {"a": None, "b": 2.0}]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(one, ["a", "b"], rows)
    write_csv(two, ["a", "b"], rows)
    text = one.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0].startswith("# generated: ")
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.10000000000000001"  # %.17g round-trips floats
    assert lines[3] == ",2"
    # identical payload modulo the timestamp line
    strip = lambda p: p.read_bytes().split(b"\r\n", 1)[1]
    assert strip(one) == strip(two)


def test_fig3_outputs_reproducible(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        run_fig3(n=3, p_values=(0.3, 0.9), seed=2, out=d, n_samples=200,
                 l_rapid=2, l_slow=2)
    strip = lambda p: p.read_bytes().split(b"\r\n", 1)[1]
    assert strip(a_dir / "fig3.csv") == strip(b_dir / "fig3.csv")
    assert strip(a_dir / "fig3_convergence.csv") == strip(b_dir / "fig3_convergence.csv")


# ---------------------------------------------------------------------------
# Exit codes


def test_main_success(tmp_path, capsys):
    assert main(["swap-example", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "SWAP example" in out


def test_main_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(make_config(entangler={"id": "mystery"})))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_unravelling_check_without_path(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(make_config(unravelling_check={"kraus_file": "k.json"})))
    monkeypatch.setattr(
        cli, "run_generic", lambda *a, **k: pytest.fail("study ran on a bad config")
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unravelling_check needs a 'path'" in capsys.readouterr().err


def test_main_unravelling_check_missing_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    missing = tmp_path / "absent.json"
    cfg.write_text(json.dumps(make_config(unravelling_check={"path": str(missing)})))
    monkeypatch.setattr(
        cli, "ltm_exact", lambda *a, **k: pytest.fail("study ran before the Kraus file")
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "Kraus file not found" in capsys.readouterr().err


def test_main_numerical_failure(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(make_config()))
    monkeypatch.setattr(
        cli, "run_generic", lambda *a, **k: (_ for _ in ()).throw(
            NumericalFailure("exploded")
        )
    )
    assert main(["run", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_main_check_failure(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(make_config()))
    monkeypatch.setattr(
        cli, "run_generic", lambda *a, **k: (_ for _ in ()).throw(
            CheckFailure("mc disagrees")
        )
    )
    assert main(["run", "--config", str(cfg)]) == 4
    assert "check failed" in capsys.readouterr().err


def test_main_run_writes_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(make_config(name="tiny", layers=[1], output=str(tmp_path)))
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "tiny.csv").exists()
    assert "wrote" in capsys.readouterr().out
