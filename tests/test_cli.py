"""Config parsing, experiment runners, output files, exit codes."""

import csv
import hashlib
import json

import numpy as np
import pytest

from conftest import haar, random_kraus_channel
from ltmlab import cli
from ltmlab.cli import (
    CheckFailure,
    ExperimentConfig,
    _parse_grid,
    load_kraus_file,
    main,
    resolve_operand,
    run_fig3,
    run_generic,
    run_swap_example,
    write_csv,
)
from ltmlab import (
    MixtureWithReplacement,
    NumericalFailure,
    SubsystemPartition,
    decompose,
    locality_vector,
    ltm_exact,
    variance_deep,
    variance_exact,
)
from ltmlab.variance import NoiseSeries


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


def test_resolve_operand_identity_trace():
    part = SubsystemPartition.qubits(2)
    op = resolve_operand(
        {"id": "single-pauli", "pattern": "II", "coefficient": 0.5}, part, "observable"
    )
    assert op.trace == 2.0  # 0.5 * d
    assert np.abs(op.dense() - 0.5 * np.eye(4)).max() == 0.0
    assert op.locality.weights[0] == pytest.approx(1.0)


def _write_matrix(path, mat):
    mat = np.asarray(mat, dtype=complex)
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in mat]))
    return {"id": "custom", "path": str(path)}


MISSING = object()
NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0])
HALF_TRACE = np.eye(4) / 8

# (config field, spec or matrix to write, message fragment); dims are (2, 2).
MALFORMED_OPERANDS = {
    "fixed-point-bare-custom": (
        "noise.fixed_point", "custom", "noise.fixed_point: a custom"
    ),
    "state-bare-custom": ("initial_state", "custom", "initial_state: a custom"),
    "observable-no-path": ("observable", {"id": "custom"}, "observable: a custom"),
    "state-no-path": ("initial_state", {"id": "custom"}, "initial_state: a custom"),
    "fixed-point-no-path": (
        "noise.fixed_point", {"id": "custom"}, "noise.fixed_point: a custom"
    ),
    "observable-missing-file": ("observable", MISSING, "observable file not found"),
    "state-missing-file": ("initial_state", MISSING, "initial_state file not found"),
    "fixed-point-missing-file": (
        "noise.fixed_point", MISSING, "noise.fixed_point file not found"
    ),
    "observable-wrong-dimension": ("observable", np.eye(8), "observable: a 8x8"),
    "state-wrong-dimension": ("initial_state", np.eye(2) / 2, "initial_state: a 2x2"),
    "fixed-point-wrong-dimension": (
        "noise.fixed_point", np.eye(8) / 8, "noise.fixed_point: a 8x8"
    ),
    "observable-not-hermitian": (
        "observable", np.triu(np.ones((4, 4))), "observable must be Hermitian"
    ),
    "observable-not-a-matrix": ("observable", None, "observable: expected a square"),
    "state-not-psd": ("initial_state", NOT_PSD, "initial_state must be positive"),
    "state-not-unit-trace": (
        "initial_state", HALF_TRACE, "initial_state must have unit"
    ),
    "fixed-point-not-psd": (
        "noise.fixed_point", NOT_PSD, "noise.fixed_point must be positive"
    ),
    "fixed-point-not-unit-trace": (
        "noise.fixed_point", HALF_TRACE, "noise.fixed_point must have unit"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OPERANDS))
def test_main_rejects_malformed_operand(case, tmp_path, monkeypatch, capsys):
    key, spec, message = MALFORMED_OPERANDS[case]
    if spec is MISSING:
        spec = {"id": "custom", "path": str(tmp_path / "absent.json")}
    elif spec is None:
        (tmp_path / "op.json").write_text(json.dumps({"matrix": [[1.0, 0.0]]}))
        spec = {"id": "custom", "path": str(tmp_path / "op.json")}
    elif isinstance(spec, np.ndarray):
        spec = _write_matrix(tmp_path / "op.json", spec)
    raw = make_config(noise={"p": 0.3, "fixed_point": "maximally-mixed"})
    if key == "noise.fixed_point":
        raw["noise"]["fixed_point"] = spec
    else:
        raw[key] = spec
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    monkeypatch.setattr(
        cli, "ltm_exact", lambda *a, **k: pytest.fail("study ran on a bad operand")
    )
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("entangler", ["crx-cascade", "kraus-file"])
def test_custom_operands_reproduce_builtin_rows(entangler, tmp_path):
    n = 3
    coupling = 9.0 / n
    base = {
        "dims": [2] * n,
        "entangler": {"id": "crx-cascade", "theta": 0.3},
        "observable": {"id": "zz-chain", "coupling": coupling},
        "initial_state": "zero",
        "noise": {"fixed_point": "ghz"},
        "p_grid": [0.2, 0.7],
        "layers": [1, 3],
        "n_samples": 200,
        "seed": 5,
    }
    builtin = run_generic(ExperimentConfig.from_dict(base), check=True)["rows"]
    custom = dict(base)
    if entangler == "kraus-file":
        u = cli.crx_cascade(n, 0.3).matrix()
        (tmp_path / "u.json").write_text(
            json.dumps({"kraus": [[[[z.real, z.imag] for z in row] for row in u]]})
        )
        custom["entangler"] = {
            "id": "custom-kraus-file", "path": str(tmp_path / "u.json")
        }
    custom["observable"] = _write_matrix(
        tmp_path / "h.json", cli.zz_chain_observable(n, coupling)
    )
    custom["initial_state"] = _write_matrix(tmp_path / "rho.json", cli.zero_state(n))
    sigma = _write_matrix(tmp_path / "s.json", cli.ghz_state(n))
    custom["noise"] = {"fixed_point": sigma}
    rows = run_generic(ExperimentConfig.from_dict(custom), check=True)["rows"]
    assert len(rows) == len(builtin) == 4
    columns = ("variance_exact", "variance_deep", "lower_bound", "alpha",
               "variance_mc", "se_mc")
    for got, want in zip(rows, builtin):
        assert got["method"] == want["method"] == "analytic+mc"
        for column in columns:
            assert got[column] == pytest.approx(want[column], rel=1e-12, abs=1e-12)


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
    for series in sidecar["series"].values():
        assert series["terms"] == 175  # (1 - 0.1)^(2 J) <= 1e-16 at the convergence p
        assert 0.0 <= series["tail_bound"] <= 1e-16
    conv = (tmp_path / "fig3_convergence.csv").read_text()
    assert conv.splitlines()[1] == "entangler,n,p,layers,gap"
    lines = (tmp_path / "fig3.csv").read_text().splitlines()[1:]
    assert [row["method"] for row in csv.DictReader(lines)] == ["analytic+mc"] * 6
    # above the circuit path's class limit the rows say why they are blank
    wide = run_fig3(n=14, p_values=(0.5,), out=tmp_path / "wide", n_samples=0)
    assert [row["method"] for row in wide["rows"]] == ["skipped:dense-limit"] * 2
    assert all("variance_deep" not in row for row in wide["rows"])


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
    body = csv_path.read_bytes().split(b"\r\n", 1)[1]
    digest = hashlib.sha256(body).hexdigest()
    assert sidecar["rows_sha256"] == {"swap-noise.csv": digest}
    assert set(sidecar["environment"]) == {"python", "numpy", "scipy", "package"}


def test_run_generic_unitary_consistency():
    cfg = ExperimentConfig.from_dict(make_config(layers=[2]))
    report = run_generic(cfg, check=True)
    row = report["rows"][0]
    assert row["p"] is None
    assert row["variance_deep_unitary"] == pytest.approx(row["variance_deep"])


def test_run_noisy_kraus_entangler_builds_one_dense_ltm(tmp_path, monkeypatch):
    n, p_grid = 3, [0.1, 0.4, 0.9]
    channel = random_kraus_channel(2**n, 3, np.random.default_rng(21))
    d = channel.dim
    assert np.abs(channel.apply(np.eye(d)) - np.eye(d)).max() > 1e-3  # non-unital
    path = tmp_path / "kraus.json"
    path.write_text(
        json.dumps(
            {
                "kraus": [
                    [[[z.real, z.imag] for z in row] for row in op]
                    for op in channel.operators
                ]
            }
        )
    )
    calls = []

    def counting_ltm_exact(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return ltm_exact(*args, **kwargs)

    monkeypatch.setattr(cli, "ltm_exact", counting_ltm_exact)
    cfg = ExperimentConfig.from_dict(
        {
            "dims": [2] * n,
            "entangler": {"id": "custom-kraus-file", "path": str(path)},
            "observable": {"id": "zz-chain"},
            "noise": {"fixed_point": "ghz"},
            "p_grid": p_grid,
            "layers": [1, 3],
        }
    )
    rows = run_generic(cfg, check=True)["rows"]
    assert calls == ["KrausChannel"]

    partition = SubsystemPartition.qubits(n)
    l_rho = locality_vector(partition, cli.zero_state(n))
    l_h = locality_vector(partition, cli.zz_chain_observable(n, 1.0))
    assert [(row["p"], row["layers"]) for row in rows] == [
        (p, depth) for p in p_grid for depth in (1, 3)
    ]
    for row in rows:
        mixture = MixtureWithReplacement(row["p"], cli.ghz_state(n), channel)
        transfer = ltm_exact(mixture, partition)
        want_exact = variance_exact(l_rho, [transfer] * row["layers"], l_h, 0.0)
        want_deep = variance_deep(decompose(transfer), l_rho, l_h)
        assert row["variance_exact"] == pytest.approx(want_exact.value, rel=1e-12)
        assert row["variance_deep"] == pytest.approx(want_deep.value, rel=1e-12)


@pytest.mark.parametrize(
    "n, n_samples, method", [(14, 0, "skipped:dense-limit"), (8, 100, "mc")]
)
def test_run_rows_the_analytic_path_refused(n, n_samples, method, tmp_path, capsys):
    # crx-cascade on 14 qubits has more classes than the circuit path takes;
    # one Haar Kraus operator on 8 qubits is beyond the dense path
    entangler = {"id": "crx-cascade"}
    if n == 8:
        u = haar(2**n, np.random.default_rng(12))
        (tmp_path / "u.json").write_text(
            json.dumps({"kraus": [np.stack([u.real, u.imag], axis=-1).tolist()]})
        )
        entangler = {"id": "custom-kraus-file", "path": str(tmp_path / "u.json")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "wide",
                "dims": [2] * n,
                "entangler": entangler,
                "observable": {"id": "zz-chain"},
                "noise": {"fixed_point": "ghz", "p": 0.3},
                "layers": [1],
                "n_samples": n_samples,
                "output": str(tmp_path),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 0
    lines = (tmp_path / "wide.csv").read_text().splitlines()[1:]
    rows = list(csv.DictReader(lines))
    assert [row["method"] for row in rows] == [method]
    assert rows[0]["variance_exact"] == rows[0]["variance_deep"] == ""
    assert (rows[0]["variance_mc"] != "") == (method == "mc")


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
    hashes = [
        json.loads((d / "fig3.json").read_text())["rows_sha256"] for d in (a_dir, b_dir)
    ]
    assert hashes[0] == hashes[1]
    for name in ("fig3.csv", "fig3_convergence.csv"):
        assert hashes[0][name] == hashlib.sha256(strip(a_dir / name)).hexdigest()


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


def _no_study(*args, **kwargs):
    pytest.fail("study work ran on malformed input")


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"entangler": "swap"}, "entangler"),
        ({"noise": ["ghz", 0.1]}, "noise"),
        ({"observable": "zz-chain"}, "observable"),
        ({"dims": 2}, "dims"),
        ({"dims": None}, "dims"),
        ({"dims": [2.5, 2]}, "dims"),
        ({"layers": None}, "layers"),
        ({"layers": "12"}, "layers"),
        ({"layers": 1.7}, "layers"),
        ({"noise": {"fixed_point": "ghz"}, "p_grid": 0.3}, "p_grid"),
        ({"n_samples": None}, "n_samples"),
        ({"n_samples": [200]}, "n_samples"),
        ({"n_samples": 50}, "n_samples"),
        ({"seed": None}, "seed"),
        ({"seed": [1]}, "seed"),
        ({"dims": [2] * 3, "entangler": {"id": "crx-cascade", "theta": None}}, "theta"),
        ({"dims": [2] * 3, "observable": {"id": "zz-chain", "coupling": None}}, "coupling"),
        ({"observable": {"id": "single-pauli", "pattern": 5}}, "pattern"),
        ({"observable": {"id": "custom", "path": 5}}, "path"),
        ({"name": "sub/run"}, "name"),
        ({"p_grid": [0.1, 0.5]}, "p_grid"),
        ({"noise": {"fixed_point": "ghz", "p": 0.9}, "p_grid": [0.1]}, "noise.p"),
    ],
)
def test_main_rejects_malformed_config_field(overrides, field, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(make_config(output=str(tmp_path), **overrides)))
    monkeypatch.setattr(cli, "ltm_exact", _no_study)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["fig3", "--n", "4", "--l-rapid", "-1"], "--l-rapid"),
        (["fig3", "--n", "4", "--theta", "nan"], "--theta"),
        (["fig3", "--n", "4", "--samples", "-5"], "--samples"),
        (["fig3", "--n", "4", "--samples", "50"], "--samples"),
        (["fig3", "--n", "4", "--seed", "-1"], "--seed"),
        (["swap-example", "--samples", "50"], "--samples"),
    ],
)
def test_main_rejects_bad_study_arguments_up_front(argv, field, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "ltm_exact", _no_study)
    extra = ["--out", str(out)] if argv[0] == "fig3" else []
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


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


def test_main_fig3_check_catches_a_wrong_series_damping(tmp_path, monkeypatch, capsys):
    # damping (1-p) per layer in place of (1-p)^2: the p = 1 identity still
    # holds, the independent layer product at the first p does not
    monkeypatch.setattr(
        NoiseSeries, "_damped", lambda self, p, count: (1.0 - p) ** np.arange(count)
    )
    argv = ["fig3", "--n", "4", "--samples", "0", "--check", "--out", str(tmp_path)]
    assert main(argv) == 4
    assert "layer product" in capsys.readouterr().err
    failures = json.loads((tmp_path / "fig3.json").read_text())["check_failures"]
    assert len(failures) == 2 and not any("p=1" in f for f in failures)


def test_main_run_writes_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(make_config(name="tiny", layers=[1], output=str(tmp_path)))
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "tiny.csv").exists()
    assert "wrote" in capsys.readouterr().out
