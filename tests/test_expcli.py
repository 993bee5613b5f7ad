import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cmgiant
from cmgiant import DegreeSequence, __version__, expcli
from cmgiant.expcli import (
    ConfigError,
    config_from_dict,
    derive_rng,
    load_config,
    main,
    run_experiment,
)


def cfg_dict(**overrides):
    base = {"experiment": "giant", "n": [400], "seeds": [0, 1]}
    base.update(overrides)
    return base


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_defaults():
    cfg = config_from_dict({"experiment": "giant"})
    assert cfg.pmf == {1: 0.5, 3: 0.5}
    assert cfg.sizes == (10000,)
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.b == 2
    assert cfg.k_values == (50,)
    assert cfg.r_values == (2,)
    assert cfg.out_dir == "cmgiant_out"


def test_p2_demo_defaults_to_degree_two():
    cfg = config_from_dict({"experiment": "p2_demo"})
    assert cfg.pmf == {2: 1.0}


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown fields"):
        config_from_dict(cfg_dict(tipo="giant"))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"experiment": "gigante"})


def test_seed_forms():
    assert config_from_dict(cfg_dict(seeds=3)).seeds == (0, 1, 2)
    assert config_from_dict(cfg_dict(seeds=[5, 7])).seeds == (5, 7)
    for bad in (0, True, [], [1, True], "3"):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict(cfg_dict(seeds=bad))


def test_bad_pmf_rejected():
    with pytest.raises(ConfigError, match="pmf"):
        config_from_dict(cfg_dict(pmf={"1": 0.5, "3": 0.6}))
    with pytest.raises(ConfigError, match="pmf"):
        config_from_dict(cfg_dict(pmf={}))
    with pytest.raises(ConfigError, match="pmf"):
        config_from_dict(cfg_dict(pmf={"one": 1.0}))


def test_bad_scalars_rejected():
    with pytest.raises(ConfigError, match="'b'"):
        config_from_dict(cfg_dict(b=0))
    with pytest.raises(ConfigError, match="pairs"):
        config_from_dict(cfg_dict(pairs=0))
    with pytest.raises(ConfigError, match="'n'"):
        config_from_dict(cfg_dict(n=[]))
    with pytest.raises(ConfigError, match="'n'"):
        config_from_dict(cfg_dict(n=[0]))


def test_sequence_path(tmp_path):
    path = tmp_path / "degrees.txt"
    DegreeSequence(np.array([3, 1, 3, 3])).save(path)
    cfg = config_from_dict(cfg_dict(sequence_path=str(path), n=[999]))
    assert cfg.sizes == (4,)
    with pytest.raises(ConfigError, match="no such file"):
        config_from_dict(cfg_dict(sequence_path=str(tmp_path / "missing.txt")))


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"experiment": "giant",\n  "n": [}\n')
    with pytest.raises(ConfigError, match=r"line 2 column"):
        load_config(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path2))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_config_hash_tracks_content():
    a = config_from_dict(cfg_dict(seeds=[0, 1]))
    b = config_from_dict(cfg_dict(seeds=[0, 2]))
    c = config_from_dict(cfg_dict(seeds=[0, 1], out_dir="elsewhere"))
    assert a.sha256() != b.sha256()
    # the output directory is presentation, not experiment identity
    assert a.sha256() == c.sha256()


def test_derive_rng_streams():
    first = derive_rng(7, 1).integers(0, 10**9, size=4)
    again = derive_rng(7, 1).integers(0, 10**9, size=4)
    other_purpose = derive_rng(7, 2).integers(0, 10**9, size=4)
    other_seed = derive_rng(8, 1).integers(0, 10**9, size=4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other_purpose)
    assert not np.array_equal(first, other_seed)


def test_giant_run_outputs(tmp_path):
    cfg = config_from_dict(
        cfg_dict(n=[500, 300], seeds=[1, 0], out_dir=str(tmp_path / "out"))
    )
    assert run_experiment(cfg) == 0
    out = tmp_path / "out"
    lines = (out / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [(r["n"], r["seed"]) for r in records] == [
        (300, 0),
        (300, 1),
        (500, 0),
        (500, 1),
    ]
    for r in records:
        assert r["experiment"] == "giant"
        assert 0.5 <= r["gmax_frac"] <= 1.0
        assert "v1_frac" in r and "v3_frac" in r

    header, *rows = (out / "summary.csv").read_text().splitlines()
    cols = header.split(",")
    assert cols[:2] == ["n", "seeds"]
    assert "gmax_frac_mean" in cols
    assert "gmax_frac_std" in cols
    assert "theory_zeta" in cols
    assert "theory_v1" in cols
    by_n = {row.split(",")[0]: row.split(",") for row in rows}
    assert set(by_n) == {"300", "500"}
    theory = float(by_n["500"][cols.index("theory_zeta")])
    assert theory == pytest.approx(22 / 27, abs=1e-9)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == cfg.sha256()
    assert manifest["library_version"] == __version__
    assert manifest["n_values"] == [500, 300]
    assert manifest["seeds"] == [1, 0]
    assert manifest["offspring_spec"]["nu"] == pytest.approx(1.5)


def test_reruns_are_byte_identical(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        cfg = config_from_dict(cfg_dict(n=[400], seeds=[0, 1, 2], out_dir=out))
        assert run_experiment(cfg) == 0
    for name in ("results.jsonl", "summary.csv", "manifest.json"):
        assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))


def test_threads_do_not_change_output(tmp_path):
    out_a = str(tmp_path / "serial")
    out_b = str(tmp_path / "pooled")
    cfg_a = config_from_dict(cfg_dict(n=[300, 400], seeds=[0, 1], out_dir=out_a))
    cfg_b = config_from_dict(cfg_dict(n=[300, 400], seeds=[0, 1], out_dir=out_b))
    assert run_experiment(cfg_a, threads=1) == 0
    assert run_experiment(cfg_b, threads=3) == 0
    for name in ("results.jsonl", "summary.csv"):
        assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))


def test_p2_demo_manifest_has_no_offspring_spec(tmp_path):
    cfg = config_from_dict(
        {"experiment": "p2_demo", "n": [300], "seeds": [0], "out_dir": str(tmp_path)}
    )
    assert run_experiment(cfg) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["offspring_spec"] is None


def test_distances_run_writes_histograms(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "distances",
            "n": [400],
            "seeds": [0, 1],
            "pairs": 60,
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(cfg) == 0
    for seed in (0, 1):
        hist = (tmp_path / f"distances_hist_n400_seed{seed}.csv").read_text()
        first, second = hist.splitlines()[:2]
        assert first.startswith("# n=400 nu=")
        assert "seed=" + str(seed) in first
        assert second == "distance,count"
    records = [
        json.loads(line)
        for line in (tmp_path / "results.jsonl").read_text().splitlines()
    ]
    for r in records:
        assert "_histogram" not in r
        assert 0.0 <= r["finite_fraction"] <= 1.0
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert "theory_ref" in header
    assert "theory_zeta_sq" in header


def test_local_conv_records(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "local_conv",
            "n": [300],
            "seeds": [0],
            "r": [1],
            "bp_samples": 3000,
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(cfg) == 0
    (record,) = [
        json.loads(line)
        for line in (tmp_path / "results.jsonl").read_text().splitlines()
    ]
    assert 0.0 <= record["tv_r1"] <= 1.0
    assert 0.0 <= record["giant_deg1_mass"] <= 0.5
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert "theory_giant_deg1" in header


def test_local_conv_output_ignores_hash_seed(tmp_path):
    # the census dicts are keyed by bytes codes, whose set order follows
    # PYTHONHASHSEED; the written results must not
    src = os.path.dirname(os.path.dirname(cmgiant.__file__))
    script = (
        "import sys\n"
        "from cmgiant.expcli import config_from_dict, run_experiment\n"
        "cfg = config_from_dict({'experiment': 'local_conv', 'n': [400], "
        "'seeds': [0, 1], 'r': [1, 2], 'bp_samples': 3000, 'out_dir': sys.argv[1]})\n"
        "sys.exit(run_experiment(cfg))\n"
    )
    outs = []
    for hash_seed in ("1", "2"):
        out = str(tmp_path / f"hash{hash_seed}")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script, out],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("results.jsonl", "summary.csv"):
        assert read(os.path.join(outs[0], name)) == read(os.path.join(outs[1], name))


def test_coupling_records(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "coupling",
            "n": [1000],
            "seeds": [0, 1, 2],
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(cfg) == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "results.jsonl").read_text().splitlines()
    ]
    for r in records:
        assert r["m_n"] == int(1000**0.4)
        assert r["graph_vertices"] <= r["m_n"]
        assert r["diverged"] in (0, 1)
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert "theory_he_bound" in header
    assert "theory_vertex_bound" in header


def test_truncation_records(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "truncation",
            "n": [600],
            "seeds": [0],
            "b": 2,
            "pairs": 200,
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(cfg) == 0
    (record,) = [
        json.loads(line)
        for line in (tmp_path / "results.jsonl").read_text().splitlines()
    ]
    assert record["connectivity_violations"] == 0
    assert record["n_exploded"] > 0
    assert record["truncated_gmax_frac"] <= record["gmax_frac"] + 0.05


TRUNCATION_N = 600


def merging_exploded_clusters(decompose):
    """Wrap decompose so that every vertex of an exploded graph lands in one
    cluster, which makes sampled pairs connected after truncation but not
    before: a forced violation of the truncation coupling."""

    def merged(g):
        cs = decompose(g)
        if g.n == TRUNCATION_N:
            return cs
        return replace(cs, labels=np.zeros_like(cs.labels))

    return merged


def truncation_config(out_dir):
    return config_from_dict(
        {
            "experiment": "truncation",
            "n": [TRUNCATION_N],
            "seeds": [0],
            "b": 2,
            "pairs": 200,
            "out_dir": out_dir,
        }
    )


def test_truncation_invariant_failure_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        expcli,
        "component_decomposition",
        merging_exploded_clusters(expcli.component_decomposition),
    )
    out = tmp_path / "out"
    assert run_experiment(truncation_config(str(out))) == 1
    assert "invariant failure: connectivity" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_truncation_invariant_survives_optimize_flag(tmp_path):
    # python -O strips assert statements; the invariant check must not be one
    src = os.path.dirname(os.path.dirname(cmgiant.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "from cmgiant import expcli\n"
        "from test_expcli import merging_exploded_clusters, truncation_config\n"
        "expcli.component_decomposition = "
        "merging_exploded_clusters(expcli.component_decomposition)\n"
        "code = expcli.run_experiment(truncation_config(sys.argv[1]))\n"
        "print(sys.flags.optimize, code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, out],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["1", "1"], proc.stderr
    assert "invariant failure" in proc.stderr
    assert os.listdir(out) == []


def test_necessity_demo_halves_the_giant(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "necessity_demo",
            "n": [4000],
            "seeds": [0],
            "k": [50],
            "r": [2],
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(cfg) == 0
    (record,) = [
        json.loads(line)
        for line in (tmp_path / "results.jsonl").read_text().splitlines()
    ]
    assert abs(record["gmax_frac"] - 22 / 27 / 2) <= 0.05
    assert record["dpf_k50"] >= 0.2
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert "theory_half_zeta" in header


def test_main_runs_and_prints_summary_path(tmp_path, capsys):
    out = str(tmp_path / "cli_out")
    code = main(["giant", "--n", "400", "--seeds", "2", "--out", out])
    assert code == 0
    assert capsys.readouterr().out.strip() == os.path.join(out, "summary.csv")
    assert os.path.exists(os.path.join(out, "results.jsonl"))
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["seeds"] == [0, 1]
    assert manifest["n_values"] == [400]


def test_main_overrides_config_file(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"experiment": "giant", "n": [900], "seeds": [9]})
    )
    out = str(tmp_path / "out")
    code = main(
        [
            "giant",
            "--config",
            str(config_path),
            "--n",
            "300",
            "--seeds",
            "5,7",
            "--out",
            out,
        ]
    )
    assert code == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["n_values"] == [300]
    assert manifest["seeds"] == [5, 7]


def test_main_bad_config_exits_two(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text('{"experiment": "giant", "n": [1, 2')
    code = main(["giant", "--config", str(config_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("b", "x"),
        ("b", True),
        ("b", 2.5),
        ("pairs", 2.5),
        ("pairs", "10"),
        ("bp_samples", 1e3 + 0.5),
        ("bp_samples", False),
        ("n", [400, 2.5]),
        ("n", ["400"]),
        ("k", [True]),
        ("r", [1.5]),
        ("m_exponent", -1),
        ("m_exponent", 0),
        ("m_exponent", 1.5),
        ("m_exponent", "0.4"),
    ],
)
def test_main_malformed_field_exits_two_naming_it(tmp_path, capsys, field, value):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg_dict(**{field: value})))
    out = str(tmp_path / "out")
    assert main(["giant", "--config", str(config_path), "--out", out]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_main_malformed_override_exits_two(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["giant", "--n", "abc", "--out", out]) == 2
    assert main(["giant", "--seeds", "1,x", "--out", out]) == 2
    assert "--n/--seeds" in capsys.readouterr().err


def test_integral_floats_parse_as_integers():
    cfg = config_from_dict(cfg_dict(b=3.0, pairs=20.0, n=[400.0], k=[10.0], m_exponent=1))
    assert (cfg.b, cfg.pairs, cfg.sizes, cfg.k_values) == (3, 20, (400,), (10,))
    assert all(type(x) is int for x in (cfg.b, cfg.pairs, *cfg.sizes, *cfg.k_values))
    assert cfg.sha256() == config_from_dict(cfg_dict(b=3, pairs=20, k=[10], m_exponent=1.0)).sha256()


def test_out_dir_env_var(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("CMGIANT_OUT", env_dir)
    assert main(["giant", "--n", "300", "--seeds", "1"]) == 0
    assert os.path.exists(os.path.join(env_dir, "summary.csv"))
    # an explicit flag wins over the environment
    flag_dir = str(tmp_path / "from_flag")
    assert main(["giant", "--n", "300", "--seeds", "1", "--out", flag_dir]) == 0
    assert os.path.exists(os.path.join(flag_dir, "summary.csv"))
    assert not os.path.exists(os.path.join(env_dir, "results2.jsonl"))
