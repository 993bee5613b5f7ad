import concurrent.futures
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from strategies import degree_lists, pmf_dicts


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


# each settable key: an experiment that reads it and a value other than its default
KEY_PROBES = {
    "pmf": ("giant", {"1": 0.4, "3": 0.6}),
    "sequence_path": ("giant", "degrees.txt"),
    "n": ("giant", [400]),
    "seeds": ("giant", [1]),
    "k": ("structure", [5]),
    "r": ("almost_local", [1]),
    "b": ("truncation", 3),
    "m_exponent": ("coupling", 0.6),
    "pairs": ("distances", 50),
    "bp_samples": ("local_conv", 2000),
}


def test_every_config_key_changes_an_output(tmp_path, monkeypatch):
    # a key that changes no output is a knob nothing reads
    assert set(KEY_PROBES) == expcli._KNOWN_KEYS - {"experiment", "out_dir"}
    monkeypatch.chdir(tmp_path)
    DegreeSequence(np.full(300, 3)).save("degrees.txt")

    def outputs(experiment, out, **overrides):
        data = {"experiment": experiment, "n": [300], "seeds": [0], "out_dir": out}
        assert run_experiment(config_from_dict({**data, **overrides})) == 0
        return [read(os.path.join(out, name)) for name in ("results.jsonl", "summary.csv")]

    for key, (experiment, value) in KEY_PROBES.items():
        default = outputs(experiment, f"{key}_default")
        changed = outputs(experiment, f"{key}_changed", **{key: value})
        assert default != changed, key


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


# Every experiment at two sizes and two seeds. The digests below pin the bytes
# these runs write with library 0.5.0: a change that alters any of them changes
# the outputs and must say so.
PINNED_CONFIGS = {
    "giant": {},
    "structure": {"k": [5]},
    "almost_local": {"k": [5, 50], "r": [1, 2]},
    "necessity_demo": {"k": [5, 50], "r": [1, 2]},
    "local_conv": {"r": [1, 2], "bp_samples": 2000},
    "coupling": {"m_exponent": 0.6},
    "distances": {"pairs": 50},
    "p2_demo": {},
    "truncation": {"pmf": {"1": 0.4, "4": 0.3, "10": 0.3}, "b": 3, "pairs": 200},
}

OUTPUT_SHA256 = {
    "giant": {
        "manifest.json": "b692c0c1aeb6ea928f9791731541f6c935c842517a677934c0f70ec7cd40c2ad",
        "results.jsonl": "3326c1e8634be55befae8e3931171c096eae36fe163121820bacd55997833c25",
        "summary.csv": "984cc8fedf29adc5c93af2f743a2f5e58ab287d6c90415befa2a2f0efded3692",
    },
    "structure": {
        "manifest.json": "cf05f619a20028e12c3df173af43681a488bde98e41041383bef89cb813d53e0",
        "results.jsonl": "50b1295429ca0c1c43ec1f4c44f894022d1334afb09829dc1536f4bec0f8779c",
        "summary.csv": "f93d87a717fef963a2f00c87ee6e29e5805217504ac6c0dd04018e5417328d8a",
    },
    "almost_local": {
        "manifest.json": "aa708d34a39331bc1864b9c633ed73c2f1f31b93c2c87765ccad2b6211d54120",
        "results.jsonl": "3f9517f97399de8b6378c98eeb1815948c618ea9a28d68b06920dbd468f615ac",
        "summary.csv": "8d1834bc5a0cbea6f5c52735894b1a35aa2dcca71174c7f931974d9607739fed",
    },
    "necessity_demo": {
        "manifest.json": "fccedeead5a928dc700d4dba6e67e72f96da85903597da49660f3a5af659ac6a",
        "results.jsonl": "9b5e2bb66c903aca34dcfc85dda99bd3f16d974d28b5ef647e17eb79882aab75",
        "summary.csv": "19ae558736ea922612007c42df491bbf9a07dfedffd460cacb716049d74cf043",
    },
    "local_conv": {
        "manifest.json": "377586b3ef856a00e6380229e4be04d5ddbea029431fe48e51371a4daec52b43",
        "results.jsonl": "1559be48792bb5b939a08c9962c3becbdd8b527d9fc4a3c4d87c2ba28a2cb638",
        "summary.csv": "32c575cc2c4aba339ba071dc0eb12e063d830c75e136dd454e8e690285cd0723",
    },
    "coupling": {
        "manifest.json": "0f3d34e5a08e9cecf76a8098d3a78977dba8d23a95bd565d439aa4c328bdd28f",
        "results.jsonl": "b427854fb7932b9c232a2dd79af2bf9350d813a135f1a61156bdd2f83055647d",
        "summary.csv": "98c7686580501062ffe7ec28916bfd2dd7b37296f4fa6f9e86baf3c0759a82a5",
    },
    "distances": {
        "distances_hist_n300_seed0.csv": "f029855f6da9736883e1367bd0650161e878ea85c72a94d1c1af34c67e502450",
        "distances_hist_n300_seed1.csv": "f046c978a2a0f4db402236275832dcfdd7274efcde7596fc2ca3832303bb5660",
        "distances_hist_n500_seed0.csv": "e27c757a3d55f3120b07075568582527cb51c1134429958e574c5f8477b99436",
        "distances_hist_n500_seed1.csv": "c81609af2461f7e33edfb2dac4eb8e440d7ae670a66f1ed0b0435c69f22440ca",
        "manifest.json": "afb718440aef1e54e10b07146c9c0e7ccb83af8fb17474cc23241ecb4e117b65",
        "results.jsonl": "96768f247b539b20c2f31c4991f7fae515b4443b6564f9daf083e92fb13e3101",
        "summary.csv": "6405fd2e92c28bd7901e480268931e0806addd44ab7f68cd63bd12e0149b5821",
    },
    "p2_demo": {
        "manifest.json": "1e493e4bf806877db5872dd1d5de9b08cc46f95e99b16b70aca49880ea7922a4",
        "results.jsonl": "8ec648946419466aae5a45abeaee70959d8e959ee8c1461901daad588887f4b5",
        "summary.csv": "4a406e519cd46a4df0e6d253d72bbe8cc298aac1e92e17e77afc9e5d94998e8a",
    },
    "truncation": {
        "manifest.json": "28332741bf96cf0acd7ee93392578c59d293fda57d867b65d47c40ec9221fcdd",
        "results.jsonl": "479e6c7aa47ed002a32025b51b77749d35ebce5b7c1238f808a54ddfdb2da379",
        "summary.csv": "4adf94748f52948837eaff69eb87138aaba0a0f92a601624287e4cdd37606985",
    },
}


def output_digests(experiment, out_dir, threads):
    """sha256 of every file one pinned run writes."""
    data = {"experiment": experiment, "n": [300, 500], "seeds": [0, 1], "out_dir": out_dir}
    cfg = config_from_dict({**data, **PINNED_CONFIGS[experiment]})
    assert run_experiment(cfg, threads=threads) == 0
    return {
        name: hashlib.sha256(read(os.path.join(out_dir, name))).hexdigest()
        for name in sorted(os.listdir(out_dir))
    }


@pytest.mark.parametrize("experiment", expcli.EXPERIMENTS)
def test_outputs_match_recorded_digests(tmp_path, experiment):
    assert experiment in OUTPUT_SHA256, f"no recorded digest for {experiment}"
    assert output_digests(experiment, str(tmp_path), threads=1) == OUTPUT_SHA256[experiment]


def test_threads_do_not_change_output(tmp_path):
    out_a = str(tmp_path / "serial")
    out_b = str(tmp_path / "pooled")
    cfg_a = config_from_dict(cfg_dict(n=[300, 400], seeds=[0, 1], out_dir=out_a))
    cfg_b = config_from_dict(cfg_dict(n=[300, 400], seeds=[0, 1], out_dir=out_b))
    assert run_experiment(cfg_a, threads=1) == 0
    assert run_experiment(cfg_b, threads=3) == 0
    for name in ("results.jsonl", "summary.csv"):
        assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))
    # every experiment's pooled output matches its recorded serial digests
    for experiment in expcli.EXPERIMENTS:
        out = str(tmp_path / experiment)
        assert output_digests(experiment, out, threads=2) == OUTPUT_SHA256.get(experiment)


def test_import_leaves_out_the_process_pool():
    # a one-worker run needs none of what concurrent.futures.process loads
    # (multiprocessing, socket, logging), so importing the CLI must not load it
    src = os.path.dirname(os.path.dirname(cmgiant.__file__))
    script = "import sys, cmgiant.expcli\nprint('concurrent.futures.process' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["False"], proc.stderr


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
    header, row = (tmp_path / "summary.csv").read_text().splitlines()
    assert "theory_zeta_sq" in header
    # the records' ratios divide by the summary's log n / log nu
    ref = float(dict(zip(header.split(","), row.split(",")))["theory_ref"])
    for r in records:
        assert "_histogram" not in r
        assert 0.0 <= r["finite_fraction"] <= 1.0
        assert math.isfinite(r["mean_finite"])
        assert r["mean_ratio"] == r["mean_finite"] / ref


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



def test_main_distances_with_no_connected_pair(tmp_path, capsys):
    config_path = tmp_path / "d.json"
    config_path.write_text(json.dumps({"pmf": {"1": 0.5, "3": 0.5}, "pairs": 1, "n": [5], "seeds": [1]}))
    out = tmp_path / "D"
    assert main(["distances", "--config", str(config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out / "summary.csv")
    (record,) = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert record["finite_fraction"] == 0.0
    for name in ("mean_finite", "mean_ratio", "median_ratio"):
        assert np.isnan(record[name])
    assert (out / "distances_hist_n5_seed1.csv").read_text().splitlines()[1:] == ["distance,count"]
    header, row = (out / "summary.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["mean_finite_mean"] == "nan"
    assert (out / "manifest.json").exists()


def test_summary_averages_the_seeds_with_finite_values(tmp_path):
    # seed 1 samples no connected pair, seed 3 one pair at distance 1
    config_path = tmp_path / "d.json"
    config_path.write_text(json.dumps({"pmf": {"1": 0.5, "3": 0.5}, "pairs": 1, "n": [5], "seeds": [1, 3]}))
    out = tmp_path / "D"
    assert main(["distances", "--config", str(config_path), "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in records] == [1, 3]
    assert np.isnan(records[0]["mean_finite"]) and records[1]["mean_finite"] == 1.0
    header, row = (out / "summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), row.split(",")))
    assert summary["seeds"] == "2"
    assert (summary["mean_finite_mean"], summary["mean_finite_std"]) == ("1.0", "0.0")
    assert summary["finite_fraction_mean"] == "0.5"


def test_summary_runs_the_theory_once_per_size(tmp_path):
    # one call per n: the header takes its theory names from the first dict
    entry = expcli.REGISTRY["giant"]
    spy = mock.Mock(wraps=entry.theory)
    cfg = config_from_dict(cfg_dict(n=[500, 300], seeds=[0], out_dir=str(tmp_path / "out")))
    with mock.patch.dict(expcli.REGISTRY, giant=replace(entry, theory=spy)):
        assert run_experiment(cfg) == 0
    assert sorted(call.args[1] for call in spy.call_args_list) == [300, 500]


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
        ("alpha", 0.5),
        ("alpha", 1),
        ("alpha", 2.0),
        ("delta", 0),
        ("delta", -0.5),
        ("seeds", [-1, 2]),
        ("--seeds", "-1,2"),
        ("pmf", {"1": float("nan")}),
        ("n", [300, 300]),
        ("seeds", [1, 1]),
        ("k", [5, 5]),
        ("r", [2, 2.0]),
        ("--n", "300,300"),
        ("--seeds", "1,1"),
        ("pmf", {"1": True}),
        ("pmf", {"1": "0.5", "3": "0.5"}),
        ("pmf", {"1_0": 1.0}),
        ("pmf", {"+3": 1.0}),
        ("pmf", {" 3": 1.0}),
        ("pmf", {"01": 0.0, "1": 1.0}),
        ("pmf", {"1": 0.5, "3": 0.5, "01": 0.0}),
    ],
)
def test_main_malformed_field_exits_two_naming_it(tmp_path, capsys, field, value):
    # a field spelled as an option is given on the command line instead
    option = field.startswith("--")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg_dict() if option else cfg_dict(**{field: value})))
    out = str(tmp_path / "out")
    argv = [f"{field}={value}"] if option else []
    assert main(["giant", *argv, "--config", str(config_path), "--out", out]) == 2
    assert f"'{field.lstrip('-')}'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("out_dir", ["", 5])
def test_main_bad_out_dir_exits_two_before_any_output(tmp_path, monkeypatch, capsys, out_dir):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(expcli.OUT_DIR_ENV, raising=False)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg_dict(out_dir=out_dir)))
    assert main(["giant", "--config", "cfg.json"]) == 2
    assert "'out_dir'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_main_config_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main(["giant", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(config_path) in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", os.path.join("taken", "sub")])
def test_main_out_naming_a_file_exits_two_and_writes_nothing(tmp_path, capsys, out):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert main(["giant", "--n", "300", "--seeds", "1", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'out_dir'" in err
    assert taken.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["taken"]


def test_pool_never_has_more_workers_than_jobs(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in-process: no process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_experiment imports the pool class from concurrent.futures when it
    # needs one, so the stand-in replaces it there
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    two, one = str(tmp_path / "two"), str(tmp_path / "one")
    assert main(["giant", "--n", "300", "--seeds", "0,1", "--out", two, "--threads", "10000"]) == 0
    assert sizes == [2]
    # one job (seed 0) runs serially, with no pool at all
    assert main(["giant", "--n", "300", "--seeds", "1", "--out", one, "--threads", "10000"]) == 0
    assert sizes == [2]
    assert read(os.path.join(two, "results.jsonl")).splitlines()[:1] == read(
        os.path.join(one, "results.jsonl")
    ).splitlines()


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["local_conv"], {"pmf": {"2": 1.0}}, "pmf"),
        (["distances"], {"pmf": {"1": 0.9, "2": 0.1}}, "pmf"),
        (["distances"], {"sequence_path": "degrees.txt"}, "sequence_path"),
        (["distances", "--n", "2"], {}, "n"),
        (["distances"], {"sequence_path": "two.txt"}, "sequence_path"),
        (["necessity_demo", "--n", "1"], {}, "n"),
        (["necessity_demo"], {"sequence_path": "degrees.txt"}, "sequence_path"),
        (["giant"], {"sequence_path": "two.txt", "pmf": {"1": 0.5, "3": 0.5}}, "pmf"),
        (["structure"], {"k": [5, 50]}, "k"),
    ],
    ids=[
        "degree-two-law",
        "subcritical-pmf",
        "subcritical-sequence",
        "distances-n-below-three",
        "distances-sequence-below-three",
        "n-below-two",
        "halves-from-sequence",
        "pmf-with-sequence",
        "structure-two-k",
    ],
)
def test_main_unsuited_config_exits_two_naming_it(tmp_path, monkeypatch, capsys, argv, config, field):
    # checked when the config is parsed, before any job runs
    monkeypatch.chdir(tmp_path)
    DegreeSequence(np.array([1, 1, 2, 2])).save("degrees.txt")  # subcritical law
    DegreeSequence(np.array([3, 3])).save("two.txt")  # supercritical, n = 2
    with open("cfg.json", "w") as fh:
        json.dump({"n": [400], "seeds": [0], **config}, fh)
    assert main([*argv, "--config", "cfg.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert "cfg.json: " in err
    assert not os.path.exists("out")


def test_main_config_file_without_experiment_key(tmp_path):
    # the subcommand names the experiment
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n": [300], "seeds": [3]}))
    out = str(tmp_path / "out")
    assert main(["structure", "--config", str(config_path), "--out", out]) == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["experiment"] == "structure"
    assert manifest["seeds"] == [3]


def test_main_malformed_override_exits_two(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["giant", "--n", "abc", "--out", out]) == 2
    assert main(["giant", "--seeds", "1,x", "--out", out]) == 2
    assert "--n/--seeds" in capsys.readouterr().err


# Malformed field values: magnitudes stay small, since a huge valid value (a
# size or a pair count of 1e10) is a request for memory, not a bad field.
# Strings use an alphabet without path separators, so an out_dir stays inside
# the working directory.
SHORT_TEXT = st.text(alphabet="ab19._-", max_size=4)
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats(-9, 9)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | SHORT_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers(-1, 9).map(str) | SHORT_TEXT, inner, max_size=3),
    max_leaves=6,
)


def small_lists(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=2, unique=True)


# well-formed values of every config key but sequence_path, within n <= 60,
# pairs <= 5 and bp_samples <= 50
VALID = {
    "experiment": st.sampled_from(expcli.EXPERIMENTS),
    "pmf": pmf_dicts(allow_degenerate=True).map(lambda law: {str(k): p for k, p in law.items()}),
    "n": small_lists(1, 60),
    "seeds": st.integers(1, 2) | small_lists(0, 5),
    "k": small_lists(1, 60),
    "r": small_lists(1, 3),
    "b": st.integers(1, 5),
    "m_exponent": st.floats(0, 1, exclude_min=True),
    "pairs": st.integers(1, 5),
    "bp_samples": st.integers(1, 50),
    "out_dir": st.text(alphabet="ab1_", min_size=1, max_size=4),
}
# left out, these keys default to a long run: n = [10000], 5 seeds, 1000
# pairs and 100000 branching-process samples
ALWAYS_SET = {"n", "seeds", "pairs", "bp_samples"}


def spoiled(value):
    """value with one list entry or one dict value replaced by a malformed
    one; other values are replaced whole."""
    if isinstance(value, list) and value:
        return st.builds(lambda i, x: value[:i] + [x] + value[i + 1 :], st.integers(0, len(value) - 1), JUNK)
    if isinstance(value, dict) and value:
        return st.builds(lambda k, x: {**value, k: x}, st.sampled_from(sorted(value)), JUNK)
    return JUNK


@st.composite
def fuzz_configs(draw, sequence_path):
    """Well-formed values for some keys; then up to two keys, the unknown
    "tipo" among them, take a malformed value, or a well-formed one with a
    malformed entry. Parsing stops at the first bad field, so one or two bad
    keys reach every field's check."""
    every = dict(VALID, sequence_path=st.just(sequence_path), tipo=JUNK)
    # the degree law comes from pmf or from sequence_path, not both
    skip = {"tipo", draw(st.sampled_from(["pmf", "sequence_path"]))}
    config = {
        key: draw(value)
        for key, value in every.items()
        if key not in skip and (key in ALWAYS_SET or draw(st.booleans()))
    }
    for key in draw(st.sets(st.sampled_from(sorted(every)), max_size=2)):
        config[key] = draw(JUNK | every[key].flatmap(spoiled))
    return config


@given(st.data())
def test_main_config_fuzz_exits_cleanly(tmp_path_factory, data):
    # every experiment, on well-formed and malformed configs, exits with 0,
    # 1 or 2 and raises nothing
    root = tmp_path_factory.mktemp("fuzz")
    sequence_path = root / "degrees.txt"
    DegreeSequence(np.array(data.draw(degree_lists()))).save(sequence_path)
    experiment = data.draw(st.sampled_from(expcli.EXPERIMENTS))
    config = data.draw(fuzz_configs(str(sequence_path)))
    config_path = root / "cfg.json"
    config_path.write_text(json.dumps(config))
    work = root / "work" / "here"  # an out_dir of ".." stays under root
    work.mkdir(parents=True)
    with contextlib.chdir(work), mock.patch.dict(os.environ):
        os.environ.pop(expcli.OUT_DIR_ENV, None)
        assert main([experiment, "--config", str(config_path)]) in (0, 1, 2)


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
