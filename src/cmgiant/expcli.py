"""Reproducible experiment runner and command-line entry point.

Each experiment builds graphs for every (n, seed) pair in the config,
computes one flat record of statistics per pair, and writes three files to
the output directory: results.jsonl (one JSON record per line, sorted by
(n, seed)), summary.csv (mean and sample stddev per n, with theoretical
columns where a closed form exists), and manifest.json (config hash, seed
list, library version, and the offspring law used, so a run can be
reproduced bit for bit). The distances experiment additionally writes one
histogram CSV per run.

Randomness discipline: every worker derives its generators from
numpy.random.SeedSequence(seed, spawn_key=(purpose,)) with a fixed integer
per purpose (0 degrees, 1 pairing, 2 analysis, 3 branching-process
sampling; necessity_demo keys its two halves as (purpose, half)). Records
are computed in parallel when --threads asks for it and sorted before
writing, so output bytes depend only on the config and seeds.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .components import (
    boundary_pair_fraction,
    component_decomposition,
    disconnected_pair_fraction,
    giant_statistics,
    sum_squares_ratio,
)
from .coupling import coupled_exploration
from .degree_model import DegreeSequence, Pmf, empirical_distribution, sample_iid_degrees
from .distances import sample_distances, scaling_report
from .graph_build import (
    HalfEdgeGraph,
    coupled_pairing,
    disjoint_union,
    pair_half_edges,
    truncate_explode,
)
from .local_limit import (
    DegenerateDegreeTwoError,
    OffspringSpec,
    build_offspring_spec,
    theoretical_giant,
)
from .neighborhoods import (
    RootedBall,
    bp_ball_distribution,
    canonical_code,
    empirical_ball_distribution,
    restricted_ball_distribution,
    tv_distance,
)

EXPERIMENTS = (
    "giant",
    "structure",
    "almost_local",
    "necessity_demo",
    "local_conv",
    "coupling",
    "distances",
    "p2_demo",
    "truncation",
)

STREAM_DEGREES = 0
STREAM_PAIRING = 1
STREAM_ANALYSIS = 2
STREAM_BP = 3

OUT_DIR_ENV = "CMGIANT_OUT"


class ConfigError(ValueError):
    """Config file problems, with the offending field or line in the text."""


class InvariantError(RuntimeError):
    """An internal invariant of an experiment failed; the run exits with code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    pmf: dict[int, float] | None
    sequence_path: str | None
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    k_values: tuple[int, ...] = (50,)
    r_values: tuple[int, ...] = (2,)
    b: int = 2
    alpha: float = 0.6
    delta: float = 0.1
    m_exponent: float = 0.4
    pairs: int = 1000
    bp_samples: int = 100000
    out_dir: str = "cmgiant_out"
    raw: dict = field(default_factory=dict, compare=False)

    def sha256(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "pmf": {str(k): v for k, v in (self.pmf or {}).items()} or None,
            "sequence_path": self.sequence_path,
            "n": list(self.sizes),
            "seeds": list(self.seeds),
            "k": list(self.k_values),
            "r": list(self.r_values),
            "b": self.b,
            "alpha": self.alpha,
            "delta": self.delta,
            "m_exponent": self.m_exponent,
            "pairs": self.pairs,
            "bp_samples": self.bp_samples,
        }


_KNOWN_KEYS = {
    "experiment",
    "pmf",
    "sequence_path",
    "n",
    "seeds",
    "k",
    "r",
    "b",
    "alpha",
    "delta",
    "m_exponent",
    "pairs",
    "bp_samples",
    "out_dir",
}

_DEFAULT_PMF = {1: 0.5, 3: 0.5}


def _parse_seeds(value) -> tuple[int, ...]:
    if isinstance(value, bool):
        raise ConfigError("field 'seeds': expected an integer count or a list")
    if isinstance(value, int):
        if value < 1:
            raise ConfigError("field 'seeds': count must be at least 1")
        return tuple(range(value))
    if isinstance(value, list) and value and all(
        isinstance(s, int) and not isinstance(s, bool) for s in value
    ):
        return tuple(value)
    raise ConfigError("field 'seeds': expected an integer count or a list of integers")


def _is_integral(value) -> bool:
    """An int, or a float with an integer value; never a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _parse_int_list(value, name: str) -> tuple[int, ...]:
    if isinstance(value, list) and value and all(
        _is_integral(s) and s >= 1 for s in value
    ):
        return tuple(int(s) for s in value)
    raise ConfigError(f"field {name!r}: expected a non-empty list of positive integers")


def _parse_int(data: dict, name: str, default: int) -> int:
    value = data.get(name, default)
    if not _is_integral(value) or value < 1:
        raise ConfigError(f"field {name!r}: expected a positive integer, got {value!r}")
    return int(value)


def _parse_float(data: dict, name: str, default: float) -> float:
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"field {name!r}: expected a number, got {value!r}")
    return float(value)


def config_from_dict(data: dict, source: str = "<config>") -> ExperimentConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown fields {sorted(unknown)}")
    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{source}: field 'experiment' must be one of {', '.join(EXPERIMENTS)}"
        )
    pmf = None
    sequence_path = data.get("sequence_path")
    if sequence_path is not None:
        if not isinstance(sequence_path, str):
            raise ConfigError(f"{source}: field 'sequence_path' must be a string")
        if not os.path.exists(sequence_path):
            raise ConfigError(
                f"{source}: field 'sequence_path': no such file {sequence_path!r}"
            )
    else:
        fallback = {2: 1.0} if experiment == "p2_demo" else _DEFAULT_PMF
        raw_pmf = data.get("pmf", fallback)
        if not isinstance(raw_pmf, dict) or not raw_pmf:
            raise ConfigError(f"{source}: field 'pmf' must be a non-empty object")
        try:
            pmf = {int(k): float(v) for k, v in raw_pmf.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: field 'pmf': {exc}") from exc
        try:
            Pmf.from_dict(pmf)
        except ValueError as exc:
            raise ConfigError(f"{source}: field 'pmf': {exc}") from exc
    if sequence_path is not None:
        seq = DegreeSequence.load(sequence_path)
        sizes = (seq.n,)
    else:
        sizes = _parse_int_list(data.get("n", [10000]), "n")
    seeds = _parse_seeds(data.get("seeds", 5))
    cfg = ExperimentConfig(
        experiment=experiment,
        pmf=pmf,
        sequence_path=sequence_path,
        sizes=sizes,
        seeds=seeds,
        k_values=_parse_int_list(data.get("k", [50]), "k"),
        r_values=_parse_int_list(data.get("r", [2]), "r"),
        b=_parse_int(data, "b", 2),
        alpha=_parse_float(data, "alpha", 0.6),
        delta=_parse_float(data, "delta", 0.1),
        m_exponent=_parse_float(data, "m_exponent", 0.4),
        pairs=_parse_int(data, "pairs", 1000),
        bp_samples=_parse_int(data, "bp_samples", 100000),
        out_dir=str(data.get("out_dir", "cmgiant_out")),
        raw=dict(data),
    )
    if not 0 < cfg.m_exponent <= 1:
        raise ConfigError(f"{source}: field 'm_exponent' must lie in (0, 1]")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(data, source=path)


def derive_rng(seed: int, purpose: int, sub: int | None = None) -> np.random.Generator:
    """One documented stream per (seed, purpose); sub splits within a purpose."""
    key = (purpose,) if sub is None else (purpose, sub)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _degree_sequence(cfg: ExperimentConfig, n: int, seed: int) -> DegreeSequence:
    if cfg.sequence_path is not None:
        return DegreeSequence.load(cfg.sequence_path)
    dist = Pmf.from_dict(cfg.pmf)
    return sample_iid_degrees(dist, n, derive_rng(seed, STREAM_DEGREES))


def _build(cfg: ExperimentConfig, n: int, seed: int) -> tuple[DegreeSequence, HalfEdgeGraph]:
    seq = _degree_sequence(cfg, n, seed)
    g = pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING))
    return seq, g


def _spec_or_none(cfg: ExperimentConfig) -> OffspringSpec | None:
    if cfg.pmf is not None:
        dist = Pmf.from_dict(cfg.pmf)
    else:
        dist = empirical_distribution(DegreeSequence.load(cfg.sequence_path))
    try:
        return build_offspring_spec(dist)
    except DegenerateDegreeTwoError:
        return None


def _run_giant(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    _, g = _build(cfg, n, seed)
    cs = component_decomposition(g)
    gs = giant_statistics(cs, g.n)
    record = {
        "gmax_frac": gs.gmax_frac,
        "second_frac": gs.second_frac,
        "edge_frac": gs.edge_frac,
    }
    for k in _support_of(cfg):
        record[f"v{k}_frac"] = gs.vk_frac.get(k, 0.0)
    return record


def _run_structure(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    _, g = _build(cfg, n, seed)
    cs = component_decomposition(g)
    gs = giant_statistics(cs, g.n)
    ss = sum_squares_ratio(cs, cfg.k_values[0], g.n)
    return {
        "gmax_frac": gs.gmax_frac,
        "second_frac": gs.second_frac,
        "sum_sq_all": ss.all_clusters,
        "sum_sq_large": ss.large_only,
    }


def _run_almost_local(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    _, g = _build(cfg, n, seed)
    cs = component_decomposition(g)
    record = {"gmax_frac": giant_statistics(cs, g.n).gmax_frac}
    for k in cfg.k_values:
        record[f"dpf_k{k}"] = disconnected_pair_fraction(cs, k, g.n)
    for r in cfg.r_values:
        record[f"bpf_r{r}"] = boundary_pair_fraction(g, r)
    return record


def _run_necessity_demo(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    half = n // 2
    if half < 1:
        raise ConfigError("necessity_demo needs n >= 2 to split in half")
    dist = Pmf.from_dict(cfg.pmf)
    graphs = []
    for i in range(2):
        seq = sample_iid_degrees(dist, half, derive_rng(seed, STREAM_DEGREES, i))
        graphs.append(pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING, i)))
    g = disjoint_union(graphs[0], graphs[1])
    cs = component_decomposition(g)
    record = {"gmax_frac": giant_statistics(cs, g.n).gmax_frac}
    for k in cfg.k_values:
        record[f"dpf_k{k}"] = disconnected_pair_fraction(cs, k, g.n)
    for r in cfg.r_values:
        record[f"bpf_r{r}"] = boundary_pair_fraction(g, r)
    return record


_DEG1_BALL = RootedBall(
    num_vertices=1, edges=(), stubs=(1,), radius=0, boundary_size=1
)


def _run_local_conv(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    spec = _spec_or_none(cfg)
    if spec is None:
        raise ConfigError("local_conv needs a non-degenerate degree law")
    _, g = _build(cfg, n, seed)
    record = {}
    for r in cfg.r_values:
        emp = empirical_ball_distribution(g, r)
        bp = bp_ball_distribution(
            spec, r, cfg.bp_samples, derive_rng(seed, STREAM_BP, r)
        )
        record[f"tv_r{r}"] = tv_distance(emp, bp)
    cs = component_decomposition(g)
    restricted = restricted_ball_distribution(g, 0, cs)
    deg1 = canonical_code(_DEG1_BALL)
    record["giant_deg1_mass"] = restricted.giant.get(deg1, 0.0)
    return record


def _run_coupling(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    seq = _degree_sequence(cfg, n, seed)
    m_n = max(1, int(math.floor(n**cfg.m_exponent)))
    rng = derive_rng(seed, STREAM_ANALYSIS)
    root = int(rng.integers(0, seq.n))
    trace = coupled_exploration(seq, root, m_n, rng)
    return {
        "m_n": m_n,
        "half_edge_reuses": trace.half_edge_reuses,
        "vertex_reuses": trace.vertex_reuses,
        "diverged": int(trace.first_divergence is not None),
        "steps": len(trace.steps),
        "graph_vertices": trace.graph_vertices,
    }


def _run_distances(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    spec = _spec_or_none(cfg)
    if spec is None or spec.nu <= 1.0:
        raise ConfigError("distances needs a supercritical degree law")
    _, g = _build(cfg, n, seed)
    ds = sample_distances(g, cfg.pairs, derive_rng(seed, STREAM_ANALYSIS))
    rep = scaling_report(ds, g.n, spec.nu)
    hist: dict[int, int] = {}
    for d in ds.finite_distances:
        hist[d] = hist.get(d, 0) + 1
    return {
        "mean_finite": rep.mean_finite,
        "mean_ratio": rep.mean_ratio,
        "median_ratio": rep.median_ratio,
        "finite_fraction": rep.finite_fraction,
        "_histogram": sorted(hist.items()),
        "_nu": spec.nu,
    }


def _run_p2_demo(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    _, g = _build(cfg, n, seed)
    cs = component_decomposition(g)
    gs = giant_statistics(cs, g.n)
    return {
        "gmax_frac": gs.gmax_frac,
        "second_frac": gs.second_frac,
        "num_clusters": len(cs.sizes),
    }


def _run_truncation(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    seq = _degree_sequence(cfg, n, seed)
    emap = truncate_explode(seq, cfg.b)
    g, gp = coupled_pairing(emap, derive_rng(seed, STREAM_PAIRING))
    truncated = emap.truncated_degrees.degrees
    cap_ok = bool(
        np.all(truncated[: seq.n] == np.minimum(seq.degrees, cfg.b))
        and np.all(truncated[seq.n :] == 1)
    )
    total_ok = int(truncated.sum()) == seq.total_degree
    cs = component_decomposition(g)
    csp = component_decomposition(gp)
    rng = derive_rng(seed, STREAM_ANALYSIS)
    u = rng.integers(0, seq.n, size=cfg.pairs)
    v = rng.integers(0, seq.n, size=cfg.pairs)
    violations = int(
        np.sum((csp.labels[u] == csp.labels[v]) & (cs.labels[u] != cs.labels[v]))
    )
    for ok, message in (
        (cap_ok, "truncated degrees must be min(d, b) plus degree-1 spawns"),
        (total_ok, "truncation must preserve the total degree"),
        (violations == 0, "connectivity in the truncated graph must imply it originally"),
    ):
        if not ok:
            raise InvariantError(message)
    gs = giant_statistics(cs, g.n)
    gsp = giant_statistics(csp, gp.n)
    return {
        "n_exploded": emap.exploded_n - emap.original_n,
        "connectivity_violations": violations,
        "gmax_frac": gs.gmax_frac,
        "truncated_gmax_frac": gsp.gmax_frac,
    }


_RUNNERS = {
    "giant": _run_giant,
    "structure": _run_structure,
    "almost_local": _run_almost_local,
    "necessity_demo": _run_necessity_demo,
    "local_conv": _run_local_conv,
    "coupling": _run_coupling,
    "distances": _run_distances,
    "p2_demo": _run_p2_demo,
    "truncation": _run_truncation,
}


def _support_of(cfg: ExperimentConfig) -> tuple[int, ...]:
    if cfg.pmf is not None:
        return tuple(sorted(cfg.pmf))
    return empirical_distribution(DegreeSequence.load(cfg.sequence_path)).support


def _worker(args: tuple) -> tuple[int, int, dict]:
    cfg_data, n, seed = args
    cfg = config_from_dict(cfg_data)
    record = _RUNNERS[cfg.experiment](cfg, n, seed)
    return n, seed, record


def _theoretical_columns(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    spec = _spec_or_none(cfg)
    if spec is None:
        return {}
    limits = theoretical_giant(spec)
    if cfg.experiment == "giant":
        cols = {"theory_zeta": limits.zeta, "theory_edge": limits.edge_limit}
        for k in _support_of(cfg):
            cols[f"theory_v{k}"] = limits.vk_limit.get(k, 0.0)
        return cols
    if cfg.experiment == "structure":
        return {"theory_zeta_sq": limits.zeta**2}
    if cfg.experiment == "necessity_demo":
        return {"theory_half_zeta": limits.zeta / 2.0}
    if cfg.experiment == "local_conv":
        return {"theory_giant_deg1": limits.vk_limit.get(1, 0.0)}
    if cfg.experiment == "distances":
        if spec.nu <= 1.0:
            return {}
        return {
            "theory_ref": math.log(n) / math.log(spec.nu),
            "theory_zeta_sq": limits.zeta**2,
        }
    if cfg.experiment == "coupling":
        mean_degree = spec.root_pmf.mean()
        d_max = max(spec.root_pmf.support)
        m_n = max(1, int(math.floor(n**cfg.m_exponent)))
        ell = n * mean_degree
        return {
            "theory_he_bound": m_n * m_n / ell,
            "theory_vertex_bound": m_n * m_n * d_max / ell,
        }
    return {}


def _format_value(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_summary(path: str, cfg: ExperimentConfig, rows: list[tuple[int, int, dict]]) -> None:
    by_n: dict[int, list[dict]] = {}
    for n, _, record in rows:
        by_n.setdefault(n, []).append(record)
    metric_names = sorted(
        name
        for name in rows[0][2]
        if not name.startswith("_") and isinstance(rows[0][2][name], (int, float))
    )
    theory_names = sorted(_theoretical_columns(cfg, cfg.sizes[0]))
    header = ["n", "seeds"]
    for name in metric_names:
        header += [f"{name}_mean", f"{name}_std"]
    header += theory_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n in sorted(by_n):
            records = by_n[n]
            row = [str(n), str(len(records))]
            for name in metric_names:
                values = np.array([float(r[name]) for r in records])
                mean = float(values.mean())
                std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
                row += [repr(mean), repr(std)]
            theory = _theoretical_columns(cfg, n)
            row += [_format_value(theory[name]) for name in theory_names]
            writer.writerow(row)


def _write_histogram(path: str, n: int, nu: float, seed: int, hist: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# n={n} nu={_format_value(float(nu))} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["distance", "count"])
        for d, c in hist:
            writer.writerow([str(d), str(c)])


def emit_manifest(cfg: ExperimentConfig, path: str) -> None:
    spec = _spec_or_none(cfg)
    manifest = {
        "config_sha256": cfg.sha256(),
        "experiment": cfg.experiment,
        "library_version": __version__,
        "n_values": list(cfg.sizes),
        "seeds": list(cfg.seeds),
        "offspring_spec": None if spec is None else json.loads(spec.to_json()),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> int:
    """Run every (n, seed) pair and write the output files.

    Returns a process exit code: 0 on success, 1 when an internal invariant
    failed (InvariantError). Partially written outputs are removed on failure.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    written: list[str] = []
    jobs = [(cfg.raw or cfg.canonical_dict(), n, seed) for n in cfg.sizes for seed in cfg.seeds]
    try:
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(_worker, jobs))
        else:
            rows = [_worker(job) for job in jobs]
        rows.sort(key=lambda item: (item[0], item[1]))

        results_path = os.path.join(cfg.out_dir, "results.jsonl")
        written.append(results_path)
        with open(results_path, "w") as fh:
            for n, seed, record in rows:
                public = {
                    k: v for k, v in record.items() if not k.startswith("_")
                }
                line = {"experiment": cfg.experiment, "n": n, "seed": seed, **public}
                fh.write(json.dumps(line, sort_keys=True) + "\n")

        if cfg.experiment == "distances":
            for n, seed, record in rows:
                hist_path = os.path.join(
                    cfg.out_dir, f"distances_hist_n{n}_seed{seed}.csv"
                )
                written.append(hist_path)
                _write_histogram(hist_path, n, record["_nu"], seed, record["_histogram"])

        summary_path = os.path.join(cfg.out_dir, "summary.csv")
        written.append(summary_path)
        _write_summary(summary_path, cfg, rows)

        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        written.append(manifest_path)
        emit_manifest(cfg, manifest_path)
    except InvariantError as exc:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return 0


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    data = dict(data)
    data["experiment"] = args.experiment
    try:
        if args.n:
            data["n"] = [int(x) for x in args.n.split(",")]
        if args.seeds:
            raw = args.seeds
            data["seeds"] = [int(x) for x in raw.split(",")] if "," in raw else int(raw)
    except ValueError as exc:
        raise ConfigError(f"options --n/--seeds: {exc}") from exc
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or data.get("out_dir")
    if out_dir:
        data["out_dir"] = out_dir
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmgiant",
        description="Experiment runner for random multigraphs with given degrees",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help=f"output directory (also via ${OUT_DIR_ENV})")
        p.add_argument("--seeds", help="seed count or comma-separated list")
        p.add_argument("--n", help="comma-separated graph sizes")
        p.add_argument("--threads", type=int, default=1, help="parallel workers")
    args = parser.parse_args(argv)

    try:
        data = load_config(args.config).raw if args.config else {}
        cfg = config_from_dict(_apply_overrides(data, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    code = run_experiment(cfg, threads=max(1, args.threads))
    if code == 0:
        print(os.path.join(cfg.out_dir, "summary.csv"))
    return code


if __name__ == "__main__":
    sys.exit(main())
