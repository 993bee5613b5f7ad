"""Reproducible experiment runner and command-line entry point.

Each experiment is one REGISTRY entry: its per-(n, seed) record, its
summary's theory columns, an optional writer of extra files, and the
requirements on the config that config_from_dict checks before any work.
Parsing builds the degree law (the pmf, or the empirical law of a sequence
file read once) and its offspring spec, which travel with the config; each
(n, seed) Job builds its degrees, graph, components and giant statistics
lazily, at most once. A run writes results.jsonl (records sorted by
(n, seed)), summary.csv (mean and sample stddev per n, then the theory
columns) and manifest.json (config hash, seeds, library version and
offspring law, so a run can be reproduced bit for bit); distances adds one
histogram CSV per run. Records look library functions up in this module's
namespace when called, so a function replaced here is the one that runs.

Randomness discipline: every job derives its generators from
numpy.random.SeedSequence(seed, spawn_key=(purpose,)) with a fixed integer
per purpose (0 degrees, 1 pairing, 2 analysis, 3 branching-process
sampling; necessity_demo keys its two halves as (purpose, half)). Records
are computed in parallel when --threads asks for it, by at most one worker
process per job, and sorted before writing, so output bytes depend only on
the config and seeds.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from . import __version__
from .components import (
    ComponentSummary,
    GiantStatistics,
    boundary_pair_fraction,
    component_decomposition,
    disconnected_pair_fraction,
    giant_statistics,
    sum_squares_ratio,
)
from .coupling import coupled_exploration, reuse_bounds
from .degree_model import DegreeSequence, Pmf, empirical_distribution, sample_iid_degrees
from .distances import sample_distances
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
from .neighborhoods import bp_ball_distribution, empirical_ball_distribution, tv_distance

STREAM_DEGREES = 0
STREAM_PAIRING = 1
STREAM_ANALYSIS = 2
STREAM_BP = 3

OUT_DIR_ENV = "CMGIANT_OUT"


class ConfigError(ValueError):
    """Config file problems, with the offending field or line in the text."""


class InvariantError(RuntimeError):
    """An internal invariant of an experiment failed; the run exits with code 1."""


# the config key of each field whose name differs from it
_CONFIG_KEY = {"sizes": "n", "k_values": "k", "r_values": "r"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    pmf: dict[int, float] | None
    sequence_path: str | None
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    k_values: tuple[int, ...]
    r_values: tuple[int, ...]
    b: int
    m_exponent: float
    pairs: int
    bp_samples: int
    out_dir: str
    # Built once at parse time, outside the config's identity: the degree law
    # (the pmf, or the empirical law of the loaded sequence, which every job
    # then uses as its degrees) and its offspring spec (None for all-degree-2).
    law: Pmf = field(kw_only=True, compare=False, repr=False)
    sequence: DegreeSequence | None = field(kw_only=True, compare=False, repr=False)
    spec: OffspringSpec | None = field(kw_only=True, compare=False, repr=False)

    def sha256(self) -> str:
        """Hash of every config key but out_dir, which is presentation."""
        canonical = {
            _CONFIG_KEY.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self)
            if f.compare and f.name != "out_dir"
        }
        canonical["pmf"] = {str(k): v for k, v in self.pmf.items()} if self.pmf else None
        payload = json.dumps(canonical, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def derive_rng(seed: int, purpose: int, sub: int | None = None) -> np.random.Generator:
    """One documented stream per (seed, purpose); sub splits within a purpose."""
    key = (purpose,) if sub is None else (purpose, sub)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Job:
    """One (n, seed) pair of a run; builds each shared object at most once."""

    cfg: ExperimentConfig
    n: int
    seed: int

    @cached_property
    def degrees(self) -> DegreeSequence:
        if self.cfg.sequence is not None:
            return self.cfg.sequence
        return sample_iid_degrees(self.cfg.law, self.n, derive_rng(self.seed, STREAM_DEGREES))

    @cached_property
    def graph(self) -> HalfEdgeGraph:
        return pair_half_edges(self.degrees, derive_rng(self.seed, STREAM_PAIRING))

    @cached_property
    def components(self) -> ComponentSummary:
        return component_decomposition(self.graph)

    @cached_property
    def giant(self) -> GiantStatistics:
        return giant_statistics(self.components, self.graph.n)


def _largest_two(job: Job) -> dict:
    return {"gmax_frac": job.giant.gmax_frac, "second_frac": job.giant.second_frac}


def _giant(job: Job) -> dict:
    record = {**_largest_two(job), "edge_frac": job.giant.edge_frac}
    for k in job.cfg.law.support:
        record[f"v{k}_frac"] = job.giant.vk_frac.get(k, 0.0)
    return record


def _structure(job: Job) -> dict:
    ss = sum_squares_ratio(job.components, job.cfg.k_values[0], job.graph.n)
    return {**_largest_two(job), "sum_sq_all": ss.all_clusters, "sum_sq_large": ss.large_only}


def _pair_fractions(job: Job) -> dict:
    g, cs = job.graph, job.components
    record = {"gmax_frac": job.giant.gmax_frac}
    for k in job.cfg.k_values:
        record[f"dpf_k{k}"] = disconnected_pair_fraction(cs, k, g.n)
    for r in job.cfg.r_values:
        record[f"bpf_r{r}"] = boundary_pair_fraction(g, cs, r)
    return record


def _necessity_demo(job: Job) -> dict:
    # the graph is the disjoint union of two independent halves
    halves = []
    for i in range(2):
        rng = derive_rng(job.seed, STREAM_DEGREES, i)
        seq = sample_iid_degrees(job.cfg.law, job.n // 2, rng)
        halves.append(pair_half_edges(seq, derive_rng(job.seed, STREAM_PAIRING, i)))
    job.graph = disjoint_union(halves[0], halves[1])
    return _pair_fractions(job)


def _local_conv(job: Job) -> dict:
    cfg = job.cfg
    record = {}
    # largest radius first: its tree test serves the smaller radii
    for r in sorted(cfg.r_values, reverse=True):
        emp = empirical_ball_distribution(job.graph, r)
        bp = bp_ball_distribution(
            cfg.spec, r, cfg.bp_samples, derive_rng(job.seed, STREAM_BP, r)
        )
        record[f"tv_r{r}"] = tv_distance(emp, bp)
    # the giant-restricted radius-0 ball law at the degree-1 ball: a radius-0
    # ball records only its root's degree
    record["giant_deg1_mass"] = job.giant.vk_frac.get(1, 0.0)
    return record


def _m_n(cfg: ExperimentConfig, n: int) -> int:
    return max(1, int(math.floor(n**cfg.m_exponent)))


def _coupling(job: Job) -> dict:
    seq = job.degrees
    m_n = _m_n(job.cfg, job.n)
    rng = derive_rng(job.seed, STREAM_ANALYSIS)
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


def _distances(job: Job) -> dict:
    g = job.graph
    ds = sample_distances(g, job.cfg.pairs, derive_rng(job.seed, STREAM_ANALYSIS))
    # with no connected pair sampled, the distance statistics are NaN
    mean, median = (ds.mean_finite(), ds.median_finite()) if ds.finite_distances else (math.nan, math.nan)
    ref = _distance_ref(job.cfg, g.n)
    return {
        "mean_finite": mean,
        "mean_ratio": mean / ref,
        "median_ratio": median / ref,
        "finite_fraction": ds.finite_fraction,
        "_histogram": sorted(Counter(ds.finite_distances).items()),
    }


def _p2_demo(job: Job) -> dict:
    return {**_largest_two(job), "num_clusters": len(job.components.sizes)}


def _truncation(job: Job) -> dict:
    cfg, seq = job.cfg, job.degrees
    emap = truncate_explode(seq, cfg.b)
    g, gp = coupled_pairing(emap, derive_rng(job.seed, STREAM_PAIRING))
    cs = component_decomposition(g)
    csp = component_decomposition(gp)
    rng = derive_rng(job.seed, STREAM_ANALYSIS)
    u = rng.integers(0, seq.n, size=cfg.pairs)
    v = rng.integers(0, seq.n, size=cfg.pairs)
    violations = int(
        np.sum((csp.labels[u] == csp.labels[v]) & (cs.labels[u] != cs.labels[v]))
    )
    if violations:
        raise InvariantError("connectivity in the truncated graph must imply it originally")
    return {
        "n_exploded": emap.exploded_n - emap.original_n,
        "connectivity_violations": violations,
        "gmax_frac": giant_statistics(cs, g.n).gmax_frac,
        "truncated_gmax_frac": giant_statistics(csp, gp.n).gmax_frac,
    }


def _giant_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    limits = theoretical_giant(cfg.spec)
    cols = {"theory_zeta": limits.zeta, "theory_edge": limits.edge_limit}
    for k in cfg.law.support:
        cols[f"theory_v{k}"] = limits.vk_limit.get(k, 0.0)
    return cols


def _zeta_sq_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    return {"theory_zeta_sq": theoretical_giant(cfg.spec).zeta ** 2}


def _half_zeta_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    return {"theory_half_zeta": theoretical_giant(cfg.spec).zeta / 2.0}


def _giant_deg1_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    return {"theory_giant_deg1": theoretical_giant(cfg.spec).vk_limit.get(1, 0.0)}


def _coupling_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    root = cfg.spec.root_pmf
    bounds = reuse_bounds(n * root.mean(), max(root.support), _m_n(cfg, n))
    return {"theory_he_bound": bounds.half_edge, "theory_vertex_bound": bounds.vertex}


def _distance_ref(cfg: ExperimentConfig, n: int) -> float:
    """log n / log nu, the scale that typical distances grow on."""
    return math.log(n) / math.log(cfg.spec.nu)


def _distances_theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    return {"theory_ref": _distance_ref(cfg, n), **_zeta_sq_theory(cfg, n)}


def _write_histograms(cfg: ExperimentConfig, rows: list, written: list[str]) -> None:
    nu = cfg.spec.nu
    for n, seed, record in rows:
        path = os.path.join(cfg.out_dir, f"distances_hist_n{n}_seed{seed}.csv")
        written.append(path)
        with open(path, "w", newline="") as fh:
            fh.write(f"# n={n} nu={nu} seed={seed}\n")
            writer = csv.writer(fh)
            writer.writerow(["distance", "count"])
            writer.writerows([str(d), str(c)] for d, c in record["_histogram"])


def _field(cfg: ExperimentConfig, name: str) -> str:
    """The config field that set a value: name, or the sequence file that
    sets both the degree law and the size."""
    return repr(name) if cfg.sequence_path is None else "'sequence_path'"


def _non_degenerate(cfg: ExperimentConfig) -> str | None:
    if cfg.spec is None:
        return f"field {_field(cfg, 'pmf')}: {cfg.experiment} needs a non-degenerate degree law"
    return None


def _distance_scale(cfg: ExperimentConfig) -> str | None:
    # the reference log(n) / log(nu) needs nu > 1 and n >= 3
    if cfg.spec is None or cfg.spec.nu <= 1.0:
        return f"field {_field(cfg, 'pmf')}: distances needs a supercritical degree law"
    if min(cfg.sizes) < 3:
        return f"field {_field(cfg, 'n')}: distances needs n >= 3"
    return None


def _one_k(cfg: ExperimentConfig) -> str | None:
    if len(cfg.k_values) > 1:
        return "field 'k': structure reads a single k"
    return None


def _two_halves(cfg: ExperimentConfig) -> str | None:
    if cfg.sequence is not None:
        return "field 'sequence_path': necessity_demo samples its two halves from 'pmf'"
    if min(cfg.sizes) < 2:
        return "field 'n': necessity_demo needs n >= 2 to split in half"
    return None


@dataclass(frozen=True)
class Experiment:
    """One registry entry.

    record(job) returns one (n, seed) record; keys starting with "_" stay
    out of results.jsonl and summary.csv. theory(cfg, n) runs only when the
    law has an offspring spec. extra_files(cfg, rows, written) appends each
    path to written before opening it. requires(cfg) returns a message
    naming the offending field, or None.
    """

    record: Callable[[Job], dict]
    theory: Callable[[ExperimentConfig, int], dict[str, float]] | None = None
    extra_files: Callable[[ExperimentConfig, list, list[str]], None] | None = None
    requires: Callable[[ExperimentConfig], str | None] | None = None


REGISTRY = {
    "giant": Experiment(_giant, _giant_theory),
    "structure": Experiment(_structure, _zeta_sq_theory, requires=_one_k),
    "almost_local": Experiment(_pair_fractions),
    "necessity_demo": Experiment(_necessity_demo, _half_zeta_theory, requires=_two_halves),
    "local_conv": Experiment(_local_conv, _giant_deg1_theory, requires=_non_degenerate),
    "coupling": Experiment(_coupling, _coupling_theory),
    "distances": Experiment(
        _distances, _distances_theory, _write_histograms, requires=_distance_scale
    ),
    "p2_demo": Experiment(_p2_demo),
    "truncation": Experiment(_truncation),
}

EXPERIMENTS = tuple(REGISTRY)

_KNOWN_KEYS = {_CONFIG_KEY.get(f.name, f.name) for f in fields(ExperimentConfig) if f.compare}

_DEFAULT_PMF = {1: 0.5, 3: 0.5}


def _distinct(values: tuple[int, ...], name: str) -> tuple[int, ...]:
    # a repeated n or seed would run one graph twice and count it as two seeds
    if len(set(values)) < len(values):
        raise ConfigError(f"field {name!r}: entries must be distinct, got {list(values)}")
    return values


def _parse_seeds(value) -> tuple[int, ...]:
    if isinstance(value, bool):
        raise ConfigError("field 'seeds': expected an integer count or a list")
    if isinstance(value, int):
        if value < 1:
            raise ConfigError("field 'seeds': count must be at least 1")
        return tuple(range(value))
    if isinstance(value, list) and value and all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in value
    ):
        return _distinct(tuple(value), "seeds")
    raise ConfigError(
        "field 'seeds': expected an integer count or a list of non-negative integers"
    )


def _is_integral(value) -> bool:
    """An int, or a float with an integer value; never a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _parse_int_list(value, name: str) -> tuple[int, ...]:
    if isinstance(value, list) and value and all(
        _is_integral(s) and s >= 1 for s in value
    ):
        return _distinct(tuple(int(s) for s in value), name)
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


def _parse_out_dir(data: dict) -> str:
    value = data.get("out_dir", "cmgiant_out")
    if not isinstance(value, str) or not value:
        raise ConfigError(f"field 'out_dir': expected a non-empty path, got {value!r}")
    return value


def _parse_law(
    data: dict, experiment: str, source: str
) -> tuple[dict[int, float] | None, Pmf, DegreeSequence | None, OffspringSpec | None]:
    """The parsed pmf field (None for a sequence file), the degree law it
    sets, the loaded sequence (or None) and the law's offspring spec."""
    sequence_path = data.get("sequence_path")
    if sequence_path is not None:
        if "pmf" in data:
            raise ConfigError(f"{source}: field 'pmf' cannot be set with 'sequence_path'")
        if not isinstance(sequence_path, str):
            raise ConfigError(f"{source}: field 'sequence_path' must be a string")
        if not os.path.exists(sequence_path):
            raise ConfigError(
                f"{source}: field 'sequence_path': no such file {sequence_path!r}"
            )
        name, raw_pmf = "sequence_path", None
    else:
        fallback = {2: 1.0} if experiment == "p2_demo" else _DEFAULT_PMF
        raw_pmf = data.get("pmf", fallback)
        if not isinstance(raw_pmf, dict) or not raw_pmf:
            raise ConfigError(f"{source}: field 'pmf' must be a non-empty object")
        name = "pmf"
    try:
        if raw_pmf is None:
            pmf, sequence = None, DegreeSequence.load(sequence_path)
            dist = empirical_distribution(sequence)
        else:
            pmf, sequence = {int(k): float(v) for k, v in raw_pmf.items()}, None
            if list(map(str, pmf)) != list(map(str, raw_pmf)):  # also when two keys name one degree
                raise ValueError(f"keys must be distinct integers spelled plainly, got {list(raw_pmf)}")
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw_pmf.values()):
                raise ValueError(f"masses must be numbers, got {list(raw_pmf.values())}")
            dist = Pmf.from_dict(pmf)
        try:
            spec = build_offspring_spec(dist)
        except DegenerateDegreeTwoError:
            spec = None
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: field {name!r}: {exc}") from exc
    return pmf, dist, sequence, spec


def config_from_dict(data: dict, source: str = "<config>") -> ExperimentConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown fields {sorted(unknown)}")
    experiment = data.get("experiment")
    if experiment not in REGISTRY:
        raise ConfigError(
            f"{source}: field 'experiment' must be one of {', '.join(EXPERIMENTS)}"
        )
    pmf, law, sequence, spec = _parse_law(data, experiment, source)
    if sequence is not None:
        sizes = (sequence.n,)
    else:
        sizes = _parse_int_list(data.get("n", [10000]), "n")
    cfg = ExperimentConfig(
        experiment=experiment,
        pmf=pmf,
        sequence_path=data.get("sequence_path"),
        sizes=sizes,
        seeds=_parse_seeds(data.get("seeds", 5)),
        k_values=_parse_int_list(data.get("k", [50]), "k"),
        r_values=_parse_int_list(data.get("r", [2]), "r"),
        b=_parse_int(data, "b", 2),
        m_exponent=_parse_float(data, "m_exponent", 0.4),
        pairs=_parse_int(data, "pairs", 1000),
        bp_samples=_parse_int(data, "bp_samples", 100000),
        out_dir=_parse_out_dir(data),
        law=law,
        sequence=sequence,
        spec=spec,
    )
    if not 0 < cfg.m_exponent <= 1:
        raise ConfigError(f"{source}: field 'm_exponent' must lie in (0, 1]")
    requires = REGISTRY[experiment].requires
    problem = requires(cfg) if requires else None
    if problem:
        raise ConfigError(f"{source}: {problem}")
    return cfg


def load_config(path: str) -> dict:
    """The JSON object in a config file; config_from_dict validates it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def _worker(args: tuple) -> tuple[int, int, dict]:
    cfg, n, seed = args
    return n, seed, REGISTRY[cfg.experiment].record(Job(cfg, n, seed))


def _theory(cfg: ExperimentConfig, n: int) -> dict[str, float]:
    theory = REGISTRY[cfg.experiment].theory
    if theory is None or cfg.spec is None:
        return {}
    return theory(cfg, n)


def _write_summary(path: str, cfg: ExperimentConfig, rows: list[tuple[int, int, dict]]) -> None:
    by_n: dict[int, list[dict]] = {}
    for n, _, record in rows:
        by_n.setdefault(n, []).append(record)
    metric_names = sorted(
        name
        for name in rows[0][2]
        if not name.startswith("_") and isinstance(rows[0][2][name], (int, float))
    )
    theories = {n: _theory(cfg, n) for n in by_n}
    theory_names = sorted(theories[cfg.sizes[0]])
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
                # a seed with nothing to measure (NaN) drops out, unless all do
                finite = values[np.isfinite(values)]
                if finite.size:
                    values = finite
                mean = float(values.mean())
                std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
                row += [repr(mean), repr(std)]
            row += [str(theories[n][name]) for name in theory_names]
            writer.writerow(row)


def emit_manifest(cfg: ExperimentConfig, path: str) -> None:
    manifest = {
        "config_sha256": cfg.sha256(),
        "experiment": cfg.experiment,
        "library_version": __version__,
        "n_values": list(cfg.sizes),
        "seeds": list(cfg.seeds),
        "offspring_spec": None if cfg.spec is None else json.loads(cfg.spec.to_json()),
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
    jobs = [(cfg, n, seed) for n in cfg.sizes for seed in cfg.seeds]
    # the pool forks all its workers at once, so it never gets more than jobs
    workers = min(threads, len(jobs))
    try:
        if workers > 1:
            # imported here: a one-worker run needs none of multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
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

        extra_files = REGISTRY[cfg.experiment].extra_files
        if extra_files is not None:
            extra_files(cfg, rows, written)

        summary_path = os.path.join(cfg.out_dir, "summary.csv")
        written.append(summary_path)
        _write_summary(summary_path, cfg, rows)

        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        written.append(manifest_path)
        emit_manifest(cfg, manifest_path)
    except Exception as exc:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        if not isinstance(exc, InvariantError):
            raise
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
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

    # the subcommand supplies the experiment; the config file need not repeat it
    try:
        data = load_config(args.config) if args.config else {}
        cfg = config_from_dict(_apply_overrides(data, args), source=args.config or "<config>")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # a path that names a file, or runs through one, is a bad field too
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: field 'out_dir': {exc}", file=sys.stderr)
        return 2

    code = run_experiment(cfg, threads=max(1, args.threads))
    if code == 0:
        print(os.path.join(cfg.out_dir, "summary.csv"))
    return code


if __name__ == "__main__":
    sys.exit(main())
