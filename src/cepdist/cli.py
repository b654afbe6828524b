"""Command-line front end.

Verbs: simulate, cepstrum, distance, distmat, classify, verify, cluster.
Every verb reads the same layered configuration (defaults, config file,
CEPDIST_* environment, flags), writes deterministic output (canonical JSON
or fixed-format CSV), and maps failures to the exit-code contract:
0 success, 2 invalid input, 3 tolerance failure, 4 phase-gate refusal.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .cluster import (
    METRIC_ALIASES,
    METRICS,
    agglomerative_cluster,
    distance_matrix,
    item_features,
)
from .config import CONFIG_KEYS, LINKAGES, RunConfig, load_config
from .errors import (
    CepdistError,
    EXIT_TOLERANCE,
    MixedPhaseUnsupported,
    UnstableSimulation,
    ValidationError,
)
from .lti import (
    EPS_CIRCLE,
    Signal,
    StateSpaceModel,
    roots_from_state_space,
    simulate,
    spectral_radius,
    state_space_from_roots,
)
from .metrics import (
    cosine_similarity,
    euclidean_distance,
    weighted_cepstral_distance,
)
from .phase import classify_from_io, classify_from_model
from .sigio import (
    canonical_json,
    format_cepstrum_csv,
    format_matrix_csv,
    format_pair_csv,
    read_model_json,
    read_signal_csv,
)
from .spectral import (
    complex_cepstrum,
    complex_cepstrum_from_zpk,
    power_cepstrum_from_zpk,
    transfer_complex_cepstrum_from_io,
)
from .subspace import subspace_distance_from_bases
from .verify import CASES, run_verify

GENERATED_INPUTS = ("white", "impulse", "step")


def _config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE", help="key = value configuration file")
    for key in CONFIG_KEYS:
        group.add_argument(
            f"--{key.replace('_', '-')}",
            dest=f"cfg_{key}",
            metavar="VALUE",
            help=f"override configuration key {key}",
        )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for key in CONFIG_KEYS:
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            overrides[key] = value
    return load_config(path=args.config, overrides=overrides)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_pair(path: str) -> tuple[Signal, Signal]:
    kind, payload = read_signal_csv(path)
    if kind != "pair":
        raise ValidationError(f"{path}: expected a t,u,y pair file")
    return payload


def _read_single(path: str) -> Signal:
    kind, payload = read_signal_csv(path)
    if kind != "single":
        raise ValidationError(f"{path}: expected a t,value signal file")
    return payload


def cmd_simulate(args: argparse.Namespace, config: RunConfig) -> int:
    model = read_model_json(args.model)
    state_space = model if isinstance(model, StateSpaceModel) else state_space_from_roots(model)
    if spectral_radius(state_space) >= 1.0 - EPS_CIRCLE:
        raise UnstableSimulation(
            "model has a pole on or outside the unit circle; time-domain simulation "
            "would diverge. Work from frequency-domain samples instead "
            "(cepstrum --model, or the verify max-phase case)."
        )
    if args.input in GENERATED_INPUTS:
        n = args.length
        if n < 1:
            raise ValidationError(f"length must be positive, got {n}")
        if args.input == "white":
            samples = np.random.default_rng(config.seed).standard_normal(n)
        elif args.input == "impulse":
            samples = np.zeros(n)
            samples[0] = 1.0
        else:
            samples = np.ones(n)
        u = Signal(samples)
    else:
        u = _read_single(args.input)
    y = simulate(state_space, u)
    _emit(format_pair_csv(u, y), args.output)
    return 0


def cmd_cepstrum(args: argparse.Namespace, config: RunConfig) -> int:
    if (args.signal is None) == (args.model is None):
        raise ValidationError("give exactly one of a signal file or --model")
    if args.model is not None:
        model = read_model_json(args.model)
        zpk = roots_from_state_space(model) if isinstance(model, StateSpaceModel) else model
        if args.kind == "power":
            cepstrum = power_cepstrum_from_zpk(zpk, config.K)
        else:
            cepstrum = complex_cepstrum_from_zpk(zpk, config.K)
    else:
        kind, payload = read_signal_csv(args.signal)
        if args.kind == "power":
            cepstrum = item_features(payload, "cepstral", config)
        elif kind == "pair":
            u, y = payload
            cepstrum = transfer_complex_cepstrum_from_io(u, y, config.K, config.fft_length)
        else:
            cepstrum = complex_cepstrum(payload, config.fft_length, config.K)
    # Cepstra are emitted as tidy lag/value CSV, the plotting format.
    _emit(format_cepstrum_csv(cepstrum), args.output)
    return 0


def _distance_report(path_a: str, path_b: str, metric: str, config: RunConfig) -> dict:
    metric = METRIC_ALIASES.get(metric, metric)
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    kind_a, payload_a = read_signal_csv(path_a)
    kind_b, payload_b = read_signal_csv(path_b)
    report = {
        "schema_version": 1,
        "command": "distance",
        "metric": metric,
        "inputs": [os.path.basename(path_a), os.path.basename(path_b)],
    }
    if metric == "subspace" and (kind_a != "pair" or kind_b != "pair"):
        raise ValidationError("the subspace metric needs t,u,y pair files")
    feats = []
    for path, payload in ((path_a, payload_a), (path_b, payload_b)):
        try:
            feats.append(item_features(payload, metric, config))
        except MixedPhaseUnsupported as exc:
            raise MixedPhaseUnsupported(f"{path}: {exc}") from None

    if metric == "cepstral":
        result = weighted_cepstral_distance(feats[0], feats[1])
        report.update(value=result.value, order=result.order, tail_bound=result.tail_bound)
    elif metric == "euclidean":
        report["value"] = euclidean_distance(feats[0], feats[1])
    elif metric == "cosine":
        similarity = cosine_similarity(feats[0], feats[1])
        report.update(value=1.0 - similarity, similarity=similarity)
    else:
        report["value"] = subspace_distance_from_bases(feats[0], feats[1])
    return report


def cmd_distance(args: argparse.Namespace, config: RunConfig) -> int:
    report = _distance_report(args.file_a, args.file_b, args.metric, config)
    _emit(canonical_json(report), args.output)
    return 0


def _load_collection(paths: list[str]) -> tuple[list, tuple[str, ...]]:
    if len(paths) == 1 and os.path.isdir(paths[0]):
        base = paths[0]
        names = sorted(n for n in os.listdir(base) if n.lower().endswith(".csv"))
        paths = [os.path.join(base, n) for n in names]
    if len(paths) < 2:
        raise ValidationError("need at least two signal files (or a directory containing them)")
    items = []
    ids = []
    for path in paths:
        _, payload = read_signal_csv(path)
        items.append(payload)
        ids.append(os.path.splitext(os.path.basename(path))[0])
    if len(set(ids)) != len(ids):
        raise ValidationError("signal file names must be unique after dropping directories")
    return items, tuple(ids)


def cmd_distmat(args: argparse.Namespace, config: RunConfig) -> int:
    items, ids = _load_collection(args.paths)
    matrix = distance_matrix(items, args.metric, config, ids)
    for id_a, id_b, reason in matrix.failures:
        print(f"warning: {id_a} vs {id_b}: {reason}", file=sys.stderr)
    if config.output_format == "json":
        report = {
            "schema_version": 1,
            "command": "distmat",
            "metric": matrix.metric,
            "ids": list(matrix.ids),
            "values": matrix.values,
            "failures": [list(f) for f in matrix.failures],
        }
        _emit(canonical_json(report), args.output)
    else:
        _emit(format_matrix_csv(matrix.ids, matrix.values), args.output)
    return 0


def cmd_cluster(args: argparse.Namespace, config: RunConfig) -> int:
    items, ids = _load_collection(args.paths)
    matrix = distance_matrix(items, args.metric, config, ids)
    result = agglomerative_cluster(matrix, args.k, args.linkage)
    if args.matrix_out:
        _emit(format_matrix_csv(matrix.ids, matrix.values), args.matrix_out)
    report = {
        "schema_version": 1,
        "command": "cluster",
        "metric": matrix.metric,
        "linkage": result.linkage,
        "k": args.k,
        "ids": list(matrix.ids),
        "labels": list(result.labels),
        "merge_heights": list(result.merge_heights),
        "excluded": [name for name, label in zip(matrix.ids, result.labels) if label < 0],
        "failures": [list(f) for f in matrix.failures],
    }
    _emit(canonical_json(report), args.output)
    return 0


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> int:
    sources = [bool(args.files), args.model is not None]
    if sum(sources) != 1:
        raise ValidationError("give either signal file(s) or --model")
    if args.model is not None:
        verdict = classify_from_model(read_model_json(args.model), config)
        origin = os.path.basename(args.model)
    elif len(args.files) == 1:
        u, y = _read_pair(args.files[0])
        verdict = classify_from_io(u, y, config)
        origin = os.path.basename(args.files[0])
    elif len(args.files) == 2:
        u = _read_single(args.files[0])
        y = _read_single(args.files[1])
        verdict = classify_from_io(u, y, config)
        origin = f"{os.path.basename(args.files[0])},{os.path.basename(args.files[1])}"
    else:
        raise ValidationError("classify takes one pair file or two single-signal files")
    report = {
        "schema_version": 1,
        "command": "classify",
        "input": origin,
        "verdict": verdict.kind,
        "positive_energy": verdict.positive_energy,
        "negative_energy": verdict.negative_energy,
        "order_tested": verdict.order_tested,
        "tolerance": verdict.tolerance,
    }
    _emit(canonical_json(report), args.output)
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    cases = None if args.case == "all" else (args.case,)
    report = run_verify(config, cases)
    for case in report["cases"]:
        for check in case["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            if "bound" in check:
                detail = f"value={check['value']:.3e} bound={check['bound']:.3e}"
            else:
                detail = f"value={check['value']} expected={check['expected']}"
            print(f"{status} {case['case']}.{check['name']} {detail}", file=sys.stderr)
    _emit(canonical_json(report), args.output)
    return 0 if report["pass"] else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cepdist",
        description="Dynamics-aware distances between time series via weighted cepstra, "
        "subspace angles, and phase classification.",
    )
    subparsers = parser.add_subparsers(dest="verb", required=True)

    def _add(name: str, help_text: str):
        sub = subparsers.add_parser(name, help=help_text)
        _config_flags(sub)
        sub.add_argument("-o", "--output", metavar="FILE", help="write output here instead of stdout")
        return sub

    sim = _add("simulate", "simulate a model over a generated or stored input")
    sim.add_argument("--model", required=True, metavar="FILE", help="model JSON file")
    sim.add_argument(
        "--input",
        default="white",
        metavar="KIND|FILE",
        help="white, impulse, step, or a t,value CSV file",
    )
    sim.add_argument("--length", type=int, default=4096, help="length of generated inputs")
    sim.set_defaults(handler=cmd_simulate)

    cep = _add("cepstrum", "cepstrum of a signal, an i/o pair, or a model")
    cep.add_argument("signal", nargs="?", metavar="FILE", help="t,value or t,u,y CSV file")
    cep.add_argument("--model", metavar="FILE", help="model JSON file instead of a signal")
    cep.add_argument("--kind", choices=("power", "complex"), default="power")
    cep.set_defaults(handler=cmd_cepstrum)

    dist = _add("distance", "distance between two signal files under one metric")
    dist.add_argument("file_a", metavar="FILE_A")
    dist.add_argument("file_b", metavar="FILE_B")
    dist.add_argument(
        "--metric",
        default="cepstral",
        choices=sorted(set(METRICS) | set(METRIC_ALIASES)),
    )
    dist.set_defaults(handler=cmd_distance)

    dm = _add("distmat", "pairwise distance matrix over a collection of signal files")
    dm.add_argument("paths", nargs="+", metavar="PATH", help="signal files, or one directory")
    dm.add_argument(
        "--metric", default="cepstral", choices=sorted(set(METRICS) | set(METRIC_ALIASES))
    )
    dm.set_defaults(handler=cmd_distmat)

    clu = _add("cluster", "distance matrix plus agglomerative clustering")
    clu.add_argument("paths", nargs="+", metavar="PATH", help="signal files, or one directory")
    clu.add_argument(
        "--metric", default="cepstral", choices=sorted(set(METRICS) | set(METRIC_ALIASES))
    )
    clu.add_argument("--k", type=int, required=True, help="number of clusters")
    clu.add_argument("--linkage", default="average", choices=LINKAGES)
    clu.add_argument("--matrix-out", metavar="FILE", help="also write the matrix CSV here")
    clu.set_defaults(handler=cmd_cluster)

    cls = _add("classify", "phase-type verdict for a record or model")
    cls.add_argument(
        "files", nargs="*", metavar="FILE", help="one t,u,y pair file or two t,value files (u y)"
    )
    cls.add_argument("--model", metavar="FILE", help="model JSON file instead of signals")
    cls.set_defaults(handler=cmd_classify)

    ver = _add("verify", "run the built-in equivalence checks")
    ver.add_argument("--case", default="all", choices=("all", *CASES))
    ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.handler(args, config)
    except CepdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
