"""Command-line front end.

Verbs: simulate, cepstrum, distance, distmat, classify, verify, cluster.
Every verb reads the same layered configuration (defaults, config file,
CEPDIST_* environment, flags), writes deterministic output (canonical JSON
or fixed-format CSV), and maps failures to the exit-code contract:
0 success, 2 invalid input, 3 tolerance failure, 4 phase-gate refusal.
A verb's handler returns its exit code and its outputs; ``main`` writes
them all through ``_emit``.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import ExitStack
from functools import partial

import numpy as np

from . import parallel
from .cluster import (
    METRIC_ALIASES,
    METRICS,
    DistanceMatrix,
    agglomerative_cluster,
    check_collection,
    collection_features,
    distance_matrix_from_features,
    output_signal,
    pair_report,
    resolve_metric,
)
from .config import CONFIG_KEYS, LINKAGES, RunConfig, load_config
from .errors import (
    CepdistError,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    UnstableSimulation,
    ValidationError,
    naming,
)
from .lti import (
    EPS_CIRCLE,
    Signal,
    StateSpaceModel,
    ZeroPoleGain,
    check_pair,
    roots_from_state_space,
    simulate,
    spectral_radius,
    state_space_from_roots,
)
from .parallel import map_runs
from .phase import classify_from_io, classify_from_model
from .sigio import (
    PAIR_CSV_HEADER,
    canonical_json,
    format_cepstrum_csv,
    format_matrix_csv,
    pair_csv_rows,
    read_model_json,
    read_signal_csv,
    report,
)
from .spectral import (
    complex_cepstrum,
    complex_cepstrum_from_zpk,
    power_cepstrum_from_zpk,
    transfer_complex_cepstrum_from_io,
)
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


def _emit(*outputs: tuple[str | None, list[str]]) -> None:
    """Write each output's parts in order to its file, or to stdout for a
    path of None. Every file is opened, in order, without truncating it;
    only once all are open are the regular files among them emptied, so a
    file that fails to open leaves every file as it was. Other files, such
    as /dev/null, which cannot be truncated, are written as they are."""
    with ExitStack() as stack:
        # A file name that is not UTF-8 reaches a record id as lone
        # surrogates; the file gets the bytes they stand for.
        handles = [
            sys.stdout if path is None else stack.enter_context(
                open(path, "a", encoding="utf-8", errors="surrogateescape", newline="")
            )
            for path, _ in outputs
        ]
        for fh in handles:
            if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
        for fh, (_, parts) in zip(handles, outputs):
            fh.writelines(parts)


def _read_record(path: str, paired: bool) -> Signal | tuple[Signal, Signal]:
    """The record of a signal file, which must be a t,u,y pair if ``paired``
    and a t,value signal if not."""
    record = read_signal_csv(path)
    if isinstance(record, tuple) != paired:
        expected = "a t,u,y pair" if paired else "a t,value signal"
        with naming(path):
            raise ValidationError(f"expected {expected} file")
    return record


def _read_features(paths: list[str], metric: str, config: RunConfig) -> tuple[list, list, list]:
    """Whether each file holds a pair, its sample period, and its record's
    features under ``metric`` (``collection_features``), whatever the
    collection: ``check_collection`` rules on the whole collection after."""
    records = [read_signal_csv(path) for path in paths]
    paired = [isinstance(record, tuple) for record in records]
    periods = [output_signal(record).sample_period for record in records]
    return paired, periods, collection_features(records, metric, config)


def _raise_refusal(paths: list[str], features: list) -> None:
    """Raise the first record refusal among the features, with the name of
    its file."""
    for path, feature in zip(paths, features):
        if isinstance(feature, CepdistError):
            with naming(path):
                raise feature


def _read_roots(path: str) -> ZeroPoleGain:
    """The roots of a model file; a state-space model's refusal names the
    file, as ``read_model_json``'s refusals do."""
    model = read_model_json(path)
    if isinstance(model, ZeroPoleGain):
        return model
    with naming(path):
        return roots_from_state_space(model)


def cmd_simulate(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
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
        u = _read_record(args.input, paired=False)
    y = simulate(state_space, u)
    # One contiguous range of rows per worker process. The output is opened
    # only once every range is formatted, so a failure writes nothing.
    parts = map_runs(lambda rows: pair_csv_rows(u, y, rows.start, rows.stop),
                     range(len(u)), len(u), parallel.FORK_MIN_ROWS)
    return 0, [(args.output, [PAIR_CSV_HEADER, *parts])]


def cmd_cepstrum(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    if (args.signal is None) == (args.model is None):
        raise ValidationError("give exactly one of a signal file or --model")
    if args.model is not None:
        zpk = _read_roots(args.model)
        if args.kind == "power":
            cepstrum = power_cepstrum_from_zpk(zpk, config.K)
        else:
            cepstrum = complex_cepstrum_from_zpk(zpk, config.K)
    elif args.kind == "power":
        _, _, features = _read_features([args.signal], "cepstral", config)
        _raise_refusal([args.signal], features)
        (cepstrum,) = features
    else:
        record = read_signal_csv(args.signal)
        with naming(args.signal):
            if isinstance(record, tuple):
                cepstrum = transfer_complex_cepstrum_from_io(*record, config)
            else:
                cepstrum = complex_cepstrum(record, config.fft_length, config.K)
    # Cepstra are emitted as tidy lag/value CSV, the plotting format.
    return 0, [(args.output, [format_cepstrum_csv(cepstrum)])]


def cmd_distance(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    metric = resolve_metric(args.metric)
    paths = [args.file_a, args.file_b]
    paired, periods, features = _read_features(paths, metric, config)
    check_collection(paired, periods, paths, metric)
    _raise_refusal(paths, features)
    return 0, [(args.output, [canonical_json(report("distance", {
        "metric": metric,
        "inputs": [os.path.basename(path) for path in paths],
        **pair_report(metric, *features),
    }))])]


def _collection_matrix(paths: list[str], metric: str, config: RunConfig) -> DistanceMatrix:
    """The distance matrix of the signal files, or of the files in a directory.

    The files are read and featurized in contiguous chunks, one per worker
    process (``parallel.map_runs``, sized by the files' total bytes), each
    chunk by ``_read_features``; an item's features do not depend on its
    chunk, and a refusal is the one a single process would raise first.
    """
    metric = resolve_metric(metric)
    if len(paths) == 1 and os.path.isdir(paths[0]):
        base = paths[0]
        names = sorted(n for n in os.listdir(base) if n.lower().endswith(".csv"))
        paths = [os.path.join(base, n) for n in names]
    if len(paths) < 2:
        raise ValidationError("need at least two signal files (or a directory containing them)")
    ids = tuple(os.path.splitext(os.path.basename(path))[0] for path in paths)
    try:
        size = sum(os.stat(path).st_size for path in paths)
    except OSError:
        size = 0  # reading the file names the error
    chunks = map_runs(partial(_read_features, metric=metric, config=config), paths, size,
                      parallel.FORK_MIN_BYTES)
    if len(set(ids)) != len(ids):
        raise ValidationError("signal file names must be unique after dropping directories")
    paired, periods, features = ([x for part in parts for x in part] for parts in zip(*chunks))
    check_collection(paired, periods, ids, metric)
    return distance_matrix_from_features(features, metric, ids)


def cmd_distmat(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    matrix = _collection_matrix(args.paths, args.metric, config)
    for id_a, id_b, reason in matrix.failures:
        print(f"warning: {id_a} vs {id_b}: {reason}", file=sys.stderr)
    if config.output_format == "json":
        text = canonical_json(report("distmat", {
            "metric": matrix.metric,
            "ids": list(matrix.ids),
            "values": matrix.values,
            "failures": [list(f) for f in matrix.failures],
        }))
    else:
        text = format_matrix_csv(matrix.ids, matrix.values)
    return 0, [(args.output, [text])]


def cmd_cluster(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    paths = [path for path in (args.output, args.matrix_out) if path is not None]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValidationError(f"-o and --matrix-out name the same file: {args.output}")
    matrix = _collection_matrix(args.paths, args.metric, config)
    result = agglomerative_cluster(matrix, args.k, args.linkage)
    clusters = report("cluster", {
        "metric": matrix.metric,
        "linkage": result.linkage,
        "k": args.k,
        "ids": list(matrix.ids),
        "labels": list(result.labels),
        "merge_heights": list(result.merge_heights),
        "excluded": [name for name, label in zip(matrix.ids, result.labels) if label < 0],
        "failures": [list(f) for f in matrix.failures],
    })
    outputs = [(args.output, [canonical_json(clusters)])]
    if args.matrix_out is not None:
        outputs.append((args.matrix_out, [format_matrix_csv(matrix.ids, matrix.values)]))
    return 0, outputs


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    sources = [bool(args.files), args.model is not None]
    if sum(sources) != 1:
        raise ValidationError("give either signal file(s) or --model")
    if args.model is not None:
        verdict = classify_from_model(_read_roots(args.model), config)
        origin = os.path.basename(args.model)
    elif len(args.files) in (1, 2):
        if len(args.files) == 1:
            u, y = _read_record(args.files[0], paired=True)
        else:
            u, y = (_read_record(path, paired=False) for path in args.files)
            check_pair(u, y)  # pairing two files is part of reading them
        with naming(",".join(args.files)):
            verdict = classify_from_io(u, y, config)
        origin = ",".join(os.path.basename(path) for path in args.files)
    else:
        raise ValidationError("classify takes one pair file or two single-signal files")
    return 0, [(args.output, [canonical_json(report("classify", {
        "input": origin,
        "verdict": verdict.kind,
        "positive_energy": verdict.positive_energy,
        "negative_energy": verdict.negative_energy,
        "order_tested": verdict.order_tested,
        "tolerance": verdict.tolerance,
    }))])]


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> tuple[int, list]:
    cases = None if args.case == "all" else (args.case,)
    checks = run_verify(config, cases)
    for case in checks["cases"]:
        for check in case["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            if "bound" in check:
                detail = f"value={check['value']:.3e} bound={check['bound']:.3e}"
            else:
                detail = f"value={check['value']} expected={check['expected']}"
            print(f"{status} {case['case']}.{check['name']} {detail}", file=sys.stderr)
    code = 0 if checks["pass"] else EXIT_TOLERANCE
    return code, [(args.output, [canonical_json(checks)])]


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

    metric_choices = sorted(set(METRICS) | set(METRIC_ALIASES))

    def _collection(name: str, help_text: str):
        sub = _add(name, help_text)
        sub.add_argument("paths", nargs="+", metavar="PATH", help="signal files, or one directory")
        sub.add_argument("--metric", default="cepstral", choices=metric_choices)
        return sub

    dist = _add("distance", "distance between two signal files under one metric")
    dist.add_argument("file_a", metavar="FILE_A")
    dist.add_argument("file_b", metavar="FILE_B")
    dist.add_argument("--metric", default="cepstral", choices=metric_choices)
    dist.set_defaults(handler=cmd_distance)

    dm = _collection("distmat", "pairwise distance matrix over a collection of signal files")
    dm.set_defaults(handler=cmd_distmat)

    clu = _collection("cluster", "distance matrix plus agglomerative clustering")
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
        code, outputs = args.handler(args, config)
        _emit(*outputs)
        return code
    except (CepdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CepdistError) else EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())
