"""Seeded inputs, closed-form references and output checks for each workload.

Everything here is NumPy only and shares no code with cepdist: records are
made by convolving white noise with impulse responses computed from the
roots by partial fractions, and distances are checked against the closed
form over folded roots. A fault in the program cannot hide in a reference
that the program computed itself.

The generators share no roots and every record of a workload is noise-free
and of one length. Shared roots, output noise and unequal lengths each
trigger a known fault of the program (listed in CHANGES.md); the workloads
measure speed, so they stay clear of those faults instead of failing on them.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

# Stated accuracy of the estimated cepstral route: the default
# ``tol_estimated`` of cepdist's RunConfig, its tolerance for estimated cepstra.
TOL_ESTIMATED = 5e-2
# Stated accuracy of the data subspace route: ``tol_model``, the relative
# bound the program's own ``verify min-phase`` case holds that route to.
TOL_MODEL = 1e-3
# "Well below": every within-generator distance is at most this share of
# the smallest between-generator distance.
WELL_BELOW = 0.1


def conjugate_pair(radius: float, angle: float) -> list[complex]:
    return [complex(radius * np.cos(angle), radius * np.sin(angle)),
            complex(radius * np.cos(angle), -radius * np.sin(angle))]


@dataclass(frozen=True)
class Generator:
    """A stable root-form model H(z) = gain * prod(1 - z_j/z) / prod(1 - p_i/z)."""

    poles: tuple[complex, ...]
    zeros: tuple[complex, ...]
    gain: float = 1.0

    def to_json(self) -> str:
        def roots(rs):
            return [[r.real, r.imag] for r in rs]

        return json.dumps({"poles": roots(self.poles), "zeros": roots(self.zeros),
                           "gain": self.gain})


# Second-order, biproper, minimum-phase generators with pairwise distinct roots.
GENERATORS = (
    Generator(tuple(conjugate_pair(0.80, 0.60)), (0.50, -0.30)),
    Generator(tuple(conjugate_pair(0.70, 1.60)), (-0.60, 0.20)),
    Generator((0.75, -0.55), tuple(conjugate_pair(0.40, 2.20))),
    Generator(tuple(conjugate_pair(0.60, 2.60)), tuple(conjugate_pair(0.70, 0.90))),
    Generator(tuple(conjugate_pair(0.65, 1.70)), tuple(conjugate_pair(0.70, 0.20))),
)

# The stable 8th-order model of the simulate workload.
SIMULATE_MODEL = Generator(
    tuple(conjugate_pair(0.92, 0.30) + conjugate_pair(0.85, 1.10)
          + conjugate_pair(0.75, 1.90) + conjugate_pair(0.65, 2.70)),
    (0.50, -0.45) + tuple(conjugate_pair(0.60, 2.00)),
    0.8,
)


def fold(roots) -> np.ndarray:
    """Roots reflected into the unit disc: r outside maps to 1/conj(r)."""
    arr = np.asarray(roots, dtype=complex)
    outside = np.abs(arr) > 1.0
    arr[outside] = 1.0 / np.conj(arr[outside])
    return arr


def log_sum(a, b) -> float:
    """Sum over all pairs of log|1 - a_i conj(b_j)|."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size == 0 or b.size == 0:
        return 0.0
    return float(np.sum(np.log(np.abs(1.0 - np.outer(a, np.conj(b))))))


def weighted_norm(poles, zeros) -> float:
    """Closed form of sum_k k c(k)^2 for a model with these roots."""
    p, z = fold(poles), fold(zeros)
    return 2.0 * log_sum(p, z) - log_sum(p, p) - log_sum(z, z)


def closed_form_distance(a: Generator, b: Generator) -> float:
    """Weighted cepstral distance between two generators: the norm of a * b^-1."""
    return weighted_norm(a.poles + b.zeros, a.zeros + b.poles)


def impulse_response(model: Generator) -> np.ndarray:
    """Impulse response by partial fractions, truncated where the tail is
    below rounding: the l1 mass of the dropped tail is under eps/100.

    Needs distinct nonzero poles and no more zeros than poles.
    """
    p = np.asarray(model.poles, dtype=complex)
    z = np.asarray(model.zeros, dtype=complex)
    residues = np.empty(p.size, dtype=complex)
    for i, pole in enumerate(p):
        others = np.delete(p, i)
        residues[i] = model.gain * np.prod(1.0 - z / pole) / np.prod(1.0 - others / pole)
    direct = model.gain * np.prod(z) / np.prod(p) if z.size == p.size else 0.0
    radius = float(np.max(np.abs(p)))
    mass = float(np.sum(np.abs(residues)))
    length = int(np.ceil(np.log(EPS * 1e-2 * (1.0 - radius) / mass) / np.log(radius))) + 1
    n = np.arange(length)
    h = (residues[None, :] * p[None, :] ** n[:, None]).sum(axis=1).real
    h[0] += float(np.real(direct))
    return h


def filtered(model: Generator, u: np.ndarray) -> np.ndarray:
    """Zero-state response of the model to u."""
    return np.convolve(u, impulse_response(model))[: u.size]


def write_csv(path: str, header: str, *columns: np.ndarray) -> None:
    """A signal file: the header, then the sample index and the columns,
    each value written with all its digits."""
    rows = zip(*(c.tolist() for c in columns))
    lines = [header] + [",".join([str(k)] + [repr(v) for v in row]) for k, row in enumerate(rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    ids = rows[0][1:]
    values = np.array([[float(c) if c else np.nan for c in row[1:]] for row in rows[1:]])
    if [row[0] for row in rows[1:]] != ids or values.shape != (len(ids), len(ids)):
        raise ValueError(f"{path}: matrix rows do not match its header")
    return ids, values


class Corpus:
    """Noise-free t,u,y records of several generators, one file each.

    File names are a seeded shuffle, so the directory order says nothing
    about which generator made a record.
    """

    def __init__(self, directory, generators, count, length, rng):
        self.directory = directory
        os.makedirs(directory)
        names = [f"rec{idx:03d}" for idx in rng.permutation(count)]
        self.generator_of = {}
        for idx, name in enumerate(names):
            self.generator_of[name] = idx % len(generators)
            u = rng.standard_normal(length)
            y = filtered(generators[idx % len(generators)], u)
            write_csv(os.path.join(directory, name + ".csv"), "t,u,y", u, y)
        self.reference = np.array([[closed_form_distance(a, b) for b in generators]
                                   for a in generators])

    @property
    def pairs(self) -> int:
        n = len(self.generator_of)
        return n * (n - 1) // 2

    def matrix_problems(self, ids, values, route_tol) -> tuple[list[str], np.ndarray]:
        """Check a distance matrix against the closed form; return the problems
        and the relative deviations of the between-generator cells."""
        if sorted(ids) != sorted(self.generator_of):
            return ["matrix ids are not the record ids"], np.array([])
        problems = []
        if np.isnan(values).any():
            problems.append(f"{int(np.isnan(values).sum())} matrix cells are empty (failed)")
        if not np.array_equal(values, values.T):
            problems.append("matrix is not symmetric")
        if np.any(np.diag(values) != 0.0):
            problems.append("matrix diagonal is not zero")
        gen = np.array([self.generator_of[name] for name in ids])
        upper = np.triu_indices(len(ids), 1)
        cells = values[upper]
        between = gen[upper[0]] != gen[upper[1]]
        ref = self.reference[gen[upper[0]], gen[upper[1]]][between]
        devs = np.abs(cells[between] - ref) / ref
        if devs.size and not np.max(devs) <= route_tol:
            worst = int(np.argmax(devs))
            problems.append(
                f"{np.count_nonzero(~(devs <= route_tol))} between-generator distances deviate "
                f"from the closed form by more than {route_tol:g} (relative); the worst is "
                f"{cells[between][worst]:.6g} against {ref[worst]:.6g}"
            )
        within = cells[~between]
        if within.size and devs.size and not np.max(within) <= WELL_BELOW * np.min(cells[between]):
            problems.append(
                f"largest within-generator distance {np.max(within):.3g} is not below "
                f"{WELL_BELOW:g} x the smallest between-generator distance "
                f"{np.min(cells[between]):.3g}"
            )
        return problems, devs

    def label_problems(self, report: dict) -> list[str]:
        problems = []
        if report["failures"]:
            problems.append(f"{len(report['failures'])} pair failures reported")
        if report["excluded"]:
            problems.append(f"records excluded from clustering: {report['excluded']}")
        if sorted(report["ids"]) != sorted(self.generator_of):
            return problems + ["report ids are not the record ids"]
        found: dict = {}
        for name, label in zip(report["ids"], report["labels"]):
            found.setdefault(label, set()).add(name)
        truth: dict = {}
        for name, gen in self.generator_of.items():
            truth.setdefault(gen, set()).add(name)
        if {frozenset(g) for g in found.values()} != {frozenset(g) for g in truth.values()}:
            problems.append("cluster labels do not reproduce the generator partition")
        return problems


class ClusterWorkload:
    """``cluster --matrix-out`` over records of several generators.

    One operation is one pair distance.
    """

    def __init__(self, metric, generators, records_each, length):
        self.metric = metric
        self.generators = generators
        self.count = len(generators) * records_each
        self.length = length
        self.route_tol = TOL_ESTIMATED if metric == "cepstral" else TOL_MODEL

    def generate(self, work: str, rng: np.random.Generator) -> None:
        self.corpus = Corpus(os.path.join(work, "records"), self.generators, self.count,
                             self.length, rng)
        self.report = os.path.join(work, "report.json")
        self.matrix = os.path.join(work, "matrix.csv")
        self.ops_per_call = self.corpus.pairs

    def argv(self) -> list[str]:
        return ["cluster", self.corpus.directory, "--metric", self.metric,
                "--linkage", "average", "--k", str(len(self.generators)),
                "--matrix-out", self.matrix, "-o", self.report]

    def outputs(self) -> list[str]:
        return [self.report, self.matrix]

    def failed_ops(self, exit_code: int) -> int:
        if exit_code != 0:
            return self.ops_per_call
        with open(self.report, encoding="utf-8") as fh:
            return len(json.load(fh)["failures"])

    def check(self) -> list[str]:
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = self.corpus.label_problems(report)
        ids, values = read_matrix_csv(self.matrix)
        if ids != report["ids"]:
            problems.append("matrix ids differ from the report ids")
        return problems + self.corpus.matrix_problems(ids, values, self.route_tol)[0]


class SimulateWorkload:
    """``simulate`` of a stored input record through a root-form model.

    One operation is one simulated record.
    """

    ops_per_call = 1

    def __init__(self, model, length):
        self.model = model
        self.length = length

    def generate(self, work: str, rng: np.random.Generator) -> None:
        self.u = rng.standard_normal(self.length)
        self.input = os.path.join(work, "input.csv")
        self.model_path = os.path.join(work, "model.json")
        self.out = os.path.join(work, "record.csv")
        write_csv(self.input, "t,value", self.u)
        with open(self.model_path, "w", encoding="utf-8") as fh:
            fh.write(self.model.to_json())

    def argv(self) -> list[str]:
        return ["simulate", "--model", self.model_path, "--input", self.input, "-o", self.out]

    def outputs(self) -> list[str]:
        return [self.out]

    def failed_ops(self, exit_code: int) -> int:
        return 0 if exit_code == 0 else 1

    def tolerance(self, h: np.ndarray) -> float:
        """Bound on |y - y_ref|: rounding in an order-n recursion, scaled by
        the response's l1 mass and the input's peak, with a generous factor
        for the conditioning of the realized model's coefficients."""
        order = len(self.model.poles)
        return 1e4 * order * EPS * float(np.sum(np.abs(h))) * float(np.max(np.abs(self.u)))

    def check(self) -> list[str]:
        data = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (self.length, 3):
            return [f"output has shape {data.shape}, expected ({self.length}, 3)"]
        problems = []
        if not np.array_equal(data[:, 0], np.arange(self.length)):
            problems.append("time column is not 0, 1, 2, ...")
        if not np.array_equal(data[:, 1], self.u):
            problems.append("u column differs from the stored input")
        h = impulse_response(self.model)
        err = float(np.max(np.abs(data[:, 2] - np.convolve(self.u, h)[: self.length])))
        if not err <= self.tolerance(h):
            problems.append(f"y deviates from the convolution reference by {err:.3g}, "
                            f"beyond {self.tolerance(h):.3g}")
        return problems


class CepstralProbe:
    """Accuracy of the cepstral route: ``distmat --metric cepstral`` over
    300 short records of the cluster generators, run untimed after the
    timed calls of every workload.

    300 records, not the 105 of cluster-cepstral, because the median
    deviation is set by record-to-record estimation noise: at 105 records
    its interquartile range over seeds is about 9% of its median, at 300
    records 4 to 8%. More records would cost seconds per run: distmat
    computes every pair.
    """

    def generate(self, work: str, rng: np.random.Generator) -> None:
        self.corpus = Corpus(os.path.join(work, "probe"), GENERATORS, 300, 1024, rng)
        self.matrix = os.path.join(work, "probe.csv")

    def argv(self) -> list[str]:
        return ["distmat", self.corpus.directory, "--metric", "cepstral",
                "--output-format", "csv", "-o", self.matrix]

    def measure(self) -> tuple[list[str], float]:
        """Check the matrix; return the problems and the median relative
        deviation of the between-generator distances from the closed form."""
        ids, values = read_matrix_csv(self.matrix)
        problems, devs = self.corpus.matrix_problems(ids, values, TOL_ESTIMATED)
        return problems, float(np.median(devs))


def make(name: str):
    if name == "cluster-cepstral":
        return ClusterWorkload("cepstral", GENERATORS, 21, 1024)
    if name == "cluster-subspace":
        return ClusterWorkload("subspace", GENERATORS[:4], 2, 8192)
    if name == "simulate-long":
        return SimulateWorkload(SIMULATE_MODEL, 100_000)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cluster-cepstral", "cluster-subspace", "simulate-long")
