"""Tests of the benchmark's own references and checks.

Usage, from the root of a cepdist checkout:

    python3 perfbench/selftest.py

It tests the closed form, the impulse response and the output checks
against independent computations, and shows that a corrupted matrix cell,
shuffled labels and a perturbed simulated output each fail their check.
Last, it runs each workload's CLI call once on two seeds other than the
default (about 30 s) and requires the checks to pass.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def series_norm(poles, zeros, order=4000) -> float:
    """sum_k k c(k)^2 with c(k) = (sum p^k - sum z^k) / k, truncated."""
    k = np.arange(1, order + 1)
    p, z = wl.fold(poles), wl.fold(zeros)
    c = (np.sum(p[:, None] ** k, axis=0) - np.sum(z[:, None] ** k, axis=0)).real / k
    return float(np.sum(k * c * c))


def test_one_pole_closed_form():
    for a in (0.3, -0.6, 0.9):
        assert abs(wl.weighted_norm([a], []) - (-np.log(1 - a * a))) < 1e-14
        assert abs(wl.weighted_norm([], [a]) - (-np.log(1 - a * a))) < 1e-14


def test_closed_form_matches_the_series_for_every_generator_pair():
    for a in wl.GENERATORS:
        for b in wl.GENERATORS:
            ref = wl.closed_form_distance(a, b)
            assert abs(ref - series_norm(a.poles + b.zeros, a.zeros + b.poles)) < 1e-10
    model = wl.SIMULATE_MODEL
    assert abs(wl.weighted_norm(model.poles, model.zeros)
               - series_norm(model.poles, model.zeros)) < 1e-10


def test_generators_share_no_roots():
    roots = [r for g in wl.GENERATORS for r in g.poles + g.zeros]
    gaps = [abs(complex(a) - complex(b)) for i, a in enumerate(roots) for b in roots[i + 1:]]
    assert min(gaps) > 1e-3
    assert max(abs(complex(r)) for r in roots) < 1.0


def test_impulse_response_matches_the_frequency_response():
    for model in wl.GENERATORS + (wl.SIMULATE_MODEL,):
        h = wl.impulse_response(model)
        grid = np.exp(-2j * np.pi * np.arange(h.size) / h.size)
        response = model.gain * np.ones(h.size, dtype=complex)
        for z in model.zeros:
            response *= 1 - z * grid
        for p in model.poles:
            response /= 1 - p * grid
        assert np.max(np.abs(np.fft.fft(h) - response)) < 1e-12 * np.sum(np.abs(h))


def exact_outputs(corpus: wl.Corpus):
    """The matrix and report a perfect program would write for a corpus."""
    ids = sorted(corpus.generator_of)
    gen = np.array([corpus.generator_of[name] for name in ids])
    values = corpus.reference[np.ix_(gen, gen)].copy()
    values[gen[:, None] == gen[None, :]] = 0.0
    values = np.triu(values) + np.triu(values, 1).T
    first_seen: dict = {}
    labels = [first_seen.setdefault(g, len(first_seen)) for g in gen.tolist()]
    report = {"ids": ids, "labels": labels, "failures": [], "excluded": []}
    return ids, values, report


def with_corpus(test):
    def run():
        work = os.path.join(HERE, "work", f"selftest-{os.getpid()}")
        try:
            corpus = wl.Corpus(work, wl.GENERATORS, 15, 256, np.random.default_rng(7))
            test(corpus)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    run.__name__ = test.__name__
    return run


@with_corpus
def test_exact_outputs_pass(corpus):
    ids, values, report = exact_outputs(corpus)
    assert corpus.matrix_problems(ids, values, wl.TOL_MODEL)[0] == []
    assert corpus.label_problems(report) == []


@with_corpus
def test_a_corrupted_matrix_cell_fails(corpus):
    ids, values, _ = exact_outputs(corpus)
    gen = [corpus.generator_of[name] for name in ids]
    i, j = next((i, j) for i in range(len(ids)) for j in range(len(ids)) if gen[i] != gen[j])
    for corrupt in (1.5, 1.0 + 2 * wl.TOL_ESTIMATED):
        bad = values.copy()
        bad[i, j] = bad[j, i] = values[i, j] * corrupt
        assert corpus.matrix_problems(ids, bad, wl.TOL_ESTIMATED)[0]
    one_sided = values.copy()
    one_sided[i, j] *= 1.0 + 1e-12
    assert corpus.matrix_problems(ids, one_sided, wl.TOL_ESTIMATED)[0]
    empty = values.copy()
    empty[i, j] = empty[j, i] = np.nan
    assert corpus.matrix_problems(ids, empty, wl.TOL_ESTIMATED)[0]
    within = values.copy()
    k = next(k for k in range(len(ids)) if k != i and gen[k] == gen[i])
    within[i, k] = within[k, i] = np.min(values[values > 0])
    assert corpus.matrix_problems(ids, within, wl.TOL_ESTIMATED)[0]


@with_corpus
def test_shuffled_labels_fail(corpus):
    _, _, report = exact_outputs(corpus)
    rng = np.random.default_rng(3)
    for _ in range(5):
        shuffled = dict(report, labels=rng.permutation(report["labels"]).tolist())
        assert corpus.label_problems(shuffled)
    assert corpus.label_problems(dict(report, failures=[["a", "b", "reason"]]))


def test_a_perturbed_simulation_fails():
    work = os.path.join(HERE, "work", f"selftest-sim-{os.getpid()}")
    os.makedirs(work)
    try:
        sim = wl.SimulateWorkload(wl.SIMULATE_MODEL, 4096)
        sim.generate(work, np.random.default_rng(5))
        y = np.convolve(sim.u, wl.impulse_response(sim.model))[: sim.length]
        wl.write_csv(sim.out, "t,u,y", sim.u, y)
        assert sim.check() == []
        y[100] += 1e3 * sim.tolerance(wl.impulse_response(sim.model))
        wl.write_csv(sim.out, "t,u,y", sim.u, y)
        assert sim.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_program_passes_on_other_seeds():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cepdist.cli

    for seed in (2, 3):
        for name in wl.NAMES:
            work = os.path.join(HERE, "work", f"selftest-{name}-{seed}-{os.getpid()}")
            os.makedirs(work)
            try:
                workload = wl.make(name)
                workload.generate(work, np.random.default_rng([seed, 0]))
                assert cepdist.cli.main(workload.argv()) == 0
                assert workload.failed_ops(0) == 0
                problems = workload.check()
                assert problems == [], problems
            finally:
                shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    tests = [f for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
