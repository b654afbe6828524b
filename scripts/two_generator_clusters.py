"""Cluster recovery on records drawn from two single-pole generators.

Every trial simulates white-noise records through two stable first-order
systems, builds a pairwise distance matrix per metric, clusters at k=2,
and scores the recovered partition against the generators. The transfer
metrics (cepstral on pairs, subspace) should recover the split even though
every record is realized from a different input; the pointwise metrics see
only the noise.
"""

import argparse

import numpy as np

from cepdist import (
    RunConfig,
    Signal,
    ZeroPoleGain,
    agglomerative_cluster,
    distance_matrix,
    simulate,
    state_space_from_roots,
)

METRICS = ("cepstral", "subspace", "euclidean", "cosine")


def make_records(pole_a, pole_b, per_group, length, seed):
    systems = [ZeroPoleGain([p], [], 1.0) for p in (pole_a, pole_b)]
    records, truth = [], []
    for idx in range(2 * per_group):
        system = systems[idx // per_group]
        rng = np.random.default_rng(seed + idx)
        u = Signal(rng.standard_normal(length))
        records.append((u, simulate(state_space_from_roots(system), u)))
        truth.append(idx // per_group)
    return records, truth


def partition_accuracy(labels, truth):
    # Best accuracy over the two label-to-group assignments.
    pairs = list(zip(labels, truth))
    direct = sum(lab == ref for lab, ref in pairs)
    swapped = sum(lab == 1 - ref for lab, ref in pairs)
    return max(direct, swapped) / len(pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pole-a", type=float, default=0.5)
    parser.add_argument("--pole-b", type=float, default=0.95)
    parser.add_argument("--per-group", type=int, default=4)
    parser.add_argument("--length", type=int, default=2048)
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args()

    config = RunConfig(
        method="welch", window_len=args.length, overlap=0.0, fft_length=2 * args.length, K=64
    )
    print(
        f"poles {args.pole_a} vs {args.pole_b}, {args.per_group} records/group, "
        f"N={args.length}, {args.trials} trials\n"
    )
    print(f"{'metric':<12}" + "".join(f"{f'trial {t}':>10}" for t in range(args.trials)) + f"{'mean':>10}")
    for metric in METRICS:
        scores = []
        for trial in range(args.trials):
            records, truth = make_records(
                args.pole_a, args.pole_b, args.per_group, args.length, 1000 * (trial + 1)
            )
            matrix = distance_matrix(records, metric, config)
            labels = agglomerative_cluster(matrix, k=2).labels
            scores.append(partition_accuracy(labels, truth))
        cells = "".join(f"{score:>10.2f}" for score in scores)
        print(f"{metric:<12}{cells}{np.mean(scores):>10.2f}")


if __name__ == "__main__":
    main()
