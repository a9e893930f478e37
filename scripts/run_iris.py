#!/usr/bin/env python3
"""Two-point iris experiment: baseline separation, then a trained filter.

Prints the baseline Hilbert-Schmidt risk and classifier value, trains the
circuit filter, and reports the post-selected quantities. With --sweep-init
it instead scans random-start widths to show the two optimum families: the
identity basin flips the test decision to +1, wide starts keep it at -1.
"""
import argparse

import numpy as np

from qfilter.classifier import filtered_fidelity_classify
from qfilter.datasets import iris_builtin
from qfilter.embedding import EmbeddingSpec, embed_rows, encode_point
from qfilter.featuremap import apply_filter, build_ansatz, kraus_from_circuit, transform_ensemble
from qfilter.quantum import hs_distance
from qfilter.training import TrainConfig, train


def load():
    ds, (test_x, test_y) = iris_builtin()
    spec = EmbeddingSpec("angle", 1)
    samples = embed_rows(ds.features, ds.labels, spec)
    return samples, encode_point(test_x, spec), test_y


def run_once(samples, test_state, layers, epochs, seed, init_scale, cutoff, lam):
    config = TrainConfig(
        learning_rate=0.05,
        epochs=epochs,
        optimizer="adam",
        seed=seed,
        init_scale=init_scale,
        cutoff=cutoff,
        lam=lam,
    )
    ansatz = build_ansatz(1, layers)
    res = train(config, samples, ansatz)
    k = kraus_from_circuit(ansatz, res.theta_star)
    out = filtered_fidelity_classify(transform_ensemble(k, samples), k, test_state)
    return res, k, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--init-scale", type=float, default=2.5)
    ap.add_argument("--cutoff", type=float, default=0.0)
    ap.add_argument("--lambda", type=float, default=1.0, dest="lam")
    ap.add_argument("--sweep-init", action="store_true",
                    help="scan init scales instead of a single run")
    args = ap.parse_args()

    samples, test_state, test_y = load()
    # the baseline is the identity filter: the unfiltered class mixtures
    identity = np.eye(2, dtype=complex)
    plain = transform_ensemble(identity, samples)
    base = filtered_fidelity_classify(plain, identity, test_state)
    print(f"baseline   risk {-hs_distance(*plain):+.6f}  "
          f"value {base.value:+.6f}  decision {base.decision:+d}  (truth {test_y:+d})")

    if args.sweep_init:
        print(f"{'init_scale':>10}  {'risk':>10}  {'p_succ':>8}  {'value':>10}  decision")
        for scale in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5):
            res, _, out = run_once(samples, test_state, args.layers, args.epochs,
                                   args.seed, scale, args.cutoff, args.lam)
            print(f"{scale:>10.2f}  {res.report.risk:>10.4f}  "
                  f"{res.report.p_succ:>8.4f}  {out.value:>10.4f}  {out.decision:+d}")
        return

    res, k, out = run_once(samples, test_state, args.layers, args.epochs,
                           args.seed, args.init_scale, args.cutoff, args.lam)
    print(f"trained    risk {res.report.risk:+.6f}  "
          f"value {out.value:+.6f}  decision {out.decision:+d}")
    p_joint = np.prod(apply_filter(k, samples.amplitudes)[1])
    print(f"           p_succ {res.report.p_succ:.6f}  p_joint {p_joint:.3e}  "
          f"p_s(test) {out.p_s_test:.6f}")


if __name__ == "__main__":
    main()
