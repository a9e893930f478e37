"""Command-line front end: train, classify, compare, selftest.

All results are JSON with stable key order; the compare command also emits
a plottable CSV. Every result embeds a manifest (resolved config + dataset
fingerprint) sufficient to rebuild the run.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .classifier import decide, filtered_fidelity_classify
from .embedding import Pipeline, fingerprint, restore_model
from .errors import (
    ClassAnnihilated,
    ClassBalanceError,
    CsvError,
    DimError,
    DomainError,
    FilterAnnihilated,
    ModelError,
    ParamShapeError,
    RegisterTooLarge,
    ShapeError,
    ZeroVectorError,
)
from .featuremap import build_ansatz, kraus_from_circuit, transform_ensemble
from .protocol import run_classifier_protocol, sample_outcomes
from .quantum import pure_to_density
from .selftest import run_all
from .training import TrainConfig, co_train, compare_conditions, train

DATA_ERRORS = (
    CsvError,
    ClassBalanceError,
    DimError,
    ShapeError,
    ZeroVectorError,
    DomainError,
    ParamShapeError,
    ClassAnnihilated,
    ModelError,
    RegisterTooLarge,
    OSError,
    json.JSONDecodeError,
)


def _sanitize(obj):
    """JSON-safe copy: numpy scalars/arrays unwrapped, NaN/inf to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _descriptors(args, dims: list[int]) -> list[dict]:
    """Descriptors of the --dataset data; blobs get one per dimension in dims."""
    spec = args.dataset
    if spec == "iris":
        return [{"kind": "iris"}]
    if spec == "blobs":
        flags = {k: getattr(args, k) for k in ("seed", "per_class", "separation")}
        return [{"kind": "blobs", "dims": d, **flags} for d in dims]
    if spec.startswith("csv:"):
        return [{"kind": "csv", "path": spec[len("csv:") :]}]
    raise DomainError(f"unknown dataset {spec!r} (use iris, blobs, or csv:<path>)")


def _embedding(args) -> str:
    return args.embedding or ("angle" if args.dataset == "iris" else "amplitude")


def _train_config(args, **train_only) -> TrainConfig:
    """The optimizer flags train and compare share, plus train's own."""
    return TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        optimizer=args.optimizer,
        lam=getattr(args, "lambda"),
        init_scale=args.init_scale,
        seed=args.seed,
        **train_only,
    )


def cmd_train(args) -> int:
    (descriptor,) = _descriptors(args, [args.dims])
    pipe = Pipeline.fit(descriptor, _embedding(args), args.embed_layers, args.ring)
    ansatz = build_ansatz(pipe.spec.n_qubits, args.layers)
    config = _train_config(args, cutoff=args.c)
    if args.co_train:
        result = co_train(config, pipe.pairs(), pipe.spec, ansatz)
        # the trained embedding angles give the states the filter acts on
        spec = dataclasses.replace(pipe.spec, params=tuple(result.theta_star[ansatz.n_params :]))
        samples = pipe.samples(spec)
    else:
        spec, samples = pipe.spec, pipe.samples()
        result = train(config, samples, ansatz)
    pair = kraus_from_circuit(ansatz, result.theta_star[: ansatz.n_params])
    ens = transform_ensemble(pair, samples)

    manifest = {
        "command": "train",
        "artifact_version": __version__,
        "seed": args.seed,
        "config": {
            "dataset": descriptor,
            "embedding": pipe.embedding_manifest(spec),
            "ansatz_layers": args.layers,
            # every TrainConfig field but the seed, which the manifest holds
            # above, and whether the embedding angles were trained too
            "train": {
                ("lambda" if k == "lam" else k): v
                for k, v in dataclasses.asdict(config).items()
                if k != "seed"
            } | {"co_train_embedding": args.co_train},
        },
        "dataset_fingerprint": fingerprint(pipe.dataset),
    }
    payload = {
        "manifest": manifest,
        "initial_cost": result.cost_trace[0],
        "final_cost": result.report.risk,
        "hs_distance": result.report.hs_distance,
        "p_succ": result.report.p_succ,
        "p_joint": ens.p_joint,
        "penalty": result.report.penalty,
        "theta_star": result.theta_star,
        "cost_trace": result.cost_trace,
        "p_succ_trace": result.p_succ_trace,
        "wall_time_s": result.wall_time,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_classify(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = restore_model(json.load(fh))
    ansatz = build_ansatz(model.pipeline.spec.n_qubits, model.ansatz_layers)
    samples = model.pipeline.samples()
    theta = model.theta_star[: ansatz.n_params]
    test_state = model.pipeline.encode(args.input)

    out_manifest = {
        "command": "classify",
        "artifact_version": __version__,
        "seed": args.seed,
        "config": model.config,
        "dataset_fingerprint": model.fingerprint,
        "input": args.input,
        "path": args.path,
        "shots": args.shots,
        "model": args.model,
    }
    extra: dict = {}
    try:
        pair = kraus_from_circuit(ansatz, theta)
        ens = transform_ensemble(pair, samples)
        if args.path == "analytic":
            out = filtered_fidelity_classify(ens, pair, pure_to_density(test_state))
        else:
            outcome = run_classifier_protocol(samples, test_state, ansatz, theta)
            if args.shots > 0:
                outcome = sample_outcomes(outcome, args.shots, args.seed)
            out = decide(outcome.derived_value, outcome.p_postselect / ens.p_succ)
    except FilterAnnihilated:
        out, extra = decide(math.nan, 0.0), {"error": "filter-annihilated"}
    fields = dataclasses.asdict(out)
    fields["tie_flag"] = fields.pop("tie")
    _emit_json({"manifest": out_manifest, **fields, **extra}, args.out)
    return 0


def _cutoff(token: str) -> float | None:
    """The cutoff of one --conditions entry; None is the embedding-only arm."""
    token = token.strip()
    if token == "embedding-only":
        return None
    if not token.startswith("c="):
        raise DomainError(f"bad condition {token!r} (use embedding-only or c=<x>)")
    try:
        return float(token[2:])
    except ValueError:
        raise DomainError(f"bad cutoff in condition {token!r}") from None


def cmd_compare(args) -> int:
    conditions = [_cutoff(token) for token in args.conditions.split(",")]
    if len(conditions) < 2:
        raise DomainError("compare needs at least 2 conditions")
    embedding = _embedding(args)
    descriptors = _descriptors(args, args.dim_sweep or [args.dims])
    config = _train_config(args)

    all_rows = []
    for descriptor in descriptors:
        pipe = Pipeline.fit(descriptor, embedding, args.embed_layers, args.ring)
        ansatz = build_ansatz(pipe.spec.n_qubits, args.layers)
        rows = compare_conditions(pipe.samples(), pipe.test_samples(), conditions, ansatz, config)
        for row in rows:
            row["d"] = int(pipe.dataset.features.shape[1])
        all_rows.extend(rows)

    manifest = {
        "command": "compare",
        "artifact_version": __version__,
        "seed": args.seed,
        "config": {
            "datasets": descriptors,
            "embedding": embedding,
            "ansatz_layers": args.layers,
            "conditions": args.conditions,
            "lambda": getattr(args, "lambda"),
            "epochs": args.epochs,
            "learning_rate": args.lr,
            "optimizer": args.optimizer,
            "init_scale": args.init_scale,
            "embed_layers": args.embed_layers,
            "ring": args.ring,
        },
    }
    _emit_json({"manifest": manifest, "rows": all_rows}, args.out)
    csv_path = (args.out.rsplit(".", 1)[0] if args.out else "compare") + ".csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        columns = ["condition", "d", "hs_distance", "p_succ_train", "p_succ_total", "accuracy"]
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in all_rows:
            writer.writerow([row["condition"], row["d"], *(repr(row[k]) for k in columns[2:])])
    return 0


def cmd_selftest(args) -> int:
    suites = run_all()
    passed = all(s.passed() for s in suites)
    _emit_json({"passed": passed, "suites": [dataclasses.asdict(s) for s in suites]}, args.out)
    return 0 if passed else 1


def _checked(kind, ok, what: str):
    """An argparse type: kind(text), finite and satisfying ok, or a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and ok(value):
                return value
        except (ValueError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


def _list_of(item):
    return lambda text: [item(v) for v in text.split(",")]


_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_REAL = _checked(float, lambda v: True, "a finite number")
_NON_NEGATIVE = _checked(float, lambda v: v >= 0, "a finite number >= 0")


def _embedding_name(text: str) -> str:
    if text.startswith("pca:"):
        _POSITIVE_COUNT(text[len("pca:") :])
    elif text not in ("amplitude", "angle"):
        raise argparse.ArgumentTypeError(f"{text!r} is not amplitude, angle or pca:<k>")
    return text


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="iris", help="iris | blobs | csv:<path>")
    p.add_argument(
        "--embedding",
        type=_embedding_name,
        default=None,
        help="amplitude | angle | pca:<k> (default: angle for iris, else amplitude)",
    )
    p.add_argument("--layers", type=_POSITIVE_COUNT, default=1, help="filter ansatz layers")
    p.add_argument("--embed-layers", type=_COUNT, default=1, dest="embed_layers")
    p.add_argument("--ring", action="store_true", help="ring couplers in pca-layer")
    p.add_argument("--per-class", type=_POSITIVE_COUNT, default=20, dest="per_class")
    p.add_argument("--dims", type=_POSITIVE_COUNT, default=2, help="blobs feature dimension")
    p.add_argument("--separation", type=_REAL, default=2.0, help="blobs class gap")
    p.add_argument("--seed", type=_COUNT, default=0)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """Optimizer flags shared by train and compare."""
    p.add_argument("--lambda", type=_NON_NEGATIVE, default=1.0, help="penalty weight")
    p.add_argument("--epochs", type=_COUNT, default=200)
    p.add_argument("--lr", type=_checked(float, lambda v: v > 0, "a finite number > 0"),
                   default=0.05)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--init-scale", type=_NON_NEGATIVE, default=0.0, dest="init_scale",
                   help="stddev of the random start (0 = exact identity)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description="Probabilistic Kraus filters over embedded data: "
        "train, classify, compare, selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit filter parameters")
    _add_common_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--c", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                         default=0.0, help="success-probability cutoff")
    p_train.add_argument("--co-train", action="store_true", dest="co_train",
                         help="optimize pca-layer embedding angles jointly")
    p_train.add_argument("--out", default=None, help="result JSON path (default stdout)")
    p_train.set_defaults(func=cmd_train)

    p_cls = sub.add_parser("classify", help="classify one point with a trained model")
    p_cls.add_argument("--model", required=True, help="train result JSON")
    p_cls.add_argument("--input", type=_list_of(_REAL), required=True,
                       help="comma-separated features")
    p_cls.add_argument("--path", choices=("analytic", "circuit"), default="analytic")
    p_cls.add_argument("--shots", type=_COUNT, default=0, help="0 = exact probabilities")
    p_cls.add_argument("--seed", type=_COUNT, default=0)
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(func=cmd_classify)

    p_cmp = sub.add_parser("compare", help="embedding-only vs trained filter arms")
    _add_common_data_flags(p_cmp)
    _add_train_flags(p_cmp)
    p_cmp.add_argument(
        "--conditions",
        default="embedding-only,c=0,c=0.5",
        help="comma list: embedding-only, c=<cutoff>",
    )
    p_cmp.add_argument(
        "--dim-sweep",
        type=_list_of(_POSITIVE_COUNT),
        default=None,
        dest="dim_sweep",
        help="comma list of blob dims (default: --dims only)",
    )
    p_cmp.add_argument("--out", default=None, help="JSON path; CSV lands beside it")
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--out", default=None)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "co_train", False) and not (args.embedding or "").startswith("pca:"):
        parser.error("--co-train requires a pca:<k> embedding")
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
