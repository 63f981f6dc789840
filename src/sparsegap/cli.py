"""Command-line front end: dictionary construction, threshold tables, experiments.

Exit status contract: 0 = all invariants held, 1 = a soundness violation
or an INCONCLUSIVE verdict occurred, or a sampler hit its redraw cap (one
line on stderr, no report), 2 = usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .dictionary import (
    AtomSet,
    Dictionary,
    DictionaryError,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
    is_weakly_incoherent,
    load_dictionary,
    save_dictionary,
    welch_lower_bound,
)
from .manifest import build_manifest
from .random_subsets import SweepConfig, statistics_sweep, weak_rank_bound_experiment
from .signals import ExperimentReport, RedrawCapExceededError, equivalence_experiment, gap_experiment
from .thresholds import GapThresholds, evaluate_thresholds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BOUNDS_COLUMNS = tuple(f.name for f in fields(GapThresholds)) + ("error",)


class ConfigError(ValueError):
    pass


def _build_dictionary(spec: dict) -> Dictionary:
    if "path" in spec:
        return load_dictionary(spec["path"])
    kind = spec.get("kind")
    if kind == "spikes-sines":
        return build_spikes_sines(int(spec["m"]))
    if kind == "random-unit":
        return build_random_unit_norm(int(spec["m"]), int(spec["n_atoms"]), int(spec["seed"]))
    if kind == "random-tight":
        return build_random_tight_frame(int(spec["m"]), int(spec["n_atoms"]), int(spec["seed"]))
    raise ConfigError(f"unknown dictionary kind {kind!r}")


def _print_metrics(d: Dictionary, c: float) -> None:
    check = is_weakly_incoherent(d, c)
    print(f"m = {d.m}  N = {d.n_atoms}")
    print(f"coherence mu = {d.coherence:.12g}")
    print(f"redundancy rho = {d.redundancy:.12g}  (N/m = {d.n_atoms / d.m:.12g})")
    print(f"welch bound = {welch_lower_bound(d.m, d.n_atoms):.12g}")
    print(f"weak incoherence (c = {c:g}): tight = {check.tight} "
          f"(margin {check.tight_margin:.3e}), "
          f"coherence <= c/log N = {check.coherent} (margin {check.coherence_margin:.3e})")


def cmd_dict(args) -> int:
    if args.inspect:
        d = load_dictionary(args.inspect)
        _print_metrics(d, args.c)
        return EXIT_OK
    if not args.kind:
        print("error: --kind is required unless --inspect is given", file=sys.stderr)
        return EXIT_USAGE
    d = _build_dictionary({
        "kind": args.kind, "m": args.m, "n_atoms": args.n_atoms, "seed": args.seed,
    })
    _print_metrics(d, args.c)
    if args.out:
        save_dictionary(d, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _bounds_rows(mu: float, m: int, n_atoms: int, s_values, t_of_s, delta: int) -> list[dict]:
    rows = []
    for s in s_values:
        t = t_of_s(s)
        row = {k: None for k in BOUNDS_COLUMNS}
        row.update({"s": s, "t": t, "delta": delta, "mu": mu, "m": m, "n_atoms": n_atoms})
        if delta > min(s, t):
            row["error"] = "delta exceeds min(s, t)"
        else:
            gt = evaluate_thresholds(s, t, delta, mu, m, n_atoms)
            row.update(gt.to_dict())
            row["error"] = None
        rows.append(row)
    return rows


def _emit(rows: list[dict], columns, fmt: str, out) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})
        text = buf.getvalue()
    else:
        text = json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_bounds(args) -> int:
    if args.dict:
        d = load_dictionary(args.dict)
        mu, m, n_atoms = d.coherence, d.m, d.n_atoms
    else:
        if args.mu is None or args.m is None or args.n_atoms is None:
            print("error: provide --dict or all of --mu/--m/--n-atoms", file=sys.stderr)
            return EXIT_USAGE
        mu, m, n_atoms = args.mu, args.m, args.n_atoms
    s_values = range(args.s_min, args.s_max + 1)
    t_of_s = (lambda s: args.t) if args.t is not None else (lambda s: s)
    rows = _bounds_rows(mu, m, n_atoms, s_values, t_of_s, args.delta)
    _emit(rows, BOUNDS_COLUMNS, args.format, args.out)
    return EXIT_OK


EXPERIMENT_KEYS = {
    "gap": {"s", "t", "delta", "pairs", "trials_per_pair"},
    "equivalence": {"s_set", "t_set", "trials"},
    "stats-sweep": {"s_values", "trials_per_s"},
    "weak-rank": {"s", "v_size", "trials"},
}


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("experiment")
    if name not in EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment {name!r}")
    if "dictionary" not in cfg or not isinstance(cfg["dictionary"], dict):
        raise ConfigError("config needs a 'dictionary' object")
    missing = EXPERIMENT_KEYS[name] - set(cfg)
    if missing:
        raise ConfigError(f"experiment {name!r} missing keys: {sorted(missing)}")


def _run_experiment(cfg: dict, seed: int) -> ExperimentReport:
    d = _build_dictionary(cfg["dictionary"])
    name = cfg["experiment"]
    if name == "gap":
        return gap_experiment(d, int(cfg["s"]), int(cfg["t"]), int(cfg["delta"]),
                              int(cfg["pairs"]), int(cfg["trials_per_pair"]), seed)
    if name == "equivalence":
        return equivalence_experiment(d, AtomSet.of(cfg["s_set"]), AtomSet.of(cfg["t_set"]),
                                      int(cfg["trials"]), seed)
    if name == "stats-sweep":
        config = SweepConfig(
            s_values=tuple(int(s) for s in cfg["s_values"]),
            trials_per_s=int(cfg["trials_per_s"]),
            master_seed=seed,
            beta=float(cfg.get("beta", 1.0)),
            c_sparsity=float(cfg.get("c_sparsity", 1.0)),
        )
        return statistics_sweep(d, config)
    return weak_rank_bound_experiment(d, int(cfg["s"]), int(cfg["v_size"]),
                                      int(cfg["trials"]), seed)


def _violated(report: ExperimentReport) -> bool:
    s = report.summary
    if report.kind == "gap":
        return s["violations"] > 0 or s["n_inconclusive"] > 0
    if report.kind == "equivalence":
        return (not s["consistent"]) or s["n_inconclusive"] > 0
    if report.kind == "weak-rank":
        return s["gated_violations_gate_derived"] > 0
    return False


def cmd_experiment(args) -> int:
    """Run the configured experiment; ``args.argv`` is recorded as the command line."""
    try:
        cfg = json.loads(Path(args.config).read_text())
        _validate_config(cfg)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    report = _run_experiment(cfg, seed)
    report.manifest = build_manifest(
        command_line=" ".join(args.argv),
        config={**cfg, "seed": seed},
        provenance=report.params.get("dictionary", {}),
        master_seed=seed,
        tool_version=__version__,
    ).to_dict()
    if args.out:
        base = Path(args.out)
        if args.format in ("json", "both"):
            base.with_suffix(".json").write_text(report.to_json())
        if args.format in ("csv", "both"):
            base.with_suffix(".csv").write_text(report.to_csv())
    else:
        sys.stdout.write(report.to_json())
    return EXIT_VIOLATION if _violated(report) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsegap", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dict = sub.add_parser("dict", help="construct, save, or inspect a dictionary")
    p_dict.add_argument("--kind", choices=["spikes-sines", "random-unit", "random-tight"])
    p_dict.add_argument("--m", type=int)
    p_dict.add_argument("--n-atoms", type=int, dest="n_atoms")
    p_dict.add_argument("--seed", type=int, default=0)
    p_dict.add_argument("--c", type=float, default=1.0,
                        help="constant for the weak-incoherence check")
    p_dict.add_argument("--out")
    p_dict.add_argument("--inspect", metavar="PATH")
    p_dict.set_defaults(func=cmd_dict)

    p_bounds = sub.add_parser("bounds", help="tabulate thresholds over an s sweep")
    p_bounds.add_argument("--dict", metavar="PATH")
    p_bounds.add_argument("--mu", type=float)
    p_bounds.add_argument("--m", type=int)
    p_bounds.add_argument("--n-atoms", type=int, dest="n_atoms")
    p_bounds.add_argument("--s-min", type=int, default=1)
    p_bounds.add_argument("--s-max", type=int, required=True)
    p_bounds.add_argument("--t", type=int, help="fixed t (defaults to t = s)")
    p_bounds.add_argument("--delta", type=int, default=0)
    p_bounds.add_argument("--out")
    p_bounds.add_argument("--format", choices=["json", "csv"], default="json")
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--out")
    p_exp.add_argument("--format", choices=["json", "csv", "both"], default="json")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv, namespace=argparse.Namespace(argv=argv))
    try:
        return args.func(args)
    except (DictionaryError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RedrawCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
