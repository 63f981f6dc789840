"""Command-line front end: dictionary construction, threshold tables, experiments.

Exit status contract: 0 = all invariants held, 1 = a soundness violation
or an INCONCLUSIVE verdict occurred, or a sampler hit its redraw cap (one
line on stderr, no report), 2 = usage or config error, or an output file
that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .dictionary import (
    AtomSet,
    Dictionary,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
    is_weakly_incoherent,
    load_dictionary,
    save_dictionary,
    welch_lower_bound,
)
from .manifest import ExperimentReport, build_manifest, csv_text
from .random_subsets import SweepConfig, statistics_sweep, weak_rank_bound_experiment
from .signals import RedrawCapExceededError, equivalence_experiment, gap_experiment
from .thresholds import GapThresholds, evaluate_thresholds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BOUNDS_COLUMNS = tuple(f.name for f in fields(GapThresholds)) + ("error",)
EXPERIMENT_KEYS = {
    "gap": {"s", "t", "delta", "pairs", "trials_per_pair"},
    "equivalence": {"s_set", "t_set", "trials"},
    "stats-sweep": {"s_values", "trials_per_s"},
    "weak-rank": {"s", "v_size", "trials"},
}
DICTIONARY_KEYS = {"spikes-sines": {"m"}, "random-unit": {"m", "n_atoms", "seed"},
                   "random-tight": {"m", "n_atoms", "seed"}}
LIST_KEYS = {"s_set", "t_set", "s_values"}   # lists of integers
REAL_KEYS = {"beta", "c_sparsity"}           # any finite number; every other key a nonnegative integer


class ConfigError(ValueError):
    pass


def _check_keys(obj: dict, keys: set, where: str) -> None:
    """ConfigError unless ``obj`` holds every key, each of the type its name calls for (no bools)."""
    missing = keys - set(obj)
    if missing:
        raise ConfigError(f"{where} missing keys: {sorted(missing)}")
    for key in sorted(keys):
        items = obj[key] if key in LIST_KEYS else [obj[key]]
        kinds = (int, float) if key in REAL_KEYS else (int,)
        if not isinstance(items, list) or not all(type(v) in kinds for v in items):
            raise ConfigError(f"{where} key {key!r} has the wrong type: {obj[key]!r}")
        if key not in REAL_KEYS and any(v < 0 for v in items):
            raise ConfigError(f"{where} key {key!r} must not be negative: {obj[key]!r}")
        if key in REAL_KEYS and not all(abs(v) <= sys.float_info.max for v in items):  # NaN fails too
            raise ConfigError(f"{where} key {key!r} must be a finite float: {obj[key]!r}")


def _build_dictionary(spec: dict) -> Dictionary:
    if "path" in spec:
        return load_dictionary(spec["path"])
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DICTIONARY_KEYS:
        raise ConfigError(f"unknown dictionary kind {kind!r}")
    _check_keys(spec, DICTIONARY_KEYS[kind], "dictionary")
    if kind == "spikes-sines":
        return build_spikes_sines(spec["m"])
    build = build_random_unit_norm if kind == "random-unit" else build_random_tight_frame
    return build(spec["m"], spec["n_atoms"], spec["seed"])


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
    if args.out:  # saved first, so a failed save prints no metrics
        save_dictionary(d, args.out)
    _print_metrics(d, args.c)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _bounds_rows(mu: float, m: int, n_atoms: int, s_values, t_fixed, delta: int) -> list[dict]:
    rows = []
    for s in s_values:
        t = s if t_fixed is None else t_fixed
        row = {k: None for k in BOUNDS_COLUMNS}
        row.update({"s": s, "t": t, "delta": delta, "mu": mu, "m": m, "n_atoms": n_atoms})
        if delta > min(s, t):
            row["error"] = "delta exceeds min(s, t)"
        else:
            gt = evaluate_thresholds(s, t, delta, mu, m, n_atoms)
            row.update(gt.to_dict())
        rows.append(row)
    return rows


def _emit(text: str, out) -> None:
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
    rows = _bounds_rows(mu, m, n_atoms, range(args.s_min, args.s_max + 1), args.t, args.delta)
    if args.format == "csv":
        _emit(csv_text(rows, BOUNDS_COLUMNS), args.out)
    else:
        _emit(json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment {name!r}")
    if "dictionary" not in cfg or not isinstance(cfg["dictionary"], dict):
        raise ConfigError("config needs a 'dictionary' object")
    optional = ({"seed"} | REAL_KEYS) & set(cfg)
    _check_keys(cfg, EXPERIMENT_KEYS[name] | optional, f"experiment {name!r}")


def _run_experiment(cfg: dict, seed: int) -> ExperimentReport:
    d = _build_dictionary(cfg["dictionary"])
    name = cfg["experiment"]
    if name == "gap":
        return gap_experiment(d, cfg["s"], cfg["t"], cfg["delta"], cfg["pairs"], cfg["trials_per_pair"], seed)
    if name == "equivalence":
        s_set, t_set = AtomSet.of(cfg["s_set"]), AtomSet.of(cfg["t_set"])
        if max(s_set.indices + t_set.indices, default=-1) >= d.n_atoms:
            raise ConfigError(f"atom indices must be below the {d.n_atoms} atoms of the dictionary")
        return equivalence_experiment(d, s_set, t_set, cfg["trials"], seed)
    if name == "stats-sweep":
        config = SweepConfig(
            s_values=tuple(cfg["s_values"]),
            trials_per_s=cfg["trials_per_s"],
            master_seed=seed,
            beta=float(cfg.get("beta", 1.0)),
            c_sparsity=float(cfg.get("c_sparsity", 1.0)),
        )
        return statistics_sweep(d, config)
    return weak_rank_bound_experiment(d, cfg["s"], cfg["v_size"], cfg["trials"], seed)


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
    if args.format == "both" and not args.out:
        print("error: --format both needs --out", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = json.loads(Path(args.config).read_text())
        _validate_config(cfg)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must not be negative: {args.seed}")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    report = _run_experiment(cfg, seed)
    report.manifest = build_manifest(
        command_line=" ".join(args.argv),
        config={**cfg, "seed": seed},
        provenance=report.params["dictionary"],
        master_seed=seed,
        tool_version=__version__,
    )
    out = args.out and Path(args.out)
    if args.format in ("json", "both"):
        _emit(report.to_json(), out and out.with_suffix(".json"))
    if args.format in ("csv", "both"):
        _emit(report.to_csv(), out and out.with_suffix(".csv"))
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
    except (ValueError, OSError) as exc:  # DictionaryError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RedrawCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
