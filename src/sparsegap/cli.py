"""Command-line front end: dictionary construction, threshold tables, experiments.

Exit status contract, which ``main`` returns and never raises: 0 = all
invariants held, 1 = the experiment set its report's ``failed`` (a violation
or an INCONCLUSIVE verdict), or a sampler hit its redraw cap or the tight-frame
builder its iteration cap (one line on stderr, no report), 2 = usage or config
error, argparse's included, or an output file that cannot be written (``dict``
then writes no file).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import __version__, dictionary, random_subsets, signals
from .dictionary import (
    Dictionary,
    is_weakly_incoherent,
    load_dictionary,
    save_dictionary,
    welch_lower_bound,
)
from .manifest import ExperimentReport, build_manifest, csv_text
from .signals import RedrawCapExceededError
from .thresholds import BOUNDS_COLUMNS, evaluate_thresholds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# Each kind's function as (module, name), read when called: a wrapper bound to that name (bench/child.py) is what runs.
EXPERIMENTS = {"gap": (signals, "gap_experiment"), "equivalence": (signals, "equivalence_experiment"),
               "stats-sweep": (random_subsets, "statistics_sweep"),
               "weak-rank": (random_subsets, "weak_rank_bound_experiment")}
DICTIONARIES = {"spikes-sines": (dictionary, "build_spikes_sines"),
                "random-unit": (dictionary, "build_random_unit_norm"),
                "random-tight": (dictionary, "build_random_tight_frame")}
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


def _config_keys(func, obj: dict, skip=()) -> set:
    """Keys ``func`` takes from ``obj``: its parameters without a default (less ``skip``), and any REAL_KEYS set."""
    params = inspect.signature(func).parameters.values()
    return {p.name for p in params if p.default is p.empty or p.name in REAL_KEYS & obj.keys()} - set(skip)


def _build_dictionary(spec: dict) -> Dictionary:
    if "path" in spec:
        return load_dictionary(spec["path"])
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DICTIONARIES:
        raise ConfigError(f"unknown dictionary kind {kind!r}")
    build = getattr(*DICTIONARIES[kind])
    keys = _config_keys(build, spec)
    _check_keys(spec, keys, "dictionary")
    return build(**{k: spec[k] for k in keys})


def _print_metrics(d: Dictionary, c: float, check: dictionary.WeakIncoherenceCheck) -> None:
    print(f"m = {d.m}  N = {d.n_atoms}")
    print(f"coherence mu = {d.coherence:.12g}")
    print(f"redundancy rho = {d.redundancy:.12g}  (N/m = {d.n_atoms / d.m:.12g})")
    print(f"welch bound = {welch_lower_bound(d.m, d.n_atoms):.12g}")
    print(f"weak incoherence (c = {c:g}): tight = {check.tight} "
          f"(margin {check.tight_margin:.3e}), "
          f"coherence <= c/log N = {check.coherent} (margin {check.coherence_margin:.3e})")


def cmd_dict(args) -> int:
    if args.inspect:
        d, out = load_dictionary(args.inspect), None
    elif args.kind:
        d, out = _build_dictionary(vars(args)), args.out  # the builder takes the flags named after its parameters
    else:
        raise ConfigError("--kind is required unless --inspect is given")
    check = is_weakly_incoherent(d, args.c)  # before the save, so a rejected run writes nothing
    if out:  # saved before printing, so a failed save prints no metrics
        save_dictionary(d, out)
    _print_metrics(d, args.c, check)
    if out:
        print(f"wrote {out}")
    return EXIT_OK


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
            raise ConfigError("provide --dict or all of --mu/--m/--n-atoms")
        mu, m, n_atoms = args.mu, args.m, args.n_atoms
    rows = [evaluate_thresholds(s, s if args.t is None else args.t, args.delta, mu, m, n_atoms)
            for s in range(args.s_min, args.s_max + 1)]
    if args.format == "csv":
        _emit(csv_text(rows, BOUNDS_COLUMNS), args.out)
    else:
        _emit(json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    if "dictionary" not in cfg or not isinstance(cfg["dictionary"], dict):
        raise ConfigError("config needs a 'dictionary' object")
    keys = _config_keys(getattr(*EXPERIMENTS[name]), cfg, {"d", "seed"})
    _check_keys(cfg, keys | (({"seed"} | REAL_KEYS) & cfg.keys()), f"experiment {name!r}")


def _run_experiment(cfg: dict, seed: int) -> ExperimentReport:
    d = _build_dictionary(cfg["dictionary"])
    run = getattr(*EXPERIMENTS[cfg["experiment"]])
    return run(d, seed=seed, **{k: cfg[k] for k in _config_keys(run, cfg, {"d", "seed"})})


def cmd_experiment(args) -> int:
    """Run the configured experiment; ``args.argv`` is recorded as the command line."""
    if args.format == "both" and not args.out:
        raise ConfigError("--format both needs --out")
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
    return EXIT_VIOLATION if report.failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsegap", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dict = sub.add_parser("dict", help="construct, save, or inspect a dictionary")
    p_dict.add_argument("--kind", choices=DICTIONARIES)
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
    try:
        args = build_parser().parse_args(argv, namespace=argparse.Namespace(argv=argv))
    except SystemExit as exc:  # argparse has printed its usage error (2), --help or --version (0)
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DictionaryError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RedrawCapExceededError, dictionary.TightFrameConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
