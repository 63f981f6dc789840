"""Command-line front end: dictionary construction, threshold tables, experiments.

``_bind`` binds each config object and ``dict`` flag set once, before anything is computed, to the function that
reads it, whose signature holds every default (``seed`` 0); ``experiment --seed N`` binds as the config's ``seed``.
Every config value is a nonnegative JSON integer, a list of them (LIST_KEYS), or the dictionary's ``path`` string;
a key or flag it does not read, lacks or cannot take is a usage error.  Exit status contract, which ``main``
returns and never raises: 0 = all invariants held, 1 = the experiment set its report's ``failed`` (a violation or
an INCONCLUSIVE verdict), or a sampler hit its redraw cap or the tight-frame builder its iteration cap (one line on
stderr, no report), 2 = usage or config error (argparse's; a config file that cannot be read, decoded, parsed at
any depth or bound), an unwritable output file (``dict`` then writes none), MemoryError, or a number past float range.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

from . import __version__, dictionary, random_subsets, signals
from .dictionary import (
    coherence_constant,
    save_dictionary,
    tightness_margin,
    welch_lower_bound,
)
from .manifest import build_manifest, csv_text
from .signals import RedrawCapExceededError
from .thresholds import BOUNDS_COLUMNS, evaluate_thresholds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# Each kind's function as (module, name), read when bound: a wrapper bound to that name (bench/child.py) is what runs.
EXPERIMENTS = {"gap": (signals, "gap_experiment"), "equivalence": (signals, "equivalence_experiment"),
               "stats-sweep": (random_subsets, "statistics_sweep")}
DICTIONARIES = {"spikes-sines": (dictionary, "build_spikes_sines"),
                "random-unit": (dictionary, "build_random_unit_norm"),
                "random-tight": (dictionary, "build_random_tight_frame")}
LIST_KEYS = {"s_set", "t_set", "s_values"}  # lists of integers


def _bind(func, obj: dict, where: str, passed=()) -> functools.partial:
    """``func`` bound to ``obj``; the caller passes ``passed``, and ``func``'s own defaults fill in the rest.

    ValueError on a key that no other parameter reads, on one without a default that nothing sets, or on a
    value of the wrong type: LIST_KEYS hold lists, and bools are not numbers.
    """
    params = inspect.signature(func).parameters
    names = params.keys() - set(passed)
    if obj.keys() - names:
        raise ValueError(f"{where}: {func.__name__} does not read {sorted(obj.keys() - names)}")
    missing = {k for k in names - obj.keys() if params[k].default is params[k].empty}
    if missing:
        raise ValueError(f"{where} missing keys: {sorted(missing)}")
    for key, value in sorted(obj.items()):
        items = value if key in LIST_KEYS else [value]
        kind = str if key == "path" else int
        if not isinstance(items, list) or not all(type(v) is kind for v in items):
            raise ValueError(f"{where} key {key!r} has the wrong type: {value!r}")
        if kind is int and any(v < 0 for v in items):
            raise ValueError(f"{where} key {key!r} must not be negative: {value!r}")
    return functools.partial(func, **obj)


def _bind_dictionary(spec: dict) -> functools.partial:
    """``load_dictionary`` bound to a ``{"path": ...}`` object, else the builder its ``kind`` names."""
    if "path" in spec:
        return _bind(dictionary.load_dictionary, spec, "dictionary")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if not isinstance(kind, str) or kind not in DICTIONARIES:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    return _bind(getattr(*DICTIONARIES[kind]), spec, "dictionary")


def cmd_dict(args) -> int:
    # the builder reads the flags named after its parameters; load_dictionary reads --inspect alone
    flags = {k: v for k, v in vars(args).items() if k in ("kind", "m", "n_atoms", "seed", "out") and v is not None}
    if args.inspect:
        flags["path"] = args.inspect
    elif not args.kind:
        raise ValueError("--kind is required unless --inspect is given")
    out = None if args.inspect else flags.pop("out", None)
    d = _bind_dictionary(flags)()
    if out:  # saved before printing, so a failed save prints no metrics
        save_dictionary(d, out)
    print(f"m = {d.m}  N = {d.n_atoms}")
    print(f"coherence mu = {d.coherence:.12g}")
    print(f"redundancy rho = {d.redundancy:.12g}  (N/m = {d.n_atoms / d.m:.12g})")
    print(f"welch bound = {welch_lower_bound(d.m, d.n_atoms):.12g}")
    print(f"tightness margin = {tightness_margin(d):.3e}  coherence constant mu log N = {coherence_constant(d):.12g}")
    if out:
        print(f"wrote {out}")
    return EXIT_OK


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_bounds(args) -> int:
    flags = (args.mu, args.m, args.n_atoms)
    if flags.count(None) != (3 if args.dict else 0):
        raise ValueError("provide --dict or all of --mu/--m/--n-atoms, not both")
    d = args.dict and dictionary.load_dictionary(args.dict)
    mu, m, n_atoms = (d.coherence, d.m, d.n_atoms) if d else flags
    if not (1 <= m <= n_atoms and args.s_min <= args.s_max <= m):  # no s > m atoms are independent
        raise ValueError(f"need 1 <= m ({m}) <= n_atoms ({n_atoms}) and s_min ({args.s_min}) <= s_max ({args.s_max})"
                         " <= m")
    rows = [evaluate_thresholds(s, s if args.t is None else args.t, args.delta, mu, m, n_atoms)
            for s in range(args.s_min, args.s_max + 1)]
    if args.format == "csv":
        _emit(csv_text(rows, BOUNDS_COLUMNS), args.out)
    else:
        _emit(json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def bind_config(cfg, seed=None) -> tuple[functools.partial, functools.partial]:
    """Dictionary builder or loader and experiment, each bound to its keys of ``cfg``; ``seed`` replaces cfg's seed."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    rest = dict(cfg) if seed is None else {**cfg, "seed": seed}
    name, spec = rest.pop("experiment", None), rest.pop("dictionary", None)
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    if not isinstance(spec, dict):
        raise ValueError("config needs a 'dictionary' object")
    run = _bind(getattr(*EXPERIMENTS[name]), rest, f"experiment {name!r}", passed=("d",))
    return _bind_dictionary(spec), run


def cmd_experiment(args) -> int:
    """Run the configured experiment, ``--seed`` taken as the config's ``seed``; ``args.argv`` is the command line."""
    if args.format == "both" and not args.out:
        raise ValueError("--format both needs --out")
    try:
        cfg = json.loads(Path(args.config).read_text())
        build, run = bind_config(cfg, args.seed)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: a bad key, JSONDecodeError, UnicodeDecodeError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run(build())
    report.manifest = build_manifest(report, cfg, " ".join(args.argv))
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
    p_dict.add_argument("--seed", type=int, help="for the seeded kinds (default 0)")
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
    except (ValueError, OSError, MemoryError, OverflowError) as exc:  # ValueError: every rejected input
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except (RedrawCapExceededError, dictionary.TightFrameConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
