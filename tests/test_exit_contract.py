"""The exit contract over generated inputs: ``cli.main`` returns 0, 1 or 2 and raises nothing.

A run that prints nothing on stderr exits 0 or 1 with its output on stdout; any other run prints nothing on stdout
and exactly one ``error:`` or ``config error:`` line on stderr, or argparse's usage message for a bad flag.  This
suite turns warnings into errors, so a numpy warning on the way counts as an escaped exception.

The inputs are ``experiment`` configs, values of every JSON type in every key, and malformed sgdict-1 files read
by ``dict --inspect``, ``bounds --dict`` and a config's ``{"path": ...}``.  No example asks for an array that is
large but allocatable: counts are at most 3 or at least 2^33 (past ``rng_streams``' 2^32, so refused before any
work), and ``m`` and ``n_atoms`` at most 16 or at least 10^30 (refused by numpy before it allocates).  ``bounds``
takes any ``--s-max``: one above m is refused, and a file that loads holds at most 6 atoms.  Every path lies in the
example's own temporary directory.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegap.cli import main
from sparsegap.dictionary import build_random_unit_norm, save_dictionary

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

COUNTS = st.integers(max_value=3) | st.integers(min_value=2**33)
DIMENSIONS = st.integers(max_value=16) | st.integers(min_value=10**30)
SEEDS = st.integers(max_value=2**200)
FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, 1e-320, 1e308]) | st.floats()
# no "/", "\\" or ".": a string used as a path names a file in the example's directory
TEXT = st.text(st.characters(exclude_characters="/\\.", exclude_categories=()), max_size=6)
JSON = st.recursive(st.none() | st.booleans() | st.integers() | FLOATS | TEXT,
                    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
                    max_leaves=6)
DEPTHS = st.integers(1, 10**5)
NOT_UTF_8 = st.binary(max_size=12).map(lambda b: b"\xff" + b)  # 0xff starts no UTF-8 sequence
KEYS = {
    "gap": {"s": COUNTS, "t": COUNTS, "delta": COUNTS, "pairs": COUNTS, "trials_per_pair": COUNTS},
    "equivalence": {"s_set": st.lists(COUNTS | DIMENSIONS, max_size=3), "t_set": st.lists(COUNTS, max_size=3),
                    "trials": COUNTS},
    "stats-sweep": {"s_values": st.lists(COUNTS, max_size=3), "trials_per_s": COUNTS},
}
KINDS = st.sampled_from(["spikes-sines", "random-unit", "random-tight"]) | JSON


def nested(depth: int, kind: str) -> bytes:
    """JSON text nested ``depth`` levels deep: arrays, or objects each holding the next under "a"."""
    return b"[" * depth + b"]" * depth if kind == "array" else b'{"a": ' * depth + b"0" + b"}" * depth


DEEP = st.builds(nested, DEPTHS, st.sampled_from(["array", "object"]))


@st.composite
def configs(draw, dictionary) -> dict:
    """An experiment config on ``dictionary`` (a spec strategy), some of its keys then dropped or replaced by any
    JSON value, and at times one key that no experiment reads."""
    name = draw(st.sampled_from(sorted(KEYS)))
    cfg = {"experiment": name, "dictionary": draw(dictionary), "seed": draw(SEEDS),
           **{key: draw(values) for key, values in KEYS[name].items()}}
    for key in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del cfg[key]
        else:
            cfg[key] = draw(JSON)
    if draw(st.booleans()):
        cfg[draw(st.sampled_from(["s", "trials", "beta", "kind", "m", "path", ""]))] = draw(JSON)
    return cfg


BUILT = st.fixed_dictionaries({"kind": KINDS, "m": DIMENSIONS},
                              optional={"n_atoms": DIMENSIONS, "seed": SEEDS | JSON, "path": JSON})


def config_bytes(cfg: dict, deep: bytes) -> bytes:
    """``cfg`` as JSON text, its dictionary spec replaced by ``deep`` when that is given."""
    text = json.dumps(cfg).encode()
    if not deep:
        return text
    return text.replace(json.dumps(cfg["dictionary"]).encode(), deep, 1) if "dictionary" in cfg else deep


@st.composite
def sgdict_files(draw, work: Path) -> None:
    """A 2 x 3 random unit-norm dictionary saved as work/d.sgdict, then broken in its metadata or its payload."""
    save_dictionary(build_random_unit_norm(2, 3, seed=draw(st.integers(0, 3))), work / "d.sgdict")
    meta = json.loads((work / "d.sgdict").read_text())
    payload = work / "d.sgdict.bin"
    fault = draw(st.sampled_from(["deep", "not-utf-8", "not-json", "any-json", "field", "shape", "payload", "none"]))
    if fault in ("deep", "not-utf-8", "not-json"):
        text = draw({"deep": DEEP, "not-utf-8": NOT_UTF_8, "not-json": st.binary(max_size=12)}[fault])
        (work / "d.sgdict").write_bytes(text)
    elif fault == "any-json":
        (work / "d.sgdict").write_text(json.dumps(draw(JSON)))
    elif fault in ("field", "shape"):
        keys = sorted(meta) if fault == "field" else ["m", "n_atoms"]
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
            meta[key] = draw(JSON if fault == "field" else DIMENSIONS)
        (work / "d.sgdict").write_text(json.dumps(meta))
    elif fault == "payload":  # any bytes (finite or not, of any scale) of the stored size or one short, or none
        size = draw(st.sampled_from([16 * 2 * 3, 16 * 2 * 3 - 1, None]))
        if size is None:
            payload.unlink()
        else:
            payload.write_bytes(draw(st.binary(min_size=size, max_size=size)))


def check_exit_contract(argv: list[str], work) -> None:
    """``main(argv)``, run in ``work``, keeps the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.chdir(work)
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue().splitlines()
    if not stderr:
        assert code in (0, 1) and stdout, (code, stdout)
        return
    assert code in (1, 2) and stdout == "", (code, stdout, stderr)
    usage = stderr[0].startswith("usage: ") and re.match(r"sparsegap( \w+)?: error: ", stderr[-1])
    assert usage or len(stderr) == 1 and stderr[0].startswith(("error: ", "config error: ")), stderr


@SETTINGS
@given(config=configs(BUILT), deep=st.none() | DEEP, raw=st.none() | NOT_UTF_8)
def test_experiment_configs_keep_the_exit_contract(config, deep, raw):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cfg.json"
        path.write_bytes(raw or config_bytes(config, deep))
        check_exit_contract(["experiment", "--config", str(path)], work)


@SETTINGS
@given(data=st.data(), command=st.sampled_from(["dict", "bounds", "experiment"]))
def test_malformed_sgdict_files_keep_the_exit_contract(data, command):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        data.draw(sgdict_files(work))
        target = str(work / data.draw(st.sampled_from(["d.sgdict", "d.sgdict.bin", "absent.sgdict", "."])))
        if command == "dict":
            argv = ["dict", "--inspect", target]
        elif command == "bounds":
            s_max = data.draw(st.integers().map(str) | st.sampled_from(["x", "1.5", "", str(10**400)]))
            argv = ["bounds", "--dict", target, "--s-max", s_max,
                    *data.draw(st.sampled_from([[], ["--delta", "1"], ["--t", str(2**33)], ["--bogus"]]))]
        else:
            config = data.draw(configs(st.just({"path": target})))
            (work / "cfg.json").write_text(json.dumps(config))
            argv = ["experiment", "--config", str(work / "cfg.json")]
        check_exit_contract(argv, work)
