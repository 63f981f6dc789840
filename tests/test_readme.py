"""README.md as a test: its shell examples run, and its module list is complete.

Every line of the README's ``sh`` blocks is taken in order, in one
directory: a ``cat > FILE <<'EOF'`` heredoc writes FILE, a ``sparsegap``
line runs through ``cli.main`` and must exit 0, and a line whose command
is in SKIPPED (installing, running this suite) is left out.  Any other
line fails the test, so the README shows no command this test cannot run.
"""

import collections
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import sparsegap
from sparsegap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SKIPPED = {"pip", "pytest"}
HEREDOC = re.compile(r"cat > (\S+) <<'(\w+)'")


def sh_lines(text: str) -> list[str]:
    """The lines of the ``sh`` fenced blocks of ``text``, in order."""
    return [line for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M) for line in block.splitlines()]


def test_sh_blocks_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(sh_lines(README.read_text()))
    ran = 0
    for line in lines:
        heredoc = HEREDOC.fullmatch(line.strip())
        if heredoc:
            name, end = heredoc.groups()
            body = []
            for body_line in lines:
                if body_line == end:
                    break
                body.append(body_line + "\n")
            else:
                pytest.fail(f"README heredoc {name} has no {end} line")
            (tmp_path / name).write_text("".join(body))
            continue
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] in SKIPPED:
            continue
        if argv[0] != "sparsegap":
            pytest.fail(f"README line this test cannot run: {line!r}")
        code = main(argv[1:])
        assert code == 0, f"{line!r} exited {code}: {capsys.readouterr().err}"
        ran += 1
    assert ran, "README.md has no sparsegap line"


def test_module_list_names_each_module_once():
    section = README.read_text().split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    named = collections.Counter(re.findall(r"`sparsegap\.(\w+)`", "\n".join(bullets)))
    modules = [m.name for m in pkgutil.iter_modules(sparsegap.__path__)]
    assert named == collections.Counter(modules)
    assert len(bullets) == len(modules)  # one line per module
