"""The README's examples, run: every command of its command block exits as its
comment states, and every descriptor it shows loads.  Imports no scipy, so the
README's commands are held on numpy alone."""

import json
import re
import shlex
from pathlib import Path

import pytest

from countbridge import cli
from countbridge.intensity import model_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(kind):
    return re.findall(rf"^```{kind}\n(.*?)^```", README.read_text(), re.M | re.S)


def _commands():
    """(comment, argv) of each ``countbridge`` line of the README's sh blocks, its
    continuation lines joined, and the comment line above it."""
    found, comment = [], None
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment = line
            elif line.startswith("countbridge "):
                found.append((comment, shlex.split(line)[1:]))
    return found


COMMANDS = _commands()
DESCRIPTORS = [json.loads(block) for block in _blocks("json")]


def test_the_readme_shows_every_command():
    assert sorted({argv[0] for _, argv in COMMANDS}) == sorted(cli._RUNNERS)


@pytest.mark.parametrize("descriptor", DESCRIPTORS, ids=[d["family"] for d in DESCRIPTORS])
def test_every_descriptor_the_readme_shows_loads(descriptor):
    assert model_from_dict(descriptor).family == descriptor["family"]


@pytest.mark.parametrize("comment, argv", COMMANDS,
                         ids=[f"{argv[0]}-{i}" for i, (_, argv) in enumerate(COMMANDS)])
def test_a_readme_command_exits_as_its_comment_states(tmp_path, monkeypatch, comment, argv):
    # the examples read the README's exp_affine descriptor as model.json
    [model] = [d for d in DESCRIPTORS if d["family"] == "exp_affine"]
    (tmp_path / "model.json").write_text(json.dumps(model))
    monkeypatch.chdir(tmp_path)
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert cli.main(argv) == int(re.search(r"; exit (\d)$", comment).group(1))
