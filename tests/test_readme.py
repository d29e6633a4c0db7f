"""The README's examples, run: every command of its command block exits as its
comment states, every descriptor it shows loads, and every sampler name, option
default and Layout name it quotes is the package's.  Imports no scipy, so the
README's commands are held on numpy alone."""

import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import countbridge
from countbridge import cli
from countbridge.engine import BridgeSpec
from countbridge.intensity import ExpAffine, Tabulated, model_from_dict
from countbridge.verify import BridgeLaw

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


def test_every_sampler_name_the_readme_quotes_is_bridge_laws():
    # the names of both routes, exact and by inversion, and no other
    spec = BridgeSpec(0, 2)
    tabulated = Tabulated([0.0, 1.0], 0, [[1.0, 2.0, 3.0]] * 2)
    named = {BridgeLaw(model, spec).sampler for model in (ExpAffine(1.0, 0.0, 0.0), tabulated)}
    assert set(re.findall(r'`"([a-z]+(?:-[a-z]+)+)"`', README.read_text())) == named


def test_every_default_the_readme_quotes_is_the_option_tables():
    # each "`--flag` (number)" of the README
    quoted = dict(re.findall(r"`(--[a-z-]+)` \(([-+.0-9e]+)\)", README.read_text()))
    assert {"--tol-margin", "--tol-convexity", "--z-max"} <= set(quoted)
    for option in cli._OPTIONS.values():
        if option.flag in quoted:
            assert float(quoted[option.flag]) == option.defaults["verify"], option.flag


def _layout():
    """(module, names) of each row of the README's Layout table that names a package
    module: its backticked Python identifiers, a call's arguments dropped."""
    section = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(countbridge(?:\.\w+)?)` \| (.*) \|$", section, re.M)
    return [(importlib.import_module(module), re.findall(r"`([A-Za-z_]\w*)(?:\([\w, ]*\))?`", cell))
            for module, cell in rows]


def _classes(module):
    return [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]


def test_every_name_the_readme_layout_gives_exists_in_its_module():
    # every module of the package has a row; a name is the row's module's, or of a class
    # it defines, so a deleted function or method cannot linger in the table; a class of
    # another row's module may be named beside them, and `countbridge` is the command
    layout = _layout()
    modules = {f"countbridge.{m.name}" for m in pkgutil.iter_modules(countbridge.__path__)}
    assert {module.__name__ for module, _ in layout} == {"countbridge"} | modules - {"countbridge.__main__"}
    elsewhere = {c.__name__ for module, _ in layout for c in _classes(module)}
    for module, names in layout:
        for name in names:
            assert (hasattr(module, name) or any(hasattr(c, name) for c in _classes(module))
                    or name in elsewhere or name == "countbridge"), (module.__name__, name)
