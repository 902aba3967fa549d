"""The one command line: every documented invocation parses with its parser."""

import pathlib
import re
import shlex

import pytest

from repro.__main__ import build_parser
from repro.experiments import REGISTRY
from repro.parallel import default_jobs

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documents whose command lines readers and CI copy.
DOCUMENTS = ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml")

#: ``-m repro``, any dotted submodule after it, and the arguments up to a
#: comment, a closing backtick or the end of the line.
INVOCATION = re.compile(r"-m repro(\S*)([^`#\n]*)")


def documented_invocations():
    for name in DOCUMENTS:
        lines = (ROOT / name).read_text(encoding="utf-8").split("\n")
        for number, line in enumerate(lines, start=1):
            follow = number
            while line.endswith("\\") and follow < len(lines):
                line = line[:-1] + lines[follow]
                follow += 1
            for match in INVOCATION.finditer(line):
                yield pytest.param(match.group(1), match.group(2), id=f"{name}:{number}")


@pytest.mark.parametrize("submodule, arguments", documented_invocations())
def test_documented_invocation_parses(submodule, arguments):
    assert submodule == "", f"`python -m repro{submodule}` is not an entry point"
    try:
        args = build_parser().parse_args(shlex.split(arguments))
    except SystemExit as exc:  # --help exits 0; a usage error exits 2
        assert exc.code == 0, f"`python -m repro{arguments}` is a usage error"
        return
    assert set(getattr(args, "experiments", ())) <= set(REGISTRY)


def test_campaign_help_lists_its_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", "--help"])
    assert excinfo.value.code == 0
    assert "{validate,exec,shrink}" in capsys.readouterr().out


def test_every_command_defaults_to_one_worker_per_cpu():
    parser = build_parser()
    for command in (["experiments"], ["campaign"]):
        assert parser.parse_args(command).jobs == default_jobs()


def design_module_map():
    """The ``src/repro``-relative files that DESIGN.md §3's module map names."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("\n## 3.", 1)[1].split("```")[1]
    named, package = set(), ""
    for line in block.split("\n"):
        entry = re.match(r"( {2}| {4})([\w.]+/?)(?=\s|$)", line)
        if entry is None:
            continue  # the root line or a wrapped description
        indent, name = entry.groups()
        if len(indent) == 2 and name.endswith("/"):
            package = name
        else:
            named.add(name if len(indent) == 2 else package + name)
    return named


def test_design_module_map_matches_the_tree():
    package = ROOT / "src" / "repro"
    files = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if path.name != "__init__.py"
    }
    named = design_module_map()
    assert not files - named, f"modules missing from DESIGN.md §3: {sorted(files - named)}"
    assert not named - files, f"DESIGN.md §3 names no such module: {sorted(named - files)}"
