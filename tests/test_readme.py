"""The README's examples run and print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from hvir.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "16\nReducibleCodimOne\n"


def test_cli_examples_print_what_they_show(capsys):
    # each "$ hvir ..." line of the sh blocks, and the lines shown under it
    blocks = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S))
    examples = re.findall(r"^\$ (hvir .*)\n((?:(?!\$ ).+\n)*)", blocks, re.M)
    assert len(examples) == 6
    for command, shown in examples:
        status = main(shlex.split(command)[1:])
        captured = capsys.readouterr()
        assert (status, captured.err) == (0, ""), command
        if shown:
            assert captured.out == shown, command


def test_caps_table_shows_each_constant():
    # every MAX_* constant is named in a row of the caps table, and each
    # row that names one shows its value
    from hvir import analysis, cli, groups

    constants = {name: value for module in (groups, analysis, cli)
                 for name, value in vars(module).items() if name.startswith("MAX_")}
    section = README.read_text(encoding="utf-8").split("### Caps\n", 1)[1].split("\n\n### ", 1)[0]
    named = set()
    for row in re.findall(r"^\| (?!input |---)(.*) \|$", section, re.M):
        _, cap, _, where = row.split(" | ")
        for name in re.findall(r"MAX_\w+", where):
            named.add(name)
            assert int(re.match(r"[\d ]+", cap).group().replace(" ", "")) == constants[name], row
    assert named == set(constants)
