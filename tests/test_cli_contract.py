"""The CLI contract: parser surface and exit codes.

``cli_parser.json`` pins every parser the CLI builds — each action's
option strings, dest, default, choices, nargs, metavar, required flag
and help text, plus each parser's ``set_defaults`` values (the command
handler excluded).  The pin is built from the parser's actions, not
from rendered ``--help`` text, so it does not depend on the terminal
width or the Python version.  Regenerate it after a deliberate
interface change with::

    PYTHONPATH=src python tests/test_cli_contract.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PIN = Path(__file__).with_name("cli_parser.json")


def _plain(value):
    """A JSON-comparable form of a parser attribute."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def parser_spec(parser: argparse.ArgumentParser) -> dict:
    """Every action of ``parser`` (and its subparsers), as plain data."""
    default_groups = (parser._positionals, parser._optionals)
    group_of = {
        id(action): group.title
        for group in parser._action_groups
        if group not in default_groups
        for action in group._group_actions
    }
    actions = []
    for action in parser._actions:
        spec = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "action": type(action).__name__,
            "type": getattr(action.type, "__name__", action.type),
            "default": _plain(action.default),
            "nargs": _plain(action.nargs),
            "const": _plain(action.const),
            "metavar": _plain(action.metavar),
            "required": action.required,
            "help": action.help,
            "group": group_of.get(id(action)),
        }
        if isinstance(action, argparse._SubParsersAction):
            spec["choices"] = {
                choice.dest: choice.help for choice in action._choices_actions
            }
            spec["subparsers"] = {
                name: parser_spec(sub) for name, sub in action.choices.items()
            }
        else:
            spec["choices"] = _plain(
                None if action.choices is None else list(action.choices)
            )
        actions.append(spec)
    return {
        "prog": parser.prog,
        "description": parser.description,
        "defaults": {
            key: _plain(value)
            for key, value in sorted(parser._defaults.items())
            if not callable(value)
        },
        "actions": actions,
    }


class TestParserPin:
    def test_parser_matches_the_committed_pin(self):
        expected = json.loads(PIN.read_text())
        actual = json.loads(json.dumps(parser_spec(build_parser())))
        # Dict equality ignores order; ``repro --help`` lists them in order.
        assert list(actual["actions"][-1]["choices"].items()) == list(
            expected["actions"][-1]["choices"].items()
        ), "subcommand list or order changed"
        for name, sub in expected["actions"][-1]["subparsers"].items():
            assert actual["actions"][-1]["subparsers"][name] == sub, name
        assert actual == expected


def _exit_code(argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exit_:
        return exit_.code


def _interrupt_serve(monkeypatch):
    import repro.serve as serve_module

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(serve_module, "serve_spool", interrupted)


TINY = ("--n", "300", "--d", "6", "--clusters", "3",
        "--k", "3", "--l", "3", "--a", "15", "--b", "3")

#: (case id, argv with {tmp} for a fresh directory, setup, exit code).
EXIT_CODES = [
    ("ok-info", ("info",), None, 0),
    ("ok-cluster", ("cluster", *TINY), None, 0),
    ("chaos-violation", ("chaos", *TINY, "--backends", "gpu-fast",
                         "--fault", "oom#100000"), None, 1),
    ("repro-error", ("cluster", "--n", "100", "--k", "200"), None, 2),
    ("os-error", ("cluster", *TINY, "--save-labels",
                  "{tmp}/no/such/dir/x.npy"), None, 2),
    ("os-error-monitor-once", ("monitor", "{tmp}/absent", "--once"),
     None, 2),
    ("argparse-no-subcommand", (), None, 2),
    ("argparse-unknown-experiment", ("bench", "fig99"), None, 2),
    ("argparse-bad-int", ("cluster", "--k", "three"), None, 2),
    ("argparse-bad-choice", ("cluster", "--backend", "nope"), None, 2),
    ("monitor-without-dir", ("monitor",), None, 2),
    ("explain-unknown-workload", ("explain", "--workload", "nope"), None, 2),
    ("serve-zero-devices", ("serve", "{tmp}/spool", "--devices", "0"),
     None, 2),
    ("postmortem-empty-dir", ("postmortem", "{tmp}"), None, 2),
    ("interrupt", ("serve", "{tmp}/spool", "--once"), _interrupt_serve, 130),
]


@pytest.mark.parametrize(
    "argv,setup,expected",
    [case[1:] for case in EXIT_CODES],
    ids=[case[0] for case in EXIT_CODES],
)
def test_exit_code(argv, setup, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if setup is not None:
        setup(monkeypatch)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert _exit_code(argv) == expected
    if expected == 2:
        assert capsys.readouterr().err  # a message, never a silent exit


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    PIN.write_text(json.dumps(parser_spec(build_parser()), indent=1) + "\n")
    print(f"wrote {PIN}")
