"""The command line's surface, pinned: every option of every subcommand and
the namespaces that argv parses to.

SURFACE keys each subcommand's options by dest, so their order does not
matter; each entry is (option strings, action class, default, required,
choices, nargs, const).  NAMESPACES holds what a minimal argv and an argv
that gives every option parse to, sweeps included.  Both compare by repr, so
1 and 1.0 differ.  A change to the parser's construction that moves a flag,
a default, a choice or a type fails here.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from sdar_glm.cli import build_parser

SURFACE = {
    "fit": {
        "T": (("--T",), "_StoreAction", None, False, None, None, None),
        "data": (("--data",), "_StoreAction", None, True, None, None, None),
        "family": (
            ("--family",), "_StoreAction", None, True, ("logistic", "gaussian"), None, None,
        ),
        "help": (("-h", "--help"), "_HelpAction", "==SUPPRESS==", False, None, 0, None),
        "intercept": (("--intercept",), "_StoreTrueAction", False, False, None, 0, True),
        "max_outer_iters": (("--max-outer-iters",), "_StoreAction", 50, False, None, None, None),
        "n_features": (("--n-features",), "_StoreAction", None, False, None, None, None),
        "output": (("--output",), "_StoreAction", None, False, None, None, None),
        "seed": (("--seed",), "_StoreAction", None, False, None, None, None),
        "standardize": (
            ("--standardize",), "_StoreAction", "none", False,
            ("none", "mean0var1", "length-sqrt-n"), None, None,
        ),
        "tau": (("--tau",), "_StoreAction", 1.0, False, None, None, None),
        "test": (("--test",), "_StoreAction", None, False, None, None, None),
        "train_size": (("--train-size",), "_StoreAction", None, False, None, None, None),
    },
    "path": {
        "Q": (("--Q",), "_StoreAction", None, False, None, None, None),
        "cold_start": (("--cold-start",), "_StoreTrueAction", False, False, None, 0, True),
        "data": (("--data",), "_StoreAction", None, True, None, None, None),
        "family": (
            ("--family",), "_StoreAction", None, True, ("logistic", "gaussian"), None, None,
        ),
        "full_path": (("--full-path",), "_StoreTrueAction", False, False, None, 0, True),
        "help": (("-h", "--help"), "_HelpAction", "==SUPPRESS==", False, None, 0, None),
        "intercept": (("--intercept",), "_StoreTrueAction", False, False, None, 0, True),
        "max_outer_iters": (("--max-outer-iters",), "_StoreAction", 50, False, None, None, None),
        "n_features": (("--n-features",), "_StoreAction", None, False, None, None, None),
        "output": (("--output",), "_StoreAction", None, False, None, None, None),
        "standardize": (
            ("--standardize",), "_StoreAction", "none", False,
            ("none", "mean0var1", "length-sqrt-n"), None, None,
        ),
        "tau": (("--tau",), "_StoreAction", 1.0, False, None, None, None),
        "theta": (("--theta",), "_StoreAction", 1, False, None, None, None),
    },
    "simulate": {
        "K": (("--K",), "_StoreAction", None, True, None, None, None),
        "Q": (("--Q",), "_StoreAction", None, False, None, None, None),
        "R": (("--R",), "_StoreAction", [3.0], False, None, None, None),
        "T": (("--T",), "_StoreAction", None, False, None, None, None),
        "help": (("-h", "--help"), "_HelpAction", "==SUPPRESS==", False, None, 0, None),
        "n": (("--n",), "_StoreAction", None, True, None, None, None),
        "output": (("--output",), "_StoreAction", None, False, None, None, None),
        "p": (("--p",), "_StoreAction", None, True, None, None, None),
        "reps": (("--reps",), "_StoreAction", 100, False, None, None, None),
        "rho": (("--rho",), "_StoreAction", [0.0], False, None, None, None),
        "scheme": (("--scheme",), "_StoreAction", None, True, ("banded", "ar1"), None, None),
        "seed": (("--seed",), "_StoreAction", 0, False, None, None, None),
        "solver": (("--solver",), "_StoreAction", "gsdar", False, ("gsdar", "agsdar"), None, None),
        "split": (("--split",), "_StoreAction", None, False, None, None, None),
        "tau": (("--tau",), "_StoreAction", 1.0, False, None, None, None),
        "theta": (("--theta",), "_StoreAction", 1, False, None, None, None),
    },
}

ARGV = {
    "fit": "fit --family logistic --data d.txt --T 2".split(),
    "path": "path --family gaussian --data d.txt".split(),
    "simulate": "simulate --scheme ar1 --n 50 --p 10:5:20 --K 2:2:6 --rho 0.1:0.2:0.5".split(),
    "fit-all": (
        "fit --family gaussian --data d.txt --n-features 9 --standardize mean0var1 --T 3 "
        "--test u.txt --train-size 20 --seed 11 --tau 0.5 --max-outer-iters 7 --intercept "
        "--output o.txt"
    ).split(),
    "path-all": (
        "path --family logistic --data d.txt --n-features 9 --standardize length-sqrt-n "
        "--theta 2 --Q 8 --cold-start --full-path "
        "--tau 0.5 --max-outer-iters 7 --intercept --output o.txt"
    ).split(),
    "simulate-all": (
        "simulate --scheme banded --n 100:100:300 --p 40 --K 3 --rho 0.5 --R 2:1:4 "
        "--solver agsdar --T 4 --theta 2 --Q 9 --tau 0.5 --split 0.75 --reps 3 --seed 11 "
        "--output o.txt"
    ).split(),
}

NAMESPACES = {
    "fit": {
        "T": 2, "command": "fit", "data": "d.txt", "family": "logistic", "func": "_cmd_fit",
        "intercept": False, "max_outer_iters": 50, "n_features": None, "output": None,
        "seed": None, "standardize": "none", "tau": 1.0, "test": None, "train_size": None,
    },
    "path": {
        "Q": None, "cold_start": False, "command": "path", "data": "d.txt", "family": "gaussian",
        "full_path": False, "func": "_cmd_path", "intercept": False, "max_outer_iters": 50,
        "n_features": None, "output": None, "standardize": "none", "tau": 1.0, "theta": 1,
    },
    "simulate": {
        "K": [2, 4, 6], "Q": None, "R": [3.0], "T": None, "command": "simulate",
        "func": "_cmd_simulate", "n": [50], "output": None, "p": [10, 15, 20], "reps": 100,
        "rho": [0.1, 0.30000000000000004, 0.5], "scheme": "ar1", "seed": 0, "solver": "gsdar",
        "split": None, "tau": 1.0, "theta": 1,
    },
    "fit-all": {
        "T": 3, "command": "fit", "data": "d.txt", "family": "gaussian", "func": "_cmd_fit",
        "intercept": True, "max_outer_iters": 7, "n_features": 9, "output": "o.txt", "seed": 11,
        "standardize": "mean0var1", "tau": 0.5, "test": "u.txt", "train_size": 20,
    },
    "path-all": {
        "Q": 8, "cold_start": True, "command": "path", "data": "d.txt", "family": "logistic",
        "full_path": True, "func": "_cmd_path", "intercept": True, "max_outer_iters": 7,
        "n_features": 9, "output": "o.txt", "standardize": "length-sqrt-n", "tau": 0.5,
        "theta": 2,
    },
    "simulate-all": {
        "K": [3], "Q": 9, "R": [2.0, 3.0, 4.0], "T": 4, "command": "simulate",
        "func": "_cmd_simulate", "n": [100, 200, 300], "output": "o.txt", "p": [40], "reps": 3,
        "rho": [0.5], "scheme": "banded", "seed": 11, "solver": "agsdar", "split": 0.75,
        "tau": 0.5, "theta": 2,
    },
}


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_subcommand_has_the_pinned_options():
    subs = _subparsers(build_parser())
    assert sorted(subs) == sorted(SURFACE)
    for name, sub in subs.items():
        got = {
            a.dest: repr((tuple(a.option_strings), type(a).__name__, a.default, a.required,
                          None if a.choices is None else tuple(a.choices), a.nargs, a.const))
            for a in sub._actions
        }
        assert got == {dest: repr(entry) for dest, entry in SURFACE[name].items()}, name


@pytest.mark.parametrize("name", sorted(ARGV))
def test_argv_parses_to_the_pinned_namespace(name):
    ns = vars(build_parser().parse_args(ARGV[name]))
    ns["func"] = ns["func"].__name__
    assert {k: repr(v) for k, v in ns.items()} == {
        k: repr(v) for k, v in NAMESPACES[name].items()
    }


def _readme_commands():
    """Each `sdar-glm ...` command of README's sh blocks, with lines that end
    in a backslash joined to the next."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sdar-glm "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_every_readme_command_parses():
    commands = _readme_commands()
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)  # a UsageError names the drifted flag
