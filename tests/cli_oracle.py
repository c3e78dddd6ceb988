"""A reference for :func:`hhaudit.cli.main`: the command line read by argparse's two-level pass.

:func:`main` joins the tokens as ``cli.main`` did before it handed a command's tokens to that
command's parser, then runs ``_build_parser().parse_args``, the command, ``_render`` and the same
error handling.  For every command line the production ``main`` must give the same exit code,
stdout and stderr.  The one intended difference: this join reads a bare ``--`` as an option that
takes a value, so ``-- -5`` becomes ``--=-5`` and argparse reports an ambiguous option.
"""

from __future__ import annotations

import sys

from hhaudit.cli import _build_parser, _render
from hhaudit.core import ConvergenceError, config_from_env


def main(argv) -> int:
    tokens: list[str] = []
    for token in argv:
        last = tokens[-1] if tokens else ""
        takes_value = last.startswith("--") and "=" not in last and last not in ("--pretty", "--help")
        if takes_value and token.startswith("-") and not token.startswith("--"):
            tokens[-1] = f"{last}={token}"
        else:
            tokens.append(token)
    try:
        args = _build_parser().parse_args(tokens)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = config_from_env()
        doc, code = args.run(args, cfg)
    except (ValueError, ConvergenceError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(doc, args.pretty))
    return code
