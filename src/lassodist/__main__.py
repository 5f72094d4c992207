"""`python -m lassodist <subcommand>`: the command-line interface.

The call's engine, named by `lassodist._engine`, is imported here before
the CLI module compiles: for the distribution subcommands, that gives a
lower peak RSS than importing it from `cli.main()`, which the console
script does. `--method` is read from the raw arguments as `cli._parse`
reads a flag, the text after "=" or else the next token.
"""

import sys

from . import _ENGINES, _engine

if __name__ == "__main__":
    argv, method = sys.argv[1:], None
    if argv and argv[0] in _ENGINES:
        tokens = iter(argv[1:])
        for flag, eq, value in (tok.partition("=") for tok in tokens):
            value = value if eq else next(tokens, None)
            method = value if flag == "--method" else method
        # the import statement's path, which -X importtime reports
        __import__(f"{__package__}.{_engine(argv[0], method)}")
    from .cli import entry

    entry()
