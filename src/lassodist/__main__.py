"""`python -m lassodist <subcommand>`: the command-line interface.

The subcommand's engine, named in `lassodist._ENGINES`, is imported here
before the CLI module compiles: for the distribution subcommands, that
gives a lower peak RSS than importing it from `cli.main()`, which the
console script does.
"""

import sys

from . import _ENGINES

if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] in _ENGINES:
        # the import statement's path, which -X importtime reports
        __import__(f"{__package__}.{_ENGINES[sys.argv[1]]}")
    from .cli import entry

    entry()
