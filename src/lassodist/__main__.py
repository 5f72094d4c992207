"""`python -m lassodist <subcommand>`: the command-line interface.

Each CLI handler imports its own engine, so a call loads only that one.
Here the subcommand's engine is imported before the CLI module compiles:
for the distribution subcommands, that gives a lower peak RSS than
importing it from inside the handler.
"""

import sys

# the module each subcommand computes with; tests check it covers every subcommand
ENGINES = {
    "solve": "solver",
    "structural-set": "geometry",
    "selectable": "geometry",
    "check-unique": "geometry",
    "general-position": "geometry",
    "prob-zero": "distribution",
    "orthant-prob": "distribution",
    "cdf": "distribution",
    "density-grid": "distribution",
    "simulate": "simulate",
    "shrinkage-map": "geometry",
}

if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] in ENGINES:
        # the import statement's path, which -X importtime reports
        __import__(f"{__package__}.{ENGINES[sys.argv[1]]}")
    from .cli import entry

    entry()
