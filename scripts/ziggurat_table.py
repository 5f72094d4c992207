"""Extract numpy's ziggurat tables, which `lassodist.rng` commits as bytes.

numpy's `random_standard_normal` (numpy/random/src/distributions) draws from
a 256-strip ziggurat (Marsaglia & Tsang 2000) with three tables of 256
entries: `fi_double` and `wi_double` (float64) and `ki_double` (uint64). A
recurrence in float64, or in 60-digit decimals, misses some of their last
bits, so `lassodist.rng` carries them as the bytes of the installed numpy's
static library `numpy/random/lib/libnpyrandom.a`. There the three arrays lie
back to back: fi, which starts with 1.0 and 0.977101701267671596263, then
wi, then ki, which starts with 0x000EF33D8025EF6A and 0.

    python3 scripts/ziggurat_table.py           # print the literal of lassodist/rng.py
    python3 scripts/ziggurat_table.py --check   # compare it with the committed tables

`--check` exits 1 when the library is missing, holds no such tables, or
differs from the committed bytes.
"""

import argparse
import importlib.util
import struct
import sys
from pathlib import Path

NAMES = ("_FI", "_WI", "_KI")
ENTRIES = 256
HEX_PER_LINE = 96
_FI_START = struct.pack("<2d", 1.0, 0.977101701267671596263)
_KI_START = struct.pack("<2Q", 0x000EF33D8025EF6A, 0)


def library():
    """The path of the installed numpy's libnpyrandom.a (it may not exist)."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        raise SystemExit("numpy is not installed")
    return Path(spec.origin).parent / "random" / "lib" / "libnpyrandom.a"


def extract(data):
    """{name: 2048 bytes} of the fi, wi and ki tables in the library's bytes."""
    start = data.find(_FI_START)
    if start < 0 or data.find(_FI_START, start + 1) >= 0:
        raise ValueError("fi_double not found exactly once")
    size = 8 * ENTRIES
    tables = dict(zip(NAMES, (data[start + t * size:start + (t + 1) * size] for t in range(3))))
    if not tables["_KI"].startswith(_KI_START) or len(tables["_KI"]) != size:
        raise ValueError("ki_double does not follow fi_double and wi_double")
    return tables


def render(tables):
    lines = []
    for name in NAMES:
        text = tables[name].hex()
        lines.append(f"{name} = bytes.fromhex(")
        lines += [f'    "{text[k:k + HEX_PER_LINE]}"' for k in range(0, len(text), HEX_PER_LINE)]
        lines.append(")")
    return "\n".join(lines)


def committed():
    """{name: bytes} of the tables in src/lassodist/rng.py, read without importing it."""
    source = (Path(__file__).resolve().parent.parent / "src" / "lassodist" / "rng.py").read_text()
    tables = {}
    for name in NAMES:
        body = source.split(f"{name} = bytes.fromhex(\n", 1)[1].split("\n)", 1)[0]
        tables[name] = bytes.fromhex("".join(line.strip().strip('"') for line in body.splitlines()))
    return tables


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the tables of lassodist/rng.py; exit 1 on any difference")
    args = ap.parse_args(argv)
    path = library()
    try:
        tables = extract(path.read_bytes())
    except (OSError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    if not args.check:
        print(render(tables))
        return 0
    ours = committed()
    diff = [name for name in NAMES if ours[name] != tables[name]]
    for name in diff:
        print(f"{name}: the committed table differs from {path}")
    print(f"{len(NAMES) - len(diff)} of {len(NAMES)} tables match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
