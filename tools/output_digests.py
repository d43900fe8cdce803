"""Print a sha256 for each of the package's byte-stable outputs.

Runs `drinfeld_forge.cli.main` in process and prints one `name sha256`
line per output, the digest taken over the text it writes to stdout:

* `build` and `export --what brackets|delta|rmatrix|pairing` on A1-A4,
  B1-B3, C1-C3 and D2-D4, canonical and `mixed:pairs=1-2` where the
  series has at least two Cartan indices;
* `export --what matrices` on A2 at cutoff 3, and on B2;
* `verify --checks all --json` on the same instances and splittings;
* `verify --checks rep,casimir --cutoff 6 --json` on A3, C4, B4 and D5;
* the rendered `DISCREPANCIES.md`.

Two trees give the same lines exactly when these outputs are byte for
byte the same, so comparing the printout of a change with that of its
parent replaces a comparison by hand:

    python3 tools/output_digests.py [source directory] > digests.txt

The source directory, the one that holds `drinfeld_forge`, defaults to
`src` beside this script. Only the standard library is used. The exit
code is 1 if any command exits other than 0, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GRID = ([("A", r) for r in range(1, 5)] + [("B", r) for r in range(1, 4)]
        + [("C", r) for r in range(1, 4)] + [("D", r) for r in range(2, 5)])
EXPORTS = ("brackets", "delta", "rmatrix", "pairing")
REP_GRID = (("A", 3), ("C", 4), ("B", 4), ("D", 5))


def commands():
    """(name, argv) of every CLI output, in print order."""
    for series, rank in GRID:
        # the Cartan count of A_n is n + 1, of the others n
        specs = ["canonical"]
        if rank + (series == "A") >= 2:
            specs.append("mixed:pairs=1-2")
        for spec in specs:
            where = ["--series", series, "--rank", str(rank), "--spec", spec]
            tag = f"{series}{rank}/{spec}"
            yield f"build/{tag}", ["build", *where]
            for what in EXPORTS:
                yield f"export-{what}/{tag}", ["export", *where,
                                               "--what", what]
            yield f"verify-all/{tag}", ["verify", *where, "--checks", "all",
                                        "--json"]
    yield "export-matrices/A2/cutoff3", ["export", "--series", "A", "--rank",
                                         "2", "--what", "matrices",
                                         "--cutoff", "3"]
    yield "export-matrices/B2", ["export", "--series", "B", "--rank", "2",
                                 "--what", "matrices"]
    for series, rank in REP_GRID:
        yield (f"verify-rep,casimir/{series}{rank}",
               ["verify", "--series", series, "--rank", str(rank),
                "--checks", "rep,casimir", "--cutoff", "6", "--json"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else SRC))
    from drinfeld_forge.cli import main as cli_main
    from drinfeld_forge.cocommutator import discrepancy_report_markdown

    failed = 0
    for name, args in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(args)
        if code:
            print(f"error: {name} exited {code}", file=sys.stderr)
            failed += 1
        print(name, digest(out.getvalue()))
    print("DISCREPANCIES.md", digest(discrepancy_report_markdown() + "\n"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
