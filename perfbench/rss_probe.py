"""Print the peak resident set size, in KiB, of serial extract in a fresh process.

Usage: python3 perfbench/rss_probe.py OBSERVED_DIR SCHEMA_DIR GAZETTEER OUT_RECORDS

The benchmark process also holds the corpus generator and every earlier
command's garbage, so extract's own peak is taken in a process that only
imports migrec, loads the options and extracts.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from corpora import load_options  # noqa: E402
from migrec.cli import EXIT_OK, cmd_extract  # noqa: E402


def main(argv: list[str]) -> int:
    observed, schemas, gazetteer, out = argv
    options = load_options({"schemas": schemas, "gazetteer": gazetteer})
    if cmd_extract(observed, out, options, workers=1, records_format="jsonl") != EXIT_OK:
        return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
