"""What `medkit` prints for its help and its usage errors, at COLUMNS=80:
`main([])`, `--help`, and each subcommand with `--help` and bare (its
missing-flag usage error). `test_help_and_usage_errors_match_their_golden`
compares the current parser's output to `cli_help_golden.json` byte for byte.
argparse lays help out differently across Python minors, so the golden records
the minor it was made on and the test skips on any other. To re-record:

    PYTHONPATH=src python tests/cli_help.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from medkit.cli import main

GOLDEN = Path(__file__).with_name("cli_help_golden.json")

COMMANDS = [
    "stats", "clean", "split", "small-sample", "pretrain-encoder", "train-triage",
    "eval-triage", "train-prompt", "eval-prompt", "pretrain-lm", "train-gen",
    "eval-gen", "metrics", "chat",
]


def argvs() -> list[list[str]]:
    return [[], ["--help"]] + [argv for c in COMMANDS for argv in ([c, "--help"], [c])]


def capture() -> list[dict]:
    """Exit code, stdout and stderr of `main` on each of `argvs()`, at COLUMNS=80."""
    rows = []
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for argv in argvs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            rows.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return rows


def python_minor() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


if __name__ == "__main__":
    record = {"python": python_minor(), "runs": capture()}
    GOLDEN.write_text(json.dumps(record, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
