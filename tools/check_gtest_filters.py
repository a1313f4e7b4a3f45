#!/usr/bin/env python3
"""Fail when a --gtest_filter pattern in a workflow file selects no test.

    tools/check_gtest_filters.py BUILD_DIR [WORKFLOW]

WORKFLOW defaults to .github/workflows/ci.yml. Every command there that
runs `tests/<binary> ... --gtest_filter='...'` (backslash-continued lines
included) is checked against `BUILD_DIR/tests/<binary> --gtest_list_tests`:
each ':'-separated pattern, positive or negative, must match at least one
test. gtest runs a filter that matches nothing as an empty, passing run,
so a renamed or deleted suite would otherwise drop out of CI silently.
"""

import fnmatch
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = re.compile(r"tests/(\w+)\s[^\n]*?--gtest_filter='([^']*)'")


def listed_tests(binary):
    """Full test names (Suite.Test, parameterized ones with their prefix
    and index) that `binary --gtest_list_tests` prints."""
    out = subprocess.run([str(binary), "--gtest_list_tests"],
                         capture_output=True, text=True, check=True).stdout
    names, suite = [], ""
    for line in out.splitlines():
        if not line.strip():
            continue
        if not line.startswith(" "):
            suite = line.split("#")[0].strip()
        else:
            names.append(suite + line.split("#")[0].strip())
    return names


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    build = Path(sys.argv[1])
    workflow = Path(sys.argv[2]) if len(sys.argv) == 3 else \
        ROOT / ".github" / "workflows" / "ci.yml"
    text = workflow.read_text().replace("\\\n", " ")
    uses = COMMAND.findall(text)
    if not uses:
        sys.exit(f"{workflow}: no --gtest_filter found")
    cache, empty = {}, []
    for binary, flt in uses:
        if binary not in cache:
            cache[binary] = listed_tests(build / "tests" / binary)
        positive, _, negative = flt.partition("-")
        for pattern in [p for p in (positive + ":" + negative).split(":")
                        if p]:
            if not any(fnmatch.fnmatchcase(n, pattern)
                       for n in cache[binary]):
                empty.append(f"{binary} --gtest_filter pattern '{pattern}'")
    for e in empty:
        print(f"selects no test: {e}")
    print(f"{len(uses)} filter(s) over {len(cache)} binaries, "
          f"{len(empty)} empty pattern(s)")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
