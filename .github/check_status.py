"""Check what one CLI command printed, for the scale steps of CI.

    printf '%s\n' "$status" | python .github/check_status.py [IMPORT_LOG]

passes when standard input holds exactly one line, a JSON object with
``"ok": true``, and, given IMPORT_LOG (the command's ``-X importtime``
log), when no line of that log names scipy.  Otherwise it prints what it
found and exits 1.
"""

import json
import sys


def main(argv):
    lines = sys.stdin.read().splitlines()
    if len(lines) != 1 or json.loads(lines[0]).get("ok") is not True:
        sys.exit(f'expected one status line with "ok": true, got {lines!r}')
    for path in argv:
        with open(path) as fh:
            hits = [line for line in fh if "scipy" in line]
        if hits:
            sys.exit(f"{path} names scipy:\n" + "".join(hits))


if __name__ == "__main__":
    main(sys.argv[1:])
