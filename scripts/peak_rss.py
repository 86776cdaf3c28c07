#!/usr/bin/env python3
"""Run one command and print its peak resident set size.

    python3 scripts/peak_rss.py CMD [ARG...]

Runs CMD to completion, then prints `peak RSS: <MB> MB (<CMD's name>)` on
stdout and exits with CMD's status (128 + N when signal N ended it). The
figure is the largest RSS of CMD or any process it waited for, read from
getrusage(RUSAGE_CHILDREN), so run one command per call.
"""

import os
import resource
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = subprocess.call(sys.argv[1:])
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print("peak RSS: %.1f MB (%s)" % (kib / 1024, os.path.basename(sys.argv[1])),
          flush=True)
    return status if status >= 0 else 128 - status


if __name__ == "__main__":
    sys.exit(main())
