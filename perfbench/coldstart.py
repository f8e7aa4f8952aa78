"""Set-up probe run in a fresh interpreter.

Usage: python3 coldstart.py SRC_DIR MANIFEST

Imports pressurelab from SRC_DIR and parses every config the manifest
lists, which is what a CLI call does before its command starts. Prints one
JSON line: ``ready`` is the monotonic clock at that point (the parent
subtracts its spawn time), plus the import and parse times.
"""

import json
import sys
import time


def main() -> None:
    src, manifest = sys.argv[1], sys.argv[2]
    started = time.perf_counter()
    sys.path.insert(0, src)
    from pressurelab import config

    imported = time.perf_counter()
    with open(manifest, encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        with open(op["path"], encoding="utf-8") as fh:
            config.parse_config(fh.read(), op["command"])
    ready = time.perf_counter()
    print(json.dumps({
        "ready": ready,
        "import_s": imported - started,
        "parse_s": ready - imported,
    }))


if __name__ == "__main__":
    main()
