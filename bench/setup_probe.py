"""Set-up probe, run as a fresh process: import tsoplan and parse inputs.

    python3 bench/setup_probe.py SRC_DIR model:PATH arch:PATH ...

Prints one JSON object with the seconds spent importing the package (numpy
included) and parsing every listed file.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import tsoplan

    imported = time.perf_counter()
    for item in sys.argv[2:]:
        kind, path = item.split(":", 1)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        (tsoplan.parse_model if kind == "model" else tsoplan.parse_arch)(text)
    parsed = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "parse_s": parsed - imported,
        "package": tsoplan.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
