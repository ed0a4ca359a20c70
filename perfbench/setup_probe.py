"""Times `import duhamel.cli` and `load_config` in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <config.json>

Prints one JSON object {"import_s": ..., "load_s": ...}.  Refuses to time
an interpreter that already holds numpy, scipy, sympy or duhamel.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    preloaded = sorted(m for m in ("duhamel", "numpy", "scipy", "sympy") if m in sys.modules)
    if preloaded:
        print(f"setup probe: {preloaded} already imported", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    start = perf_counter()
    import duhamel.cli  # noqa: F401
    imported = perf_counter()
    from duhamel.config import load_config

    load_config(config)
    loaded = perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
