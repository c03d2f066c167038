"""Time package import and input generation in a fresh process.

Usage: python3 benchmark/setup_probe.py WORKLOAD SEED SRC_DIR
`run.py` starts it several times before its timed passes and reports the
median. Prints one JSON object: {"import_s": ..., "build_s": ..., "probe_s": ...},
where probe_s is the `speed.ascent` probe's mean time over two calls made
right after the build, in this process, to scale the other two by.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, sys.argv[3])
    import xor3sdp  # noqa: F401

    imported = time.perf_counter()
    from workloads import build

    build(name, seed)
    built = time.perf_counter()
    import speed

    probe_s = (speed.ascent() + speed.ascent()) / 2
    sample = {"import_s": imported - START, "build_s": built - imported, "probe_s": probe_s}
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
