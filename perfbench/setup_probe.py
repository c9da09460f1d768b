"""Set-up phase of one eucbv run, made through the library's public calls.

    python3 perfbench/setup_probe.py SRC_DIR (--preset NAME | --config PATH)
                                     [--runs N] [--horizon T] [--seed S]

Imports ``eucbv.cli``, builds the experiment spec with ``preset_spec`` or
``load_config`` and calls ``spec.environment()``.  Prints one JSON line with
the import and config times and the library's numpy/scipy versions.  The
benchmark times the whole process, interpreter start included, as setup_s.
"""

import argparse
import json
import platform
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src_dir")
    parser.add_argument("--preset")
    parser.add_argument("--config")
    parser.add_argument("--runs", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    sys.path.insert(0, args.src_dir)

    t0 = time.perf_counter()
    import eucbv.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from eucbv.config import load_config, preset_spec

    if args.config:
        spec = load_config(args.config)
    else:
        spec = preset_spec(args.preset, runs=args.runs, horizon=args.horizon,
                           master_seed=args.seed)
    spec.environment()
    t2 = time.perf_counter()

    import numpy
    import scipy

    print(json.dumps({
        "import_s": t1 - t0,
        "config_s": t2 - t1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
