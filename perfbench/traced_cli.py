"""Run the eucbv CLI with the benchmark's span hooks attached.

    python3 perfbench/traced_cli.py SRC_DIR SPANS_DIR run ...

SRC_DIR is the library's source root; SPANS_DIR receives one spans-*.json
file per process.  The remaining arguments go to ``eucbv.cli.main``
unchanged, and the exit code is the CLI's.
"""

import sys


def main() -> int:
    src_dir, spans_dir, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src_dir)
    import tracing

    tracer = tracing.Tracer(spans_dir)
    tracing.install(tracer)
    import eucbv.cli

    try:
        return eucbv.cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
