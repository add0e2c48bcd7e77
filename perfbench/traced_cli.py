"""Run ``liftphase.cli.main`` in this fresh interpreter with spans recorded.

    python3 perfbench/traced_cli.py SPANS.json -- experiment paper-1 --out DIR

The process's wall time less the span roots (``startup.import`` and
``cli.main``) is interpreter start-up and exit.
"""

import sys

from tracer import Tracer


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- CLI-ARGS...")
    tracer = Tracer()
    with tracer.span("startup.import"):
        from liftphase import cli
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
