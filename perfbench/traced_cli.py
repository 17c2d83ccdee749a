"""Run one coxaffine command with every layer traced, then write its spans.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID <coxaffine arguments...>

Exits with the command's own exit code.  ``run.py`` starts this in place of
``python3 -m coxaffine.cli`` for the traced operations of a ``--trace 1`` run.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from coxaffine import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
