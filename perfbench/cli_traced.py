"""Run one ``fracbesov`` command with the tracer installed.

``python3 -m perfbench.cli_traced SUMMARY.json -- <fracbesov arguments>``
behaves like ``fracbesov <arguments>`` and also writes the tracer's
summary (self time, calls and counts per module) to SUMMARY.json.
"""

import json
import sys


def main(argv: list[str]) -> int:
    out, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: cli_traced SUMMARY.json -- <fracbesov arguments>")
    import fracbesov.cli as cli
    from perfbench.tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
