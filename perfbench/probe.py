"""Set-up cost in a fresh interpreter.

``python3 -m perfbench.probe <suite|evals|cli|import> <seed>`` prints the
seconds the program's set-up took in this process: the import of fracbesov
(numpy and scipy included), plus the construction of the operator handles
for ``evals`` and the parsing of the first command's config for ``cli``.
``import`` times ``import fracbesov.cli`` alone. Input generation is not
counted.
"""

import sys
import time


def main(what: str, seed: int) -> float:
    t0 = time.perf_counter()
    if what == "suite":
        import fracbesov.harness  # noqa: F401
        return time.perf_counter() - t0
    if what == "import":
        import fracbesov.cli  # noqa: F401
        return time.perf_counter() - t0
    if what == "evals":
        import fracbesov  # noqa: F401
        spent = time.perf_counter() - t0
        from perfbench import inputs
        ops = inputs.evals_operators(seed)
        t1 = time.perf_counter()
        for data in ops.values():
            inputs.build_handle(data)
        return spent + time.perf_counter() - t1
    if what == "cli":
        import fracbesov.cli as cli
        spent = time.perf_counter() - t0
        import json
        from perfbench import inputs
        config = json.dumps(inputs.cli_round(seed, 0, inputs.cli_operators(seed))[0].config)
        t1 = time.perf_counter()
        cli.parse_config(config)
        return spent + time.perf_counter() - t1
    raise SystemExit(f"unknown probe {what!r}")


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
