"""Benchmark for fracbesov: the verification suite, single library
evaluations and CLI latency, each checked against independent oracles.

Run ``python3 perfbench/run.py --workload <suite|evals|cli> --seed N
--seconds S --trace <0|1>`` from the repository root; see README.md.
"""
