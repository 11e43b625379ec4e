"""Run the bringcover CLI and record every tracked monodromy triple.

Usage: python perfbench/cli_probe.py PERMS_OUT CLI_ARG...

Behaves as ``python -m bringcover.cli CLI_ARG...`` and, after the command
returns, writes the list of ``[steps, pi0, pi1, pi_inf]`` for every triple
the checks tracked to PERMS_OUT.  The recording wrapper adds one list
append per triple, so the run costs the same as the plain CLI.  It exists
because the verify-all report gives cycle types but not the permutations,
and the benchmark gates the permutations bit for bit.
"""

import json
import sys

from bringcover import cli, verify


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    perms_out, cli_args = argv[0], argv[1:]
    tracked = verify.monodromy_triple
    seen = []

    def recording(cfg=None):
        triple = tracked(cfg)
        seen.append([cfg.steps, triple.pi0, triple.pi1, triple.pi_inf])
        return triple

    verify.monodromy_triple = recording
    try:
        code = cli.main(cli_args)
    finally:
        verify.monodromy_triple = tracked
    with open(perms_out, "w", encoding="utf-8") as fh:
        json.dump(seen, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
