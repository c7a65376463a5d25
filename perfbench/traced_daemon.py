"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/traced_daemon.py SPANS.json serve [flags...]``

The wrappers go in before the CLI builds the ``AssignmentDaemon``; the
spans stay in memory and are written to ``SPANS.json`` once the daemon
has stopped (SIGINT ends it cleanly, as Ctrl-C does).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli  # noqa: F401  (load every importer before wrapping)
    import repro.serve  # noqa: F401

    strategy = argv[argv.index("--strategy") + 1] if "--strategy" in argv else "hta-gre"
    recorder = spans.Recorder()
    spans.install_solver_layers(recorder, strategy)
    spans.install_serve_layers(recorder)
    try:
        code = repro.cli.main(argv)
    finally:
        spans.dump(recorder, out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
