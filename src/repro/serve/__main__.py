"""``python -m repro.serve`` — boot the taxonomy query service.

The same flags as ``repro-taxonomy serve`` (both build them from
:mod:`repro.serve.flags`), except that ``--port`` defaults to 0 here,
an ephemeral port. The listening URL is printed on stdout before the
first accept so callers binding port 0 can discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.flags import add_serve_arguments, server_config
from repro.serve.server import run_server

#: Flags removed with the distributed sweep fabric -> their replacement,
#: as in ``repro.cli``'s table (not imported here: it would slow start-up).
_REMOVED = {"--fabric-workers": "--jobs N on repro-taxonomy costs, dse or faults"}


def main(argv: "list[str] | None" = None) -> int:
    """Parse the ``serve`` flags and serve until signalled."""
    for token in sys.argv[1:] if argv is None else argv:
        name = token.partition("=")[0]
        if name in _REMOVED:
            print(
                f"error: {name} was removed with the distributed sweep fabric; "
                f"use {_REMOVED[name]} for local parallelism",
                file=sys.stderr,
            )
            return 2
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    add_serve_arguments(parser, default_port=0)
    return run_server(server_config(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
