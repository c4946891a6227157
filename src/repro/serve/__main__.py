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

#: Removed flags -> their diagnostic, as in ``repro.cli``'s table (not
#: imported here: it would slow start-up).
_REMOVED = {
    "--fabric-workers": (
        "--fabric-workers was removed with the distributed sweep fabric; "
        "serve prices /v1/survey?costs=true in its own process"
    ),
}


def main(argv: "list[str] | None" = None) -> int:
    """Parse the ``serve`` flags and serve until signalled."""
    for token in sys.argv[1:] if argv is None else argv:
        diagnostic = _REMOVED.get(token.partition("=")[0])
        if diagnostic is not None:
            print(f"error: {diagnostic}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    add_serve_arguments(parser, default_port=0)
    return run_server(server_config(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
