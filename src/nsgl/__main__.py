"""``python3 -m nsgl``: the ``nsgl`` command line without the installed entry point."""

import sys

from .io_cli import main

if __name__ == "__main__":
    sys.exit(main())
