"""``python -m steinberg``: the command line, as the installed
``steinberg`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
