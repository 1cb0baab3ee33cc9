"""``python -m polybinom``: the `polybinom` command, runnable from a checkout
with ``PYTHONPATH=src``.  `polybinom.cli` does not import this module."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
