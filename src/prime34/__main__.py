"""``python -m prime34``: the same command line as ``prime34``."""

import sys

from .cli import main

sys.exit(main())
