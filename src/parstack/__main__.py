"""``python -m parstack``: the ``parstack`` command (parstack.cli.main)."""

import sys

from .cli import main

sys.exit(main())
