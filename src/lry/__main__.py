"""``python -m lry``: the same CLI as the ``lry`` script."""

import sys

from . import cli

sys.exit(cli.main())
