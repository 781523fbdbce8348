"""``python -m homspace``: the ``homspace`` command."""
import sys

from homspace.cli import main

sys.exit(main())
