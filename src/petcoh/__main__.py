"""``python -m petcoh``: the ``petcoh`` command without an installed entry
point."""

import sys

from .cli import main

sys.exit(main())
