"""`python -m graphlift`: the same commands as the `graphlift` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
