"""`python -m cfevrp`: the same command line as the `cfevrp` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
