"""`python -m cirmort`: the command-line interface of `cirmort.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
