"""`python -m mcdc`: the same command line as the `mcdc` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
