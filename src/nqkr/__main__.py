"""`python -m nqkr ...` runs the same command-line interface as `nqkr ...`."""

from .cli import main

if __name__ == "__main__":
    main()
