"""``python -m anomgen``: the ``anomgen`` command line."""

from anomgen.cli import main

if __name__ == "__main__":
    main()
