"""``python -m lobes``: the ``lobes`` command, run from a checkout."""

from .cli import main

if __name__ == "__main__":
    main()
