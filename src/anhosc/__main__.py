"""``python -m anhosc``: the ``anhosc`` command without an installed script."""

from .cli import app

if __name__ == "__main__":
    app()
