"""``python -m circmix``: the command line, as the ``circmix`` script runs it."""

from .cli import run

if __name__ == "__main__":
    run()
