"""``python -m qhistories``: the command line, also from a checkout."""
from .cli import run

if __name__ == "__main__":
    run()
