"""`python -m netgap`: the same command line as the `netgap` console script."""

from .cli import run

if __name__ == "__main__":
    run()
