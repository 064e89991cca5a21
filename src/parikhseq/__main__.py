"""Entry point for ``python -m parikhseq``."""

from .cli import run

if __name__ == "__main__":
    run()
