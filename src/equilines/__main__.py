"""``python -m equilines``: the ``equilines`` command without installing it."""
from .cli import main

main()
