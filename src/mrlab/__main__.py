"""``python -m mrlab``: the same command line as the ``mrlab`` script."""
from .cli import main

main()
